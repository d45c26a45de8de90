"""Report rendering: machine-readable rows plus aligned text tables.

``report.rows`` carries one record per line as sorted ``key=value`` pairs and
contains only run-deterministic values (metrics, seeds, virtual durations),
so identical configs reproduce it byte for byte.  ``report.txt`` is the
human rendering and may carry wall-clock timings.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError
from .kvdoc import Scalar, emit_scalar, parse_scalar

Row = dict[str, Scalar]


def _format_value(value: Scalar) -> str:
    """kvdoc's scalar text; a value it would quote has no place in a row."""
    text = emit_scalar(value)
    if text.startswith('"'):
        raise ValueError(f"row values must be bare kvdoc scalars, got {value!r}")
    return text


def render_rows(rows: list[Row]) -> str:
    lines = []
    for row in rows:
        lines.append(" ".join(f"{k}={_format_value(row[k])}" for k in sorted(row)))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_rows(text: str) -> list[Row]:
    """Read rows back with kvdoc's scalar grammar; a bad value is a DocError
    that names its line."""
    rows: list[Row] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = [token.partition("=") for token in line.split()]
        if tokens:
            rows.append({key: parse_scalar(raw, lineno) for key, _, raw in tokens})
    return rows


def _table(header: list[str], body: list[list[str]]) -> str:
    widths = [
        max(len(str(cell)) for cell in column)
        for column in zip(header, *body)
    ]
    def fmt(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(header), rule] + [fmt(row) for row in body])


def metrics_table(rows: list[Row], label_key: str) -> str:
    """Precision/recall/F1 columns per configuration, entity level headline."""
    labels = [str(r[label_key]) for r in rows]
    header = ["metric"] + labels
    body = []
    for metric, key in (
        ("precision", "ent_precision"),
        ("recall", "ent_recall"),
        ("f1", "ent_f1"),
        ("token-f1", "tok_f1"),
    ):
        body.append([metric] + [f"{float(r[key]):.4f}" for r in rows])
    return _table(header, body)


def cross_site_table(rows: list[Row]) -> str:
    header = ["site", "entity-f1", "token-f1", "tp", "fp", "fn"]
    body = []
    for row in rows:
        if row.get("absent"):
            body.append([str(row["site"]), "absent", "-", "-", "-", "-"])
        else:
            body.append([
                str(row["site"]),
                f"{float(row['ent_f1']):.4f}",
                f"{float(row['tok_f1']):.4f}",
                str(row["ent_tp"]), str(row["ent_fp"]), str(row["ent_fn"]),
            ])
    return _table(header, body)


def round_table(rows: list[Row]) -> str:
    header = ["config", "round", "responded", "late", "attempts", "agg-norm", "virtual-ms"]
    body = [
        [
            str(r["config"]), str(r["round"]), str(r["responded"]), str(r["late"]),
            str(r["attempts"]), f"{float(r['aggregate_norm']):.6f}",
            f"{float(r['duration_ms']):.1f}",
        ]
        for r in rows
    ]
    return _table(header, body)


# The fields render_text reads from each row kind; a cross-site row that is
# not absent also carries its scores.
_FIELDS = {
    "config": ("config", "kind", "rounds", "strategy",
               "ent_precision", "ent_recall", "ent_f1", "tok_f1"),
    "cross-site": ("site",),
    "round": ("config", "round", "responded", "late", "attempts", "aggregate_norm",
              "duration_ms"),
}
_SCORES = ("ent_f1", "tok_f1", "ent_tp", "ent_fp", "ent_fn")
# The fields render_text formats as numbers.
_NUMBERS = {"ent_precision", "ent_recall", "ent_f1", "tok_f1", "aggregate_norm", "duration_ms"}


def _check_fields(rows: list[Row]) -> None:
    for n, row in enumerate(rows, start=1):
        kind = row.get("row")
        need = _FIELDS.get(kind, ()) + (() if row.get("absent", True) else _SCORES)
        for key in need:
            if key not in row:
                raise ConfigError(f"report rows: record {n} (row={kind}) has no {key}")
            if key in _NUMBERS and isinstance(row[key], (bool, str)):
                raise ConfigError(f"report rows: record {n} (row={kind}) has a "
                                  f"non-numeric {key}={_format_value(row[key])}")


def render_text(rows: list[Row]) -> str:
    """The tables of ``report.txt``, from ``report.rows`` alone."""
    _check_fields(rows)
    config_rows = [r for r in rows if r.get("row") == "config"]
    fed_rows = [r for r in config_rows if r.get("kind") != "baseline"]
    if not fed_rows:
        raise ConfigError("report rows: no federated configuration row")
    f1s = [float(r["ent_f1"]) for r in fed_rows]
    central = next(
        (float(r["ent_f1"]) for r in config_rows if r.get("kind") == "baseline"), math.nan
    )
    head = fed_rows[0]
    sections = [
        f"federated NER report — experiment kind: {head['kind']}",
        "",
        f"rounds per run: {head['rounds']}   strategy: {head['strategy']}",
        f"entity-F1 spread across configurations: {max(f1s) - min(f1s):.4f}",
        f"federated-vs-centralized entity-F1 delta (worst row): {min(f1s) - central:+.4f}",
        "",
        "== per-configuration metrics (entity level headline) ==",
        metrics_table(config_rows, "config"),
        "",
        "annotation: published full-scale reference band for this task family is",
        "P 0.95-0.97, R 0.97-0.98, F1 0.96-0.97 (not asserted; desk-scale model).",
        "",
        "== cross-site validation ==",
        cross_site_table([r for r in rows if r.get("row") == "cross-site"]),
        "",
        "== rounds ==",
        round_table([r for r in rows if r.get("row") == "round"]),
        "",
    ]
    return "\n".join(sections)


def write_report(out_dir: str | Path, rows: list[Row], text: str) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows_path = out / "report.rows"
    txt_path = out / "report.txt"
    rows_path.write_text(render_rows(rows), encoding="utf-8")
    txt_path.write_text(text, encoding="utf-8")
    return rows_path, txt_path
