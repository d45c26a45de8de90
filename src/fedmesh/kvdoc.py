"""Line-oriented key/value document format used for configs, policies and
control-message payloads.

One format everywhere, so there is exactly one grammar to get right:

    # comment
    rounds = 20
    strategy.kind = fedavg
    train.learning_rate = 0.5
    corpus.train = "data/train.conll"
    experiment.client_counts = [2, 4, 6]
    policy.site-1.masking_enabled = true

Grammar
-------
* A document is a sequence of lines.  Blank lines and lines whose first
  non-space character is ``#`` are ignored.
* Every other line is ``<key-path> = <value>``; a key path is set at most once.
* A key path is one or more segments joined by ``.``; a segment matches
  ``[A-Za-z0-9_-]+``.  Paths address nested mappings.
* A value is one of:
    - an integer (``-?[0-9]+``),
    - a float (anything ``float()`` accepts: ``0.5``, ``1e-5``, ``-3.25``),
    - a boolean literal ``true`` / ``false``,
    - a quoted string (``"..."`` with ``\\"``, ``\\\\``, ``\\n``, ``\\t`` escapes),
    - a bare string matching ``[A-Za-z_][A-Za-z0-9_./:@+-]*`` (and ``/``-joined
      digit forms such as ``90/10``) that is not a boolean or number,
    - a list ``[v1, v2, ...]`` of scalar values (possibly empty).

``parse_doc`` returns nested ``dict``s; ``emit_doc`` writes them back in
canonical form (flattened paths, sorted lexicographically) so that
parse -> emit -> parse is the identity on values.
"""

from __future__ import annotations

import math
import re
from typing import Any

_SEGMENT_RE = re.compile(r"^[A-Za-z0-9_-]+$")
_BARE_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_./:@+-]*$|^[0-9]+(/[0-9]+)+$")
_INT_RE = re.compile(r"^-?[0-9]+$")

Scalar = str | int | float | bool
Value = Scalar | list[Scalar]


class DocError(ValueError):
    """Raised with a line number when a document fails to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_scalar(text: str, lineno: int) -> Scalar:
    """Parse one scalar value; *lineno* labels any DocError."""
    text = text.strip()
    if not text:
        raise DocError("empty value", lineno)
    if text.startswith('"'):
        return _parse_quoted(text, lineno)
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.match(text):
        return int(text)
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            raise DocError(f"non-finite number {text!r}", lineno)
        return value
    if _BARE_RE.match(text):
        return text
    raise DocError(f"unparseable value {text!r}", lineno)


def _parse_quoted(text: str, lineno: int) -> str:
    if len(text) < 2 or not text.endswith('"'):
        raise DocError("unterminated string", lineno)
    body = text[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == '"':
            raise DocError("unescaped quote inside string", lineno)
        if ch == "\\":
            if i + 1 >= len(body):
                raise DocError("dangling escape", lineno)
            esc = body[i + 1]
            mapped = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}.get(esc)
            if mapped is None:
                raise DocError(f"unknown escape \\{esc}", lineno)
            out.append(mapped)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _split_list_items(body: str, lineno: int) -> list[str]:
    # Split on commas that are not inside a quoted string.
    items: list[str] = []
    current: list[str] = []
    in_string = False
    i = 0
    while i < len(body):
        ch = body[i]
        if in_string:
            current.append(ch)
            if ch == "\\" and i + 1 < len(body):
                current.append(body[i + 1])
                i += 1
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
            current.append(ch)
        elif ch == ",":
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    if in_string:
        raise DocError("unterminated string in list", lineno)
    items.append("".join(current))
    return items


def _parse_value(text: str, lineno: int) -> Value:
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise DocError("unterminated list", lineno)
        body = text[1:-1].strip()
        if not body:
            return []
        return [parse_scalar(item, lineno) for item in _split_list_items(body, lineno)]
    return parse_scalar(text, lineno)


def parse_doc(text: str) -> dict[str, Any]:
    """Parse a document into nested dicts, raising DocError with line numbers."""
    root: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DocError("expected 'key = value'", lineno)
        key, _, value_text = line.partition("=")
        path = key.strip().split(".")
        if not path or any(not _SEGMENT_RE.match(seg) for seg in path):
            raise DocError(f"bad key path {key.strip()!r}", lineno)
        value = _parse_value(value_text, lineno)
        node = root
        for seg in path[:-1]:
            child = node.get(seg)
            if child is None:
                child = {}
                node[seg] = child
            elif not isinstance(child, dict):
                raise DocError(f"key {seg!r} is both a value and a section", lineno)
            node = child
        leaf = path[-1]
        if isinstance(node.get(leaf), dict):
            raise DocError(f"key {leaf!r} is both a value and a section", lineno)
        if leaf in node:
            raise DocError(f"key {key.strip()!r} is set twice", lineno)
        node[leaf] = value
    return root


def emit_scalar(value: Scalar) -> str:
    """Render one scalar so that parse_scalar reads it back unchanged."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot emit non-finite float {value!r}")
        text = repr(value)
        # Keep floats distinguishable from ints on re-parse.
        if _INT_RE.match(text):
            text += ".0"
        return text
    if isinstance(value, str):
        if _BARE_RE.match(value) and value not in ("true", "false") and not _looks_numeric(value):
            return value
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'
    raise TypeError(f"unsupported scalar type {type(value).__name__}")


def _looks_numeric(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _emit_value(value: Value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(emit_scalar(v) for v in value) + "]"
    return emit_scalar(value)


def flatten(tree: dict[str, Any], prefix: str = "") -> dict[str, Value]:
    """Flatten nested dicts into {dotted.path: value}."""
    flat: dict[str, Value] = {}
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(flatten(value, path))
        else:
            flat[path] = value
    return flat


def emit_doc(tree: dict[str, Any]) -> str:
    """Emit nested dicts canonically: flattened, sorted, one pair per line."""
    lines = [f"{path} = {_emit_value(value)}" for path, value in sorted(flatten(tree).items())]
    return "\n".join(lines) + ("\n" if lines else "")
