import pytest

from fedmesh.kvdoc import DocError
from fedmesh.report import (
    cross_site_table,
    metrics_table,
    parse_rows,
    render_rows,
    round_table,
    write_report,
)

ROWS = [
    {"row": "config", "config": "n2", "ent_f1": 0.9756, "ent_precision": 0.96,
     "ent_recall": 0.98, "tok_f1": 0.98, "seed_data": 1},
    {"row": "config", "config": "n4", "ent_f1": 0.9744, "ent_precision": 0.95,
     "ent_recall": 0.97, "tok_f1": 0.97, "seed_data": 1},
]


class TestRows:
    def test_render_parse_round_trip(self):
        assert parse_rows(render_rows(ROWS)) == ROWS

    def test_keys_sorted_for_determinism(self):
        a = render_rows([{"b": 1, "a": 2}])
        b = render_rows([{"a": 2, "b": 1}])
        assert a == b == "a=2 b=1\n"

    def test_float_full_precision(self):
        value = 0.1234567890123456
        parsed = parse_rows(render_rows([{"x": value}]))
        assert parsed[0]["x"] == value

    def test_bool_and_string_values(self):
        row = {"absent": True, "site": "site-1", "ok": False}
        assert parse_rows(render_rows([row])) == [row]

    def test_spacey_values_rejected(self):
        with pytest.raises(ValueError):
            render_rows([{"x": "two words"}])

    @pytest.mark.parametrize("text", ["true", "false", "1", "0.5", "1e-3", "", "a=b"])
    def test_a_string_that_would_read_back_as_another_value_is_refused(self, text):
        with pytest.raises(ValueError, match="bare kvdoc scalars"):
            render_rows([{"x": text}])

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1.2.3", "two\"quotes"])
    def test_a_value_outside_kvdocs_scalar_grammar_is_refused(self, raw):
        with pytest.raises(DocError, match="line 2"):
            parse_rows(f"x=1\nx={raw}\n")

    def test_empty(self):
        assert render_rows([]) == ""
        assert parse_rows("") == []


class TestTables:
    def test_metrics_table_shape(self):
        table = metrics_table(ROWS, "config")
        lines = table.splitlines()
        assert lines[0].split() == ["metric", "n2", "n4"]
        assert lines[2].startswith("precision")
        assert "0.9756" in table

    def test_cross_site_with_absent_row(self):
        rows = [
            {"site": "a", "absent": False, "ent_f1": 0.5, "tok_f1": 0.6,
             "ent_tp": 1, "ent_fp": 2, "ent_fn": 3},
            {"site": "b", "absent": True},
        ]
        table = cross_site_table(rows)
        assert "absent" in table

    def test_round_table(self):
        rows = [{
            "config": "n2", "round": 1, "responded": 2, "late": 0,
            "attempts": 1, "aggregate_norm": 0.25, "duration_ms": 7.5,
        }]
        assert "0.250000" in round_table(rows)


def test_write_report(tmp_path):
    rows_path, txt_path = write_report(tmp_path, ROWS, "hello\n")
    assert rows_path.read_text().count("\n") == 2
    assert txt_path.read_text() == "hello\n"
