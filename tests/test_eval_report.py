"""Tests for report-table formatting."""

from repro.eval.report import format_table


class TestFormatTable:
    def test_basic_layout(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["xxx", 3.25]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "-+-" in lines[1]
        assert "2.500" in lines[2]
        assert "xxx" in lines[3]

    def test_title(self):
        out = format_table(["a"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_column_widths_fit_content(self):
        out = format_table(["x"], [["a-very-long-cell"]])
        header, sep, row = out.splitlines()
        assert len(header) == len(row)

    def test_custom_float_format(self):
        out = format_table(["v"], [[1.23456]], float_format="{:.1f}")
        assert "1.2" in out
        assert "1.23" not in out

