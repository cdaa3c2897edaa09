"""Tests for the plain-text rendering helpers."""

from __future__ import annotations


import pytest

from repro.core.stats import BoxStats
from repro.reporting import (
    Table,
    format_count,
    format_percent,
    format_ratio,
    render_box_panel,
    render_box_row,
)


class TestFormatters:
    @pytest.mark.parametrize(
        "value,expected",
        [(12.434, "12.43"), (float("inf"), "inf"), (float("nan"), "-")],
    )
    def test_format_ratio(self, value, expected):
        assert format_ratio(value) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [
            (5_200_000, "5.2M"),
            (1_000_000, "1M"),
            (570_000, "570K"),
            (46_000, "46K"),
            (980, "980"),
            (float("nan"), "-"),
        ],
    )
    def test_format_count(self, value, expected):
        assert format_count(value) == expected

    def test_format_percent(self):
        assert format_percent(0.0417) == "4.17%"
        assert format_percent(0.25, digits=0) == "25%"
        assert format_percent(float("nan")) == "-"


class TestTable:
    def test_alignment(self):
        table = Table(["a", "long header"])
        table.add_row("x", "1")
        table.add_row("longer", "2")
        text = table.render()
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all("  " in line for line in lines[2:])

    def test_row_width_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only one")


class TestBoxPlots:
    def test_row_shows_median_and_whiskers(self):
        box = BoxStats.from_values([0.5, 0.8, 1.0, 1.5, 2.0])
        row = render_box_row("Individual", box)
        assert row.startswith("Individual")
        assert "#" in row and "·" in row
        assert "n=5" in row

    def test_empty_row(self):
        row = render_box_row("X", BoxStats.from_values([]))
        assert "(empty)" in row

    def test_values_clamped_to_axis(self):
        box = BoxStats.from_values([2**-10, 2**10])
        row = render_box_row("extreme", box)
        assert row  # no crash; glyphs land at the axis edges

    def test_panel(self):
        panel = render_box_panel(
            "Title",
            [("A", BoxStats.from_values([1.0, 2.0])), ("B", BoxStats.from_values([]))],
        )
        lines = panel.splitlines()
        assert lines[0] == "Title"
        assert any("^" in line for line in lines)  # axis markers

    def test_median_position_monotone(self):
        """Higher medians render further right."""
        low = render_box_row("l", BoxStats.from_values([0.25] * 5))
        high = render_box_row("h", BoxStats.from_values([4.0] * 5))
        assert low.index("#") < high.index("#")
