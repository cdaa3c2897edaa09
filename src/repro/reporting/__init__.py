"""Plain-text rendering of experiment results.

The paper communicates through box plots, line plots, and tables; the
reproduction renders the same artifacts as ASCII for terminals and
logs.
"""

from repro.reporting.boxplot import render_box_panel, render_box_row
from repro.reporting.tables import Table, format_count, format_percent, format_ratio

__all__ = [
    "Table",
    "format_count",
    "format_percent",
    "format_ratio",
    "render_box_panel",
    "render_box_row",
]
