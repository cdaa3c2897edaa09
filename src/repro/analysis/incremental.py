"""Alias of the per-file pass of ``repro-lint`` under its traced name.

``repro-lint`` has one pipeline (:mod:`repro.analysis.core`): each
file goes through :func:`~repro.analysis.core.analyze_file`, then the
results are linked into one project.  This module only keeps the name
the benchmark traces that pass by.
"""

from repro.analysis.core import analyze_file

__all__ = ["extract_record"]

# perfbench/layers.py looks the per-file pass up by this name.
extract_record = analyze_file
