"""``repro-lint``: whole-program determinism & architecture analysis.

A pluggable static-analysis framework guarding the conventions the
reproduction's guarantees rest on.  Per-module rule families:

* ``determinism/*`` -- no wall-clock reads, no unseeded randomness,
  no iteration over hash/OS-ordered collections without ``sorted``;
* ``layering/*`` -- the package import DAG ``population -> platforms
  -> api -> core -> reporting/experiments`` stays one-directional;
* ``errors/*`` -- no broad excepts, no ``print`` in library code;
* ``obs/*`` -- instrumentation stays routed through its subsystem.

Whole-program rule families run over a linked symbol table and call
graph (:mod:`repro.analysis.graph`) with fixpoint dataflow summaries
(:mod:`repro.analysis.dataflow`):

* ``taint/restricted-flow`` -- sensitive demographic values never
  reach restricted-interface calls outside the audited ``core.audit``
  measurement seam;
* ``errors/transport-escape`` -- only ``platforms.errors`` types can
  escape transport request paths, proven interprocedurally;
* ``determinism/transitive-ambient`` -- public functions transitively
  reaching ambient entropy are flagged with the call chain.

Every entry point runs one pipeline: a per-file pass (parse, module
rules, summary) over each file, then one link of the whole program
and the project rules.  Run it as ``repro-lint src`` (or ``python -m
repro.analysis src``), or import :func:`analyze_paths` /
:func:`analyze_source` directly; ``tests/test_lint_clean.py`` gates
tier-1 on a clean tree.  A ``# repro-lint: disable=<rule>`` comment is
the one way to accept a finding.
"""

from repro.analysis.cli import json_payload, main, select_rules
from repro.analysis.core import (
    AnalysisReport,
    Finding,
    ModuleContext,
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    analyze_paths,
    analyze_project,
    analyze_source,
    module_name_for,
    project_rule,
    register,
    rule,
)
from repro.analysis.dataflow import SummaryProblem, fixpoint
from repro.analysis.graph import ModuleSummary, Project, extract_summary

__all__ = [
    "AnalysisReport",
    "Finding",
    "ModuleContext",
    "ModuleSummary",
    "Project",
    "ProjectRule",
    "Rule",
    "SummaryProblem",
    "all_project_rules",
    "all_rules",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "extract_summary",
    "fixpoint",
    "json_payload",
    "main",
    "module_name_for",
    "project_rule",
    "register",
    "rule",
    "select_rules",
]
