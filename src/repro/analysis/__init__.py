"""``repro-lint``: whole-program determinism & architecture analysis.

A pluggable static-analysis framework guarding the conventions the
reproduction's guarantees rest on.  Per-module rule families:

* ``determinism/transitive-ambient`` -- no ambient entropy (wall
  clock, OS entropy, global or unseeded RNGs, salted ``hash()``
  seeds), flagged at each read;
* ``determinism/unordered-iteration`` -- no iteration over
  hash/OS-ordered collections without ``sorted``;
* ``layering/*`` -- the package import DAG ``population -> platforms
  -> api -> core -> reporting/experiments`` stays one-directional;
* ``errors/*`` -- no broad excepts, no ``print`` in library code;
* ``obs/*`` -- instrumentation stays routed through its subsystem.

One whole-program rule runs over a linked symbol table and call
graph (:mod:`repro.analysis.graph`) with escape summaries solved to a
fixpoint (:mod:`repro.analysis.flows`):

* ``errors/transport-escape`` -- only ``platforms.errors`` types can
  escape transport request paths, proven interprocedurally.

Every entry point runs one pipeline: a per-file pass over each file,
then one link of the whole program and the project rules.  The
per-file pass parses the file once and walks it once into a node
index that the module rules share, tokenizes it for suppression
directives only when it mentions ``repro-lint:``, and extracts the
file's summary.  The package imports nothing from the simulator, so
importing it loads neither numpy nor ``repro.{population, platforms,
api, core}``.  Run it as ``repro-lint src`` (or ``python -m
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
from repro.analysis.graph import ModuleSummary, Project, extract_summary

__all__ = [
    "AnalysisReport",
    "Finding",
    "ModuleContext",
    "ModuleSummary",
    "Project",
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "extract_summary",
    "json_payload",
    "main",
    "module_name_for",
    "project_rule",
    "register",
    "rule",
    "select_rules",
]
