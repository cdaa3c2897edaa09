"""Mutants that the test suite must kill.

Each entry is a small edit of the program that a named check exists to
catch: the exact text it replaces, the text it puts in its place, and
the test node ids that must fail once it is applied.  A refactor that
moves mutated code carries its mutant forward with it, so a check
cannot silently become vacuous.

``tests/test_mutants.py`` checks that each old text occurs exactly once
in the tree (tier-1), and, under ``slow``, that each mutant applied to
a copy of the tree makes every named test fail while the unmutated copy
passes them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Mutant:
    #: Short unique name.
    id: str
    #: File the mutant edits, relative to the repository root.
    path: str
    #: Text replaced; occurs exactly once in ``path``.
    old: str
    #: Text put in its place.
    new: str
    #: Test node ids (from the repository root) that must each fail.
    kills: tuple[str, ...]
    #: Title of the CHANGES.md entry that recorded the mutant.
    recorded: str


_LINT = "cold `repro-lint` in under half the time, with the same findings"
_KERNEL = (
    "BLAS-free sparse loading term in attribute realisation, "
    "with the same memberships"
)
_MEMORY = "server and audit memory sized to the reuse a run has"

_RULES = "tests/test_analysis_rules.py"
_ORACLE = "tests/test_generator.py::TestBitIdentityOracle"
_KERNEL_SOURCE = "src/repro/population/model.py"
_KERNEL_LOOP = """\
            for k in np.flatnonzero(lam):
                if term is None:
                    term = np.multiply(self.factors[k], lam[k], out=self._work)
                else:
                    term += np.multiply(self.factors[k], lam[k], out=self._values)
"""

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        id="seed-walks-direct-children-only",
        path="src/repro/analysis/determinism.py",
        old="""\
                for node in ast.walk(call)
                if type(node) is ast.Call and node is not call
""",
        new="""\
                for node in ast.iter_child_nodes(call)
                if type(node) is ast.Call and node is not call
""",
        kills=(f"{_RULES}::test_salted_hash_two_calls_deep_in_a_seed_positive",),
        recorded=_LINT,
    ),
    Mutant(
        id="tokenize-every-file",
        path="src/repro/analysis/core.py",
        old="""\
    if DIRECTIVE not in source:
        return per_line, file_wide
""",
        new="",
        kills=(f"{_RULES}::test_source_without_directive_is_not_tokenized",),
        recorded=_LINT,
    ),
    Mutant(
        id="node-index-drops-importfrom",
        path="src/repro/analysis/core.py",
        old="if kind is ast.Import or kind is ast.ImportFrom:",
        new="if kind is ast.Import:",
        kills=(
            f"{_RULES}::test_node_index_is_one_walk_of_the_tree[repro/core/audit.py]",
        ),
        recorded=_LINT,
    ),
    Mutant(
        id="loading-term-added-to-cell-one-product-at-a-time",
        path=_KERNEL_SOURCE,
        old="""\
        term = None
        if spec.loadings:
            lam = spec.loading_vector(self.n_factors)
""" + _KERNEL_LOOP + """\
        logits = np.take(
            cell_logits(spec), self.cells, out=self._values, mode="clip"
        )
        if term is not None:
            logits += term
        return logits
""",
        new="""\
        logits = np.take(cell_logits(spec), self.cells, mode="clip")
        if spec.loadings:
            lam = spec.loading_vector(self.n_factors)
            for k in np.flatnonzero(lam):
                logits += self.factors[k] * lam[k]
        return logits
""",
        kills=(f"{_ORACLE}::test_logits_and_probabilities_bitwise_equal",),
        recorded=_KERNEL,
    ),
    Mutant(
        id="loading-term-in-descending-factor-order",
        path=_KERNEL_SOURCE,
        old="            for k in np.flatnonzero(lam):\n",
        new="            for k in np.flatnonzero(lam)[::-1]:\n",
        kills=(f"{_ORACLE}::test_logits_and_probabilities_bitwise_equal",),
        recorded=_KERNEL,
    ),
    Mutant(
        id="loading-term-reads-the-next-factor",
        path=_KERNEL_SOURCE,
        old=_KERNEL_LOOP,
        new=_KERNEL_LOOP.replace(
            "self.factors[k]", "self.factors[(k + 1) % self.n_factors]"
        ),
        kills=(
            f"{_ORACLE}::test_logits_and_probabilities_bitwise_equal",
            f"{_ORACLE}::test_memberships_bitwise_equal",
            "tests/test_generator.py::test_one_loading_logits_equal_gemv",
            "tests/test_generator.py::test_golden_population_digest",
        ),
        recorded=_KERNEL,
    ),
    Mutant(
        id="batch-estimates-not-shared",
        path="src/repro/core/audit.py",
        old="""\
                    result = shard[specs[index]] = self._estimates.setdefault(
                        result, result
                    )
""",
        new="""\
                    result = shard[specs[index]] = result
""",
        kills=(
            "tests/test_memory.py::TestEstimateValues"
            "::test_equal_cached_estimates_are_one_object",
        ),
        recorded=_MEMORY,
    ),
    Mutant(
        id="single-estimates-not-shared",
        path="src/repro/core/audit.py",
        old=(
            "        result = shard[spec] = "
            "self._estimates.setdefault(result, result)\n"
        ),
        new="        result = shard[spec] = result\n",
        kills=(
            "tests/test_memory.py::TestEstimateValues"
            "::test_equal_cached_estimates_are_one_object",
        ),
        recorded=_MEMORY,
    ),
    Mutant(
        id="checkpoint-estimates-not-shared",
        path="src/repro/core/audit.py",
        old="                (spec, estimates.setdefault(value, value))\n",
        new="                (spec, value)\n",
        kills=(
            "tests/test_memory.py::TestEstimateValues"
            "::test_checkpoint_preload_shares_equal_values",
        ),
        recorded=_MEMORY,
    ),
    Mutant(
        id="pii-directory-built-eagerly",
        path="src/repro/platforms/audiences.py",
        old="        self.pii_seed = pii_seed\n",
        new="""\
        self.pii_seed = pii_seed
        self.pii = PiiDirectory(population.n_records, seed=pii_seed)
""",
        kills=(
            "tests/test_memory.py::TestLazyPii"
            "::test_suite_build_makes_no_pii_directory",
        ),
        recorded=_MEMORY,
    ),
    Mutant(
        id="rule-memo-bound-8-mib",
        path="src/repro/platforms/base.py",
        old="_RULE_MEMO_WORDS = 1 << 18\n",
        new="_RULE_MEMO_WORDS = 1 << 20\n",
        kills=("tests/test_memory.py::test_full_run_peak_rss",),
        recorded=_MEMORY,
    ),
)
