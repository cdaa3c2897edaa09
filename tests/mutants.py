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
_SERVER = "batch-granular server, outputs and wire bytes unchanged"
_CLIENT = "batch-granular client"
_PER_REQUEST = (
    "rule vectors live for one request, composition specs are not memoised"
)
_ROWS = "audit estimates cached per composition row"
_CHECKS = "checks that can fail"
_ONE_COPY = "one copy of every estimate"
_NO_TAINT = "a lint rule no run path can trigger, deleted"
_ONE_MAPPING = "one owner for the wire error contract"

_RULES = "tests/test_analysis_rules.py"
_BASE = "src/repro/platforms/base.py"
_WIRE = "src/repro/api/wire.py"
_ORACLE_SIZES = (
    "tests/test_golden.py::test_every_recorded_size_matches_the_bitset_oracle"
)
_PRIMING = "tests/test_batch_api.py::TestServerPriming"
_PARITY = "tests/test_batch_api.py::TestPerItemErrorParity"
_MIXED_ENVELOPE = (
    "tests/test_batch_api.py::TestEnvelopeCodecs"
    "::test_mixed_envelope_decodes_like_one_item_decodes"
)
_MALFORMED = (
    "tests/test_wire_codecs.py::test_malformed_body_is_a_400_that_spares_its_batch"
)
_PER_REQUEST_TESTS = "tests/test_memory.py::TestPerRequestRuleMemo"
_ORACLE = "tests/test_generator.py::TestBitIdentityOracle"
_AUDIT = "src/repro/core/audit.py"
_CACHE_TESTS = "tests/test_audit_cache.py"
_SENT = f"{_CACHE_TESTS}::test_cache_holds_one_estimate_per_slice_sent"
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
        old="place(index, self._estimates.setdefault(result, result))",
        new="place(index, result)",
        kills=(
            "tests/test_memory.py::TestEstimateValues"
            "::test_equal_cached_estimates_are_one_object",
        ),
        recorded=_MEMORY,
    ),
    Mutant(
        id="single-estimates-not-shared",
        path="src/repro/core/audit.py",
        old="        return self._estimates.setdefault(result, result)\n",
        new="        return result\n",
        kills=(
            "tests/test_memory.py::TestEstimateValues"
            "::test_equal_cached_estimates_are_one_object",
        ),
        recorded=_MEMORY,
    ),
    Mutant(
        id="checkpoint-estimates-not-shared",
        path="src/repro/core/audit.py",
        old="            value = estimates.setdefault(value, value)\n",
        new="",
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
        id="facet-mask-dropped",
        path=_BASE,
        old=(
            "        parts = [union_all(map(self._option_vector, c)) for c in facets]\n"
        ),
        new="        parts = []\n",
        kills=(
            f"{_PRIMING}::test_fold_matches_direct_popcount",
            _ORACLE_SIZES,
        ),
        recorded=_SERVER,
    ),
    Mutant(
        id="mixed-facet-clauses-folded",
        path=_BASE,
        old="""\
            facets = tuple([c for c in clauses if c <= facet_ids])
            if facets:
                rule = tuple([c for c in clauses if not c <= facet_ids])
""",
        new="""\
            facets = tuple([c for c in clauses if c & facet_ids])
            if facets:
                rule = tuple([c for c in clauses if not c & facet_ids])
""",
        kills=(f"{_PRIMING}::test_resolution_memo_shared_across_slices",),
        recorded=_SERVER,
    ),
    Mutant(
        id="fields-checked-before-objective",
        path=_BASE,
        old="""\
            objective = item_options.get("objective") or self.default_objective
            if objective not in self.objectives:
""",
        new="""\
            objective = item_options.get("objective") or self.default_objective
            try:
                self._check_fields(spec)
            except PlatformError as exc:
                results[position] = exc
                continue
            if objective not in self.objectives:
""",
        kills=(
            f"{_PARITY}::test_platform_batch_matches_single_calls"
            "[rejected_objective_and_spec]",
            f"{_PARITY}::test_routes_answer_alike[rejected_objective_and_spec]",
        ),
        recorded=_SERVER,
    ),
    Mutant(
        id="slice-mask-key-without-ages",
        path=_BASE,
        old="""\
        memo = self._mask_memo
        if key in memo:
            return memo[key]
        genders, ages, facets = key
""",
        new="""\
        memo = self._mask_memo
        genders, ages, facets = key
        key = (genders, facets)
        if key in memo:
            return memo[key]
""",
        kills=(_ORACLE_SIZES,),
        recorded=_CLIENT,
    ),
    Mutant(
        id="linkedin-facets-left-out-of-slice",
        path=_BASE,
        old="                return (rule, exclusions), (genders, ages, facets)\n",
        new="                return (rule, exclusions), (genders, ages, ())\n",
        kills=(
            f"{_PRIMING}::test_fold_matches_direct_popcount",
            _ORACLE_SIZES,
        ),
        recorded=_CLIENT,
    ),
    Mutant(
        id="facebook-gender-tokens-swapped",
        path=_WIRE,
        old="_FB_GENDER_DECODE = {v: k for k, v in _FB_GENDER_CODES.items()}\n",
        new="_FB_GENDER_DECODE = {v: k.other for k, v in _FB_GENDER_CODES.items()}\n",
        kills=(_ORACLE_SIZES, f"{_MIXED_ENVELOPE}[facebook]"),
        recorded=_CLIENT,
    ),
    Mutant(
        id="decode-memo-keyed-on-first-code",
        path=_WIRE,
        old="""\
        values = memo.get(raw_key)
        if values is None:
            values = memo[raw_key] = frozenset(map(decode, raw_key))
""",
        new="""\
        values = memo.get(raw_key[:1])
        if values is None:
            values = memo[raw_key[:1]] = frozenset(map(decode, raw_key))
""",
        kills=(f"{_MIXED_ENVELOPE}[facebook]", f"{_MIXED_ENVELOPE}[google]"),
        recorded=_CLIENT,
    ),
    Mutant(
        id="demographic-codes-need-no-array",
        path=_WIRE,
        old="""\
    if type(raw) is not list:
        raise BadRequestError(error)
    try:
        raw_key = key(raw)
""",
        new="""\
    try:
        raw_key = key(raw)
""",
        kills=(f"{_MIXED_ENVELOPE}[facebook]",),
        recorded=_CLIENT,
    ),
    Mutant(
        id="google-decoder-raises-key-error",
        path="src/repro/api/obfuscation.py",
        old="""\
        reverse = self._reverse
        clause_cache = self._clause_cache
""",
        new="""\
        reverse = self._reverse
        if not items:
            raise KeyError("empty batch")
        clause_cache = self._clause_cache
""",
        kills=("tests/test_lint_clean.py::test_src_tree_is_lint_clean",),
        recorded=_CLIENT,
    ),
    Mutant(
        id="rule-memo-kept-across-requests",
        path=_BASE,
        old="        resolved: dict[tuple[object, ...], BitVector] = {}\n",
        # A cross-request memo bounded at 8 MiB of vector words, as the
        # interfaces once kept it.
        new="""\
        resolved = self.__dict__.setdefault("_resolved", {})
        if len(resolved) * self.population.index.everyone.words.size > 1 << 20:
            resolved.clear()
""",
        kills=(
            f"{_PER_REQUEST_TESTS}::test_second_request_resolves_again",
            f"{_PER_REQUEST_TESTS}::test_estimates_equal_per_spec_reference",
            "tests/test_memory.py::test_full_run_peak_rss",
        ),
        recorded=_PER_REQUEST,
    ),
    Mutant(
        id="rule-resolved-per-slice",
        path=_BASE,
        old="                rule = resolved.get(key)\n",
        new="                rule = None\n",
        kills=(
            "tests/test_memory.py::TestFacetFold"
            "::test_linkedin_slices_share_their_rule",
            f"{_PRIMING}::test_resolution_memo_shared_across_slices",
        ),
        recorded=_PER_REQUEST,
    ),
    Mutant(
        id="google-clause-cache-unbounded",
        path="src/repro/api/obfuscation.py",
        old="""\
                            if len(clause_cache) >= CLAUSE_CACHE_LIMIT:
                                clause_cache.clear()
""",
        new="",
        kills=(
            "tests/test_memory.py::TestDecodeClauseCache"
            "::test_google_cache_is_bounded_against_reordered_groups",
        ),
        recorded=_PER_REQUEST,
    ),
    Mutant(
        id="gender-complement-in-side-map",
        path=_AUDIT,
        old="""\
        spec = self.demographic_spec(spec, value, exclude)
        home = self._row_of(spec)
""",
        new="""\
        spec = self.demographic_spec(spec, value, exclude)
        home = None if exclude else self._row_of(spec)
""",
        kills=(
            "tests/test_audit_target.py::TestCachingAndAccounting"
            "::test_gender_complement_reads_the_other_column",
            f"{_SENT}[facebook]",
        ),
        recorded=_ROWS,
    ),
    Mutant(
        id="complete-row-counts-one-hit",
        path=_AUDIT,
        old="                self.cache_hits += width\n",
        new="                self.cache_hits += 1\n",
        kills=(
            f"{_SENT}[google]",
            f"{_SENT}[linkedin]",
        ),
        recorded=_ROWS,
    ),
    Mutant(
        id="preloaded-facet-slice-in-wrong-column",
        path=_AUDIT,
        old="            return type(value), clauses[:-1], int(value)\n",
        new="""\
            return type(value), clauses[:-1], len(type(value)) - 1 - int(value)
""",
        kills=(
            f"{_CACHE_TESTS}::test_checkpoint_round_trip_resends_nothing[linkedin]",
        ),
        recorded=_ROWS,
    ),
    Mutant(
        id="span-per-slice-in-fill",
        path=_AUDIT,
        old="""\
        for spec in specs:
            if validate_client is not None:
""",
        # The cost gate's first mutant put a span in _measure, then
        # called once per slice; _fill now reads a row at a time.  One
        # span per spec instead models 2.9-3.7% of the tiny run's CPU,
        # too near the 3% budget to be killed reliably.
        new="""\
        for spec in specs:
            for _ in columns:
                with self.tracer.span("audit.slice"):
                    pass
            if validate_client is not None:
""",
        kills=(
            "tests/test_obs_overhead.py::test_tracing_cost_model_is_under_three_percent",
        ),
        recorded=_CHECKS,
    ),
    Mutant(
        id="checkpoint-save-skips-unplaced",
        path=_AUDIT,
        old="        yield from self._unplaced\n",
        new="",
        kills=(
            f"{_CACHE_TESTS}"
            "::test_loaded_checkpoint_saved_before_any_read_sends_nothing",
        ),
        recorded=_ONE_COPY,
    ),
    Mutant(
        id="validated-saved-under-measure-key",
        path=_AUDIT,
        old="        if interface_key == self.client.interface_key:\n",
        new="        if interface_key == self.measure_client.interface_key:\n",
        kills=(
            f"{_SENT}[facebook_restricted]",
            f"{_CACHE_TESTS}::test_shared_interface_entries_are_written_once",
        ),
        recorded=_ONE_COPY,
    ),
    Mutant(
        id="row-export-drops-linkedin-facet",
        path=_AUDIT,
        old="""\
            restrictions = [self._restriction([value]) for value in kind]
""",
        new="""\
            restrictions = [self._restriction([value])[:2] + ((),) for value in kind]
""",
        kills=(
            f"{_SENT}[linkedin]",
            f"{_CACHE_TESTS}::test_checkpoint_round_trip_resends_nothing[linkedin]",
        ),
        recorded=_ONE_COPY,
    ),
    # An audit must never send the restricted interface a gender or age
    # slice.  No lint rule sees these two edits: the server refuses the
    # slice, and the kill lists are the tests that notice.
    Mutant(
        id="restricted-target-measured-through-restricted-client",
        path=_AUDIT,
        old="""\
            client=clients["facebook_restricted"],
            measure_client=clients["facebook"],
""",
        new="""\
            client=clients["facebook_restricted"],
            measure_client=clients["facebook_restricted"],
""",
        kills=(f"{_SENT}[facebook_restricted]",),
        recorded=_NO_TAINT,
    ),
    Mutant(
        id="special-ad-size-from-gender-slice",
        path="src/repro/experiments/ext_lookalike.py",
        old="    result.special_ad_size = special.matched_count\n",
        new="""\
    from repro.platforms.targeting import TargetingSpec

    result.special_ad_size = platform.restricted.estimate_reach(
        TargetingSpec.of(special.audience_id).with_gender(Gender.MALE)
    ).estimate
""",
        kills=(
            "tests/test_extensions.py::test_lookalike_run_independent_of_hash_seed",
        ),
        recorded=_NO_TAINT,
    ),
    # errors/transport-escape's justification: no other tier-1 test
    # sends the search route a body without its query.
    Mutant(
        id="search-without-query-raises-key-error",
        path="src/repro/api/routes.py",
        old="""            raise BadRequestError("missing search query 'q'")\n""",
        new="""            raise KeyError("q")\n""",
        kills=("tests/test_lint_clean.py::test_src_tree_is_lint_clean",),
        recorded=_NO_TAINT,
    ),
    # errors/transport-escape sees explicit raises only; the malformed
    # bodies whose code lists hold a wrong type catch this one.
    Mutant(
        id="value-set-lets-type-error-escape",
        path=_WIRE,
        old="""\
            values = memo[raw_key] = frozenset(map(decode, raw_key))
    except (KeyError, TypeError, ValueError):
""",
        new="""\
            values = memo[raw_key] = frozenset(map(decode, raw_key))
    except (KeyError, ValueError):
""",
        kills=(
            f"{_MALFORMED}[facebook-body12]",
            f"{_MALFORMED}[google-body13]",
        ),
        recorded=_ONE_MAPPING,
    ),
    # The one exception-to-wire table: a status change there reaches
    # the transport and the batch routes alike.
    Mutant(
        id="no-size-estimate-answered-400",
        path="src/repro/platforms/errors.py",
        old="        return 422, str(exc), None\n",
        new="        return 400, str(exc), None\n",
        kills=(
            "tests/test_transport.py::TestFakeTransport::test_no_size_maps_to_422",
        ),
        recorded=_ONE_MAPPING,
    ),
)
