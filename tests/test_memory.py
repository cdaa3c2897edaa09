"""Memory bounds of the server-side caches and the audit's state.

Every interface resolves a rule to its bit vector once per request and
keeps no vector past it; the key leaves out LinkedIn's demographic
facet clauses, so the slices of one rule in a request share one vector.
The Google decoder's clause cache is bounded however a client orders
its criteria.  One-option clauses are interned, so the specs of an
audit share them instead of each holding its own.  Specs and clauses
are plain tuples and frozensets without a per-instance dict, and every
audit record of a target shares one read-only map of base sizes.  Equal
cached estimates share one int object, and a platform builds its PII
directory only when a custom audience needs it.  None of this may
change a single estimate.
"""

from __future__ import annotations

import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import obfuscation
from repro.api.obfuscation import GoogleWireCodec
from repro.api.wire import FacebookWireCodec, LinkedInWireCodec
from repro.core.audit import build_audit_targets
from repro.core.checkpoint import EstimateCheckpoint
from repro.platforms import build_platform_suite
from repro.platforms.facebook import (
    FacebookNormalInterface,
    FacebookRestrictedInterface,
)
from repro.platforms.linkedin import LinkedInInterface
from repro.platforms.targeting import Clause, TargetingSpec
from repro.population.demographics import SENSITIVE_ATTRIBUTES, AgeRange, Gender
from repro.population.pii import PiiDirectory
from tests.checkpoints import write_checkpoint

SRC = Path(__file__).resolve().parent.parent / "src"


def _sliced(rules, slices):
    """Every rule under every slice, rule by rule."""
    return [restrict(rule) for rule in rules for restrict in slices]


class TestPerRequestRuleMemo:
    """Rule vectors are shared within one request and kept no longer."""

    def test_second_request_resolves_again(self, fb_platform):
        population, build = fb_platform.population, fb_platform.build
        interface = FacebookRestrictedInterface(population, build)
        ids = interface.study_option_ids()[:6]
        pairs = [TargetingSpec.of(a, b) for a in ids for b in ids if a < b]
        items = [(spec, {}) for spec in pairs + pairs]
        first = interface.estimate_batch(items)
        assert interface.resolution_stats() == {
            "hits": len(pairs), "misses": len(pairs),
        }
        assert interface.estimate_batch(items) == first
        assert interface.resolution_stats() == {
            "hits": 2 * len(pairs), "misses": 2 * len(pairs),
        }
        # A re-registered audience is read afresh by the next request.
        index = interface.population.index
        spec = TargetingSpec.of("audience:probe", ids[1])
        interface.register_audience("audience:probe", index.attribute(ids[0]))
        [narrow] = interface.estimate_batch([(spec, {})])
        interface.register_audience("audience:probe", index.everyone)
        [wide] = interface.estimate_batch([(spec, {})])
        assert (narrow, wide) == tuple(
            interface.estimate_reach(TargetingSpec.of(*options)).estimate
            for options in (ids[:2], ids[1:2])
        )

    def test_estimates_equal_per_spec_reference(self, fb_platform):
        population, build = fb_platform.population, fb_platform.build
        interface = FacebookNormalInterface(population, build)
        reference = FacebookNormalInterface(population, build)
        ids = interface.study_option_ids()[:5]
        rules = [TargetingSpec.of(a) for a in ids] + [
            TargetingSpec.of(a, b) for a in ids for b in ids if a < b
        ]
        slices = [lambda spec: spec] + [
            lambda spec, g=g: spec.with_gender(g) for g in Gender
        ] + [lambda spec, a=a: spec.with_age(a) for a in list(AgeRange)[:2]]
        specs = _sliced(rules, slices)
        misses = 0
        for start in range(0, len(specs), 16):
            chunk = specs[start:start + 16]
            estimates = interface.estimate_batch([(spec, {}) for spec in chunk])
            assert estimates == [
                reference.estimate_reach(spec).estimate for spec in chunk
            ]
            misses += len({spec.rule for spec in chunk})
        assert interface.resolution_stats() == {
            "hits": len(specs) - misses, "misses": misses,
        }


class TestFacetFold:
    def test_linkedin_slices_share_their_rule(self, linkedin_platform):
        """One rule resolution per LinkedIn rule and call, not per slice.

        The audit ANDs a gender or age facet clause into each rule; the
        clause folds into the slice's mask, so every slice of a rule in
        one request, and its unsliced total, reuses one rule vector.
        """
        interface = LinkedInInterface(
            linkedin_platform.population, linkedin_platform.build
        )
        ids = interface.study_option_ids()
        facets = [
            e.option_id for e in interface.catalog if e.demographic_value is not None
        ]
        rules = [TargetingSpec.of(a) for a in ids[:4]] + [
            TargetingSpec.of(a, b) for a in ids[:4] for b in ids[4:8]
        ]
        slices = [lambda spec: spec] + [
            lambda spec, f=f: spec.and_option(f) for f in facets
        ] + [lambda spec: spec.and_clause(facets[-2:])]
        specs = _sliced(rules, slices)
        counts = interface.prime_counts(specs)
        assert interface.resolution_stats() == {
            "hits": len(specs) - len(rules), "misses": len(rules),
        }
        assert interface.prime_counts(specs) == counts
        assert interface.resolution_stats()["misses"] == 2 * len(rules)


OPTIONS = ["fb:a", "fb:b", "fb:c"]


class TestClauseInterning:
    def test_spec_builders_share_single_clauses(self):
        clause = Clause.single("fb:a")
        assert TargetingSpec.of("fb:a", "fb:b").clauses[0] is clause
        assert TargetingSpec.everyone().and_option("fb:a").clauses[0] is clause
        assert TargetingSpec.everyone().and_clause(["fb:a"]).clauses[0] is clause
        assert TargetingSpec.of("fb:b").and_clause({"fb:a"}).clauses[1] is clause

    def test_multi_option_clauses_are_not_single(self):
        spec = TargetingSpec.everyone().and_clause(["fb:a", "fb:b"])
        assert spec.clauses[0] == Clause(["fb:b", "fb:a"])
        assert len(spec.clauses[0]) == 2

    def test_equality_hash_and_pickle_unchanged(self):
        clause = Clause.single("fb:a")
        assert clause == Clause(["fb:a"])
        assert hash(clause) == hash(Clause(["fb:a"]))
        back = pickle.loads(pickle.dumps(clause))
        assert back == clause and hash(back) == hash(clause)
        spec = TargetingSpec.of("fb:a", "fb:b").with_gender(Gender.MALE)
        assert spec == TargetingSpec(
            genders={Gender.MALE}, clauses=(Clause(["fb:a"]), Clause(["fb:b"]))
        )
        assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize("bad", [1, "", None])
    def test_invalid_ids_raise_and_are_not_interned(self, bad):
        from repro.platforms.targeting import _SINGLE_CLAUSES

        with pytest.raises(TypeError):
            Clause([bad])
        with pytest.raises(TypeError):
            Clause.single(bad)
        with pytest.raises(TypeError):
            TargetingSpec.of(bad)
        assert bad not in _SINGLE_CLAUSES

    def test_facebook_decoder_interns(self):
        spec = TargetingSpec.of(*OPTIONS).with_age(AgeRange.AGE_18_24)
        [(decoded, _)] = FacebookWireCodec.decode_batch(
            FacebookWireCodec.encode_batch([spec], "Reach")
        )
        assert decoded == spec
        for ours, theirs in zip(spec.clauses, decoded.clauses):
            assert theirs is ours

    def test_linkedin_decoder_interns(self):
        spec = TargetingSpec.of(*OPTIONS)
        [(decoded, _)] = LinkedInWireCodec.decode_batch(
            LinkedInWireCodec.encode_batch([spec])
        )
        assert decoded == spec
        for ours, theirs in zip(spec.clauses, decoded.clauses):
            assert theirs is ours

    def test_google_decoder_interns(self):
        codec = GoogleWireCodec(OPTIONS)
        spec = TargetingSpec.of(*OPTIONS).with_gender(Gender.FEMALE)
        [(decoded, _)] = codec.decode_batch(
            codec.encode_batch([spec], {o: "audiences" for o in OPTIONS})
        )
        assert decoded == spec
        for clause in decoded.clauses:
            assert clause is Clause.single(next(iter(clause.options)))

    def test_checkpoint_load_interns(self, tmp_path):
        spec = TargetingSpec.of(*OPTIONS).with_age(AgeRange.AGE_55_PLUS)
        path = write_checkpoint(tmp_path / "run.ckpt.json", [("facebook", spec, 1234)])
        loaded = EstimateCheckpoint(path)
        [(back, estimate)] = loaded.shard("facebook").items()
        assert back == spec and estimate == 1234
        for ours, theirs in zip(spec.clauses, back.clauses):
            assert theirs is ours


class TestDecodeClauseCache:
    def test_google_cache_is_bounded_against_reordered_groups(self, monkeypatch):
        """Any ordering of known criterion ids is a fresh cache key, so
        the Google decoder's clause cache starts over at its limit."""
        monkeypatch.setattr(obfuscation, "CLAUSE_CACHE_LIMIT", 4)
        ids = [f"x:feat:opt-{i}" for i in range(4)]
        codec = GoogleWireCodec(ids)
        spec = TargetingSpec.and_of_ors([ids])
        [body] = codec.encode_batch([spec], dict.fromkeys(ids, "audiences"))
        [(feature, [group])] = body["4"].items()
        for order in itertools.permutations(group):
            reordered = {**body, "4": {feature: [list(order)]}}
            [(decoded, _)] = codec.decode_batch([reordered])
            assert decoded == spec
            assert len(codec._clause_cache) <= 4


class TestCompactAuditState:
    def test_specs_and_clauses_have_no_instance_dict(self):
        spec = TargetingSpec.of("fb:a", "fb:b").with_age(AgeRange.AGE_18_24)
        assert not hasattr(spec, "__dict__")
        assert not hasattr(spec.clauses[0], "__dict__")
        assert not hasattr(Clause(["fb:a", "fb:b"]), "__dict__")

    def test_equal_specs_from_different_builders_hash_equal(self):
        built = [
            TargetingSpec.of("fb:a", "fb:b").with_gender(Gender.FEMALE),
            TargetingSpec.everyone()
            .and_option("fb:a")
            .and_clause(["fb:b"])
            .with_gender(Gender.FEMALE),
            TargetingSpec(
                genders=[Gender.FEMALE],
                clauses=[Clause(["fb:a"]), Clause.single("fb:b")],
                exclusions=[],
            ),
            TargetingSpec.and_of_ors([["fb:a"], ["fb:b"]]).with_gender(
                Gender.FEMALE
            ),
            pickle.loads(
                pickle.dumps(TargetingSpec.of("fb:a", "fb:b").with_gender(
                    Gender.FEMALE
                ))
            ),
        ]
        for spec in built[1:]:
            assert spec == built[0]
            assert hash(spec) == hash(built[0])
            assert spec.rule == built[0].rule
        assert len(set(built)) == 1

    def test_records_share_one_read_only_bases_map(self, session_small):
        target = build_audit_targets(session_small.clients)["facebook"]
        attribute = SENSITIVE_ATTRIBUTES["gender"]
        ids = target.study_option_ids()[:4]
        batch = target.audit_many([(o,) for o in ids], attribute)
        records = [*batch.audits, target.audit(ids[:2], attribute)]
        shared = batch.bases
        assert all(record.bases is shared for record in records)
        with pytest.raises(TypeError):
            shared[Gender.MALE] = 0  # type: ignore[index]
        fresh = target.base_sizes(attribute)
        assert type(fresh) is dict and fresh == shared
        fresh[Gender.MALE] = 0
        assert target.base_sizes(attribute) == shared != fresh


def _one_object_per_value(values) -> bool:
    """Whether equal values in ``values`` are all one object."""
    return len({id(v) for v in values}) == len(set(values))


class TestEstimateValues:
    def test_equal_cached_estimates_are_one_object(self, session_small):
        target = build_audit_targets(session_small.clients)["facebook"]
        sent = EstimateCheckpoint()
        target.attach_checkpoint(sent)
        ids = target.study_option_ids()[:8]
        pairs = [(a, b) for a in ids for b in ids if a < b]
        # Single requests (one per size) first, then batches.
        for options in pairs[:6]:
            target.audit(options, SENSITIVE_ATTRIBUTES["gender"])
        for name in ("gender", "age"):
            target.audit_many([(a,) for a in ids] + pairs, SENSITIVE_ATTRIBUTES[name])
        values = target.cached_estimates()
        # CPython shares only the ints up to 256, so these would each
        # be their own object.
        assert len([v for v in values if v > 256]) > len(set(values))
        assert _one_object_per_value(values)
        # Sharing changes no value: the cache holds one estimate per
        # spec sent, each equal to a fresh single estimate of it.
        clients = {c.interface_key: c for c in (target.client, target.measure_client)}
        entries = [
            (clients[key], spec, estimate)
            for key in clients
            for spec, estimate in sent.shard(key).items()
        ]
        assert sorted(values) == sorted(estimate for _, _, estimate in entries)
        assert all(client.estimate(spec) == n for client, spec, n in entries)

    def test_checkpoint_preload_shares_equal_values(self, session_small, tmp_path):
        path = write_checkpoint(
            tmp_path / "run.ckpt.json",
            [
                ("facebook", TargetingSpec.of(option_id).with_age(age), 1000 + index % 2)
                for index, age in enumerate(AgeRange)
                for option_id in OPTIONS
            ],
        )
        target = build_audit_targets(session_small.clients)["facebook"]
        target.attach_checkpoint(EstimateCheckpoint(path))
        values = target.cached_estimates()
        assert len(values) == len(AgeRange) * len(OPTIONS)
        assert set(values) == {1000, 1001}
        assert _one_object_per_value(values)


class TestLazyPii:
    def test_suite_build_makes_no_pii_directory(self):
        suite = build_platform_suite(n_records=2_000, seed=1)
        for platform in (suite.facebook, suite.google, suite.linkedin):
            service = platform.audiences
            assert "pii" not in vars(service)
            expected = PiiDirectory(service.population.n_records, service.pii_seed)
            assert list(service.pii.records(range(50))) == list(
                expected.records(range(50))
            )
            assert "pii" in vars(service)
            assert service.pii is service.pii


#: ``ru_maxrss`` of ``--only fig6`` at 100k records and 100 compositions
#: on a 2-CPU Linux container: about 596 MB with an entry-capped memo,
#: about 220 MB with an 8 MiB word bound, 185.4 MB as later changes left
#: it, 152.4-152.6 MB with a 2 MiB bound, shared estimate values and
#: PII built on first use (174.2 MB with those but the 8 MiB bound),
#: 149.3-149.6 MB with rule vectors kept for one request only, and
#: 142.7-142.8 MB with estimates cached per composition row.  The bound
#: is the last reading plus 9%, as for the full run.
_FIG6_RSS_LIMIT_MB = 155


#: ``ru_maxrss`` of the ``results_full_run.txt`` configuration on a
#: 2-CPU Linux container: about 382 MB with dataclass specs, a
#: ``(spec, attribute)``-keyed slice memo and a ``bases`` copy per
#: record; 310.9-311.8 MB (as this test measures it) with tuple specs,
#: per-attribute slice tuples and one shared ``bases`` map; 283.9-284.3 MB
#: with columnar composition sets (one size matrix per set instead of a
#: record per composition); 268.4-268.5 MB as later changes left it;
#: 226.3-227.2 MB with a 2 MiB rule-memo bound (8 MiB before), one int
#: object per distinct cached estimate and PII built on first use;
#: 205.5-205.6 MB with rule vectors kept for one request only and no
#: composition-spec memo (the tree with the 2 MiB cross-request memo and
#: the spec memo reads 226.3-227.1 MB); 173.4 MB with estimates cached
#: per composition row instead of per slice spec.  The bound is the last
#: plus 9%, as before; the per-slice-spec cache reads 205.4 MB and fails it.
_FULL_RUN_RSS_LIMIT_MB = 188

#: ``ru_maxrss`` of the same configuration with ``--checkpoint``, as
#: ``test_checkpointed_full_run_and_resume_peak_rss`` measures it, on a
#: 2-CPU Linux container: 549.4 MB for a fresh run and 771.8 MB for its
#: resume while the store mirrored every estimate and built the whole
#: file in memory; 173.1 MB and 246.5 MB with the store writing the
#: audit caches out one line at a time.  Each bound is its last reading
#: plus 9%, as for the run without a checkpoint.
_CHECKPOINT_RUN_RSS_LIMIT_MB = 189
_RESUMED_RUN_RSS_LIMIT_MB = 269

#: Runs the audit CLI (arguments from ``sys.argv``) as its only child
#: and prints that child's peak RSS.  ``RUSAGE_CHILDREN`` covers every
#: child ever waited for, so the measuring process must be a fresh one
#: rather than the test runner.
_MEASURE_RUN = """
import resource, subprocess, sys
subprocess.run(
    [sys.executable, "-m", "repro.experiments.runner", *sys.argv[1:]],
    stdout=subprocess.DEVNULL,
    check=True,
)
# Linux reports ru_maxrss in KiB.
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""


def _child_peak_rss_mb(*runner_args: str) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", _MEASURE_RUN, *runner_args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(result.stdout)


@pytest.mark.slow
def test_fig6_full_scale_peak_rss():
    peak = _child_peak_rss_mb(
        "--scale", "full", "--records", "100000", "--compositions", "100",
        "--only", "fig6",
    )
    assert peak < _FIG6_RSS_LIMIT_MB


@pytest.mark.slow
def test_full_run_peak_rss():
    peak = _child_peak_rss_mb(
        "--scale", "full", "--records", "100000", "--compositions", "500"
    )
    assert peak < _FULL_RUN_RSS_LIMIT_MB


@pytest.mark.slow
def test_checkpointed_full_run_and_resume_peak_rss(tmp_path):
    """A fresh ``--checkpoint`` full run, then its resume from the file
    it saved: each stays under its bound and reproduces
    ``results_full_run.txt``, the resume with only its request total
    changed (it sends what the checkpoint did not hold)."""
    from tests.test_golden import FULL_ARGS, FULL_RUN, _untimed

    def comparable(path: Path) -> list[str]:
        return [
            _untimed(line)
            for line in path.read_text().splitlines()
            if not line.startswith("Total wall time:")
        ]

    out = tmp_path / "out.txt"
    args = [*FULL_ARGS, "--checkpoint", str(tmp_path / "run.ckpt"), "--out", str(out)]
    assert _child_peak_rss_mb(*args) < _CHECKPOINT_RUN_RSS_LIMIT_MB
    expected = comparable(FULL_RUN)
    assert comparable(out) == expected

    assert _child_peak_rss_mb(*args) < _RESUMED_RUN_RSS_LIMIT_MB
    total = "Total simulated API requests:"
    resumed = comparable(out)
    assert [line for line in resumed if not line.startswith(total)] == [
        line for line in expected if not line.startswith(total)
    ]
    assert [line for line in resumed if line.startswith(total)] == [
        f"{total} 16,004 (paper: 80,000+ per platform)"
    ]
