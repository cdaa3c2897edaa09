"""Memory bounds of the server-side caches and the audit's state.

The rule-resolution memo of every interface is bounded in bit-vector
words, so its footprint does not grow with the population, and keyed
without LinkedIn's demographic facet clauses, so the slices of one rule
share one entry; one-option
clauses are interned, so the specs of an audit share them instead of
each holding its own.  Specs and clauses are plain tuples and
frozensets without a per-instance dict, and every audit record of a
target shares one read-only map of base sizes.  Equal cached estimates
share one int object, and a platform builds its PII directory only when
a custom audience needs it.  None of this may change a single estimate.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import FakeTransport, build_clients, mount_suite_routes
from repro.api.obfuscation import GoogleWireCodec
from repro.api.wire import FacebookWireCodec, LinkedInWireCodec
from repro.core.audit import build_audit_targets
from repro.core.checkpoint import EstimateCheckpoint
from repro.experiments import ExperimentConfig, ExperimentContext
from repro.experiments.runner import run_all
from repro.platforms import base, build_platform_suite
from repro.platforms.facebook import FacebookRestrictedInterface
from repro.platforms.linkedin import LinkedInInterface
from repro.platforms.targeting import Clause, TargetingSpec
from repro.population.demographics import SENSITIVE_ATTRIBUTES, AgeRange, Gender
from repro.population.pii import PiiDirectory

SRC = Path(__file__).resolve().parent.parent / "src"


def _retained_words(interface) -> int:
    words = interface.population.index.everyone.words.size
    return len(interface._rule_memo) * words


class TestRuleMemoBound:
    def test_retained_words_never_exceed_bound(self, monkeypatch, fb_platform):
        population, build = fb_platform.population, fb_platform.build
        reference = FacebookRestrictedInterface(population, build)
        words = population.index.everyone.words.size
        bound = 5 * words + words // 2
        monkeypatch.setattr(base, "_RULE_MEMO_WORDS", bound)
        interface = FacebookRestrictedInterface(population, build)
        assert interface._rule_memo_entries == 5
        ids = interface.study_option_ids()[:12]
        pairs = [TargetingSpec.of(a, b) for a in ids for b in ids if a < b]
        for start in range(0, len(pairs), 16):
            batch = pairs[start:start + 16]
            estimates = interface.estimate_batch([(spec, {}) for spec in batch])
            assert _retained_words(interface) <= bound
            assert estimates == [
                reference.estimate_reach(spec).estimate for spec in batch
            ]
        for option_id in ids:
            spec = TargetingSpec.of(option_id)
            assert (
                interface.estimate_reach(spec).estimate
                == reference.estimate_reach(spec).estimate
            )
            assert _retained_words(interface) <= bound
        stats = interface.resolution_stats()
        assert stats["entries"] == 5
        assert stats["misses"] == len(pairs) + len(ids)

    def test_one_entry_memo_renders_identically(self, monkeypatch):
        config = ExperimentConfig.tiny()
        default = run_all(config=config, only=["fig1", "fig3"])
        monkeypatch.setattr(base, "_RULE_MEMO_WORDS", 1)
        context = ExperimentContext(config)
        bounded = run_all(config=config, only=["fig1", "fig3"], context=context)
        for interface in context.session.suite.interfaces.values():
            assert interface._rule_memo_entries == 1
            assert interface.resolution_stats()["entries"] <= 1
        for name in ("fig1", "fig3"):
            assert bounded.results[name].render() == default.results[name].render()


class TestFacetFold:
    def test_linkedin_slices_share_their_rule(self, session_small):
        """One rule-memo entry per LinkedIn rule, not one per slice.

        The audit ANDs a gender or age facet clause into each rule; the
        clause folds into the slice's mask, so every slice of a rule,
        and its unsliced total, resolves the same memo entry.
        """
        linkedin = copy.copy(session_small.suite.linkedin)
        linkedin.interface = interface = LinkedInInterface(
            linkedin.population, linkedin.build
        )
        transport = FakeTransport(rate=None)
        mount_suite_routes(
            transport, dataclasses.replace(session_small.suite, linkedin=linkedin)
        )
        target = build_audit_targets(build_clients(transport))["linkedin"]
        ids = target.study_option_ids()
        compositions = [(a,) for a in ids[:6]] + [
            (a, b) for a in ids[:6] for b in ids[6:12]
        ]
        for name in ("gender", "age"):
            target.audit_many(compositions, SENSITIVE_ATTRIBUTES[name])
        stats = interface.resolution_stats()
        # Every distinct rule plus the base (everyone) resolves once.
        assert stats["misses"] == len(set(compositions)) + 1
        assert stats["entries"] == stats["misses"]
        assert stats["hits"] + stats["misses"] == interface.query_count


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
        path = tmp_path / "run.ckpt.json"
        store = EstimateCheckpoint(path)
        spec = TargetingSpec.of(*OPTIONS).with_age(AgeRange.AGE_55_PLUS)
        store.record("facebook", spec, 1234)
        store.save()
        loaded = EstimateCheckpoint(path)
        [(back, estimate)] = loaded.shard("facebook").items()
        assert back == spec and estimate == 1234
        for ours, theirs in zip(spec.clauses, back.clauses):
            assert theirs is ours


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


def _shares_equal_values(shard) -> bool:
    """Whether every value of ``shard`` is the one object of its value."""
    return len({id(v) for v in shard.values()}) == len(set(shard.values()))


class TestEstimateValues:
    def test_equal_cached_estimates_are_one_object(self, session_small):
        target = build_audit_targets(session_small.clients)["facebook"]
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
        assert all(_shares_equal_values(s) for s in target._cache.values())
        # Sharing changes no value: each equals a fresh single estimate.
        clients = {c.interface_key: c for c in (target.client, target.measure_client)}
        assert values == [
            clients[key].estimate(spec)
            for key, shard in target._cache.items()
            for spec in shard
        ]

    def test_checkpoint_preload_shares_equal_values(self, session_small, tmp_path):
        path = tmp_path / "run.ckpt.json"
        store = EstimateCheckpoint(path)
        for index, age in enumerate(AgeRange):
            for option_id in OPTIONS:
                spec = TargetingSpec.of(option_id).with_age(age)
                store.record("facebook", spec, 1000 + index % 2)
        store.save()
        target = build_audit_targets(session_small.clients)["facebook"]
        target.attach_checkpoint(EstimateCheckpoint(path))
        shard = target._cache["facebook"]
        assert set(shard.values()) == {1000, 1001}
        assert _shares_equal_values(shard)


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
#: it, and 152.4-152.6 MB with a 2 MiB bound, shared estimate values and
#: PII built on first use (174.2 MB with those but the 8 MiB bound).
#: The bound is the last reading plus 9%, as for the full run.
_FIG6_RSS_LIMIT_MB = 166


#: ``ru_maxrss`` of the ``results_full_run.txt`` configuration on a
#: 2-CPU Linux container: about 382 MB with dataclass specs, a
#: ``(spec, attribute)``-keyed slice memo and a ``bases`` copy per
#: record; 310.9-311.8 MB (as this test measures it) with tuple specs,
#: per-attribute slice tuples and one shared ``bases`` map; 283.9-284.3 MB
#: with columnar composition sets (one size matrix per set instead of a
#: record per composition); 268.4-268.5 MB as later changes left it;
#: 226.3-227.2 MB with a 2 MiB rule-memo bound (8 MiB before), one int
#: object per distinct cached estimate and PII built on first use.  The
#: bound is the last plus 9%, as before; the 8 MiB bound with the other
#: two changes reads 251.1 MB and fails it.
_FULL_RUN_RSS_LIMIT_MB = 246

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
