"""Tests for population generation."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import os
import subprocess
import sys
import threading
import zlib
from pathlib import Path
from platform import machine

import numpy as np
import pytest

from repro.platforms import build_platform_suite
from repro.platforms.facebook import FacebookMarketingPlatform
from repro.population.bitsets import BitVector
from repro.population.calibration import get_calibration
from repro.population.demographics import AGE_RANGES, Gender, US_MARGINALS
from repro.population import generator as generator_module
from repro.population.generator import POOL_MIN_RECORDS, PopulationGenerator
from repro.population.model import (
    GENDER_CONTRAST,
    AttributeSpec,
    MembershipKernel,
    default_model,
)


def make_generator(n=4000, seed=0):
    return PopulationGenerator(
        marginals=US_MARGINALS,
        model=default_model(n_factors=4),
        n_records=n,
        scale=100.0,
        seed=seed,
    )


def make_spec(attr_id="t:f:a", beta_gender=0.8, base=-2.0):
    return AttributeSpec(
        attr_id=attr_id,
        feature="f",
        category="C",
        name="A",
        base_logit=base,
        beta_gender=beta_gender,
        beta_age=(0.0, 0.0, 0.0, 0.0),
    )


class TestGeneration:
    def test_validation(self):
        with pytest.raises(ValueError):
            PopulationGenerator(US_MARGINALS, default_model(), n_records=0)
        with pytest.raises(ValueError):
            PopulationGenerator(US_MARGINALS, default_model(), 10, scale=0)

    def test_population_shape(self):
        pop = make_generator().generate()
        assert pop.n_records == 4000
        assert pop.latents.shape == (4000, 4)
        assert pop.total_users == pytest.approx(400_000)

    def test_marginals_approximated(self):
        pop = make_generator(n=20_000).generate()
        male_share = pop.index.gender(Gender.MALE).count() / pop.n_records
        expected = US_MARGINALS.gender_shares()
        assert male_share == pytest.approx(expected[0], abs=0.02)
        for age, expected_share in zip(AGE_RANGES, US_MARGINALS.age_shares()):
            age_share = pop.index.age(age).count() / pop.n_records
            assert age_share == pytest.approx(expected_share, abs=0.02)

    def test_deterministic_in_seed(self):
        a = make_generator(seed=7).generate([make_spec()])
        b = make_generator(seed=7).generate([make_spec()])
        assert np.array_equal(a.gender_codes, b.gender_codes)
        assert a.index.attribute("t:f:a") == b.index.attribute("t:f:a")

    def test_different_seeds_differ(self):
        a = make_generator(seed=7).generate()
        b = make_generator(seed=8).generate()
        assert not np.array_equal(a.gender_codes, b.gender_codes)


class TestAttributeRealisation:
    def test_order_independent(self):
        s1, s2 = make_spec("t:f:a"), make_spec("t:f:b")
        pop_ab = make_generator(seed=7).generate([s1, s2])
        pop_ba = make_generator(seed=7).generate([s2, s1])
        assert pop_ab.index.attribute("t:f:a") == pop_ba.index.attribute("t:f:a")
        assert pop_ab.index.attribute("t:f:b") == pop_ba.index.attribute("t:f:b")

    def test_lazy_realisation_idempotent(self):
        pop = make_generator(seed=7).generate()
        pop.realise_attribute(make_spec())
        first = pop.index.attribute("t:f:a")
        pop.realise_attribute(make_spec())
        assert pop.index.attribute("t:f:a") is first
        assert list(pop.index) == ["t:f:a"]

    def test_gender_skew_realised(self):
        pop = make_generator(n=20_000, seed=7).generate([make_spec(beta_gender=1.5)])
        vec = pop.index.attribute("t:f:a")
        males = pop.index.gender(Gender.MALE)
        females = pop.index.gender(Gender.FEMALE)
        male_rate = vec.intersect_count(males) / males.count()
        female_rate = vec.intersect_count(females) / females.count()
        assert male_rate > female_rate * 1.5


class TestCalibrationScale:
    def test_scale_for(self):
        cal = get_calibration("facebook")
        assert cal.scale_for(1000) == pytest.approx(cal.total_us_users / 1000)
        with pytest.raises(ValueError):
            cal.scale_for(0)

    def test_unknown_platform(self):
        with pytest.raises(KeyError):
            get_calibration("myspace")


#: sha256 over ``attr_id`` + packed words of every attribute realised by
#: ``build_platform_suite(n_records=3001, seed=42)``, platforms in suite
#: order and attributes in sorted id order.  Recorded from the original
#: masked-index sigmoid implementation; any change to realisation that
#: flips a single membership bit changes it.  3001 is not a multiple of
#: 64, so the partially used tail word is covered too.
GOLDEN_SUITE_DIGEST = "149461c73f64486e0f886d2886e8fd6696ce7af5082925e83868959c23d6762e"


def suite_digest(suite) -> tuple[int, str]:
    digest = hashlib.sha256()
    n_attributes = 0
    for platform in (suite.facebook, suite.google, suite.linkedin):
        index = platform.population.index
        for attr_id in sorted(index):
            digest.update(attr_id.encode())
            digest.update(index.attribute(attr_id).words.tobytes())
            n_attributes += 1
    return n_attributes, digest.hexdigest()


def test_golden_population_digest():
    suite = build_platform_suite(n_records=3001, seed=42)
    assert suite_digest(suite) == (4516, GOLDEN_SUITE_DIGEST)


#: :func:`suite_digest` of ``build_platform_suite(n_records=100_000,
#: seed=42)``, recorded before the loading term left BLAS.  Unlike the
#: 3,001-record golden, this size realises on the two-worker pool
#: (:data:`POOL_MIN_RECORDS`).
GOLDEN_SUITE_DIGEST_100K = (
    "1a773fd382d2eaac40498c1e44e9c238116171867df86e2550d6f33d1a90b56a"
)


@pytest.mark.slow
def test_golden_population_digest_100k():
    suite = build_platform_suite(n_records=100_000, seed=42)
    assert suite_digest(suite) == (4516, GOLDEN_SUITE_DIGEST_100K)


# -- bit-identity oracle ---------------------------------------------------
#
# The original realisation evaluated every term per record and applied a
# masked-index sigmoid.  It is kept here verbatim as the reference the
# table-driven, buffer-reusing implementation must match bit for bit.


def oracle_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def oracle_logits(model, spec, gender_codes, age_codes, latents):
    g = np.where(
        np.asarray(gender_codes) == int(Gender.MALE),
        GENDER_CONTRAST[Gender.MALE],
        GENDER_CONTRAST[Gender.FEMALE],
    )
    logits = np.full(g.shape, spec.base_logit, dtype=np.float64)
    logits += spec.beta_gender * g
    beta_age = np.asarray(spec.beta_age)
    logits += beta_age[np.asarray(age_codes, dtype=np.intp)]
    if spec.loadings:
        lam = spec.loading_vector(model.n_factors)
        logits += latents @ lam
    return logits


def ascending_logits(model, spec, gender_codes, age_codes, latents):
    """The demographic terms of :func:`oracle_logits`, plus each nonzero
    loading's product with its factor column, summed one factor at a
    time in ascending factor order and added last."""
    demographic = dataclasses.replace(spec, loadings={})
    logits = oracle_logits(model, demographic, gender_codes, age_codes, latents)
    term = None
    for k in sorted(spec.loadings):
        if spec.loadings[k]:
            product = latents[:, k] * spec.loadings[k]
            term = product if term is None else term + product
    return logits if term is None else logits + term


def n_loaded(spec):
    return sum(1 for w in spec.loadings.values() if w)


def reference_logits(model, spec, *args):
    """``latents @ lam`` for specs with at most one nonzero loading: adding
    exact zeros to one product leaves it exact whatever the BLAS kernel.
    The ascending per-factor sum for the rest."""
    if n_loaded(spec) <= 1:
        return oracle_logits(model, spec, *args)
    return ascending_logits(model, spec, *args)


def oracle_members(population, spec):
    probs = oracle_sigmoid(
        oracle_logits(
            population.model,
            spec,
            population.gender_codes,
            population.age_codes,
            population.latents,
        )
    )
    rng = np.random.default_rng(
        np.random.SeedSequence([population.seed, zlib.crc32(spec.attr_id.encode())])
    )
    return rng.random(population.n_records) < probs


def oracle_specs(n_factors):
    """About 200 specs: random ones with and without loadings, plus
    saturating intercepts and logits that are exactly zero."""
    rng = np.random.default_rng(20201027)
    specs = []

    def add(base, beta_gender, beta_age, loadings):
        specs.append(
            AttributeSpec(
                attr_id=f"t:oracle:{len(specs)}",
                feature="oracle",
                category="C",
                name=f"A{len(specs)}",
                base_logit=base,
                beta_gender=beta_gender,
                beta_age=beta_age,
                loadings=loadings,
            )
        )

    for i in range(186):
        loadings = {}
        if i % 2:
            factors = rng.choice(n_factors, size=rng.integers(1, 4), replace=False)
            loadings = {int(k): float(rng.normal(0.0, 1.2)) for k in factors}
        add(
            float(rng.uniform(-6.0, 2.0)),
            float(rng.normal(0.0, 1.5)),
            tuple(float(b) for b in rng.normal(0.0, 0.7, 4)),
            loadings,
        )
    for base in (40.0, -40.0, 800.0, -800.0):
        add(base, 0.3, (0.1, 0.0, -0.1, 0.2), {})
        add(base, -0.3, (0.0, 0.2, 0.0, -0.2), {0: 1.5, 3: -0.5})
    # Exactly-zero logits: everywhere, in the male cells only, with ints.
    add(0.0, 0.0, (0.0, 0.0, 0.0, 0.0), {})
    add(-0.0, 0.0, (0.0, 0.0, 0.0, 0.0), {})
    add(0.5, 1.0, (-1.0, -1.0, -1.0, -1.0), {})
    add(0, 0, (0, 0, 0, 0), {})
    add(0.0, 0.0, (0.0, 0.0, 0.0, 0.0), {1: 0.0})
    add(-0.25, 0.5, (0.0, 0.0, 0.0, 0.0), {2: 0.0})
    return specs


@pytest.fixture(scope="module")
def oracle_population():
    generator = PopulationGenerator(
        marginals=US_MARGINALS,
        model=default_model(),
        n_records=3001,
        scale=1.0,
        seed=11,
    )
    specs = oracle_specs(generator.model.n_factors)
    return generator.generate(specs), specs


def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


class TestBitIdentityOracle:
    def test_specs_cover_edge_cases(self, oracle_population):
        population, specs = oracle_population
        assert len(specs) >= 200
        assert any(s.loadings for s in specs)
        assert any(not s.loadings for s in specs)
        zero_logits = [
            s
            for s in specs
            if np.any(
                oracle_logits(
                    population.model,
                    s,
                    population.gender_codes,
                    population.age_codes,
                    population.latents,
                )
                == 0.0
            )
        ]
        assert len(zero_logits) >= 4

    def test_logits_and_probabilities_bitwise_equal(self, oracle_population):
        population, specs = oracle_population
        args = (population.gender_codes, population.age_codes, population.latents)
        model = population.model
        kernel = MembershipKernel(model, *args)
        assert sum(n_loaded(s) > 1 for s in specs) == 65
        for spec in specs:
            expected = reference_logits(model, spec, *args)
            logits = kernel.logits(spec)
            assert np.array_equal(bits(logits), bits(expected)), spec.attr_id
            probs = kernel.probabilities(spec)
            assert np.array_equal(
                bits(probs), bits(oracle_sigmoid(expected))
            ), spec.attr_id

    def test_memberships_bitwise_equal(self, oracle_population):
        population, specs = oracle_population
        for spec in specs:
            expected = BitVector.from_bool(oracle_members(population, spec))
            assert population.index.attribute(spec.attr_id) == expected, spec.attr_id

    def test_lazy_searchable_matches_generate(self):
        platform = FacebookMarketingPlatform(n_records=3001, seed=42)
        searchable = platform.build.searchable_specs
        assert searchable
        for entry in platform.build.searchable_entries.values():
            platform.normal.search(entry.name)
        generator = PopulationGenerator(
            marginals=get_calibration("facebook").marginals,
            model=platform.model,
            n_records=3001,
            seed=42,
        )
        eager = generator.generate(
            list(platform.build.specs) + list(searchable.values())
        )
        for attr_id in searchable:
            lazy = platform.population.index.attribute(attr_id)
            assert lazy == eager.index.attribute(attr_id), attr_id


@pytest.mark.parametrize("n_records", [32_769, 49_153])
def test_blocked_logits_equal_one_call(n_records):
    # Sizes past 32,768 records that are no multiple of 16,384: the kernel
    # once split its gemv into row blocks here. The sparse term runs over
    # whole columns; it must still equal one call over every record.
    generator = PopulationGenerator(US_MARGINALS, default_model(), n_records, seed=5)
    population = generator.generate()
    args = (population.gender_codes, population.age_codes, population.latents)
    kernel = MembershipKernel(population.model, *args)
    loaded = [s for s in oracle_specs(population.model.n_factors) if s.loadings]
    for spec in loaded[:20]:
        expected = reference_logits(population.model, spec, *args)
        assert np.array_equal(bits(kernel.logits(spec)), bits(expected)), spec.attr_id


def test_one_loading_logits_equal_gemv():
    # 100,003 records: past OpenBLAS's threading cutoff for the oracle's
    # ``latents @ lam`` and not a multiple of 4.
    generator = PopulationGenerator(US_MARGINALS, default_model(), 100_003, seed=5)
    population = generator.generate()
    args = (population.gender_codes, population.age_codes, population.latents)
    kernel = MembershipKernel(population.model, *args)
    single = [s for s in oracle_specs(population.model.n_factors) if n_loaded(s) == 1]
    assert len(single) >= 20
    for spec in single:
        expected = oracle_logits(population.model, spec, *args)
        assert np.array_equal(bits(kernel.logits(spec)), bits(expected)), spec.attr_id


# -- realisation on worker threads -----------------------------------------


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts of the pools realisation starts, with two CPUs usable."""
    sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(generator_module, "_usable_cpus", lambda: 2)
    return sizes


class TestPooledRealisation:
    def test_pool_matches_oracle_in_spec_order(self, pool_sizes):
        generator = PopulationGenerator(
            US_MARGINALS, default_model(), n_records=POOL_MIN_RECORDS, seed=11
        )
        specs = oracle_specs(generator.model.n_factors)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often, so shared scratch would show
        try:
            population = generator.generate(specs)
        finally:
            sys.setswitchinterval(interval)
        assert pool_sizes == [2]
        assert threading.active_count() == threads
        assert list(population.index) == [s.attr_id for s in specs]
        for spec in specs:
            expected = BitVector.from_bool(oracle_members(population, spec))
            assert population.index.attribute(spec.attr_id) == expected, spec.attr_id

    def test_small_population_stays_on_calling_thread(self, pool_sizes):
        spec = make_spec()
        population = make_generator(seed=7).generate([spec, make_spec("t:f:b"), spec])
        assert pool_sizes == []
        assert list(population.index) == ["t:f:a", "t:f:b"]
        expected = BitVector.from_bool(oracle_members(population, spec))
        assert population.index.attribute("t:f:a") == expected


#: Realises loaded specs and prints sha256 digests of the logit bits and
#: of the memberships, at K = 8 over 70,001 records and at K = 16 over
#: 47,001 records: sizes at which a ``latents @ lam`` gemv would be
#: threaded by OpenBLAS, and not multiples of 4.  The specs load factor
#: pairs 4 apart, which a Haswell gemv kernel fuses in one FMA lane and a
#: Prescott kernel does not, and one loads every factor.  Realisation
#: calls no BLAS routine, so every configuration prints the same digests.
BLAS_PROBE = """
import hashlib
from repro.population.demographics import US_MARGINALS
from repro.population.generator import PopulationGenerator
from repro.population.model import AttributeSpec, MembershipKernel, default_model

logits, members = hashlib.sha256(), hashlib.sha256()
for n_factors, n_records in ((8, 70_001), (16, 47_001)):
    loadings = [{0: 1.3, 4: -0.7}, {1: -0.9, 5: 1.1},
                {n_factors - 6: 0.6, n_factors - 2: 0.8},
                {n_factors - 5: -1.4, n_factors - 1: 0.5},
                {k: 0.3 * (k - 3.5) for k in range(n_factors)}]
    specs = [AttributeSpec(f"t:blas:{i}", "f", "C", f"A{i}", -1.5, 0.4,
                           (0.1, 0.0, -0.1, 0.2), lam)
             for i, lam in enumerate(loadings)]
    model = default_model(n_factors=n_factors)
    generator = PopulationGenerator(US_MARGINALS, model, n_records, seed=3)
    population = generator.generate(specs)
    kernel = MembershipKernel(model, population.gender_codes,
                              population.age_codes, population.latents)
    for spec in specs:
        logits.update(kernel.logits(spec).tobytes())
        members.update(population.index.attribute(spec.attr_id).words.tobytes())
print(logits.hexdigest(), members.hexdigest())
"""

SRC = Path(__file__).resolve().parent.parent / "src"


def blas_probe(threads: int, coretype: str | None = None) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def test_realisation_independent_of_blas_threads():
    auto = blas_probe(1)
    assert blas_probe(2) == auto
    # Only the auto-detected kernel and Prescott, which every x86-64 CPU
    # runs: forcing a core type the CPU lacks can crash the process.
    if machine() in ("x86_64", "AMD64"):
        assert blas_probe(1, coretype="Prescott") == auto
