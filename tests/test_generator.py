"""Tests for population generation."""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pytest

from repro.platforms import build_platform_suite
from repro.platforms.facebook import FacebookMarketingPlatform
from repro.population.bitsets import BitVector
from repro.population.calibration import get_calibration
from repro.population.demographics import AGE_RANGES, Gender, US_MARGINALS
from repro.population.generator import PopulationGenerator
from repro.population.model import GENDER_CONTRAST, AttributeSpec, default_model


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
        first = pop.realise_attribute(make_spec())
        second = pop.realise_attribute(make_spec())
        assert first is second

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
        for spec in specs:
            expected = oracle_logits(model, spec, *args)
            logits = model.membership_logits(spec, *args)
            assert np.array_equal(bits(logits), bits(expected)), spec.attr_id
            probs = model.membership_probabilities(spec, *args)
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
