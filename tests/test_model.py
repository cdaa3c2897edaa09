"""Tests for the latent-factor generative model."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.population.demographics import AGE_RANGES, US_MARGINALS, Gender
from repro.population.generator import PopulationGenerator
from repro.population.model import (
    AttributeSpec,
    LatentFactorModel,
    MembershipKernel,
    default_model,
)


def simple_model(n_factors: int = 2) -> LatentFactorModel:
    return LatentFactorModel(
        n_factors=n_factors,
        factor_gender_shift=tuple([1.0] + [0.0] * (n_factors - 1)),
        factor_age_shift=tuple(
            [(0.5, 0.0, 0.0, -0.5)] + [(0.0, 0.0, 0.0, 0.0)] * (n_factors - 1)
        ),
        noise_scale=1.0,
    )


def spec(beta_gender=0.0, beta_age=(0, 0, 0, 0), loadings=None, base=-3.0):
    return AttributeSpec(
        attr_id="t:x:a",
        feature="x",
        category="Cat",
        name="A",
        base_logit=base,
        beta_gender=beta_gender,
        beta_age=tuple(float(b) for b in beta_age),
        loadings=loadings or {},
    )


class TestAttributeSpec:
    def test_requires_four_age_betas(self):
        with pytest.raises(ValueError):
            spec(beta_age=(0.0, 0.0))

    def test_loading_vector(self):
        s = spec(loadings={1: 0.5})
        vec = s.loading_vector(3)
        assert vec.tolist() == [0.0, 0.5, 0.0]

    def test_loading_vector_out_of_range(self):
        s = spec(loadings={5: 0.5})
        with pytest.raises(IndexError):
            s.loading_vector(3)


class TestLatentFactorModelValidation:
    def test_shift_length_checked(self):
        with pytest.raises(ValueError):
            LatentFactorModel(
                n_factors=2,
                factor_gender_shift=(1.0,),
                factor_age_shift=((0, 0, 0, 0), (0, 0, 0, 0)),
            )
        with pytest.raises(ValueError):
            LatentFactorModel(
                n_factors=1,
                factor_gender_shift=(1.0,),
                factor_age_shift=((0, 0, 0),),
            )

    def test_noise_positive(self):
        with pytest.raises(ValueError):
            LatentFactorModel(
                n_factors=1,
                factor_gender_shift=(0.0,),
                factor_age_shift=((0, 0, 0, 0),),
                noise_scale=0.0,
            )


def factor_means(model, gender_codes, age_codes):
    """Per-user factor means, ``(n_users, K)``, built as one matrix: the
    formula :meth:`LatentFactorModel.sample_latents` once evaluated whole."""
    g = np.where(np.asarray(gender_codes) == int(Gender.MALE), 0.5, -0.5)
    shift = np.asarray(model.factor_gender_shift)  # (K,)
    age_shift = np.asarray(model.factor_age_shift)  # (K, 4)
    means = g[:, None] * shift[None, :]
    means += age_shift.T[np.asarray(age_codes, dtype=np.intp)]
    return means


class TestFactorMeans:
    def test_gender_shift_is_symmetric(self):
        model = simple_model()
        genders = np.array([int(Gender.MALE), int(Gender.FEMALE)])
        ages = np.array([0, 0])
        means = factor_means(model, genders, ages)
        assert means[0, 0] == pytest.approx(0.5 + 0.5)  # +g/2 + age shift
        assert means[1, 0] == pytest.approx(-0.5 + 0.5)
        noise = np.random.default_rng(0).standard_normal(means.shape)
        latents = model.sample_latents(genders, ages, np.random.default_rng(0))
        assert latents - noise == pytest.approx(means)

    def test_sampled_latents_follow_means(self):
        model = simple_model()
        rng = np.random.default_rng(0)
        genders = np.array([0] * 4000 + [1] * 4000, dtype=np.uint8)
        ages = np.zeros(8000, dtype=np.uint8)
        latents = model.sample_latents(genders, ages, rng)
        male_mean = latents[:4000, 0].mean()
        female_mean = latents[4000:, 0].mean()
        assert male_mean - female_mean == pytest.approx(1.0, abs=0.1)

    # A scale of 1.0 alone would not show the order of the multiply.
    @pytest.mark.parametrize("noise_scale", [1.0, 0.7])
    def test_draw_latents_equal_whole_matrix_formula(self, noise_scale):
        """A population's latents, drawn into one array, are bit for bit
        ``means + noise * noise_scale`` from the seed's latent stream;
        non-male gender codes count as female in both."""
        model = dataclasses.replace(default_model(), noise_scale=noise_scale)
        population = PopulationGenerator(US_MARGINALS, model, 5_003, seed=9).generate()
        genders = population.gender_codes.copy()
        genders[::7] = 2
        population.gender_codes = genders
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(2)[1])
        means = factor_means(model, genders, population.age_codes)
        expected = means + rng.standard_normal(means.shape) * noise_scale
        drawn = population.draw_latents()
        assert drawn.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        assert np.array_equal(population.draw_latents(), drawn)


class TestMembership:
    def test_gender_loading_moves_probability(self):
        model = simple_model()
        s = spec(beta_gender=1.0)
        genders = np.array([0, 1], dtype=np.uint8)
        ages = np.zeros(2, dtype=np.uint8)
        latents = np.zeros((2, 2))
        probs = MembershipKernel(model, genders, ages, latents).probabilities(s)
        assert probs[0] > probs[1]

    def test_age_offsets_apply(self):
        model = simple_model()
        s = spec(beta_age=(1.0, 0.0, 0.0, -1.0))
        genders = np.zeros(2, dtype=np.uint8)
        ages = np.array([0, 3], dtype=np.uint8)
        latents = np.zeros((2, 2))
        logits = MembershipKernel(model, genders, ages, latents).logits(s)
        assert logits[0] - logits[1] == pytest.approx(2.0)

    def test_probabilities_bounded(self):
        model = simple_model()
        s = spec(beta_gender=50.0)
        genders = np.array([0, 1], dtype=np.uint8)
        ages = np.zeros(2, dtype=np.uint8)
        kernel = MembershipKernel(model, genders, ages, np.zeros((2, 2)))
        probs = kernel.probabilities(s)
        assert 0.0 <= probs.min() and probs.max() <= 1.0


class TestApproximateRatios:
    def test_gender_ratio_combines_direct_and_factor(self):
        model = simple_model()
        s = spec(beta_gender=np.log(2.0), loadings={0: np.log(1.5)})
        # total gap = ln2 + ln1.5 * shift(=1.0)
        assert model.approximate_gender_ratio(s) == pytest.approx(3.0)

    def test_neutral_spec_ratio_is_one(self):
        model = simple_model()
        assert model.approximate_gender_ratio(spec()) == pytest.approx(1.0)


class TestDefaultModel:
    def test_shapes(self):
        model = default_model(n_factors=6)
        assert model.n_factors == 6
        assert len(model.factor_gender_shift) == 6
        assert all(len(r) == len(AGE_RANGES) for r in model.factor_age_shift)

    def test_deterministic(self):
        assert default_model(seed=1) == default_model(seed=1)
        assert default_model(seed=1) != default_model(seed=2)

    def test_has_both_gender_directions(self):
        model = default_model()
        shifts = model.factor_gender_shift
        assert max(shifts) > 0.3
        assert min(shifts) < -0.3
