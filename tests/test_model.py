"""Tests for the latent-factor generative model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.population.demographics import AGE_RANGES, Gender
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


class TestFactorMeans:
    def test_gender_shift_is_symmetric(self):
        model = simple_model()
        genders = np.array([int(Gender.MALE), int(Gender.FEMALE)])
        ages = np.array([0, 0])
        means = model.factor_means(genders, ages)
        assert means[0, 0] == pytest.approx(0.5 + 0.5)  # +g/2 + age shift
        assert means[1, 0] == pytest.approx(-0.5 + 0.5)

    def test_sampled_latents_follow_means(self):
        model = simple_model()
        rng = np.random.default_rng(0)
        genders = np.array([0] * 4000 + [1] * 4000, dtype=np.uint8)
        ages = np.zeros(8000, dtype=np.uint8)
        latents = model.sample_latents(genders, ages, rng)
        male_mean = latents[:4000, 0].mean()
        female_mean = latents[4000:, 0].mean()
        assert male_mean - female_mean == pytest.approx(1.0, abs=0.1)


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
