"""Tests for the skewed-individual removal sweep."""

from __future__ import annotations

import math

import pytest

from repro.core.discovery import DEFAULT_MIN_REACH, audit_individuals
from repro.core.removal import removal_sweep
from repro.population.demographics import SENSITIVE_ATTRIBUTES, Gender

GENDER = SENSITIVE_ATTRIBUTES["gender"]


@pytest.fixture(scope="module")
def sweep_inputs(session_small):
    target = session_small.targets["facebook_restricted"]
    individual = audit_individuals(target, GENDER)
    return target, individual


class TestRemovalSweep:
    def test_shape(self, sweep_inputs):
        target, individual = sweep_inputs
        curve = removal_sweep(
            target,
            GENDER,
            individual,
            Gender.MALE,
            direction="top",
            percentiles=(0, 10),
            n_compositions=60,
            seed=0,
        )
        assert [p.percentile_removed for p in curve.points] == [0.0, 10.0]
        assert curve.direction == "top"
        assert curve.target_key == "facebook_restricted"

    def test_removal_reduces_top_skew(self, sweep_inputs):
        target, individual = sweep_inputs
        curve = removal_sweep(
            target,
            GENDER,
            individual,
            Gender.MALE,
            direction="top",
            percentiles=(0, 10),
            n_compositions=80,
            seed=0,
        )
        series = dict(curve.headline_series())
        # The paper's curves drop but remain outside four-fifths.
        assert series[10.0] < series[0.0]
        assert series[10.0] > 1.25

    def test_removal_raises_bottom_skew(self, sweep_inputs):
        target, individual = sweep_inputs
        curve = removal_sweep(
            target,
            GENDER,
            individual,
            Gender.MALE,
            direction="bottom",
            percentiles=(0, 10),
            n_compositions=80,
            seed=0,
        )
        series = dict(curve.headline_series())
        assert series[10.0] >= series[0.0]

    def test_points_record_removal_counts(self, sweep_inputs):
        target, individual = sweep_inputs
        curve = removal_sweep(
            target,
            GENDER,
            individual,
            Gender.MALE,
            direction="top",
            percentiles=(0, 4),
            n_compositions=40,
            seed=0,
        )
        eligible = [
            a
            for a in individual.audits
            if a.total_reach >= DEFAULT_MIN_REACH
            and not math.isnan(a.ratio(Gender.MALE))
        ]
        assert curve.points[0].n_options_removed == 0
        assert curve.points[1].n_options_removed == round(len(eligible) * 0.04)
        assert curve.points[1].n_options_removed > 0

    def test_direction_validated(self, sweep_inputs):
        target, individual = sweep_inputs
        with pytest.raises(ValueError):
            removal_sweep(
                target, GENDER, individual, Gender.MALE, direction="diagonal"
            )
