"""Tests for the extension experiments (E11 lookalike, E12 mitigation)."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig, ExperimentContext
from repro.experiments import ext_lookalike, ext_mitigation


SRC = Path(__file__).resolve().parent.parent / "src"

#: Per-experiment header durations and the total wall-time footer: the
#: only parts of a rendered run that legitimately differ between runs.
WALL_TIME = re.compile(r" \(\d+\.\ds\) ==$|^Total wall time: .*$", re.MULTILINE)


def render_lookalike_run(hash_seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner"]
        + ["--scale", "tiny", "--only", "ext_lookalike"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return WALL_TIME.sub("", result.stdout)


def test_lookalike_run_independent_of_hash_seed():
    first = render_lookalike_run(0)
    assert "seed (pixel visitors)" in first
    assert first == render_lookalike_run(1)


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(ExperimentConfig.tiny().with_records(20_000))


class TestLookalikeExtension:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return ext_lookalike.run(ctx)

    def test_seed_is_skewed(self, result):
        assert result.seed_ratio > 1.25

    def test_lookalike_inherits_skew(self, result):
        assert result.lookalike_ratio > 1.25

    def test_special_ad_attenuates_but_not_to_parity(self, result):
        assert result.special_ad_attenuates
        # The headline: demographics-blind expansion stays skewed
        # because the latent interest space correlates with gender.
        assert result.special_ad_ratio > 1.0

    def test_sizes_recorded(self, result):
        assert result.seed_size > 0
        assert result.lookalike_size > 0
        assert result.special_ad_size > 0

    def test_render(self, result):
        text = result.render()
        assert "special ad audience" in text
        assert "lookalike" in text


class TestMitigationExtension:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return ext_mitigation.run(ctx, n_honest=8, campaigns_per_advertiser=5)

    def test_removal_misses_adapted_discriminator(self, result):
        assert result.removal_blocked_discriminator == 0.0

    def test_monitor_catches_discriminator(self, result):
        assert result.monitor_flagged_discriminator

    def test_monitor_burden_below_blanket(self, result):
        assert result.monitor_flagged_honest < 1.0

    def test_discriminator_outcomes_skewed(self, result):
        assert result.discriminator_skewed_fraction > 0.9

    def test_render(self, result):
        text = result.render()
        assert "outcome monitor" in text
        assert "remove top-10%" in text


class TestRunnerIncludesExtensions:
    def test_registry(self):
        from repro.experiments.runner import EXPERIMENTS

        assert "ext_lookalike" in EXPERIMENTS
        assert "ext_mitigation" in EXPERIMENTS
