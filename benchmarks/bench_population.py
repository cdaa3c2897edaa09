"""Micro-benchmark of attribute realisation during session build.

Realising every catalog attribute over the platform populations is the
largest part of building a session.  This bench times one
``PopulationGenerator.generate`` pass over Google's 3,297-attribute
universe at 20k records, so a regression in realisation shows up
without a full end-to-end run.
"""

from __future__ import annotations

import pytest

from repro.platforms.catalog import build_google_universe
from repro.population.calibration import get_calibration
from repro.population.generator import PopulationGenerator
from repro.population.model import default_model

N_RECORDS = 20_000


@pytest.fixture(scope="module")
def google_generator():
    calibration = get_calibration("google")
    model = default_model()
    build = build_google_universe(calibration, model)
    generator = PopulationGenerator(
        marginals=calibration.marginals,
        model=model,
        n_records=N_RECORDS,
        scale=calibration.scale_for(N_RECORDS),
        seed=43,
    )
    return generator, build.specs


def test_generate_google_population(benchmark, google_generator):
    """Demographics, latents and every Google attribute at 20k records."""
    generator, specs = google_generator
    population = benchmark.pedantic(
        generator.generate, args=(specs,), rounds=3, iterations=1
    )
    assert len(population.index) == len(specs)
    benchmark.extra_info["records"] = N_RECORDS
    benchmark.extra_info["attributes"] = len(specs)
