"""End-to-end tests of the experiment drivers at tiny scale.

One shared tiny context runs every driver once; assertions target the
paper's *qualitative* findings (who is more skewed than whom), not
absolute numbers.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentContext,
    FavoredPopulation,
)
from repro.experiments import (
    fig1_restricted,
    fig2_platforms,
    fig3_removal,
    fig4_ages,
    fig5_recall,
    fig6_removal_ages,
    methodology,
    table1_overlap,
    tables23_examples,
)
from repro.core.metrics import FOUR_FIFTHS_HIGH
from repro.experiments.runner import EXPERIMENTS, run_all
from repro.population.demographics import AgeRange, Gender


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(ExperimentConfig.tiny())


class TestFig1(object):
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return fig1_restricted.run(ctx)

    def test_panels_have_expected_rows(self, result):
        labels = [label for label, _ in result.gender_panel.rows]
        assert labels == [
            "Individual",
            "Random 2-way",
            "Top 2-way",
            "Bottom 2-way",
            "Top 3-way",
            "Bottom 3-way",
        ]
        age_labels = [label for label, _ in result.age_panel.rows]
        assert age_labels[:4] == labels[:4]

    def test_composition_amplifies_skew(self, result):
        individual = result.gender_panel.row("Individual")
        top2 = result.gender_panel.row("Top 2-way")
        bottom2 = result.gender_panel.row("Bottom 2-way")
        assert top2.p90 > individual.p90
        assert bottom2.p10 < individual.p10

    def test_gender_and_age_panels_differ(self, result):
        """Regression: Gender.MALE and AGE_18_24 share IntEnum value 0;
        the panels must come from different composition sets."""
        gender_top = result.gender_panel.row("Top 2-way")
        age_top = result.age_panel.row("Top 2-way")
        assert gender_top != age_top

    def test_headline_numbers_present(self, result):
        assert set(result.headline) >= {
            "individual_p90_male",
            "top2_p90_male",
            "top3_p90_male",
        }

    def test_render(self, result):
        text = result.render()
        assert "Figure 1" in text and "Individual" in text


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return fig2_platforms.run(ctx)

    def test_covers_three_platforms(self, result):
        assert set(result.gender_panels) == {"facebook", "google", "linkedin"}

    def test_linkedin_more_male_skewed_than_facebook(self, result):
        li = result.gender_panels["linkedin"].row("Individual")
        fb = result.gender_panels["facebook"].row("Individual")
        assert li.p90 > fb.p90

    def test_young_users_underrepresented_on_linkedin(self, result):
        li = result.age_panels["linkedin"].row("Individual")
        assert li.median < 1.0

    def test_top_pairs_mostly_violate_four_fifths(self, result):
        for key, fraction in result.skewed_pair_fraction.items():
            if not math.isnan(fraction):
                assert fraction > 0.8

    def test_render(self, result):
        assert "Figure 2" in result.render()


def assert_top_p90_outside_four_fifths(ctx, result):
    """Every Top curve's headline p90 at the largest removal step
    stays above 1.25 -- removal does not mitigate the skew."""
    assert set(result.top_curves) == set(ctx.target_keys)
    largest = max(ctx.config.removal_percentiles)
    for key, curve in result.top_curves.items():
        percentile, p90 = curve.headline_series()[-1]
        assert percentile == largest
        assert p90 > FOUR_FIFTHS_HIGH, (key, p90)


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return fig3_removal.run_for_value(
            ctx, Gender.MALE, keys=("facebook_restricted",)
        )

    def test_curves_exist(self, result):
        assert "facebook_restricted" in result.top_curves
        assert "facebook_restricted" in result.bottom_curves

    def test_render(self, result):
        assert "Removal" in result.render()

    def test_removal_leaves_top_p90_outside_four_fifths(self, ctx):
        """E3: after the largest removal step, every interface's Top
        2-way p90 still exceeds four-fifths (tiny fixture: 4.2-38.2)."""
        assert_top_p90_outside_four_fifths(ctx, fig3_removal.run(ctx))


class TestFig6:
    def test_removal_leaves_top_p90_outside_four_fifths(self, ctx):
        """E6: the same holds for 18-24 and 55+ on every interface
        (tiny fixture: 8 curves, 2.81-14.54)."""
        result = fig6_removal_ages.run(
            ctx, ages=(AgeRange.AGE_18_24, AgeRange.AGE_55_PLUS)
        )
        for sub in result.by_age.values():
            assert_top_p90_outside_four_fifths(ctx, sub)


class TestFig4:
    def test_single_age_single_platform(self, ctx):
        result = fig4_ages.run(
            ctx, ages=(AgeRange.AGE_55_PLUS,), keys=("facebook_restricted",)
        )
        panel = result.panel(AgeRange.AGE_55_PLUS, "facebook_restricted")
        assert panel.row("Individual").n > 300
        assert "55+" in result.render()


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return fig5_recall.run(
            ctx,
            populations=(
                FavoredPopulation(Gender.FEMALE),
                FavoredPopulation(AgeRange.AGE_18_24, exclude=True),
            ),
            keys=("facebook_restricted", "facebook"),
        )

    def test_panel_shape(self, result):
        panel = result.panel("Female", "facebook")
        labels = [label for label, _ in panel.rows]
        assert labels == [
            "Individual (all)",
            "Individual (skewed)",
            "Random 2-way (skewed)",
            "Top 2-way (skewed)",
        ]
        assert panel.population_size > 0

    def test_compositions_have_lower_recall_than_individuals(self, result):
        panel = result.panel("Female", "facebook")
        individual = panel.row("Individual (all)")
        top = panel.row("Top 2-way (skewed)")
        if not (individual.is_empty or top.is_empty):
            assert top.median < individual.median

    def test_exclusion_population(self, result):
        panel = result.panel("Age not 18-24", "facebook")
        assert panel.population_size > 0

    def test_render(self, result):
        assert "Recall" in result.render()


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return table1_overlap.run(
            ctx,
            populations=(FavoredPopulation(Gender.FEMALE),),
            keys=("facebook_restricted", "facebook"),
        )

    def test_cells_exist(self, result):
        assert ("Female", "facebook_restricted") in result.cells

    def test_union_recall_geq_top1(self, result):
        for cell in result.cells.values():
            assert cell.top10_recall >= cell.top1_recall * 0.8
            assert cell.union_estimate.converged

    def test_overlaps_are_fractions(self, result):
        for cell in result.cells.values():
            if not math.isnan(cell.median_overlap):
                assert 0.0 <= cell.median_overlap <= 1.0

    def test_render(self, result):
        assert "Table 1" in result.render()


class TestTables23:
    def test_examples_structure(self, ctx):
        result = tables23_examples.run(ctx, keys=("facebook_restricted",), k=3)
        assert result.rows  # at least one favoured population has examples
        for rows in result.rows.values():
            for row in rows:
                assert row.ratio_combined > max(row.ratio_1, row.ratio_2)
                assert row.ratio_1 >= 1.25 and row.ratio_2 >= 1.25
        assert "Tables 2/3" in result.render()


class TestMethodology:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return methodology.run(ctx)

    def test_consistency_everywhere(self, result):
        assert set(result.consistency) == {
            "facebook_restricted",
            "facebook",
            "google",
            "linkedin",
        }
        assert all(r.all_consistent for r in result.consistency.values())

    def test_granularity_inferred(self, result):
        fb = result.granularity["facebook"]
        assert fb.max_digits_below_100k <= 2
        google = result.granularity["google"]
        assert google.max_digits_below_100k <= 2

    def test_sensitivity_reports(self, result):
        for report in result.sensitivity.values():
            if report.n_skewed_measured:
                assert 0.0 <= report.skew_preserved_fraction <= 1.0

    def test_render(self, result):
        assert "Methodology" in result.render()


class TestRunner:
    def test_registry_covers_all_paper_artifacts(self):
        assert set(EXPERIMENTS) == {
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "table1",
            "tables23",
            "methodology",
            "ext_lookalike",
            "ext_mitigation",
        }

    def test_run_selected(self, ctx):
        report = run_all(only=["fig1"], context=ctx)
        assert "fig1" in report.results
        assert report.total_api_requests > 0
        assert "Figure 1" in report.render()

    def test_unknown_experiment_rejected(self, ctx):
        with pytest.raises(KeyError):
            run_all(only=["fig99"], context=ctx)
