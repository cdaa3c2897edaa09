"""Tests for experiment infrastructure: config, populations, context, CLI."""

from __future__ import annotations

import gc
import weakref
from types import SimpleNamespace

import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentContext,
    FIG5_POPULATIONS,
    FavoredPopulation,
    TABLE1_POPULATIONS,
    TARGET_LABELS,
)
from repro.core.results import CompositionSet, TargetingAudit
from repro.population.demographics import (
    SENSITIVE_ATTRIBUTES,
    AgeRange,
    Gender,
)

GENDER = SENSITIVE_ATTRIBUTES["gender"]
AGE = SENSITIVE_ATTRIBUTES["age"]


class TestExperimentConfig:
    def test_presets_ordering(self):
        full, small, tiny = (
            ExperimentConfig.full(),
            ExperimentConfig.small(),
            ExperimentConfig.tiny(),
        )
        assert full.n_compositions > small.n_compositions > tiny.n_compositions
        assert full.n_records > small.n_records > tiny.n_records

    def test_full_matches_paper_parameters(self):
        full = ExperimentConfig.full()
        assert full.n_compositions == 1000
        assert full.min_reach == 10_000
        assert full.overlap_top_k == 100
        assert full.union_top_k == 10
        assert full.removal_percentiles == (0, 2, 4, 6, 8, 10)
        assert full.consistency_repeats == 100
        assert full.consistency_targetings == 20

    def test_with_records(self):
        config = ExperimentConfig.tiny().with_records(999)
        assert config.n_records == 999
        assert config.n_compositions == ExperimentConfig.tiny().n_compositions


def gender_audit(male, female, options=("x",)):
    return TargetingAudit(
        options=options,
        attribute=GENDER,
        sizes={Gender.MALE: male, Gender.FEMALE: female},
        bases={Gender.MALE: 1000, Gender.FEMALE: 1000},
    )


def age_audit(sizes, options=("x",)):
    return TargetingAudit(
        options=options,
        attribute=AGE,
        sizes=sizes,
        bases={a: 1000 for a in AgeRange},
    )


class TestFavoredPopulation:
    def test_labels(self):
        assert FavoredPopulation(Gender.MALE).label == "Male"
        assert FavoredPopulation(AgeRange.AGE_18_24).label == "Age 18-24"
        assert (
            FavoredPopulation(AgeRange.AGE_18_24, exclude=True).label
            == "Age not 18-24"
        )

    def test_directions(self):
        assert FavoredPopulation(Gender.MALE).direction == "top"
        assert (
            FavoredPopulation(AgeRange.AGE_55_PLUS, exclude=True).direction
            == "bottom"
        )

    def test_favours_inclusion(self):
        population = FavoredPopulation(Gender.MALE)
        rows = CompositionSet(
            "x", [gender_audit(30, 10), gender_audit(10, 30), gender_audit(10, 10)]
        )
        assert population.favours(rows).tolist() == [True, False, False]

    def test_favours_exclusion(self):
        population = FavoredPopulation(AgeRange.AGE_55_PLUS, exclude=True)
        sizes = {
            AgeRange.AGE_18_24: 100,
            AgeRange.AGE_25_34: 100,
            AgeRange.AGE_35_54: 100,
            AgeRange.AGE_55_PLUS: 5,
        }
        rows = CompositionSet("x", [age_audit(sizes)])
        assert population.favours(rows).tolist() == [True]

    def test_recall(self):
        inc = FavoredPopulation(Gender.MALE)
        exc = FavoredPopulation(Gender.MALE, exclude=True)
        rows = CompositionSet("x", [gender_audit(30, 12)])
        assert inc.recalls(rows).tolist() == [30]
        assert exc.recalls(rows).tolist() == [12]

    def test_population_size(self):
        bases = {Gender.MALE: 600, Gender.FEMALE: 400}
        assert FavoredPopulation(Gender.MALE).population_size(bases) == 600
        assert (
            FavoredPopulation(Gender.MALE, exclude=True).population_size(bases)
            == 400
        )

    def test_attribute(self):
        assert FavoredPopulation(Gender.FEMALE).attribute is GENDER
        assert FavoredPopulation(AgeRange.AGE_25_34).attribute is AGE

    def test_canonical_sets(self):
        assert len(TABLE1_POPULATIONS) == 4
        assert {p.label for p in TABLE1_POPULATIONS} == {
            "Male", "Female", "Age not 18-24", "Age not 55+",
        }
        assert len(FIG5_POPULATIONS) == 6


class TestExperimentContext:
    @pytest.fixture(scope="class")
    def ctx(self):
        return ExperimentContext(ExperimentConfig.tiny())

    def test_target_labels(self):
        assert TARGET_LABELS["facebook_restricted"] == "FB-restricted"
        assert set(TARGET_LABELS) == {
            "facebook_restricted", "facebook", "google", "linkedin",
        }

    def test_individuals_cached(self, ctx):
        first = ctx.individuals("facebook_restricted", "gender")
        second = ctx.individuals("facebook_restricted", "gender")
        assert first is second

    def test_skewed_sets_cached_per_type(self, ctx):
        """Gender.MALE and AGE_18_24 (same raw int) must cache apart."""
        gender_set = ctx.skewed_set("facebook_restricted", Gender.MALE, "top")
        age_set = ctx.skewed_set(
            "facebook_restricted", AgeRange.AGE_18_24, "top"
        )
        assert gender_set is not age_set
        assert gender_set is ctx.skewed_set(
            "facebook_restricted", Gender.MALE, "top"
        )

    def test_figure_sets_order(self, ctx):
        sets = ctx.figure_sets("facebook_restricted", Gender.MALE)
        assert [s.label for s in sets] == [
            "Individual", "Random 2-way", "Top 2-way", "Bottom 2-way",
        ]
        with_3way = ctx.figure_sets(
            "facebook_restricted", Gender.MALE, include_3way=True
        )
        assert [s.label for s in with_3way][-2:] == ["Top 3-way", "Bottom 3-way"]

    def test_figure_sets_are_reach_filtered(self, ctx):
        sets = ctx.figure_sets("facebook_restricted", Gender.MALE)
        for s in sets:
            assert all(
                a.total_reach >= ctx.config.min_reach for a in s.audits
            )


class TestRunnerCli:
    def test_main_runs_selected_experiment(self, tmp_path, capsys):
        from repro.experiments.runner import main

        out = tmp_path / "report.txt"
        code = main(
            [
                "--scale", "tiny",
                "--only", "fig1",
                "--records", "8000",
                "--seed", "3",
                "--compositions", "24",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "Figure 1" in text
        assert "compositions/set=24" in text
        captured = capsys.readouterr()
        assert "Figure 1" in captured.out

    def test_main_rejects_unknown_experiment(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["--only", "fig99"])

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["--records", "0"], "--records: must be an integer >= 1"),
            (["--compositions", "0"], "--compositions: must be an integer >= 1"),
            (["--seed", "-1"], "--seed: must be an integer >= 0"),
            (["--jobs", "2"], "--jobs: parallel execution was removed"),
            (["--jobs", "0"], "--jobs: parallel execution was removed"),
        ],
    )
    def test_main_rejects_bad_values_before_building(
        self, monkeypatch, capsys, argv, message
    ):
        from repro.experiments import context, runner

        built = []
        monkeypatch.setattr(runner, "build_audit_session", built.append)
        monkeypatch.setattr(context, "build_audit_session", built.append)
        with pytest.raises(SystemExit) as exited:
            runner.main(["--scale", "tiny", "--only", "fig1", *argv])
        assert exited.value.code == 2
        assert message in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize(
        ("name", "content", "message"),
        [
            (
                "run.ckpt.json",
                '{"x":1\n',
                "unreadable checkpoint {path} line 1: JSONDecodeError",
            ),
            (
                "run.ckpt.json",
                '{"version": 1, "interfaces": {"facebook": []}}',
                "unreadable checkpoint {path} line 1: ValueError: "
                "unsupported checkpoint version 1",
            ),
            (
                "run.ckpt.json",
                '{"version": 2}\n'
                '["google", {"country": "US", "genders": null, "ages": null, '
                '"clauses": [["g:a"]], "exclusions": []}, 7]\n'
                '["google", {"country": "US"}, 7]\n',
                "unreadable checkpoint {path} line 3: KeyError: 'genders'",
            ),
            ("", None, "{path} is a directory, not a checkpoint file"),
            ("missing/run.ckpt.json", None, "no directory {path.parent} for {path}"),
        ],
        ids=[
            "bad-json", "wrong-version", "bad-entry", "directory", "missing-parent"
        ],
    )
    def test_main_rejects_bad_checkpoint_before_building(
        self, monkeypatch, capsys, tmp_path, name, content, message
    ):
        from repro.experiments import context, runner

        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        built = []
        monkeypatch.setattr(runner, "build_audit_session", built.append)
        monkeypatch.setattr(context, "build_audit_session", built.append)
        with pytest.raises(SystemExit) as exited:
            runner.main(["--scale", "tiny", "--checkpoint", str(path)])
        assert exited.value.code == 2
        assert f"--checkpoint: {message.format(path=path)}" in capsys.readouterr().err
        assert built == []
        assert not (tmp_path / "missing").exists()


class _Node:
    """A weak-referenceable object to build reference cycles from."""


def _churn(n: int = 20_000) -> None:
    """Allocate enough containers to trip CPython's automatic collector
    many times over (its gen-0 threshold is 700 allocations)."""
    keep = [[index] for index in range(n)]
    del keep


class _FakeContext:
    """Stands in for ExperimentContext: builds garbage, no platforms."""

    def __init__(self, config, session=None):
        self.config = config
        self.session = SimpleNamespace(total_api_requests=lambda: 0)
        _churn()


class TestCollectorPolicy:
    """``run_all`` collects cyclic garbage only at stage boundaries."""

    @pytest.fixture
    def register(self, monkeypatch):
        """Register fake experiments; returns their names, in order."""
        from repro.experiments import runner

        monkeypatch.setattr(runner, "build_audit_session", lambda **_: None)
        monkeypatch.setattr(runner, "ExperimentContext", _FakeContext)

        def register(*experiments):
            names = []
            for index, experiment in enumerate(experiments):
                name = f"gc_fake_{index}"
                monkeypatch.setitem(
                    runner.EXPERIMENTS, name, (name, experiment)
                )
                names.append(name)
            return names

        return register

    @pytest.fixture
    def collections(self):
        """Generation of every collection started while the test runs."""
        seen = []

        def hook(phase, info):
            if phase == "start":
                seen.append(info["generation"])

        gc.callbacks.append(hook)
        yield seen
        gc.callbacks.remove(hook)

    @staticmethod
    def _run(names, **kwargs):
        from repro.experiments.runner import run_all

        return run_all(
            config=ExperimentConfig.tiny(), only=names, **kwargs
        )

    def test_only_boundary_collections(self, register, collections):
        def experiment(ctx):
            _churn()
            return None

        names = register(experiment, experiment, experiment)
        self._run(names)
        # One after the session build, one after each experiment; none
        # of the automatic gen-0/1 collections the churn would trip.
        assert collections == [2] * (1 + len(names))

    def test_each_boundary_is_a_gc_collect_span(self, register):
        from repro.obs import Tracer

        def experiment(ctx):
            return None

        names = register(experiment, experiment)
        tracer = Tracer("gc")
        self._run(names, tracer=tracer)
        spans = [
            (record["name"], record["attrs"].get("after"))
            for record in tracer.export()
        ]
        assert spans == [
            ("gc", None),
            (f"experiment.{names[0]}", None),
            ("gc.collect", "session"),
            ("gc.collect", names[0]),
            (f"experiment.{names[1]}", None),
            ("gc.collect", names[1]),
        ]

    def test_cycle_is_reclaimed_at_its_experiment_boundary(self, register):
        reclaimed = []
        seen_by_next = []

        def make_cycle(ctx):
            node = _Node()
            node.self = node
            weakref.finalize(node, reclaimed.append, "cycle")
            return None

        def observe(ctx):
            seen_by_next.append(list(reclaimed))
            return None

        names = register(make_cycle, observe)
        self._run(names)
        assert seen_by_next == [["cycle"]]
        assert reclaimed == ["cycle"]

    @pytest.mark.parametrize("raised", [None, RuntimeError, KeyboardInterrupt])
    def test_collector_is_restored_on_every_exit(self, register, raised):
        states = []

        def experiment(ctx):
            states.append((gc.isenabled(), gc.get_freeze_count() > 0))
            if raised is not None:
                raise raised("boom")
            return None

        names = register(experiment, experiment)
        if raised is None:
            self._run(names)
        else:
            with pytest.raises(raised):
                self._run(names)
        # Inside the run: automatic collection off, the session frozen.
        assert states[0] == (False, True)
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_caller_configured_collector_is_left_alone(
        self, register, collections
    ):
        states = []

        def experiment(ctx):
            states.append((gc.isenabled(), gc.get_freeze_count()))
            return None

        names = register(experiment, experiment)
        gc.disable()
        try:
            self._run(names)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert states == [(False, 0), (False, 0)]
        assert gc.get_freeze_count() == 0
        assert collections == []
