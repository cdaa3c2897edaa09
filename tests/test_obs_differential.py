"""Differential specs: observability must never change what a run does.

The contract under test (DESIGN.md section 10): enabling tracing is
purely observational.  Experiment records render bit-identical and
query counts match with tracing off vs on -- for the plain path, under
a chaos profile, and across a checkpointed kill/resume -- and the trace
must also *account* for the run: one ``transport.request`` event per
platform query, totalling exactly the transport's request counter.
A traced run also spends the same simulated seconds on the
transport's virtual clock as an untraced one.
"""

from __future__ import annotations

import pytest

from repro import build_audit_session
from repro.core import EstimateCheckpoint
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.runner import main, run_all
from repro.obs import Tracer, structure
from repro.obs.report import load_trace, summarize
from repro.platforms.errors import PlatformError

CONFIG = ExperimentConfig.tiny().with_records(3_000)


def _traced_run(only, **kwargs):
    tracer = Tracer("differential")
    report = run_all(config=CONFIG, only=only, tracer=tracer, **kwargs)
    return report, tracer


def _renders(report):
    return {name: result.render() for name, result in report.results.items()}


def _platform_queries(suite):
    """Size queries issued across every interface of a platform suite."""
    interfaces = (*suite.interfaces.values(), suite.google.search_campaign)
    return sum(interface.query_count for interface in interfaces)


def _fig2_run(tracer=None):
    """A fig2 run over its own session, returned with that session."""
    session = build_audit_session(
        n_records=CONFIG.n_records, seed=CONFIG.seed, tracer=tracer
    )
    context = ExperimentContext(CONFIG, session=session)
    return run_all(config=CONFIG, only=["fig2"], context=context), session


@pytest.fixture(scope="module")
def baseline():
    """Untraced fig2 run, with its session for accounting."""
    report, session = _fig2_run()
    return {
        "render": report.results["fig2"].render(),
        "api_requests": report.total_api_requests,
        "platform_queries": _platform_queries(session.suite),
        "virtual_seconds": session.transport.clock.now(),
    }


class TestSequentialDifferential:
    def test_fig2_and_table1_bit_identical_with_tracing_on(self):
        base = run_all(config=CONFIG, only=["fig2", "table1"])
        traced_report, tracer = _traced_run(["fig2", "table1"])
        assert _renders(traced_report) == _renders(base)
        assert traced_report.total_api_requests == base.total_api_requests
        # The trace accounts for every platform query.
        events = tracer.event_counts()
        assert events["transport.request"] == traced_report.total_api_requests
        # Both experiments got their own span.
        shape = structure(tracer.export())
        names = [child[0] for child in shape[0][3]]
        assert names == ["experiment.fig2", "experiment.table1"]

    def test_metrics_do_not_change_the_run_and_aggregate_per_experiment(
        self, baseline
    ):
        # The trace's counts aggregate per experiment by nesting: every
        # platform query of a fig2-only run lies under its span.
        tracer = Tracer("differential")
        report, session = _fig2_run(tracer)
        assert report.results["fig2"].render() == baseline["render"]
        assert session.transport.clock.now() == baseline["virtual_seconds"]
        assert baseline["virtual_seconds"] > 0

        def requests(span):
            own = sum(name == "transport.request" for name, _t, _a in span.events)
            return own + sum(requests(child) for child in span.children)

        (fig2,) = tracer.root.children
        assert fig2.name == "experiment.fig2"
        total = tracer.event_counts()["transport.request"]
        assert requests(fig2) == total == report.total_api_requests
        assert total == baseline["api_requests"]

    def test_cli_trace_and_metrics(self, tmp_path, baseline, capsys):
        trace_path = tmp_path / "out.jsonl"
        exit_code = main(
            [
                "--scale",
                "tiny",
                "--records",
                "3000",
                "--only",
                "fig2",
                "--trace",
                str(trace_path),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "trace written to" in captured.err
        meta, records = load_trace(trace_path)
        summary = summarize(meta, records)
        assert summary["queries"]["total"] == baseline["api_requests"]
        assert summary["spans"]["experiment.fig2"]["count"] == 1


class TestChaosDifferential:
    def test_chaos_traced_run_is_bit_identical_and_accounted(self, baseline):
        report, tracer = _traced_run(["fig2"], chaos="storm")
        assert report.results["fig2"].render() == baseline["render"]
        events = tracer.event_counts()
        # Under chaos the edge sees more requests than the platforms do
        # (denied/raised ones); the trace counts what the edge saw.
        assert events["transport.request"] == report.total_api_requests
        assert report.total_api_requests > baseline["api_requests"]
        assert events["chaos.fault"] > 0
        assert events.get("retry.backoff", 0) + events.get("retry.after", 0) > 0

    def test_checkpointed_kill_resume_with_tracing_on(
        self, tmp_path, baseline, fault_profile
    ):
        def run(chaos=None, checkpoint=None, budget=None):
            tracer = Tracer("killresume")
            session = build_audit_session(
                n_records=CONFIG.n_records,
                seed=CONFIG.seed,
                chaos=chaos,
                tracer=tracer,
            )
            if budget is not None:
                for client in session.clients.values():
                    client.max_retries = budget
            context = ExperimentContext(CONFIG, session=session)
            report = run_all(
                config=CONFIG,
                only=["fig2"],
                context=context,
                checkpoint=checkpoint,
            )
            return report, session, tracer

        path = tmp_path / "fig2.ckpt.json"
        outage = fault_profile(outage_after=6)
        killed_tracer = Tracer("killresume")
        killed_session = build_audit_session(
            n_records=CONFIG.n_records,
            seed=CONFIG.seed,
            chaos=outage,
            tracer=killed_tracer,
        )
        for client in killed_session.clients.values():
            client.max_retries = 6
        with pytest.raises(PlatformError):
            run_all(
                config=CONFIG,
                only=["fig2"],
                context=ExperimentContext(CONFIG, session=killed_session),
                checkpoint=EstimateCheckpoint(path),
            )
        killed = EstimateCheckpoint(path)
        assert len(killed) > 0
        # The kill still persisted a checkpoint, and the trace says so.
        killed_events = killed_tracer.event_counts()
        assert killed_events["checkpoint.save"] == 1
        assert killed_events["chaos.fault"] > 0

        resumed_report, resumed_session, resumed_tracer = run(
            checkpoint=EstimateCheckpoint(path)
        )
        assert resumed_report.results["fig2"].render() == baseline["render"]
        # No duplicate queries across the kill/resume pair.
        assert (
            len(killed) + _platform_queries(resumed_session.suite)
            == baseline["platform_queries"]
        )
        # The resumed trace records the preloaded entries per target.
        # Targets sharing an interface (one's client is another's
        # measure client) each preload its shard, so the per-target
        # counts cover every checkpointed entry at least once.
        loads = [
            attrs["entries"]
            for name, _t, attrs in resumed_tracer.root.events
            if name == "checkpoint.load"
        ]
        assert loads and sum(loads) >= len(killed)
        assert (
            resumed_tracer.event_counts()["transport.request"]
            == resumed_session.total_api_requests()
        )
