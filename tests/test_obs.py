"""Specs for the observability island (:mod:`repro.obs`).

Unit tests pin the tracer's span-tree mechanics (nesting, events,
JSONL export) and the ``repro-trace`` summarizer.  Hypothesis property tests replay
arbitrary span programs and check the structural invariants the rest
of the suite relies on: spans nest properly, every child interval lies
within its parent's, and identical programs produce identical
structures.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import NULL_TRACER, NullTracer, Tracer, structure
from repro.obs.report import load_trace, main, render, summarize


class TestTracerSpans:
    def test_spans_nest_under_the_innermost_open_span(self):
        tracer = Tracer("t")
        with tracer.span("outer", kind="a"):
            assert tracer.current.name == "outer"
            with tracer.span("inner"):
                assert tracer.current.name == "inner"
            assert tracer.current.name == "outer"
        assert tracer.current is tracer.root
        outer = tracer.root.children[0]
        assert outer.attrs == {"kind": "a"}
        assert [child.name for child in outer.children] == ["inner"]

    def test_out_of_order_close_raises(self):
        tracer = Tracer("t")
        outer = tracer.span("outer")
        tracer.span("inner")  # left open on purpose
        with pytest.raises(RuntimeError, match="still open"):
            outer.__exit__(None, None, None)

    def test_events_attach_to_the_innermost_open_span(self):
        tracer = Tracer("t")
        tracer.event("root.tick")
        with tracer.span("work"):
            tracer.event("work.tick", n=1)
            tracer.event("work.tick", n=2)
        assert [name for name, _, _ in tracer.root.events] == ["root.tick"]
        work = tracer.root.children[0]
        assert [attrs["n"] for _, _, attrs in work.events] == [1, 2]
        assert tracer.event_counts() == {"root.tick": 1, "work.tick": 2}

    def test_export_is_preorder_with_parents_first(self):
        tracer = Tracer("t")
        with tracer.span("a"):
            with tracer.span("a1"):
                pass
            with tracer.span("a2"):
                pass
        with tracer.span("b"):
            pass
        records = tracer.export()
        assert [r["name"] for r in records] == ["t", "a", "a1", "a2", "b"]
        seen = set()
        for record in records:
            assert record["parent"] is None or record["parent"] in seen
            seen.add(record["id"])

    def test_open_spans_export_without_closing(self):
        tracer = Tracer("t")
        tracer.span("open")
        records = tracer.export()
        assert [r["name"] for r in records] == ["t", "open"]
        assert tracer.current.name == "open"
        assert records[0]["end"] >= records[1]["end"] >= records[1]["start"]

    def test_self_time_excludes_children(self):
        tracer = Tracer("t")
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner = outer.children[0]
        assert outer.self_time == pytest.approx(
            outer.duration - inner.duration
        )

    def test_structure_is_timing_free_and_order_sensitive(self):
        def replay(order):
            tracer = Tracer("t")
            for name in order:
                with tracer.span(name, label=name.upper()):
                    tracer.event("tick", at=name)
            return tracer.export()

        assert structure(replay(["a", "b"])) == structure(replay(["a", "b"]))
        assert structure(replay(["a", "b"])) != structure(replay(["b", "a"]))


class TestJsonlRoundTrip:
    def test_write_jsonl_round_trips_through_load_trace(self, tmp_path):
        tracer = Tracer("run", scale="tiny")
        with tracer.span("experiment.fig2"):
            tracer.event("transport.request", platform="facebook", status=200)
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        meta, records = load_trace(path)
        assert meta["version"] == 1
        assert meta["name"] == "run"
        assert meta["spans"] == len(records) == 2
        assert meta["events"] == 1
        # The root span is still open, so its exported end moves with
        # the clock; everything else round-trips exactly.
        exported = tracer.export()
        assert records[1:] == exported[1:]
        assert {k: v for k, v in records[0].items() if k != "end"} == {
            k: v for k, v in exported[0].items() if k != "end"
        }

    def test_jsonl_lines_are_sorted_key_json(self, tmp_path):
        tracer = Tracer("run")
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        for line in path.read_text().splitlines():
            payload = json.loads(line)
            assert json.dumps(payload, sort_keys=True) == line


class TestNullSinks:
    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", attr=1) as span:
            assert span is None
        assert NULL_TRACER.event("tick") is None
        assert NULL_TRACER.event_counts() == {}
        assert isinstance(NULL_TRACER, NullTracer)


# -- property tests -------------------------------------------------------

_NAMES = st.sampled_from(["alpha", "beta", "gamma", "delta"])

#: (name, n_events, children) span programs, at most a few levels deep.
_PROGRAMS = st.recursive(
    st.tuples(_NAMES, st.integers(0, 2), st.just(())),
    lambda inner: st.tuples(
        _NAMES, st.integers(0, 2), st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=12,
)


def _replay(tracer, program, path=""):
    name, n_events, children = program
    with tracer.span(name, path=path):
        for index in range(n_events):
            tracer.event("tick", index=index)
        for child_index, child in enumerate(children):
            _replay(tracer, child, path=f"{path}/{child_index}")


def _run_program(programs):
    tracer = Tracer("prop")
    for index, program in enumerate(programs):
        _replay(tracer, program, path=str(index))
    return tracer.export()


class TestSpanTreeProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(_PROGRAMS, max_size=4))
    def test_child_intervals_lie_within_their_parents(self, programs):
        records = _run_program(programs)
        by_id = {record["id"]: record for record in records}
        for record in records:
            assert record["start"] <= record["end"]
            if record["parent"] is None:
                continue
            parent = by_id[record["parent"]]
            assert parent["start"] <= record["start"]
            assert record["end"] <= parent["end"]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_PROGRAMS, max_size=4))
    def test_export_is_preorder(self, programs):
        records = _run_program(programs)
        seen = set()
        for record in records:
            assert record["parent"] is None or record["parent"] in seen
            seen.add(record["id"])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_PROGRAMS, max_size=4))
    def test_identical_programs_have_identical_structure(self, programs):
        assert structure(_run_program(programs)) == structure(
            _run_program(programs)
        )

# -- repro-trace ----------------------------------------------------------


def _sample_trace(tmp_path):
    tracer = Tracer("repro-audit", scale="tiny")
    with tracer.span("experiment.fig2"):
        with tracer.span("client.estimate_many", interface="facebook"):
            tracer.event(
                "transport.request",
                platform="facebook",
                endpoint="delivery_estimates",
                status=200,
            )
            tracer.event(
                "transport.request",
                platform="facebook",
                endpoint="delivery_estimates",
                status=429,
                injected=True,
            )
            tracer.event("retry.after", attempt=1, retry_after=1.0)
        tracer.event("cache.hit", target="facebook")
    return tracer.write_jsonl(tmp_path / "trace.jsonl")


class TestTraceReport:
    def test_summarize_accounts_queries_and_events(self, tmp_path):
        meta, records = load_trace(_sample_trace(tmp_path))
        summary = summarize(meta, records)
        assert summary["queries"]["total"] == 2
        assert summary["queries"]["injected_faults"] == 1
        assert summary["queries"]["by_route"] == {
            "facebook/delivery_estimates": 2
        }
        assert summary["events"]["retry.after"] == 1
        assert summary["events"]["cache.hit"] == 1
        assert summary["spans"]["experiment.fig2"]["count"] == 1

    def test_render_mentions_the_headline_numbers(self, tmp_path):
        meta, records = load_trace(_sample_trace(tmp_path))
        text = render(summarize(meta, records))
        assert "platform queries: 2" in text
        assert "injected faults: 1" in text
        assert "retries" not in text  # no retry.backoff in the sample
        assert "retry-after waits: 1" in text
        assert "cache hits: 1" in text

    def test_main_human_and_json(self, tmp_path, capsys):
        path = _sample_trace(tmp_path)
        assert main([str(path)]) == 0
        human = capsys.readouterr().out
        assert "top 10 spans by self-time:" in human
        assert main([str(path), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["queries"]["total"] == 2

    def test_main_missing_file_returns_2(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        cases = [
            (None, "no such file"),
            ('{"meta": {"name": "x"}}\n{"id": 0,\n', "trace.jsonl:2: not JSON"),
            (
                '{"meta": {"name": "x"}}\n{"id": 0}\n',
                "trace.jsonl:2: span record without parent, name, start, end, events",
            ),
            ("", "trace.jsonl: no meta line"),
        ]
        for content, message in cases:
            if content is not None:
                path.write_text(content)
            assert main([str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("repro-trace: ") and err.count("\n") == 1
            assert message in err
