"""Outside-in tracing of the ``repro`` layers for the benchmark's traced run.

Nothing under ``src/`` is changed: the benchmark's workload process
(``proc.py``) wraps the public entry points of each layer in spans of a
:class:`repro.obs.Tracer` kept in memory, then reduces the exported
spans with ``repro-trace``'s own summariser
(:func:`repro.obs.report.summarize`), so the benchmark and an operator
read the same self times.  Self time is a span's duration minus the
duration of its child spans.

Two rules keep the counts honest:

* A function bound elsewhere with a module-level ``from ... import``
  (``platforms.base`` binds ``intersect_counts``, ``runner`` binds
  ``build_audit_session``) is replaced at every binding, after every
  ``repro`` module has been imported; otherwise calls through the
  copy would silently read zero.
* A span is not reopened while one of the same name is open (Google's
  ``estimate_reach`` calls the base one through ``super()``), so call
  counts and totals count each entry once.

The per-item codec calls run about a million times in a query-heavy
run; one span per call would cost more memory and time than the codec
itself.  Consecutive codec calls under one parent span therefore fold
into a single ``api.codec`` span whose duration is their summed time and
whose ``calls`` attribute counts them.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable

from repro.obs import Tracer
from repro.obs.report import summarize
from run import EXPERIMENTS

__all__ = [
    "Tracer",
    "Wrapper",
    "audit_metrics",
    "import_all",
    "install_audit",
    "install_lint",
    "lint_metrics",
]


def import_all(package: str) -> None:
    """Import every module of ``package`` so every binding exists."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for klass in found:
        found.extend(k for k in klass.__subclasses__() if k not in found)
    return found


class Wrapper:
    """Installs span wrappers; without a tracer it only rebinds."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        #: Counters the spans cannot carry (bytes, items, statuses).
        self.counts: Counter[str] = Counter()
        self._open: Counter[str] = Counter()

    def span(self, fn: Callable, name: str, plain: Callable | None = None) -> Callable:
        """``fn`` inside a span called ``name``.

        While a span of that name is open, calls go straight to
        ``plain`` (default ``fn``), the unwrapped original.
        """
        tracer = self.tracer
        if tracer is None:
            return fn
        is_open = self._open
        inner = plain or fn

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if is_open[name]:
                return inner(*args, **kwargs)
            is_open[name] += 1
            try:
                with tracer.span(name):
                    return fn(*args, **kwargs)
            finally:
                is_open[name] -= 1

        return traced

    def leaf(self, fn: Callable, name: str) -> Callable:
        """Like :meth:`span`, folding consecutive calls into one span."""
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            siblings = tracer.current.children
            last = siblings[-1] if siblings else None
            if last is None or last.name != name:
                with tracer.span(name, calls=1):
                    return fn(*args, **kwargs)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                last.end += perf_counter() - started
                last.attrs["calls"] += 1

        return traced

    def rebind(
        self,
        fn: Callable,
        factory: Callable[[Callable], Callable] | None,
        name: str,
    ) -> Callable:
        """Replace ``fn`` at every module binding under ``repro``."""
        new = self.span(factory(fn) if factory else fn, name, plain=fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, new)
        return new

    def method(
        self,
        cls: type,
        attr: str,
        name: str,
        factory: Callable[[Callable], Callable] | None = None,
        leaf: bool = False,
    ) -> None:
        """Wrap ``attr`` on ``cls`` and every subclass that defines it."""
        for klass in _subclasses(cls):
            raw = klass.__dict__.get(attr)
            if raw is None:
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if leaf:
                new = self.leaf(fn, name)
            else:
                new = self.span(factory(fn) if factory else fn, name, plain=fn)
            setattr(klass, attr, kind(new) if kind else new)


# -- audit workloads ---------------------------------------------------------


def install_audit(wrapper: Wrapper) -> None:
    """Wrap the entry points of every layer a ``repro-audit`` run uses."""
    from repro.api import obfuscation, wire
    from repro.api.chaos import ChaosTransport
    from repro.api.client import ReachClient
    from repro.api.transport import FakeTransport, VirtualClock
    from repro.core import discovery, overlap, removal
    from repro.core.audit import AuditTarget
    from repro.core.checkpoint import EstimateCheckpoint
    from repro.experiments import runner
    from repro.platforms import build_platform_suite
    from repro.platforms.base import AdPlatformInterface
    from repro.population import bitsets
    from repro.population.generator import Population, PopulationGenerator

    counts = wrapper.counts

    # population
    wrapper.method(PopulationGenerator, "generate", "population.generate")
    wrapper.method(Population, "realise_attribute", "population.realise_attribute")

    # population.bitsets: bytes = vectors x words x 8 (computed, not measured)
    def count_bytes(fn: Callable) -> Callable:
        def intersect_counts(vectors, mask=None):
            if vectors:
                counts["bitsets.bytes_computed"] += (
                    len(vectors) * ((len(vectors[0]) + 63) // 64) * 8
                )
            return fn(vectors, mask)

        return intersect_counts

    wrapper.rebind(bitsets.intersect_counts, count_bytes, "bitsets.intersect_counts")

    # platforms
    wrapper.rebind(build_platform_suite, None, "platforms.build_suite")
    wrapper.method(AdPlatformInterface, "prime_counts", "platforms.prime_counts")
    wrapper.method(AdPlatformInterface, "estimate_reach", "platforms.estimate_reach")

    # api: transport, routes (wrapped as they are mounted), codecs, client
    # ChaosTransport.request calls FakeTransport.request, whose wrapper
    # then steps aside: each request is counted once, at the outer edge.
    def count_status(fn: Callable) -> Callable:
        def request(self, http_request):
            response = fn(self, http_request)
            counts["api.attempted"] += 1
            counts["api.ok"] += 200 <= response.status < 300
            counts["api.client_requests"] += bool(wrapper._open["api.client"])
            return response

        return request

    wrapper.method(FakeTransport, "request", "api.transport", factory=count_status)
    wrapper.method(ChaosTransport, "request", "api.transport", factory=count_status)
    register = FakeTransport.register

    def register_traced(self, method, path, handler, cost=None):
        register(self, method, path, wrapper.span(handler, "api.route"), cost=cost)

    FakeTransport.register = register_traced
    codecs = [
        (wire.BatchEnvelope, ("encode_request", "decode_request", "encode_response",
                              "decode_response", "item_ok", "item_error")),
        (wire.FacebookWireCodec, ("encode_request", "decode_request",
                                  "encode_response", "decode_response")),
        (wire.LinkedInWireCodec, ("encode_request", "decode_request",
                                  "encode_response", "decode_response")),
        (obfuscation.GoogleWireCodec, (
            "encode_request", "decode_request", "encode_response",
            "decode_response", "encode_batch_request", "decode_batch_request",
            "batch_item_ok", "batch_item_error", "encode_batch_response",
            "decode_batch_response")),
    ]
    for cls, names in codecs:
        for attr in names:
            wrapper.method(cls, attr, "api.codec", leaf=True)

    # Estimates a checkpoint held when it was attached, per interface:
    # sending one of them again counts as ``core.requeried``.
    held: dict[str, set] = {}

    def snapshot_held(fn: Callable) -> Callable:
        def attach_checkpoint(self, checkpoint):
            for client in (self.client, self.measure_client):
                key = client.interface_key
                held.setdefault(key, set(checkpoint.shard(key)))
            return fn(self, checkpoint)

        return attach_checkpoint

    wrapper.method(AuditTarget, "attach_checkpoint", "core.checkpoint_attach",
                   factory=snapshot_held)

    def count_items(fn: Callable) -> Callable:
        def estimate_many(self, specs, on_result=None):
            specs = list(specs)
            counts["api.items"] += len(specs)
            shard = held.get(self.interface_key, ())
            counts["core.requeried"] += sum(spec in shard for spec in specs)
            return fn(self, specs, on_result)

        return estimate_many

    def count_single(fn: Callable) -> Callable:
        def estimate(self, spec):
            counts["core.requeried"] += spec in held.get(self.interface_key, ())
            return fn(self, spec)

        return estimate

    wrapper.method(ReachClient, "estimate_many", "api.client", factory=count_items)
    wrapper.method(ReachClient, "estimate", "api.client_single", factory=count_single)

    def count_sleep(fn: Callable) -> Callable:
        def sleep(self, seconds):
            counts["api.backoff_virtual_s"] += seconds
            return fn(self, seconds)

        return sleep

    wrapper.method(VirtualClock, "sleep", "api.backoff", factory=count_sleep)

    # core
    wrapper.method(AuditTarget, "audit_many", "core.audit_many")
    wrapper.method(AuditTarget, "_plan_queries", "core.plan")
    for fn in (
        discovery.audit_individuals,
        discovery.random_compositions,
        discovery.skewed_compositions,
    ):
        wrapper.rebind(fn, None, "core.discovery")
    wrapper.rebind(removal.removal_sweep, None, "core.removal")
    wrapper.rebind(overlap.pairwise_overlaps, None, "core.overlap")
    wrapper.rebind(overlap.union_recall, None, "core.overlap")

    def measure_file(fn: Callable) -> Callable:
        def save(self, path=None):
            target = fn(self, path)
            counts["core.checkpoint_bytes"] = max(
                counts["core.checkpoint_bytes"], target.stat().st_size
            )
            return target

        return save

    wrapper.method(EstimateCheckpoint, "save", "core.checkpoint_save",
                   factory=measure_file)
    wrapper.method(EstimateCheckpoint, "load", "core.checkpoint_load")

    # experiments and reporting: each result type's render() is wrapped
    # the first time a runner returns one.
    rendered: set[type] = set()

    def wrap_render(fn: Callable) -> Callable:
        def run_experiment(ctx):
            result = fn(ctx)
            if type(result) not in rendered:
                rendered.add(type(result))
                wrapper.method(type(result), "render", "reporting.render")
            return result

        return run_experiment

    for name, (title, experiment) in list(runner.EXPERIMENTS.items()):
        runner.EXPERIMENTS[name] = (
            title, wrapper.span(wrap_render(experiment), f"experiments.{name}")
        )


def span_counts(spans: dict[str, dict]) -> dict[str, int]:
    """Entries per wrapped entry point (span name)."""
    return {name: agg["count"] for name, agg in spans.items()}


def _span_table(tracer: Tracer) -> tuple[dict[str, dict], list[dict]]:
    records = tracer.export()
    return summarize({}, records)["spans"], records


def audit_metrics(
    probe: Tracer, program: Tracer, wrapper: Wrapper, session
) -> dict[str, float]:
    """Per-layer metrics of one traced ``repro-audit`` process."""
    spans, records = _span_table(probe)
    counts = wrapper.counts

    def total(name: str) -> float:
        return spans.get(name, {}).get("total", 0.0)

    def own(name: str) -> float:
        return spans.get(name, {}).get("self", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("count", 0)

    interfaces = list(session.suite.interfaces.values())
    resolution = [i.resolution_stats() for i in interfaces]
    targets = list(session.targets.values())
    events = summarize({}, program.export())["events"]
    metrics = {
        "population.generate_s": total("population.generate"),
        "population.realise_calls": calls("population.realise_attribute"),
        "population.realise_s": total("population.realise_attribute"),
        "bitsets.intersect_calls": calls("bitsets.intersect_counts"),
        "bitsets.intersect_s": total("bitsets.intersect_counts"),
        "bitsets.bytes_computed": counts["bitsets.bytes_computed"],
        "platforms.catalog_s": own("platforms.build_suite"),
        "platforms.prime_calls": calls("platforms.prime_counts"),
        "platforms.prime_s": own("platforms.prime_counts"),
        "platforms.estimate_s": total("platforms.estimate_reach"),
        "platforms.queries": sum(i.query_count for i in interfaces),
        "api.transport_s": own("api.transport"),
        "api.routes_s": own("api.route"),
        "api.codec_s": own("api.codec"),
        "api.codec_calls": sum(
            r["attrs"].get("calls", 0) for r in records if r["name"] == "api.codec"
        ),
        "api.client_s": own("api.client") + own("api.client_single"),
        "api.retries": events.get("retry.backoff", 0) + events.get("retry.after", 0),
        "api.faults": len(getattr(session.transport, "fault_log", ())),
        "api.backoff_virtual_s": counts["api.backoff_virtual_s"],
        "core.audit_many_calls": calls("core.audit_many"),
        "core.plan_s": own("core.plan"),
        "core.discovery_s": total("core.discovery"),
        "core.removal_s": total("core.removal"),
        "core.overlap_s": total("core.overlap"),
        "core.checkpoint_save_s": total("core.checkpoint_save"),
        "core.checkpoint_load_s": total("core.checkpoint_load"),
        "core.checkpoint_bytes": counts["core.checkpoint_bytes"],
        "core.requeried": counts["core.requeried"],
        "reporting.render_s": total("reporting.render"),
        "spans": span_counts(spans),
    }
    # Ratios travel as (numerator, denominator) so the two processes of
    # a killed-and-resumed run can be pooled before dividing.
    metrics["ratios"] = {
        "platforms.resolution_hit_rate": (
            sum(r["hits"] for r in resolution),
            sum(r["hits"] + r["misses"] for r in resolution),
        ),
        "api.items_per_request": (counts["api.items"], counts["api.client_requests"]),
        "api.ok_ratio": (counts["api.ok"], counts["api.attempted"]),
        "core.cache_hit_rate": (
            sum(t.cache_hits for t in targets),
            sum(t.cache_hits + t.cache_misses for t in targets),
        ),
    }
    for name in EXPERIMENTS:
        metrics[f"experiments.{name}_s"] = total(f"experiments.{name}")
    return metrics


# -- lint workload -----------------------------------------------------------


def install_lint(wrapper: Wrapper) -> None:
    """Wrap the stages a cold ``repro-lint`` run goes through.

    The CLI reaches the analyser through ``incremental_analyze``:
    per-file extraction (``extract_record``, which parses, runs the
    per-module rules and calls ``extract_summary``), then the
    whole-program link (``Project``) and rules (``run_project_rules``).
    ``analyze_paths`` and ``analyze_project`` are the uncached
    equivalents tests call; the CLI never reaches them.
    """
    from repro.analysis import core, graph, incremental

    wrapper.rebind(incremental.extract_record, None, "analysis.extract")
    wrapper.rebind(graph.extract_summary, None, "analysis.extract_summary")
    wrapper.method(graph.Project, "__init__", "analysis.project")
    wrapper.rebind(core.run_project_rules, None, "analysis.project")


def lint_metrics(probe: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced ``repro-lint`` process."""
    spans, _records = _span_table(probe)

    def get(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    return {
        "analysis.files": get("analysis.extract", "count"),
        "analysis.extract_s": get("analysis.extract", "total"),
        "analysis.summary_s": get("analysis.extract_summary", "total"),
        "analysis.project_s": get("analysis.project", "total"),
        "spans": span_counts(spans),
    }
