"""One workload process of the benchmark (spawned by ``run.py``).

Usage: ``python3 perfbench/proc.py SPEC.json`` with ``src`` on
``PYTHONPATH``.  The spec names a mode:

* ``audit`` -- ``repro-audit`` with the spec's ``argv``, exactly as the
  CLI runs it.  ``outage_after`` turns the ``--chaos`` profile into the
  same profile with a permanent outage after that many requests, which
  kills the run deterministically.  An exception the run raises is
  recorded (by name) instead of propagated.
* ``lint`` -- ``repro-lint`` with the spec's ``argv``.

Every mode times ``build_audit_session`` (the set-up the user pays) and
the first call into the program, so the parent can report ``setup_s``
and ``startup_s`` without tracing.  With ``traced`` set, the layer
wrappers of :mod:`layers` are installed first.  The result is written
as JSON to the spec's ``result`` path.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402  (benchmark-local module)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    result: dict = {"setup_s": 0.0, "error": None}
    sessions: list = []
    first_call: list[float] = []

    probe = layers.Tracer("perfbench") if spec["traced"] else None
    if probe is not None:
        layers.import_all("repro")
    wrapper = layers.Wrapper(probe)

    if spec["mode"] == "audit":
        import repro
        from repro.api.chaos import FAULT_PROFILES

        outage_after = spec.get("outage_after")
        program_tracer = layers.Tracer("program") if probe is not None else None

        def timed_build(build):
            def build_audit_session(*args, **kwargs):
                if outage_after is not None and isinstance(kwargs.get("chaos"), str):
                    kwargs["chaos"] = replace(
                        FAULT_PROFILES[kwargs["chaos"]], outage_after=outage_after
                    )
                tracer = kwargs.get("tracer")
                if program_tracer is not None and not getattr(tracer, "enabled", False):
                    kwargs["tracer"] = program_tracer
                started = perf_counter()
                if not first_call:
                    first_call.append(started)
                session = build(*args, **kwargs)
                result["setup_s"] += perf_counter() - started
                sessions.append(session)
                return session

            return build_audit_session

        # The runner and its context, imported below, bind the wrapper:
        # the rebinding replaced ``repro.build_audit_session`` itself.
        wrapper.rebind(repro.build_audit_session, timed_build, "setup.session")
        if probe is not None:
            layers.install_audit(wrapper)
        from repro.experiments import runner

        try:
            result["exit"] = runner.main(spec["argv"])
        except Exception as exc:
            # The killed storm process ends here.  Anywhere else this is
            # a failed run: the parent counts the experiments it lost.
            traceback.print_exc()
            result["error"] = type(exc).__name__
            result["exit"] = 1
        result["ended"] = perf_counter()
        session = sessions[-1]
        result["api_requests"] = session.total_api_requests()
        result["virtual_s"] = session.transport.clock.now()
        if probe is not None:
            result["layers"] = layers.audit_metrics(
                probe, program_tracer, wrapper, session
            )
    elif spec["mode"] == "lint":
        from repro.analysis import cli

        def timed_lint(analyze):
            def incremental_analyze(*args, **kwargs):
                if not first_call:
                    first_call.append(perf_counter())
                return analyze(*args, **kwargs)

            return incremental_analyze

        wrapper.rebind(cli.incremental_analyze, timed_lint, "analysis.lint")
        if probe is not None:
            layers.install_lint(wrapper)
        result["exit"] = cli.main(spec["argv"])
        result["ended"] = perf_counter()
        if probe is not None:
            result["layers"] = layers.lint_metrics(probe)
    else:
        raise ValueError(f"unknown mode {spec['mode']!r}")

    sys.stdout.flush()
    result["startup_s"] = first_call[0] - spec["spawned"] if first_call else None
    if probe is not None:
        # Share of the program's run (spawn to the end of its main call;
        # the reduction above is the benchmark's own work) that the
        # top-level spans account for.
        result["attributed_share"] = sum(
            s.duration for s in probe.root.children
        ) / (result["ended"] - spec["spawned"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
