"""Unit tests for the ``repro-lint`` rule set and engine.

Each rule gets positive (finding), negative (clean), and suppressed
fixture snippets, linted through the same entry point the tier-1 gate
uses.  The seeded-RNG cases include the keyword-argument guard:
``default_rng(seed=config.seed)`` must not be a false positive.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import (
    Rule,
    all_project_rules,
    all_rules,
    analyze_paths,
    analyze_project,
    analyze_source,
    module_name_for,
    register,
)


def lint(
    source: str,
    module: str = "repro.core.example",
    path: str = "src/repro/core/example.py",
    rules=None,
):
    findings, suppressed = analyze_source(
        textwrap.dedent(source), path=path, module=module, rules=rules
    )
    return findings, suppressed


def rule_ids(findings) -> list[str]:
    return [finding.rule for finding in findings]


AMBIENT = "determinism/transitive-ambient"


def ambient(source: str):
    """Lint one fixture module through the whole-program pipeline."""
    return link_files(("src/repro/core/example.py", "repro.core.example", source))


# -- determinism/transitive-ambient: direct reads ---------------------------


def test_wall_clock_positive():
    findings, _ = ambient(
        """
        import time
        from datetime import datetime

        def stamp():
            return time.time(), datetime.utcnow(), datetime.now()
        """
    )
    assert rule_ids(findings) == [AMBIENT] * 3
    assert findings[0].line == 6


def test_wall_clock_import_datetime_module_form():
    findings, _ = ambient(
        """
        import datetime

        def stamp():
            return datetime.datetime.now()
        """
    )
    assert rule_ids(findings) == [AMBIENT]


def test_wall_clock_negative():
    findings, _ = ambient(
        """
        import time

        def measure(clock):
            started = time.perf_counter()
            return clock.now(), time.perf_counter() - started
        """
    )
    assert findings == []


def test_wall_clock_local_name_is_not_resolved():
    findings, _ = ambient(
        """
        def run(time):
            return time.time()
        """
    )
    assert findings == []


def test_wall_clock_suppressed_inline():
    findings, suppressed = ambient(
        """
        import time

        def stamp():
            return time.time()  # repro-lint: disable=determinism/transitive-ambient
        """
    )
    assert findings == []
    assert rule_ids(suppressed) == [AMBIENT]


# -- unseeded and global RNGs, salted seeds ---------------------------------


def test_unseeded_rng_positive():
    findings, _ = ambient(
        """
        import os
        import random
        import uuid
        import numpy as np

        def entropy():
            return (
                random.random(),
                random.Random(),
                np.random.default_rng(),
                np.random.RandomState(),
                np.random.rand(3),
                os.urandom(8),
                uuid.uuid4(),
                np.random.SeedSequence(),
                np.random.PCG64(),
                np.random.PCG64DXSM(),
                np.random.MT19937(),
                np.random.Philox(),
                np.random.SFC64(),
            )
        """
    )
    assert rule_ids(findings) == [AMBIENT] * 13


def test_unseeded_rng_none_seed_is_unseeded():
    findings, _ = ambient(
        """
        import numpy as np

        rng = np.random.default_rng(None)
        other = np.random.default_rng(seed=None)
        sequence = np.random.SeedSequence(entropy=None)
        bits = np.random.PCG64(seed=None)
        """
    )
    assert rule_ids(findings) == [AMBIENT] * 4


def test_seeded_rng_negative():
    findings, _ = ambient(
        """
        import random
        import numpy as np

        def rngs(config):
            return (
                random.Random(7),
                np.random.default_rng(0),
                np.random.default_rng(np.random.SeedSequence([1, 2])),
                np.random.Generator(np.random.PCG64(3)),
                np.random.SeedSequence(entropy=config.seed),
                np.random.MT19937(seed=config.seed),
                np.random.Philox(key=config.seed),
                random.Random(x=config.seed),
            )
        """
    )
    assert findings == []


def test_seeded_rng_keyword_seed_is_not_a_false_positive():
    findings, _ = ambient(
        """
        import numpy as np

        def make(config):
            return np.random.default_rng(seed=config.seed)
        """
    )
    assert findings == []


def test_unseeded_rng_from_import_form():
    findings, _ = ambient(
        """
        from numpy.random import default_rng
        from random import shuffle

        def run(items):
            shuffle(items)
            return default_rng()
        """
    )
    assert rule_ids(findings) == [AMBIENT] * 2


def test_salted_hash_in_seed_positive():
    findings, _ = ambient(
        """
        import random
        import builtins
        import numpy as np

        def streams(seed, name):
            return (
                np.random.SeedSequence([seed, hash(name) & 0x7FFFFFFF]),
                np.random.default_rng(hash((seed, name))),
                np.random.default_rng(seed=builtins.hash(name)),
                random.Random(hash(name)),
                np.random.default_rng(np.random.SeedSequence(hash(name))),
                np.random.Generator(np.random.PCG64(hash(name))),
            )
        """
    )
    # The nested constructors share one hash() call: one finding.
    assert rule_ids(findings) == [AMBIENT] * 6
    assert [f.line for f in findings] == [8, 9, 10, 11, 12, 13]
    assert all("zlib.crc32" in f.message for f in findings)


def test_salted_hash_in_seed_negative():
    findings, _ = ambient(
        """
        import zlib
        import numpy as np

        def streams(seed, name, table):
            key = hash(name)
            return (
                np.random.SeedSequence([seed, zlib.crc32(name.encode())]),
                np.random.default_rng(seed),
                table[key],
            )
        """
    )
    assert findings == []


def test_clock_reads_without_a_time_argument_positive():
    findings, _ = ambient(
        """
        import time

        def stamps(fmt):
            return (
                time.gmtime(),
                time.localtime(),
                time.ctime(None),
                time.asctime(),
                time.strftime(fmt),
            )
        """
    )
    assert rule_ids(findings) == [AMBIENT] * 5
    assert [f.line for f in findings] == [6, 7, 8, 9, 10]
    assert "time.strftime() reads the wall clock" in findings[-1].message


def test_clock_functions_given_a_time_are_negative():
    findings, _ = ambient(
        """
        import time

        def render(fmt, ts, t):
            return (
                time.gmtime(ts),
                time.localtime(ts),
                time.ctime(ts),
                time.asctime(t),
                time.strftime(fmt, t),
                time.strftime(fmt, time.localtime(ts)),
            )
        """
    )
    assert findings == []


def test_os_entropy_sources_positive():
    findings, _ = ambient(
        """
        import os
        import secrets
        import uuid

        def ids():
            return (
                uuid.uuid1(),
                os.getrandom(8),
                secrets.token_hex(8),
                secrets.choice("ab"),
                secrets.SystemRandom(),
            )
        """
    )
    assert rule_ids(findings) == [AMBIENT] * 5
    assert all("draws OS entropy" in f.message for f in findings)


def test_secrets_compare_digest_is_negative():
    findings, _ = ambient(
        """
        import secrets

        def same(a, b):
            return secrets.compare_digest(a, b)
        """
    )
    assert findings == []


# -- determinism/unordered-iteration -------------------------------------


def test_unordered_iteration_positive_direct():
    findings, _ = lint(
        """
        import os

        def walk(options, path):
            for name in os.listdir(path):
                yield name
            for option in set(options):
                yield option
            return [x for x in {1, 2, 3}]
        """
    )
    assert rule_ids(findings) == ["determinism/unordered-iteration"] * 3


def test_unordered_iteration_positive_through_assignment():
    findings, _ = lint(
        """
        def serialize(items):
            seen = frozenset(items)
            return [str(x) for x in seen]
        """
    )
    assert rule_ids(findings) == ["determinism/unordered-iteration"]


def test_unordered_iteration_wrappers_do_not_launder():
    findings, _ = lint(
        """
        def serialize(items):
            for i, x in enumerate(list(set(items))):
                yield i, x
        """
    )
    assert rule_ids(findings) == ["determinism/unordered-iteration"]


def test_unordered_iteration_sorted_negative():
    findings, _ = lint(
        """
        import os

        def serialize(items, path):
            seen = set(items)
            names = sorted(os.listdir(path))
            for x in sorted(seen):
                yield x
            for i, x in enumerate(sorted(set(items))):
                yield i, x
            yield from names
            total = sum(seen)
            return total, (3 in seen)
        """
    )
    assert findings == []


def test_unordered_iteration_reassignment_clears_tracking():
    findings, _ = lint(
        """
        def serialize(items):
            seen = set(items)
            seen = sorted(seen)
            return [x for x in seen]
        """
    )
    assert findings == []


def test_unordered_iteration_file_suppression():
    findings, suppressed = lint(
        """
        # repro-lint: disable=determinism/unordered-iteration
        def a(items):
            return [x for x in set(items)]

        def b(items):
            return [x for x in frozenset(items)]
        """
    )
    assert findings == []
    assert len(suppressed) == 2


# -- layering ------------------------------------------------------------


def test_upward_import_positive():
    findings, _ = lint(
        """
        from repro.api.client import ReachClient
        import repro.core.audit
        """,
        module="repro.population.model",
        path="src/repro/population/model.py",
    )
    assert rule_ids(findings) == ["layering/upward-import"] * 2


def test_downward_import_negative():
    findings, _ = lint(
        """
        from repro.platforms.errors import ApiError
        from repro.population.demographics import Gender
        """,
        module="repro.api.client",
        path="src/repro/api/client.py",
    )
    assert findings == []


def test_facade_import_only_from_top_layers():
    source = "from repro import build_audit_session\n"
    findings, _ = lint(source, module="repro.core.audit")
    assert rule_ids(findings) == ["layering/upward-import"]
    findings, _ = lint(
        source,
        module="repro.experiments.runner",
        path="src/repro/experiments/runner.py",
    )
    assert findings == []


def test_experiments_may_import_reporting_package_not_internals():
    findings, _ = lint(
        """
        from repro.reporting import Table
        from repro.reporting.serialize import audit_to_json
        """,
        module="repro.experiments.fig9_new",
        path="src/repro/experiments/fig9_new.py",
    )
    assert rule_ids(findings) == ["layering/reporting-internals"]


def test_reporting_must_not_import_experiments():
    findings, _ = lint(
        "from repro.experiments.context import ExperimentContext\n",
        module="repro.reporting.tables",
        path="src/repro/reporting/tables.py",
    )
    assert rule_ids(findings) == ["layering/upward-import"]


def test_analysis_island_imports_nothing_from_repro():
    findings, _ = lint(
        "from repro.core.audit import AuditTarget\n",
        module="repro.analysis.extra",
        path="src/repro/analysis/extra.py",
    )
    assert rule_ids(findings) == ["layering/upward-import"]


def test_relative_imports_resolve_before_layer_check():
    findings, _ = lint(
        "from ..api import client\n",
        module="repro.population.model",
        path="src/repro/population/model.py",
    )
    assert rule_ids(findings) == ["layering/upward-import"]


def test_test_import_positive():
    findings, _ = lint(
        """
        import pytest
        from tests.conftest import helper
        """,
        module="repro.core.audit",
    )
    assert rule_ids(findings) == ["layering/test-import"] * 2


def test_test_import_outside_src_is_fine():
    findings, _ = lint(
        "import pytest\n", module="tests.test_x", path="tests/test_x.py"
    )
    assert findings == []


# -- error contracts -----------------------------------------------------


def test_broad_except_positive():
    findings, _ = lint(
        """
        def run(fn):
            try:
                fn()
            except Exception:
                return None
            try:
                fn()
            except (ValueError, BaseException):
                return None
            try:
                fn()
            except:
                return None
        """
    )
    assert rule_ids(findings) == ["errors/broad-except"] * 3


def test_typed_except_negative():
    findings, _ = lint(
        """
        from repro.platforms.errors import PlatformError

        def run(fn):
            try:
                fn()
            except (PlatformError, ValueError):
                return None
        """
    )
    assert findings == []


def link_files(*files, rules=()):
    """Run :func:`analyze_project` on dedented fixture triples.

    ``rules=()`` disables the per-module rules so assertions see only
    the whole-program findings.
    """
    return analyze_project(
        [
            (path, module, textwrap.dedent(source))
            for path, module, source in files
        ],
        rules=list(rules),
    )


PLATFORM_ERRORS = (
    "src/repro/platforms/errors.py",
    "repro.platforms.errors",
    """
    class PlatformError(Exception):
        pass

    class BadRequestError(PlatformError):
        pass
    """,
)


def test_transport_escape_through_helper_call():
    findings, _ = link_files(
        (
            "src/repro/api/wire.py",
            "repro.api.wire",
            """
            def _explode():
                raise RuntimeError("boom")

            def handler(request):
                return _explode()
            """,
        )
    )
    assert rule_ids(findings) == ["errors/transport-escape"]
    # Reported at the raise site, naming the request path it escapes.
    assert findings[0].line == 3
    assert "handler()" in findings[0].message
    assert "RuntimeError" in findings[0].message


def test_transport_escape_caught_at_call_site_negative():
    findings, _ = link_files(
        (
            "src/repro/api/wire.py",
            "repro.api.wire",
            """
            def _explode():
                raise RuntimeError("boom")

            def handler(request):
                try:
                    return _explode()
                except RuntimeError:
                    return None
            """,
        )
    )
    assert findings == []


def test_transport_escape_platform_types_and_reraise_negative():
    findings, _ = link_files(
        PLATFORM_ERRORS,
        (
            "src/repro/api/wire.py",
            "repro.api.wire",
            """
            from repro.platforms.errors import BadRequestError

            def handler(request):
                if request is None:
                    raise BadRequestError("missing request body")
                raise  # bare re-raise keeps the original type
            """,
        ),
    )
    assert findings == []


def test_transport_escape_subclass_of_platform_error_negative():
    findings, _ = link_files(
        PLATFORM_ERRORS,
        (
            "src/repro/api/routes.py",
            "repro.api.routes",
            """
            from repro.platforms.errors import BadRequestError

            class MalformedBody(BadRequestError):
                pass

            def _parse():
                raise MalformedBody("bad json")

            def handler(request):
                try:
                    return _parse()
                except ValueError:
                    return None
            """,
        ),
    )
    # MalformedBody derives from the platforms.errors taxonomy, so its
    # escape is the contract working, not a violation -- even though
    # the except ValueError layer does not catch it.
    assert findings == []


def test_transport_escape_only_on_request_paths():
    findings, _ = link_files(
        (
            "src/repro/api/transport.py",
            "repro.api.transport",
            """
            def advance(self, seconds):
                if seconds < 0:
                    raise ValueError("time cannot move backwards")
            """,
        )
    )
    assert findings == []


def test_transport_escape_exempts_fake_transport_boundary():
    findings, _ = link_files(
        (
            "src/repro/api/transport.py",
            "repro.api.transport",
            """
            class FakeTransport:
                def request(self, request):
                    raise ValueError("nope")
            """,
        )
    )
    assert findings == []


def test_transport_escape_dynamic_value_is_skipped():
    findings, _ = link_files(
        (
            "src/repro/api/routes.py",
            "repro.api.routes",
            """
            def handler(request, deferred):
                raise deferred
            """,
        )
    )
    assert findings == []


def test_transport_escape_ignores_non_transport_modules():
    findings, _ = link_files(
        (
            "src/repro/core/audit.py",
            "repro.core.audit",
            """
            def handler(request):
                raise RuntimeError("not a transport module")
            """,
        )
    )
    assert findings == []


def test_print_positive_in_library_code():
    findings, _ = lint("print('debug')\n", module="repro.core.audit")
    assert rule_ids(findings) == ["errors/print"]


def test_print_allowed_in_reporting_runner_and_cli():
    for module in (
        "repro.reporting.tables",
        "repro.experiments.runner",
        "repro.analysis.cli",
    ):
        findings, _ = lint("print('report')\n", module=module)
        assert findings == [], module


# -- engine: suppression, registry, paths --------------------------------


def test_directive_inside_string_literal_is_inert():
    findings, _ = ambient(
        """
        import time

        MARKER = "# repro-lint: disable=determinism/transitive-ambient"

        def stamp():
            return time.time()
        """
    )
    assert rule_ids(findings) == [AMBIENT]


def test_family_and_all_selectors():
    findings, suppressed = ambient(
        """
        # repro-lint: disable=determinism
        import time

        def stamp():
            return time.time()
        """
    )
    assert findings == []
    assert len(suppressed) == 1
    findings, suppressed = ambient(
        """
        import time

        def stamp():
            return time.time()  # repro-lint: disable=all
        """
    )
    assert findings == []
    assert len(suppressed) == 1


def test_unrelated_suppression_does_not_hide_finding():
    findings, _ = ambient(
        """
        import time

        def stamp():
            return time.time()  # repro-lint: disable=errors/print
        """
    )
    assert rule_ids(findings) == [AMBIENT]


def test_duplicate_rule_registration_rejected():
    with pytest.raises(ValueError):
        register(
            Rule(
                id="determinism/unordered-iteration",
                summary="dup",
                check=lambda ctx: [],
            )
        )


def test_rules_are_filterable():
    source = """
        def run(names):
            print('x')
            return [name for name in set(names)]
        """
    findings, _ = lint(source)
    assert rule_ids(findings) == ["errors/print", "determinism/unordered-iteration"]
    only_prints = [r for r in all_rules() if r.id == "errors/print"]
    findings, _ = lint(source, rules=only_prints)
    assert rule_ids(findings) == ["errors/print"]


def test_module_name_for_resolves_packages(tmp_path):
    pkg = tmp_path / "pkg" / "sub"
    pkg.mkdir(parents=True)
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("")
    assert module_name_for(pkg / "mod.py") == ("pkg.sub.mod", False)
    assert module_name_for(pkg / "__init__.py") == ("pkg.sub", True)
    assert module_name_for(tmp_path / "loose.py")[0] == "loose"


def test_analyze_paths_reports_rule_and_location(tmp_path):
    victim = tmp_path / "audit.py"
    victim.write_text("import time\nstamp = time.time()\n", encoding="utf-8")
    report = analyze_paths([tmp_path], root=tmp_path)
    assert report.files == 1
    assert [f.rule for f in report.findings] == [AMBIENT]
    assert report.findings[0].location() == "audit.py:2:8"
    assert AMBIENT in report.findings[0].render()


def test_analyze_paths_collects_parse_errors(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n", encoding="utf-8")
    report = analyze_paths([tmp_path], root=tmp_path)
    assert report.findings == []
    assert len(report.parse_errors) == 1
    assert not report.clean


# -- obs/ambient-instrumentation ------------------------------------------


def test_ambient_instrumentation_positive():
    findings, _ = lint(
        """
        from repro.obs import Tracer
        from repro.obs.metrics import MetricsRegistry

        def build():
            return Tracer("mine"), MetricsRegistry()
        """
    )
    assert rule_ids(findings) == ["obs/ambient-instrumentation"] * 2
    assert "build_audit_session" in findings[0].message


def test_ambient_instrumentation_negative_injection_pattern():
    findings, _ = lint(
        """
        from repro.obs import NULL_METRICS, NULL_TRACER

        class Client:
            def __init__(self, transport):
                self.tracer = getattr(transport, "tracer", NULL_TRACER)
                self.metrics = getattr(transport, "metrics", NULL_METRICS)
        """
    )
    assert findings == []


def test_ambient_instrumentation_ignores_code_outside_repro():
    findings, _ = lint(
        """
        from repro.obs import Tracer

        tracer = Tracer("bench")
        """,
        module="benchmarks.report",
        path="benchmarks/report.py",
    )
    assert findings == []


def test_ambient_instrumentation_ignores_the_obs_package_itself():
    findings, _ = lint(
        """
        from repro.obs.trace import Tracer

        def fresh():
            return Tracer("inner")
        """,
        module="repro.obs.report",
        path="src/repro/obs/report.py",
    )
    assert findings == []


def test_ambient_instrumentation_suppressed_at_composition_roots():
    findings, suppressed = lint(
        """
        from repro.obs import Tracer

        def main():
            tracer = Tracer(  # repro-lint: disable=obs/ambient-instrumentation
                "repro-audit"
            )
            return tracer
        """,
        module="repro.experiments.runner",
        path="src/repro/experiments/runner.py",
    )
    assert findings == []
    assert rule_ids(suppressed) == ["obs/ambient-instrumentation"]


def test_ambient_instrumentation_local_name_is_not_resolved():
    findings, _ = lint(
        """
        def run(Tracer):
            return Tracer("shadowed")
        """
    )
    assert findings == []


# -- taint/restricted-flow -------------------------------------------------

RESTRICTED_IFACE = (
    "src/repro/platforms/facebook.py",
    "repro.platforms.facebook",
    """
    class FacebookRestrictedInterface:
        def estimate_reach(self, spec):
            return 0
    """,
)


def test_taint_direct_flow_into_restricted_call():
    findings, _ = link_files(
        RESTRICTED_IFACE,
        (
            "src/repro/core/leak.py",
            "repro.core.leak",
            """
            from repro.platforms.facebook import FacebookRestrictedInterface
            from repro.population.demographics import Gender

            def probe(iface: FacebookRestrictedInterface, spec):
                tainted = spec.with_gender(Gender.FEMALE)
                return iface.estimate_reach(tainted)
            """,
        ),
    )
    assert rule_ids(findings) == ["taint/restricted-flow"]
    assert findings[0].line == 7
    assert "estimate_reach" in findings[0].message


def test_taint_flows_interprocedurally_through_returns():
    findings, _ = link_files(
        RESTRICTED_IFACE,
        (
            "src/repro/core/build.py",
            "repro.core.build",
            """
            from repro.population.demographics import Gender

            def build(spec):
                return spec.with_gender(Gender.FEMALE)
            """,
        ),
        (
            "src/repro/core/use.py",
            "repro.core.use",
            """
            from repro.core.build import build
            from repro.platforms.facebook import FacebookRestrictedInterface

            def probe(iface: FacebookRestrictedInterface, spec):
                built = build(spec)
                return iface.estimate_reach(built)
            """,
        ),
    )
    assert rule_ids(findings) == ["taint/restricted-flow"]
    assert findings[0].path == "src/repro/core/use.py"


def test_taint_flows_into_sink_through_callee_parameter():
    findings, _ = link_files(
        RESTRICTED_IFACE,
        (
            "src/repro/core/send.py",
            "repro.core.send",
            """
            from repro.platforms.facebook import FacebookRestrictedInterface

            def send(iface: FacebookRestrictedInterface, spec):
                return iface.estimate_reach(spec)
            """,
        ),
        (
            "src/repro/core/caller.py",
            "repro.core.caller",
            """
            from repro.core.send import send
            from repro.population.demographics import Gender

            def leak(iface, spec):
                return send(iface, spec.with_gender(Gender.FEMALE))
            """,
        ),
    )
    # The violation is attributed to the caller feeding the tainted
    # value, not the innocent pass-through helper.
    assert rule_ids(findings) == ["taint/restricted-flow"]
    assert findings[0].path == "src/repro/core/caller.py"


def test_taint_spec_constructor_sensitive_keywords_are_sources():
    findings, _ = link_files(
        RESTRICTED_IFACE,
        (
            "src/repro/platforms/targeting.py",
            "repro.platforms.targeting",
            """
            class TargetingSpec:
                def __init__(self, genders=None, age_ranges=None):
                    self.genders = genders
                    self.age_ranges = age_ranges
            """,
        ),
        (
            "src/repro/core/spec_leak.py",
            "repro.core.spec_leak",
            """
            from repro.platforms.facebook import FacebookRestrictedInterface
            from repro.platforms.targeting import TargetingSpec

            def probe(iface: FacebookRestrictedInterface):
                spec = TargetingSpec(genders=("female",))
                return iface.estimate_reach(spec)

            def clean(iface: FacebookRestrictedInterface):
                spec = TargetingSpec()
                return iface.estimate_reach(spec)
            """,
        ),
    )
    assert rule_ids(findings) == ["taint/restricted-flow"]
    assert findings[0].path == "src/repro/core/spec_leak.py"
    assert findings[0].line == 7


def test_taint_declassified_at_audit_measurement_seam():
    findings, _ = link_files(
        RESTRICTED_IFACE,
        (
            "src/repro/core/audit.py",
            "repro.core.audit",
            """
            from repro.population.demographics import Gender

            class AuditTarget:
                def demographic_spec(self, spec):
                    return spec.with_gender(Gender.FEMALE)
            """,
        ),
        (
            "src/repro/core/measure.py",
            "repro.core.measure",
            """
            from repro.core.audit import AuditTarget
            from repro.platforms.facebook import FacebookRestrictedInterface

            def ratio(iface: FacebookRestrictedInterface, target: AuditTarget, spec):
                sliced = target.demographic_spec(spec)
                return iface.estimate_reach(sliced)
            """,
        ),
    )
    # demographic_spec is the audited seam: its result is declassified,
    # so the downstream restricted call is clean.
    assert findings == []


def test_taint_family_wildcard_suppression():
    findings, suppressed = link_files(
        RESTRICTED_IFACE,
        (
            "src/repro/core/leak.py",
            "repro.core.leak",
            """
            from repro.platforms.facebook import FacebookRestrictedInterface
            from repro.population.demographics import Gender

            def probe(iface: FacebookRestrictedInterface, spec):
                tainted = spec.with_gender(Gender.FEMALE)
                return iface.estimate_reach(tainted)  # repro-lint: disable=taint/*
            """,
        ),
    )
    assert findings == []
    assert rule_ids(suppressed) == ["taint/restricted-flow"]


# -- determinism/transitive-ambient ----------------------------------------


def test_transitive_ambient_flags_public_function_with_chain():
    findings, _ = link_files(
        (
            "src/repro/core/clocky.py",
            "repro.core.clocky",
            """
            import time

            def _stamp():
                return time.time()

            def snapshot():
                return _stamp()
            """,
        )
    )
    # The read itself at the call, then the public caller at its def.
    assert rule_ids(findings) == [AMBIENT] * 2
    assert [(f.line, f.col) for f in findings] == [(5, 11), (7, 0)]
    assert "snapshot() -> _stamp()" in findings[1].message
    assert "time.time" in findings[1].message


def test_transitive_ambient_direct_source_is_a_chain_of_length_one():
    findings, _ = link_files(
        (
            "src/repro/core/clocky.py",
            "repro.core.clocky",
            """
            import time

            def snapshot():
                return time.time()
            """,
        )
    )
    # One finding at the call, with the wall-clock remedy; none at the
    # definition, since snapshot() reaches nothing through calls.
    assert [(f.rule, f.line, f.col) for f in findings] == [(AMBIENT, 5, 11)]
    assert "time.time() reads the wall clock" in findings[0].message


def test_transitive_ambient_reports_direct_reads_in_every_scope():
    findings, _ = link_files(
        (
            "src/repro/core/clocky.py",
            "repro.core.clocky",
            """
            import random
            import time

            STAMP = time.time()

            class Holder:
                rng = random.Random()

                def _private(self):
                    return random.random()
            """,
        )
    )
    assert [(f.line, f.col) for f in findings] == [(5, 8), (8, 10), (11, 15)]
    assert rule_ids(findings) == [AMBIENT] * 3


def test_transitive_ambient_direct_and_transitive_reads_both_reported():
    findings, _ = link_files(
        (
            "src/repro/core/clocky.py",
            "repro.core.clocky",
            """
            import time

            def _stamp():
                return time.time()

            def snapshot():
                return time.time(), _stamp()
            """,
        )
    )
    assert [(f.line, f.col) for f in findings] == [(5, 11), (7, 0), (8, 11)]
    assert "snapshot() -> _stamp()" in findings[1].message


def test_transitive_ambient_suppressed_source_does_not_propagate():
    findings, suppressed = link_files(
        (
            "src/repro/core/clocky.py",
            "repro.core.clocky",
            """
            import time

            def _stamp():
                return time.time()  # repro-lint: disable=determinism/transitive-ambient

            def snapshot():
                return _stamp()
            """,
        )
    )
    assert findings == []
    assert [(f.rule, f.line) for f in suppressed] == [(AMBIENT, 5)]


def test_transitive_ambient_unseeded_rng_two_hops():
    findings, _ = link_files(
        (
            "src/repro/core/rngs.py",
            "repro.core.rngs",
            """
            import numpy as np

            def _fresh():
                return np.random.default_rng()

            def _middle():
                return _fresh()

            def sample():
                return _middle()
            """,
        )
    )
    assert rule_ids(findings) == [AMBIENT] * 2
    assert findings[0].line == 5
    assert "sample() -> _middle() -> _fresh()" in findings[1].message


def test_project_rule_registry_is_loaded():
    ids = {item.id for item in all_project_rules()}
    assert ids == {
        "determinism/transitive-ambient",
        "errors/transport-escape",
        "taint/restricted-flow",
    }


# -- multiline statement suppression ---------------------------------------


def test_directive_on_first_line_covers_whole_multiline_statement():
    findings, suppressed = ambient(
        """
        import time

        def stamp():
            return min(  # repro-lint: disable=determinism/transitive-ambient
                time.time(),
                1.0,
            )
        """
    )
    assert findings == []
    assert rule_ids(suppressed) == [AMBIENT]


def test_directive_on_continuation_line_covers_whole_statement():
    findings, suppressed = ambient(
        """
        import time

        def stamp():
            return min(
                1.0,
                time.time(),
            )  # repro-lint: disable=determinism/transitive-ambient
        """
    )
    assert findings == []
    assert rule_ids(suppressed) == [AMBIENT]


def test_family_wildcard_selector_matches_family_only():
    findings, suppressed = ambient(
        """
        import time

        def stamp():
            return time.time()  # repro-lint: disable=determinism/*
        """
    )
    assert findings == []
    assert rule_ids(suppressed) == [AMBIENT]
    findings, _ = ambient(
        """
        import time

        def stamp():
            return time.time()  # repro-lint: disable=errors/*
        """
    )
    assert rule_ids(findings) == [AMBIENT]
