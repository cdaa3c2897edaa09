"""Golden fixtures for the whole-program symbol table and call graph.

Each test links a tiny multi-module program through
:class:`~repro.analysis.graph.Project` and asserts the resolved
edges.  The corpus covers the resolution cases the interprocedural
rules depend on: facade re-exports (including rename chains and
module-level assignment aliases), decorated functions,
``functools.partial``, nested functions, method dispatch through the
MRO with subclass fan-out, ``self.attr`` receivers, and the
exception-type lattice.
"""

from __future__ import annotations

import textwrap

from repro.analysis import Project, extract_summary
from repro.analysis.core import build_context
from repro.analysis.graph import ModuleSummary


def summarize(path: str, module: str, source: str) -> ModuleSummary:
    ctx = build_context(
        textwrap.dedent(source),
        path=path,
        module=module,
        is_package=path.endswith("__init__.py"),
    )
    return extract_summary(ctx)


def link(*files) -> Project:
    return Project([summarize(*spec) for spec in files])


CORE = (
    "src/pkg/core.py",
    "pkg.core",
    """
    def run():
        return 1
    """,
)

BASE = (
    "src/pkg/base.py",
    "pkg.base",
    """
    class Interface:
        def estimate(self, spec):
            return 0
    """,
)

FB = (
    "src/pkg/fb.py",
    "pkg.fb",
    """
    from pkg.base import Interface

    class Restricted(Interface):
        def estimate(self, spec):
            return 1
    """,
)


# -- facade re-exports ----------------------------------------------------


def test_facade_reexport_resolves_to_defining_module():
    facade = ("src/pkg/__init__.py", "pkg", "from pkg.core import run\n")
    app = (
        "src/app.py",
        "app",
        """
        import pkg

        def main():
            return pkg.run()
        """,
    )
    project = link(CORE, facade, app)
    assert project.resolve_dotted("pkg.run") == "pkg.core.run"
    assert project.callees_at("app.main", 0) == ("pkg.core.run",)


def test_renamed_reexport_chain_resolves():
    facade = (
        "src/pkg/__init__.py",
        "pkg",
        "from pkg.core import run as execute\n",
    )
    app = (
        "src/app.py",
        "app",
        """
        from pkg import execute

        def main():
            return execute()
        """,
    )
    project = link(CORE, facade, app)
    assert project.resolve_dotted("pkg.execute") == "pkg.core.run"
    assert project.callees_at("app.main", 0) == ("pkg.core.run",)


def test_module_level_assignment_is_a_reexport_alias():
    facade = (
        "src/shim/__init__.py",
        "shim",
        """
        from pkg import core

        run = core.run
        """,
    )
    app = (
        "src/app.py",
        "app",
        """
        import shim

        def main():
            return shim.run()
        """,
    )
    project = link(CORE, facade, app)
    assert project.resolve_dotted("shim.run") == "pkg.core.run"
    assert project.callees_at("app.main", 0) == ("pkg.core.run",)


def test_unresolvable_names_produce_no_edges():
    app = (
        "src/app.py",
        "app",
        """
        def main(thing):
            thing.estimate(1)
            return unknown()
        """,
    )
    project = link(app)
    assert project.callees_at("app.main", 0) == ()
    assert project.callees_at("app.main", 1) == ()
    assert project.resolve_dotted("app.unknown") is None


# -- decorators and partial ------------------------------------------------


def test_decorated_functions_still_resolve_as_callees():
    mod = (
        "src/pkg/jobs.py",
        "pkg.jobs",
        """
        import functools

        def retry(fn):
            return fn

        @retry
        def fetch():
            return 1

        @functools.lru_cache(maxsize=None)
        def cached():
            return 2

        def caller():
            return fetch() + cached()
        """,
    )
    project = link(mod)
    assert project.callees_at("pkg.jobs.caller", 0) == ("pkg.jobs.fetch",)
    assert project.callees_at("pkg.jobs.caller", 1) == ("pkg.jobs.cached",)


def test_functools_partial_contributes_edge_to_wrapped_function():
    mod = (
        "src/pkg/sched.py",
        "pkg.sched",
        """
        import functools
        from functools import partial

        from pkg.core import run

        def make():
            return functools.partial(run, 1)

        def make_local():
            return partial(run)
        """,
    )
    project = link(CORE, mod)
    assert project.callees_at("pkg.sched.make", 0) == ("pkg.core.run",)
    assert project.callees_at("pkg.sched.make_local", 0) == ("pkg.core.run",)


def test_nested_functions_resolve_children_and_siblings():
    mod = (
        "src/pkg/nest.py",
        "pkg.nest",
        """
        def outer():
            def helper():
                return 1

            def inner():
                return helper()

            return inner()
        """,
    )
    project = link(mod)
    inner = "pkg.nest.outer.<locals>.inner"
    helper = "pkg.nest.outer.<locals>.helper"
    # outer -> inner (child), inner -> helper (sibling in outer's scope)
    assert project.callees_at("pkg.nest.outer", 0) == (inner,)
    assert project.callees_at(inner, 0) == (helper,)
    assert not project.functions[inner].summary.is_public


# -- method dispatch -------------------------------------------------------


def test_annotated_receiver_fans_out_to_subclass_overrides():
    use = (
        "src/pkg/use.py",
        "pkg.use",
        """
        from pkg.base import Interface

        def probe(iface: Interface, spec):
            return iface.estimate(spec)
        """,
    )
    project = link(BASE, FB, use)
    assert set(project.callees_at("pkg.use.probe", 0)) == {
        "pkg.base.Interface.estimate",
        "pkg.fb.Restricted.estimate",
    }
    assert project.mro("pkg.fb.Restricted") == [
        "pkg.fb.Restricted",
        "pkg.base.Interface",
    ]
    assert project.subclasses("pkg.base.Interface") == ["pkg.fb.Restricted"]
    assert project.is_subtype("pkg.fb.Restricted", "pkg.base.Interface")


def test_self_calls_and_constructor_assigned_attrs_dispatch():
    svc = (
        "src/pkg/svc.py",
        "pkg.svc",
        """
        from pkg.base import Interface

        class Service:
            def __init__(self, iface=None):
                self.iface = iface or Interface()

            def helper(self):
                return 1

            def run(self):
                self.helper()
                return self.iface.estimate(None)
        """,
    )
    project = link(BASE, FB, svc)
    callees = [targets for _, targets in project.callees("pkg.svc.Service.run")]
    assert callees[0] == ("pkg.svc.Service.helper",)
    # self.iface was assigned ``iface or Interface()`` in __init__, so
    # the attribute call dispatches through Interface and its override.
    assert set(callees[1]) == {
        "pkg.base.Interface.estimate",
        "pkg.fb.Restricted.estimate",
    }


def test_constructor_call_resolves_to_init_through_mro():
    mod = (
        "src/pkg/mk.py",
        "pkg.mk",
        """
        class Base:
            def __init__(self):
                self.x = 0

        class Child(Base):
            pass

        def make():
            return Child()
        """,
    )
    project = link(mod)
    assert project.callees_at("pkg.mk.make", 0) == ("pkg.mk.Base.__init__",)


# -- exception lattice -----------------------------------------------------


def test_exception_resolution_and_subtyping():
    errors = (
        "src/pkg/errors.py",
        "pkg.errors",
        """
        class PlatformError(Exception):
            pass

        class ApiError(PlatformError):
            pass

        class NetworkError(ConnectionError):
            pass
        """,
    )
    project = link(errors)
    assert (
        project.resolve_exception(("local", "ApiError"), "pkg.errors")
        == "pkg.errors.ApiError"
    )
    assert (
        project.resolve_exception(("local", "ValueError"), "pkg.errors")
        == "builtins.ValueError"
    )
    assert project.resolve_exception(("local", "nonsense"), "pkg.errors") is None
    assert project.exception_caught_by(
        "pkg.errors.ApiError", "pkg.errors.PlatformError"
    )
    assert project.exception_caught_by("pkg.errors.ApiError", "builtins.Exception")
    assert project.exception_caught_by("builtins.KeyError", "builtins.LookupError")
    assert not project.exception_caught_by(
        "builtins.ValueError", "pkg.errors.PlatformError"
    )
    assert project.builtin_ancestors("pkg.errors.NetworkError") >= {
        "ConnectionError",
        "OSError",
        "Exception",
    }


# -- summaries ------------------------------------------------------------


def test_request_path_and_publicity_flags():
    mod = (
        "src/pkg/web.py",
        "pkg.web",
        """
        def handler(request):
            return request

        def _private(x):
            return x
        """,
    )
    summary = summarize(*mod)
    assert summary.functions["handler"].request_path
    assert summary.functions["handler"].is_public
    assert not summary.functions["_private"].is_public
    assert not summary.functions["_private"].request_path


def test_module_summary_json_roundtrip_preserves_edges():
    mod = (
        "src/pkg/svc.py",
        "pkg.svc",
        """
        from pkg.base import Interface

        class Service:
            def __init__(self):
                self.iface = Interface()

            def run(self):
                try:
                    return self.iface.estimate(None)
                except ValueError:
                    raise RuntimeError("boom")
        """,
    )
    project = Project([summarize(*BASE), summarize(*mod)])
    assert project.callees_at("pkg.svc.Service.run", 0) == (
        "pkg.base.Interface.estimate",
    )
    raise_site = project.functions["pkg.svc.Service.run"].summary.raises[0]
    assert raise_site.exc == ("local", "RuntimeError")
    assert not raise_site.reraise
