"""Public API parity of the lazily exporting packages and the CLI lists.

``repro``, ``repro.service``, ``repro.cluster``, ``repro.engine`` and
(for the Pareto names) ``repro.families`` resolve their exports on
first use (:mod:`repro._lazy`).  These tests pin that the lazy surface
is the eager one: every exported name, ``dir()`` and ``import *``.  The
CLI spells out some choice lists so that building its parser stays
light; they are pinned to the lists they mirror.
"""

import argparse
import importlib
import pkgutil

import pytest

from repro import cli

LAZY_PACKAGES = ("repro", "repro.service", "repro.cluster", "repro.engine",
                 "repro.families")


def _submodules(pkg):
    return {info.name for info in pkgutil.iter_modules(pkg.__path__)
            if info.name != "__main__"}


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_is_the_defining_modules_object(name):
    pkg = importlib.import_module(name)
    # Import every submodule first: a submodule named like an export
    # would now hide it (importing pkg.sub binds pkg.sub).
    for sub in sorted(_submodules(pkg)):
        importlib.import_module(f"{name}.{sub}")
    for export in pkg.__all__:
        obj = getattr(pkg, export)
        if export in pkg._LAZY:
            source = importlib.import_module(pkg._LAZY[export], name)
            assert obj is getattr(source, export), export
        owner = getattr(obj, "__module__", None)
        if owner and hasattr(obj, "__qualname__") and "." not in \
                obj.__qualname__:
            assert getattr(importlib.import_module(owner),
                           obj.__qualname__) is obj, export


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_dir_and_star_import_cover_all(name):
    pkg = importlib.import_module(name)
    assert set(pkg.__all__) <= set(dir(pkg))
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(pkg.__all__) <= set(namespace)
    for export in pkg.__all__:
        assert namespace[export] is getattr(pkg, export)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_no_lazy_export_is_named_like_a_submodule(name):
    pkg = importlib.import_module(name)
    subs = _submodules(pkg)
    assert sorted(set(pkg._LAZY) & subs) == []
    # An eager export may share a submodule's name only by being it
    # (``repro.engine.pack``).
    for export in set(pkg.__all__) & subs:
        assert getattr(pkg, export) is importlib.import_module(
            f"{name}.{export}")


def test_unknown_attribute_still_raises():
    import repro.service

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.service.no_such_name  # noqa: B018


def _subparser(parser, name):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[name]
    raise KeyError(name)


def _action(parser, dest):
    for action in parser._actions:
        if action.dest == dest:
            return action
    raise KeyError(dest)


def test_loadgen_workload_choices_match_the_load_generator():
    from repro.service.loadgen import WORKLOADS

    loadgen = _subparser(cli._build_parser(), "loadgen")
    assert tuple(_action(loadgen, "workload").choices) == WORKLOADS


def test_export_description_lists_every_design_kind():
    from repro.generator import DESIGN_KINDS

    export = _subparser(cli._build_parser(), "export")
    listed = export.description.split("(sorted): ", 1)[1].rstrip(".")
    assert listed.split(", ") == sorted(DESIGN_KINDS)
    # The families' own kinds are among them.
    assert {"cesa", "cesa_r", "blockspec", "blockspec_r"} <= set(DESIGN_KINDS)


def test_bench_defaults_match_the_harness():
    from repro.bench.stats import DEFAULT_ALPHA, DEFAULT_THRESHOLD

    bench = _subparser(cli._build_parser(), "bench")
    gate = _subparser(bench, "gate")
    assert _action(gate, "threshold").default == DEFAULT_THRESHOLD
    assert _action(gate, "alpha").default == DEFAULT_ALPHA
