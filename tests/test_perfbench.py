"""Smoke test of the benchmark's tracer against the current program.

``perfbench --trace 1`` wraps functions by name; a renamed rule or helper
should fail here rather than in a benchmark run."""
import importlib.util
import sys
from pathlib import Path

from provopt import algebra, rewrites
from provopt.algebra import Attr, Cmp, Const, Project, Relation, Select

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_layer_targets_install_trace_and_uninstall():
    tracer_mod = _load_tracer()
    originals = {name: getattr(rewrites, name)
                 for name in ("apply_pats",) + rewrites.RULE_ORDER}
    schema_of = algebra.schema_of
    tracer = tracer_mod.Tracer(tracer_mod.layer_targets())
    tracer.install()
    try:
        assert all(getattr(rewrites, name) is not fn for name, fn in originals.items())
        tracer.begin_op(0)
        q = Project(((Attr("a"), "a"),),
                    Select(Cmp("=", Attr("a"), Const(1)), Relation("R", ("a", "b"))))
        rewrites.apply_pats(q)
    finally:
        tracer.uninstall()
    assert all(getattr(rewrites, name) is fn for name, fn in originals.items())
    assert algebra.schema_of is schema_of
    names = {span.name for span in tracer.spans}
    assert "rewrites.apply_pats" in names
    assert {f"rewrites.{rule}" for rule in rewrites.RULE_ORDER} <= names
