"""Column lineage: every operator declares which output columns pass which
input columns through unchanged, and the declaration holds on data."""
from __future__ import annotations

import inspect
import random
from dataclasses import dataclass

import pytest

from randgen import random_instance, random_query, share_subtree

from provopt import algebra
from provopt.algebra import (
    Agg, Arith, Attr, Cmp, Const, Cross, Diff, DupElim, Intersect, Join, Node, Product,
    Project, Relation, Select, Union, Window, all_nodes, schema_of,
)
from provopt.executor import evaluate
from provopt.properties import filter_map, infer_ec_bottom_up, infer_icols, infer_keys


def operator_classes() -> list[type]:
    """Every concrete operator class of ``provopt.algebra``: the Node
    subclasses that no other class there extends."""
    found = [c for c in vars(algebra).values()
             if isinstance(c, type) and issubclass(c, Node) and c is not Node]
    return [c for c in found if not any(o is not c and issubclass(o, c) for o in found)]


R, S = Relation("R", ("a", "b")), Relation("S", ("b", "c"))

#: one instance per operator class, over R(a, b) and S(b, c)
SAMPLES = {
    Relation: R,
    Select: Select(Cmp("=", Attr("a"), Const(1)), R),
    Project: Project(((Attr("a"), "x"), (Attr("a"), "a"),
                      (Arith("+", Attr("a"), Attr("b")), "y")), R),
    Join: Join((("b", "b"),), R, S),
    Cross: Cross(R, S),
    Union: Union(R, S),
    Intersect: Intersect(R, S),
    Diff: Diff(R, S),
    Agg: Agg(("b",), (("sum", "a", "s"),), R),
    DupElim: DupElim(R),
    Window: Window("sum", "a", "w", ("b",), ("a",), R),
}


class TestDeclarations:
    def test_every_operator_declares_a_lineage(self):
        base = Node.__dict__["lineage"]
        classes = operator_classes()
        assert {Relation, Join, Cross, Union, Intersect, Diff} <= set(classes)
        missing = [c.__name__ for c in classes if inspect.getattr_static(c, "lineage") is base]
        assert missing == []

    def test_every_operator_has_a_sample(self):
        assert set(operator_classes()) == set(SAMPLES)

    @pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
    def test_lineage_names_output_and_input_columns(self, cls):
        n = SAMPLES[cls]
        assert len(n.lineage) == len(n.children)
        for child, lineage in zip(n.children, n.lineage):
            if lineage is not None:
                assert set(lineage) <= set(schema_of(n))
                assert set(lineage.values()) <= set(schema_of(child))

    def test_declared_renames(self):
        assert SAMPLES[Project].lineage == ({"x": "a", "a": "a"},)
        assert SAMPLES[Join].lineage == (None, {"b'": "b", "c": "c"})
        assert SAMPLES[Union].lineage == (None, {"a": "b", "b": "c"})
        assert SAMPLES[Agg].lineage == ({"b": "b"},)
        assert SAMPLES[Window].lineage == (None,)

    def test_lineage_is_cached(self):
        for n in SAMPLES.values():
            assert n.lineage is n.lineage


@dataclass(frozen=True, eq=False)
class Opaque(Node):
    """An operator that declares no lineage."""

    child: Node

    @property
    def schema(self):
        return self.child.schema


class TestUndeclared:
    def test_filter_map_names_the_operator(self):
        with pytest.raises(TypeError, match="Opaque"):
            filter_map(Opaque(R), 0)

    @pytest.mark.parametrize("infer", [infer_keys, infer_ec_bottom_up, infer_icols],
                             ids=lambda f: f.__name__)
    def test_inferences_name_the_operator(self, infer):
        with pytest.raises(TypeError, match="Opaque"):
            infer(Select(Cmp("=", Attr("a"), Const(1)), Opaque(R)))


def _row_inputs(n: Node) -> tuple[int, ...]:
    """The inputs whose rows an output row of ``n`` holds (for a union,
    one of them)."""
    return (0,) if isinstance(n, Diff) else tuple(range(len(n.children)))


def _passed(n: Node, idx: int) -> list[tuple[str, str]]:
    """(output column, input column) pairs the lineage of input idx states."""
    lineage = n.lineage[idx]
    if lineage is None:
        return [(a, a) for a in schema_of(n.children[idx])]
    return list(lineage.items())


def _holds(n: Node, results) -> bool:
    """Each output row's lineage columns equal some row's source columns,
    in every input the rows come from (a union: in either input)."""
    out = results[n]
    checks = []
    for idx in _row_inputs(n):
        pairs = _passed(n, idx)
        oi = [out.schema.index(o) for o, _ in pairs]
        child = results[n.children[idx]]
        ii = [child.schema.index(i) for _, i in pairs]
        sources = {tuple(t[i] for i in ii) for t in child.tuples}
        checks.append([tuple(t[i] for i in oi) in sources for t in out.tuples])
    if isinstance(n, Union):
        return all(map(any, zip(*checks)))
    return all(all(c) for c in checks)


def test_lineage_holds_on_random_instances():
    rng = random.Random(2024)
    checked: dict[type, int] = {}
    for i in range(900):
        q, state = random_query(rng, rng.randint(1, 6))
        if i % 3 == 0:
            q = share_subtree(rng, q)
        db = random_instance(state, rng)
        nodes = all_nodes(q)
        results = {n: evaluate(n, db) for n in nodes}
        for n in nodes:
            if n.children and results[n].tuples:
                assert _holds(n, results), n
                key = Product if isinstance(n, Product) else type(n)
                checked[key] = checked.get(key, 0) + 1
    assert set(checked) == {Select, Project, Product, Union, Intersect, Diff, Agg,
                            DupElim, Window}
    assert min(checked.values()) >= 30
