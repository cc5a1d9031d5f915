"""The equivalence classes the rewrites read keep only classes of two or
more members: a column in no class is alone in its class.

The dense passes below are the ones the sparse passes replaced, kept as the
reference: every node carries a one-member class for each output column
that no larger class holds. The sparse classes must be exactly the dense
classes of two or more members, ``infer_ec`` must still report the dense
classes, and the rewrite pipeline must build the same plans over either.
"""
import random

import pytest

from randgen import random_agg_query, random_query, random_spju_query, share_subtree

from provopt import rewrites
from provopt.algebra import (
    Agg, Attr, Cmp, Const, Intersect, Product, Project, Relation, Select, Union, Window,
    all_nodes, right_output_names, schema_of, structurally_equal,
)
from provopt.instrument import instrument_query
from provopt.properties import (
    EcConst, ec_closure, ec_top_down, equality_classes_from_condition, filter_map,
    infer_ec, infer_ec_bottom_up, singletons,
)
from provopt.rewrites import RewriteConfig, apply_pats


def _renamed(classes, mapping):
    return frozenset(frozenset(mapping.get(m, m) if isinstance(m, str) else m for m in c)
                     for c in classes)


def _intersections(a, b):
    return frozenset(c1 & c2 for c1 in a for c2 in b if c1 & c2)


def _dense_up(n, up):
    if isinstance(n, Relation):
        return singletons(n.attrs)
    if isinstance(n, Select):
        return up[n.child] | equality_classes_from_condition(n.cond)
    if isinstance(n, Project):
        class_of = {m: c for c in up[n.child] for m in c if isinstance(m, str)}
        grouped = {}
        for e, name in n.targets:
            if isinstance(e, Attr):
                grouped.setdefault(class_of[e.name], []).append(name)
        return frozenset(frozenset(names).union(m for m in c if not isinstance(m, str))
                         for c, names in grouped.items())
    if isinstance(n, Product):
        right_map = dict(zip(schema_of(n.right), right_output_names(n)))
        return (up[n.left] | _renamed(up[n.right], right_map)
                | frozenset(frozenset((a, right_map[b])) for a, b in n.pairs))
    if isinstance(n, Agg):
        group = frozenset(n.group_by)
        return (frozenset(c & group for c in up[n.child] if c & group)
                | singletons(name for _, _, name in n.aggs))
    if isinstance(n, (Union, Intersect)):
        right = _renamed(up[n.right], dict(zip(schema_of(n.right), schema_of(n.left))))
        if isinstance(n, Union):
            return _intersections(up[n.left], right)
        return up[n.left] | right
    if isinstance(n, Window):
        return up[n.child] | frozenset((frozenset((n.out,)),))
    return up[n.children[0]]  # duplicate elimination, difference


def dense_bottom_up(root, memo=None):
    memo = {} if memo is None else memo
    order = all_nodes(root)
    for n in order:
        if n not in memo:
            memo[n] = ec_closure(_dense_up(n, memo) | singletons(schema_of(n)))
    return {n: memo[n] for n in order}


def _dense_transfer(parent, idx, classes):
    fmap = filter_map(parent, idx)
    if fmap is None:
        return frozenset()
    out = []
    for c in classes:
        named = {fmap[m] for m in c if isinstance(m, str) and m in fmap}
        if named:
            out.append(frozenset(named).union(m for m in c if not isinstance(m, str)))
    return frozenset(out)


def dense_top_down(root, up):
    order = list(up)
    slots = {n: [] for n in order}
    for n in order:
        for idx, child in enumerate(n.children):
            slots[child].append((n, idx))
    down = {root: up[root]}
    for n in reversed(order):
        if n is root:
            continue
        combined = None
        for parent, idx in slots[n]:
            contrib = _dense_transfer(parent, idx, down[parent])
            combined = contrib if combined is None else _intersections(combined, contrib)
        down[n] = ec_closure(up[n] | (combined or frozenset()))
    return down


def _multi(classes):
    return frozenset(c for c in classes if len(c) > 1)


def _corpus():
    """Random queries over every operator, set operators included, plain
    and sharing a subtree; instrumented queries under both aggregation
    methods."""
    rng = random.Random(2024)
    for i in range(300):
        q, _ = random_query(rng, rng.randint(2, 8))
        yield share_subtree(rng, q) if i % 2 else q
    for i in range(40):
        q, _ = random_agg_query(rng, rng.randint(1, 3)) if i % 2 else random_spju_query(rng)
        yield instrument_query(q, agg_method=("window", "join")[i % 4 // 2])


CORPUS = list(_corpus())


def test_sparse_classes_are_the_dense_classes_of_several_members():
    multi = 0
    for i, q in enumerate(CORPUS):
        dense_up = dense_bottom_up(q)
        dense_down = dense_top_down(q, dense_up)
        up = infer_ec_bottom_up(q)
        down = ec_top_down(q, up)
        assert list(up) == list(dense_up), i
        for n in up:
            assert up[n] == _multi(dense_up[n]), i
            assert down[n] == _multi(dense_down[n]), i
            multi += len(down[n])
    assert multi > 1000


def test_infer_ec_reports_the_dense_classes():
    for i, q in enumerate(CORPUS):
        dense = dense_top_down(q, dense_bottom_up(q))
        got = infer_ec(q)
        assert list(got) == list(dense), i
        for n in got:
            # every output column is in exactly one class
            columns = [m for c in got[n] for m in c if isinstance(m, str)]
            assert sorted(columns) == sorted(schema_of(n)), i
            assert got[n] == dense[n], i


def test_a_class_of_one_constant_is_not_reported():
    # the dense passes intersect {a,1} with {b,1} to {1} at this union: a
    # constant equal to itself, which says nothing about any column
    left = Select(Cmp("=", Attr("a"), Const(1)), Relation("R", ("a", "b")))
    right = Select(Cmp("=", Attr("d"), Const(1)), Relation("S", ("c", "d")))
    q = Union(left, right)
    dense = dense_top_down(q, dense_bottom_up(q))[q]
    assert frozenset((EcConst(1),)) in dense
    assert infer_ec(q)[q] == dense - {frozenset((EcConst(1),))} == frozenset(
        (frozenset(("a",)), frozenset(("b",))))


def test_pipeline_builds_the_same_plans_over_dense_classes(monkeypatch):
    found = []
    new_equality = rewrites._new_equality
    monkeypatch.setattr(rewrites, "_new_equality",
                        lambda *args: found.append(new_equality(*args)) or found[-1])
    got = [apply_pats(q, RewriteConfig()) for q in CORPUS]
    enforced = sum(cond is not None for cond in found)
    found.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrites, "infer_ec_bottom_up", dense_bottom_up)
        mp.setattr(rewrites, "ec_top_down", dense_top_down)
        want = [apply_pats(q, RewriteConfig()) for q in CORPUS]
    for i, (g, w) in enumerate(zip(got, want)):
        assert structurally_equal(g, w), i
    # the plans include equalities enforced from equivalence classes
    assert enforced == sum(cond is not None for cond in found) > 30
