"""Selection move-around descends into a join input and climbs to the root
without recursing, so it runs on plans of any depth.

The recursive helpers below are the ones the work lists replaced, kept as
the reference: below the recursion limit, the rule must build the same
plan with either.
"""
import random
import sys

import pytest

from randgen import random_query

from provopt import rewrites
from provopt.algebra import (
    Attr, Cmp, Const, Cross, Join, Project, Relation, Select, Union, all_nodes, conjuncts,
    expr_attrs, identity_targets, replace_children, schema_of, structurally_equal,
    substitute_attrs,
)
from provopt.plantext import format_plan
from provopt.properties import filter_map
from provopt.rewrites import _map_members_up, _member_expr, apply_pats, selection_move_around

DEEP = 5000


def _old_place_pushed(cond, node):
    if isinstance(node, Select) and any(cond == c for c in conjuncts(node.cond)):
        return node, False
    attrs = expr_attrs(cond)
    kids = list(node.children)
    entered = inserted = False
    for idx, child in enumerate(node.children):
        fmap = filter_map(node, idx)
        if fmap is None or not attrs <= fmap.keys():
            continue
        renamed = substitute_attrs(cond, {a: Attr(fmap[a]) for a in attrs})
        kids[idx], placed = _old_place_pushed(renamed, child)
        entered, inserted = True, inserted or placed
        if not isinstance(node, Union):
            break
    if not entered:
        return Select(cond, node), True
    return (replace_children(node, tuple(kids)), True) if inserted else (node, False)


def _old_pair_guarded_above(n, parents, m1, m2, memo):
    key = (id(n), m1, m2)
    if key in memo:
        return memo[key]
    memo[key] = False
    result = bool(parents.get(n))
    for p in parents.get(n, ()):
        mapped = _map_members_up(p, n, (m1, m2))
        if mapped is None:
            result = False
            break
        pm1, pm2 = mapped
        if isinstance(p, Select) and any(
                c == Cmp("=", _member_expr(pm1), _member_expr(pm2))
                or c == Cmp("=", _member_expr(pm2), _member_expr(pm1))
                for c in conjuncts(p.cond)):
            continue
        if not _old_pair_guarded_above(p, parents, pm1, pm2, memo):
            result = False
            break
    memo[key] = result
    return result


def with_recursive_helpers(fn, plan):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrites, "_place_pushed", _old_place_pushed)
        mp.setattr(rewrites, "_pair_guarded_above",
                   lambda n, parents, m1, m2: _old_pair_guarded_above(n, parents, m1, m2, {}))
        return fn(plan)


def transferred_into_a_chain(n):
    """``a = 1`` on a join's left input moves to the bottom of an n-level
    selection chain on its right input."""
    left = Select(Cmp("=", Attr("a"), Const(1)), Relation("R", ("a",)))
    right = Relation("S", ("b", "c"))
    for i in range(n):
        right = Select(Cmp("<>", Attr("c"), Const(i)), right)
    return Join((("a", "b"),), left, right)


def guarded_over_fences(n):
    """``a = b`` over n fenced identity projections over a cross product:
    the equality at the cross product is guarded by the selection on top."""
    node = Cross(Relation("R", ("a",)), Relation("S", ("b",)))
    for _ in range(n):
        node = Project(identity_targets(schema_of(node)), node, materialize=True)
    return Select(Cmp("=", Attr("a"), Attr("b")), node)


SHAPES = pytest.mark.parametrize("make", [transferred_into_a_chain, guarded_over_fences])
RULES = pytest.mark.parametrize("rule", [selection_move_around, apply_pats])


@SHAPES
@RULES
def test_deep_shapes_match_the_recursive_helpers(make, rule):
    # printed, since comparing merged conditions would recurse per level
    assert format_plan(rule(make(300))) == format_plan(with_recursive_helpers(rule, make(300)))


def test_random_plans_match_the_recursive_helpers():
    rng = random.Random(3)
    changed = 0
    for i in range(400):
        q, _ = random_query(rng, 6 if i % 2 else 4)
        if i % 2 == 0:  # a filter on a join key, to push into a random input
            cond = Cmp(rng.choice(("=", "<")), Attr("x"), Const(rng.randrange(3)))
            q = Join((("x", rng.choice(schema_of(q))),),
                     Select(cond, Relation("T", ("x", "y"))), q)
        got = selection_move_around(q)
        assert structurally_equal(got, with_recursive_helpers(selection_move_around, q))
        changed += got is not q
    assert changed > 200


@SHAPES
@RULES
def test_deep_shapes_run_at_the_default_recursion_limit(make, rule):
    assert sys.getrecursionlimit() < DEEP
    plan = make(DEEP)
    out = rule(plan)
    if make is guarded_over_fences:
        assert structurally_equal(out, plan)
    else:
        pushed = Cmp("=", Attr("b"), Const(1))
        assert any(isinstance(n, Select) and pushed in conjuncts(n.cond)
                   and isinstance(n.child, Relation) for n in all_nodes(out))
