"""Selection move-around descends into a join input and climbs to the root
without recursing, so it runs on plans of any depth, and places all of one
selection chain's conditions across a join in one rescan of the graph.

The recursive descent below, with the contract of ``rewrites._landings``,
is the reference: below the recursion limit, the rule must build the same
plan with either. The transfer rule that placed one
condition per rescan is kept the same way, and placing several conditions
in one rebuild must build what placing them one after another builds.
"""
import random
import sys
import time

import pytest

from helpers import assert_same_plan
from randgen import random_query, share_subtree
from rescan_reference import _rewrite

from provopt import rewrites
from provopt.algebra import (
    Attr, Cmp, Const, Cross, DupElim, Join, Project, Relation, Select, Union, all_nodes, drive,
    conjuncts, expr_attrs, identity_targets, replace_children, schema_of, structurally_equal,
    substitute_attrs,
)
from provopt.plantext import format_plan
from provopt.properties import filter_map
from provopt.rewrites import apply_pats, selection_move_around

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


def _recursive_landings(cond, node):
    """:func:`rewrites._landings` as a recursive descent."""
    if isinstance(node, Select) and any(cond == c for c in conjuncts(node.cond)):
        return []
    attrs = expr_attrs(cond)
    spots, entered = [], False
    for idx, child in enumerate(node.children):
        fmap = filter_map(node, idx)
        if fmap is None or not attrs <= fmap.keys():
            continue
        renamed = substitute_attrs(cond, {a: Attr(fmap[a]) for a in attrs})
        spots += [((idx, *path), c) for path, c in _recursive_landings(renamed, child)]
        entered = True
        if not isinstance(node, Union):
            break
    return spots if entered else [((), cond)]


def with_recursive_helpers(fn, plan):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrites, "_landings", _recursive_landings)
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


def _old_transfer_join_conditions(root):
    """The transfer rule placing one condition per rescan of the graph, each
    checked against the target chain's conjuncts in a list."""
    def candidates(root):
        for j in all_nodes(root):
            if not isinstance(j, Join):
                continue
            left_map = {a: b for a, b in j.pairs}
            right_map = {b: a for a, b in j.pairs}
            for src_idx, mapping in ((0, left_map), (1, right_map)):
                src = j.children[src_idx]
                dst = j.children[1 - src_idx]
                existing = rewrites._chain_conjuncts(dst)
                for cond in rewrites._chain_conjuncts(src):
                    attrs = expr_attrs(cond)
                    if not attrs or not attrs <= set(mapping):
                        continue
                    transferred = substitute_attrs(cond, {a: Attr(b) for a, b in mapping.items()})
                    if any(transferred == e for e in existing):
                        continue
                    placed, inserted = _old_place_pushed(transferred, dst)
                    if inserted:
                        kids = list(j.children)
                        kids[1 - src_idx] = placed
                        yield j, replace_children(j, tuple(kids))

    return _rewrite(root, candidates)


def chain_into_a_relation(n, below=None):
    """``R(a) join(a=b) sigma(b<>n)...sigma(b<>2) S(b)``: every condition of
    the chain transfers to R. ``below`` replaces ``S(b)``."""
    right = Relation("S", ("b",)) if below is None else below
    for i in range(2, n + 1):
        right = Select(Cmp("<>", Attr("b"), Const(i)), right)
    return Join((("a", "b"),), Relation("R", ("a",)), right)


def chain_over_a_join(n):
    """The same chain over ``S(b) join(b=c) T(c)``: the input that gives
    the conditions holds a join, the one that takes them does not."""
    return chain_into_a_relation(
        n, Join((("b", "c"),), Relation("S", ("b",)), Relation("T", ("c",))))


def chain_into_a_join(n):
    """The same chain across ``R(a) join(a=d) U(d)``: the input that takes
    the conditions holds a join, which passes each on to ``U``."""
    plan = chain_into_a_relation(n)
    return Join(plan.pairs, Join((("a", "d"),), plan.left, Relation("U", ("d",))), plan.right)


def _chained(rng, q, n):
    """``q`` under n random selections (and some duplicate eliminations)."""
    sch = schema_of(q)
    for _ in range(n):
        if rng.random() < 0.15:
            q = DupElim(q)
        a = rng.choice(sch)
        other = Attr(rng.choice(sch)) if rng.random() < 0.3 else Const(rng.randrange(3))
        q = Select(Cmp(rng.choice(("=", "<>", "<")), Attr(a), other), q)
    return q


def joins_of_chains(rng, count):
    """Joins on one to three random pairs (injective or not) of two random
    queries under selection chains; some under a selection on the join,
    some sharing a subtree. Half the inputs hold joins themselves."""
    made = 0
    while made < count:
        ops = ("select", "project", "union", "dupelim") + (("join",) if made % 2 else ())
        left, _ = random_query(rng, rng.randint(0, 4), ops=ops)
        right, _ = random_query(rng, rng.randint(0, 4), ops=ops)
        ls, rs = schema_of(left), schema_of(right)
        pairs = tuple((rng.choice(ls), rng.choice(rs))
                      for _ in range(rng.randint(1, min(3, len(ls), len(rs)))))
        q = Join(pairs, _chained(rng, left, rng.randint(0, 6)),
                 _chained(rng, right, rng.randint(0, 6)))
        if rng.random() < 0.3:
            q = Select(Cmp("=", Attr(pairs[0][0]), Const(1)), q)
        yield share_subtree(rng, q) if rng.random() < 0.3 else q
        made += 1


@pytest.mark.parametrize("make", [chain_into_a_relation, chain_over_a_join,
                                  transferred_into_a_chain, chain_into_a_join])
def test_transfers_match_one_condition_per_rescan(make):
    plan = make(50)
    got = rewrites._transfer_join_conditions(plan)
    assert got is not plan
    assert structurally_equal(got, _old_transfer_join_conditions(plan))


def test_random_transfers_match_one_condition_per_rescan(monkeypatch):
    merged = []  # conditions per batch placed in an input that holds no join
    place = rewrites._place

    def counted(node, landed, settle=None):
        if not any(isinstance(n, Join) for n in all_nodes(node)):
            merged.append(len(landed))
        return place(node, landed, settle)

    monkeypatch.setattr(rewrites, "_place", counted)
    rng = random.Random(12)
    plans = [q for q, _ in (random_query(rng, 6) for _ in range(300))]
    plans += list(joins_of_chains(rng, 1500))
    changed = 0
    for i, q in enumerate(plans):
        got = rewrites._transfer_join_conditions(q)
        assert structurally_equal(got, _old_transfer_join_conditions(q)), i
        changed += got is not q
    # conditions were placed, many of them several at once
    assert changed > 900 and sum(n > 1 for n in merged) > 300


@pytest.mark.parametrize("make", [chain_into_a_relation, chain_over_a_join])
def test_a_200_level_chain_transfers_in_one_candidate(monkeypatch, make):
    # one condition per rescan renamed every chain condition on every
    # rescan: about 60,000 renames and several seconds at 200 levels
    renames = []
    rename = rewrites.substitute_attrs
    monkeypatch.setattr(rewrites, "substitute_attrs",
                        lambda e, mapping: renames.append(e) or rename(e, mapping))
    plan = make(201)
    started = time.perf_counter()
    out = rewrites._transfer_join_conditions(plan)
    elapsed = time.perf_counter() - started
    # 200 conditions, each renamed once to be placed and twice more by the
    # rescan that finds nothing left to place
    assert len(renames) <= 3 * 200
    assert elapsed < 1.0
    left = out.left
    for i in range(201, 1, -1):  # first condition on top, as placed one by one
        assert left.cond == Cmp("<>", Attr("a"), Const(i))
        left = left.child
    assert left is plan.left


def test_a_200_level_chain_into_a_join_moves_in_linear_renames(monkeypatch):
    # one condition per rescan renamed the chain's conditions at both joins
    # on every rescan: 28.7 s at 200 levels, 3.9 s at 100
    renames = []
    rename = rewrites.substitute_attrs
    monkeypatch.setattr(rewrites, "substitute_attrs",
                        lambda e, mapping: renames.append(e) or rename(e, mapping))
    plan = chain_into_a_join(201)
    started = time.perf_counter()
    out = selection_move_around(plan)
    elapsed = time.perf_counter() - started
    # 200 conditions, each renamed into R, into U, and back from U to find
    # it placed already
    assert len(renames) <= 3 * 200
    assert elapsed < 1.0
    assert out.right is plan.right
    left, right = out.left.left, out.left.right
    for i in range(201, 1, -1):  # first condition on top, as placed one by one
        assert left.cond == Cmp("<>", Attr("a"), Const(i))
        assert right.cond == Cmp("<>", Attr("d"), Const(i))
        left, right = left.child, right.child
    assert left is plan.left.left and right is plan.left.right


# ---------------------------------------------------------------------------
# placing conditions: one descent each, one rebuild for several


def test_conditions_at_one_spot_stack_in_order_and_once():
    r = Relation("R", ("a", "b"))
    plan = Project(((Attr("a"), "x"), (Attr("b"), "b")), r)
    first, second = Cmp("=", Attr("x"), Const(1)), Cmp("<", Attr("b"), Const(2))
    spots = [rewrites._landings(c, plan) for c in (first, second, first)]
    assert spots[0] == [((0,), Cmp("=", Attr("a"), Const(1)))]
    got = drive(rewrites._place(plan, spots))
    assert_same_plan(got, Project(plan.targets, Select(spots[0][0][1], Select(second, r))))
    # an identical conjunct on the path guards it: no spot
    assert rewrites._landings(first, Select(Cmp("=", Attr("x"), Const(1)), plan)) == []


def test_placing_at_once_matches_placing_one_after_another():
    rng = random.Random(23)
    several = 0
    for _ in range(400):
        q, _ = random_query(rng, rng.randint(1, 6))
        if rng.random() < 0.3:
            q = share_subtree(rng, q)
        sch = schema_of(q)
        conds = [Cmp(rng.choice(("=", "<")), Attr(rng.choice(sch)), Const(rng.randrange(2)))
                 for _ in range(rng.randint(1, 4))]
        landed = [spots for spots in (rewrites._landings(c, q) for c in conds) if spots]
        one_by_one = q
        for c in conds:
            spots = rewrites._landings(c, one_by_one)
            if spots:
                one_by_one = drive(rewrites._place(one_by_one, [spots]))
        assert_same_plan(drive(rewrites._place(q, landed)) if landed else q, one_by_one)
        several += len(landed) > 1
    assert several > 100
