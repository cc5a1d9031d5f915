"""The guards that equality enforcement reads (``rewrites._ancestor_guards``,
one parents-first fold) against the walk up to the root per pair that they
replaced (``rescan_reference._pair_guarded_above``) and its recursive form
below: at every node, a pair of down-class members or schema columns is in
the table exactly when every path to the root already filters on it.
"""
import random
import time
from itertools import combinations

from randgen import random_agg_query, random_condition, random_query, share_subtree
from rescan_reference import (
    _map_members_up, _member_expr, _member_sort_key, _pair_guarded_above,
)

from provopt.algebra import (
    Attr, Cmp, Const, Join, Project, Relation, Select, all_nodes, conjuncts, parent_map, schema_of,
)
from provopt.properties import ec_top_down, infer_ec_bottom_up
from provopt.rewrites import _ancestor_guards


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


def _guarded(q, n, m1, m2, guards=None, parents=None):
    """Whether the table of ``q`` guards the pair at ``n``, asserting that
    both walks up agree."""
    parents = parents or parent_map(q)
    want = _pair_guarded_above(n, parents, m1, m2)
    assert _old_pair_guarded_above(n, parents, m1, m2, {}) == want
    got = frozenset(map(_member_expr, (m1, m2))) in (guards or _ancestor_guards(q))[n]
    assert got == want, (n, m1, m2)
    return got


def _check_every_pair(q) -> tuple[int, int]:
    """(pairs checked, pairs guarded) over every node of ``q``: every pair of
    its down-class members and schema columns, but two constants."""
    guards, parents = _ancestor_guards(q), parent_map(q)
    down = ec_top_down(q, infer_ec_bottom_up(q))
    checked = guarded = 0
    for n in all_nodes(q):
        members = sorted({m for c in down[n] for m in c} | set(schema_of(n)), key=_member_sort_key)
        for m1, m2 in combinations(members, 2):
            if not isinstance(m1, Const):  # constants sort last
                checked += 1
                guarded += _guarded(q, n, m1, m2, guards, parents)
    return checked, guarded


def _corpus(seed: int, size: int):
    """Random queries, half over pooled names (which products prime), a
    third sharing a subtree, and a third under an equality selection."""
    rng = random.Random(seed)
    for i in range(size):
        pool = ("a", "b", "c") if i % 2 else ()
        q, _ = (random_agg_query(rng, rng.randint(1, 2), pool=pool) if i % 5 == 4
                else random_query(rng, rng.randint(2, 7), pool=pool))
        if i % 3 == 1:
            q = share_subtree(rng, q)
        elif i % 3 == 2:
            q = Select(random_condition(rng, schema_of(q), equality_bias=1.0), q)
        yield q


def test_the_guard_table_is_the_walk_up_on_random_plans():
    started = time.process_time()
    checked = guarded = 0
    for seed in (0, 1):
        for q in _corpus(seed, 400):
            c, g = _check_every_pair(q)
            checked, guarded = checked + c, guarded + g
    assert checked > 30000 and guarded > 1000, (checked, guarded)
    assert time.process_time() - started < 3


def test_a_node_read_in_both_slots_of_a_join_is_guarded_through_its_first():
    # the walk up maps from the first slot in each parent, so the shared
    # input's pair is guarded although the right slot primes both names
    x = Relation("R", ("a", "b"))
    join = Join((("a", "a"),), x, x)
    q = Select(Cmp("=", Attr("a"), Attr("b")), join)
    assert schema_of(join) == ("a", "b", "a'", "b'")
    assert _guarded(q, x, "a", "b")
    assert _guarded(q, join, "a", "b")
    assert not _guarded(q, x, "a", Const(1))


def test_only_the_first_name_of_a_column_maps_down():
    # the projection exports a as x and y; a selection on y guards no pair
    # of a, since a filter below would be read through x
    r = Relation("R", ("a", "b"))
    proj = Project(((Attr("a"), "x"), (Attr("a"), "y"), (Attr("b"), "b")), r)
    on_second = Select(Cmp("=", Attr("y"), Attr("b")), proj)
    on_first = Select(Cmp("=", Attr("b"), Attr("x")), proj)
    assert not _guarded(on_second, r, "a", "b")
    assert _guarded(on_second, proj, "b", "y")
    assert _guarded(on_first, r, "a", "b")
    assert _check_every_pair(on_second)[1] == 1
