"""The optimizer's work stays polynomial in the size of its input.

Each family is rewritten at n and 2n levels, and the work is counted, not
timed: the steps of every children-first pass, the nodes copied over new
inputs and the filter maps read (one per node a selection descends into,
or a guard or an equivalence class is carried across). Each family's
growth per doubling must stay under its stated bound. Wall time is capped
once, generously, as a backstop.

The pruning family also counts the schemas re-derived over stub inputs,
and the stacked reenactment the expression nodes the rules fold (the
merge's substitution among them). Joins of many inputs, shared expression
DAGs, unions of many inputs and stacked aggregations are still to come.
``to_sql`` of shared expression DAGs stays out until the filter scope's SQL
is staged, since its text is exponential.
"""
import random
import time

import pytest

from test_move_around import chain_into_a_join, chain_into_a_relation, guarded_over_fences

from provopt import properties, rewrites
from provopt.algebra import (
    Arith, Attr, Cmp, Const, Project, Relation, Select, Union, identity_targets,
)
from provopt.instrument import UpdateStmt, reenact

N = 100


def union_held_chain(n):
    """``project (a) (union sigma(a<>n)...sigma(a<>1) R(a,b) S(a,b))``:
    every selection is a pruning candidate that the union refuses."""
    left = Relation("R", ("a", "b"))
    for i in range(1, n + 1):
        left = Select(Cmp("<>", Attr("a"), Const(i)), left)
    return Project(identity_targets(("a",)), Union(left, Relation("S", ("a", "b"))))


def stacked_reenactment(n):
    """n statements ``UPDATE r SET a_i = a_i + c WHERE a_j = v`` over
    ``r(id, a1..a8)``, the columns drawn as the reenact_txn benchmark draws
    them, reenacted as a stack of n projections."""
    shape, rng = random.Random("reenact_txn"), random.Random(n)
    cols = tuple(f"a{i}" for i in range(1, 9))
    ups = []
    for _ in range(n):
        i, j = cols[shape.randrange(8)], cols[shape.randrange(8)]
        ups.append(UpdateStmt("r", ((i, Arith("+", Attr(i), Const(rng.randrange(1, 10)))),),
                              Cmp("=", Attr(j), Const(rng.randrange(100)))))
    return reenact(ups, schema=("id",) + cols)


#: family -> (plan maker, rewrite, the most work may grow per doubling)
FAMILIES = {
    # (R(a) join(a=d) U(d)) join(a=b) sigma(b<>n)...sigma(b<>2) S(b)
    "join-held selection chain": (chain_into_a_join, rewrites.selection_move_around, 2.2),
    # R(a) join(a=b) sigma(b<>n)...sigma(b<>2) S(b)
    "join-free selection chain": (chain_into_a_relation, rewrites.selection_move_around, 2.2),
    # sigma(a=b) over n fenced identity projections over R(a) x S(b)
    "equality over fences": (guarded_over_fences, rewrites._enforce_ancestor_equalities, 2.2),
    # project (a) over union(sigma(a<>n)...sigma(a<>1) R(a,b), S(a,b))
    "union-held selection chain": (union_held_chain, rewrites.project_to_icols, 2.2),
    # the rewrite pipeline over n stacked UPDATE projections
    "stacked reenactment": (stacked_reenactment, rewrites.apply_pats, 2.2),
}


def _work(monkeypatch, rewrite, plan) -> int:
    count = [0]

    def counted(fn):
        def wrapper(*args):
            count[0] += 1
            return fn(*args)
        return wrapper

    with monkeypatch.context() as m:
        rebuild, fold = rewrites.rebuild_bottom_up, rewrites.fold_expr
        m.setattr(rewrites, "rebuild_bottom_up", lambda root, step: rebuild(root, counted(step)))
        m.setattr(rewrites, "fold_expr", lambda roots, step: fold(roots, counted(step)))
        m.setattr(rewrites, "over_schemas", counted(rewrites.over_schemas))
        m.setattr(rewrites, "replace_children", counted(rewrites.replace_children))
        m.setattr(rewrites, "filter_map", counted(rewrites.filter_map))
        m.setattr(properties, "filter_map", counted(properties.filter_map))
        rewrite(plan)
    return count[0]


@pytest.mark.parametrize("family", FAMILIES)
def test_work_grows_within_its_bound(monkeypatch, family):
    make, rewrite, bound = FAMILIES[family]
    small, large = (_work(monkeypatch, rewrite, make(n)) for n in (N, 2 * N))
    assert 0 < small and large <= bound * small, (small, large)
    started = time.perf_counter()
    rewrite(make(2 * N))
    assert time.perf_counter() - started < 2.0
