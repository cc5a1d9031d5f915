"""The optimizer's work stays polynomial in the size of its input.

Each family is rewritten at n and 2n levels, and the work is counted, not
timed: the steps of every children-first pass, the nodes copied over new
inputs and the filter maps read (one per node a selection descends into,
or a guard or an equivalence class is carried across). Each family's
growth per doubling must stay under its stated bound. Wall time is capped
once, generously, as a backstop.

These are the first families of the growth gate; joins of many inputs,
stacked reenactments, shared expression DAGs, deep unions and stacked
aggregations are still to come. ``to_sql`` of shared expression DAGs stays
out until the filter scope's SQL is staged, since its text is exponential.
"""
import time

import pytest

from test_move_around import chain_into_a_join, chain_into_a_relation, guarded_over_fences

from provopt import properties, rewrites

N = 100

#: family -> (plan maker, rewrite, the most work may grow per doubling)
FAMILIES = {
    # (R(a) join(a=d) U(d)) join(a=b) sigma(b<>n)...sigma(b<>2) S(b)
    "join-held selection chain": (chain_into_a_join, rewrites.selection_move_around, 2.2),
    # R(a) join(a=b) sigma(b<>n)...sigma(b<>2) S(b)
    "join-free selection chain": (chain_into_a_relation, rewrites.selection_move_around, 2.2),
    # sigma(a=b) over n fenced identity projections over R(a) x S(b)
    "equality over fences": (guarded_over_fences, rewrites._enforce_ancestor_equalities, 2.2),
}


def _work(monkeypatch, rewrite, plan) -> int:
    count = [0]

    def counted(fn):
        def wrapper(*args):
            count[0] += 1
            return fn(*args)
        return wrapper

    with monkeypatch.context() as m:
        rebuild = rewrites.rebuild_bottom_up
        m.setattr(rewrites, "rebuild_bottom_up", lambda root, step: rebuild(root, counted(step)))
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
