"""A cross product is a join on no pairs: every pass gives ``Join((), l, r)``
what it gives ``Cross(l, r)``.

Each random plan with a cross product is paired with its copy in which
every cross product is a join on no pairs. The two must evaluate (plain and
annotated), cost, infer properties, rewrite, instrument and print alike.
"""
import random
from dataclasses import fields

import pytest

from annotated import annotate, evaluate_annotated
from randgen import random_agg_query, random_instance, random_query, random_spju_query

from provopt.algebra import (
    Cross, Join, Node, Product, Relation, all_nodes, rebuild_bottom_up, right_output_names,
)
from provopt.executor import TableStats, cost, evaluate
from provopt.instrument import instrument_query
from provopt.plantext import format_plan
from provopt.properties import format_properties, infer_all
from provopt.rewrites import apply_pats
from provopt.sqlgen import to_sql


def as_joins(root: Node) -> Node:
    """The plan with every cross product replaced by a join on no pairs."""
    return rebuild_bottom_up(root, lambda n, rebuilt: Join((), rebuilt.left, rebuilt.right)
                             if isinstance(rebuilt, Cross) else rebuilt)


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the two plans must fail alike, too
        return type(exc), str(exc)


def stats_of(db):
    return {name: TableStats(rel.total, {a: len({t[i] for t in rel.tuples})
                                         for i, a in enumerate(rel.schema)})
            for name, rel in db.items()}


def cross_corpus(make, count):
    rng = random.Random(11)
    plans = []
    while len(plans) < count:
        q, state = make(rng)
        if any(isinstance(n, Cross) for n in all_nodes(q)):
            plans.append((q, random_instance(state, rng, max_tuples=5)))
    return plans


CORPUS = cross_corpus(lambda rng: random_query(rng, 6), 60)
SPJU = cross_corpus(lambda rng: random_spju_query(rng, 5), 30)
AGG = cross_corpus(lambda rng: random_agg_query(rng, 2), 20)


def test_cross_is_a_product_on_no_pairs_and_not_a_join():
    l, r = Relation("R", ("a", "b")), Relation("S", ("b", "c"))
    c = Cross(l, r)
    assert isinstance(c, Product) and not isinstance(c, Join)
    assert c.pairs == () and [f.name for f in fields(Cross)] == ["left", "right"]
    assert c.schema == Join((), l, r).schema == ("a", "b", "b'", "c")
    assert right_output_names(c) == ("b'", "c")


def test_corpus_exercises_crosses():
    assert len(CORPUS) == 60 and len(SPJU) == 30 and len(AGG) == 20


@pytest.mark.parametrize("q, db", CORPUS + SPJU + AGG)
def test_join_on_no_pairs_runs_and_prints_as_cross(q, db):
    j = as_joins(q)
    assert not any(isinstance(n, Cross) for n in all_nodes(j))
    got = outcome(evaluate, j, db)
    want = outcome(evaluate, q, db)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert (got.schema, got.tuples) == (want.schema, want.tuples)
    assert outcome(lambda g: cost(g, stats_of(db)).total, j) == \
        outcome(lambda g: cost(g, stats_of(db)).total, q)
    store_j, store_q = infer_all(j), infer_all(q)
    assert [format_properties(store_j, n) for n in all_nodes(j)] == \
        [format_properties(store_q, n) for n in all_nodes(q)]
    assert format_plan(j) == format_plan(q)
    assert outcome(lambda g: to_sql(g).text, j) == outcome(lambda g: to_sql(g).text, q)
    assert outcome(lambda g: format_plan(apply_pats(g)), j) == \
        outcome(lambda g: format_plan(apply_pats(g)), q)


@pytest.mark.parametrize("q, db", SPJU + AGG)
def test_join_on_no_pairs_instruments_as_cross(q, db):
    j, adb = as_joins(q), annotate(db)

    def annotated(g):
        ann = evaluate_annotated(g, adb)
        return ann.schema, ann.rows

    assert outcome(annotated, j) == outcome(annotated, q)
    for method in ("join", "window"):
        def instrumented(g):
            return format_plan(instrument_query(g, agg_method=method))
        assert outcome(instrumented, j) == outcome(instrumented, q)
