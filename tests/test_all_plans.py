"""Every plan of every space gives the same answer: the all-plans gate.

For seeded random queries, ``provopt run``'s own pipeline
(:func:`~provopt.instrument.instrument_query`, then
:func:`~provopt.rewrites.apply_pats`, one ``choose`` wired to both choice
points) runs under ``optimize(strategy="seq")`` with no stop rule, which
builds every path of the plan space. Every plan's bag, from the evaluator
and from its SQL run in SQLite, must equal an independent reference, column
by column name: for an instrumented query the provenance-polynomial oracle's
encoding (``annotated.py``), for an uninstrumented one ``evaluate`` of the
original query.

Families: plain SPJU and flat aggregation, each with globally unique column
names and with names shared through ``randgen``'s ``pool`` (so products
prime them); and uninstrumented queries over select, project, join, cross,
union and duplicate elimination, through ``apply_pats`` alone, where the
set-based duplicate-elimination removal is the choice.

Left out, each until its ROADMAP item lands:

- nested aggregation, an aggregation inside another's input (item 1): the
  window method double-counts there, so some plans of the space are wrong;
- aggregation in the uninstrumented family (item 22): a group-less
  aggregation over an empty input gives no row in ``evaluate``, while SQLite
  runs the emitted ``SELECT sum(a) AS s, count(a) AS c FROM ...`` and gives
  one row, ``(NULL, 0)``.
"""
import random
import sqlite3

import pytest

from annotated import annotate, encode_provenance, evaluate_annotated
from helpers import bags_equal
from randgen import random_agg_query, random_instance, random_query, random_spju_query
from test_sqlgen import _load_sqlite, _sqlite_bag

from provopt.algebra import DupElim, schema_of
from provopt.cli import _distincts
from provopt.executor import BagRelation, TableStats, cost, evaluate
from provopt.instrument import instrument_query
from provopt.optimizer import optimize
from provopt.rewrites import RewriteConfig, apply_pats
from provopt.sqlgen import to_sql

POOL = ("a", "b", "c", "d")
#: the uninstrumented family's operators, no aggregation (see above); a
#: duplicate elimination is drawn as often as the rest together
UNINSTRUMENTED_OPS = ("select", "project", "join", "cross", "union") + ("dupelim",) * 5


def _every_plan(query, db, base_keys, instrument: bool):
    """``provopt run``'s pipeline over ``query``, every path of its space."""
    stats = {name: TableStats(bag.total, _distincts(bag)) for name, bag in db.items()}

    def pipeline(choose):
        graph = instrument_query(query, choice=choose) if instrument else query
        return apply_pats(graph, RewriteConfig(base_keys=base_keys, dupelim_set_choice=choose))

    return optimize(pipeline, lambda g: cost(g, stats).total, strategy="seq").trace


def _check_every_plan(query, db, base_keys, want: BagRelation, instrument: bool) -> int:
    """Assert each plan's bag and its SQL's bag equal ``want`` by name; the plan count."""
    plans = _every_plan(query, db, base_keys, instrument)
    conn = sqlite3.connect(":memory:")
    try:
        _load_sqlite(conn, db)
        for p in plans:
            assert p.error is None, (p.path, p.error)
            assert bags_equal(evaluate(p.graph, db), want, by_name=True), p.path
            schema = schema_of(p.graph)
            sql = _sqlite_bag(conn, to_sql(p.graph).text, len(schema))
            assert bags_equal(BagRelation(schema, sql), want, by_name=True), p.path
    finally:
        conn.close()
    return len(plans)


def _declared_keys(state, rng):
    """Half the time, instances whose first columns are unique and declared keys."""
    unique = rng.random() < 0.5
    keys = {name: [attrs[:1]] for name, attrs in state.relations.items()} if unique else {}
    return unique, keys


@pytest.mark.parametrize("pool", [(), POOL], ids=["own-names", "pool"])
@pytest.mark.parametrize("family", ["spju", "agg"])
def test_every_instrumented_plan_gives_the_provenance(family, pool):
    rng = random.Random(f"{family}-{len(pool)}")
    plans = 0
    for _ in range(60):
        if family == "spju":
            q, state = random_spju_query(rng, rng.randint(1, 4), pool=pool)
        else:
            q, state = random_agg_query(rng, rng.randint(1, 3), pool=pool)
        unique, keys = _declared_keys(state, rng)
        db = random_instance(state, rng, 5, unique_first=unique)
        want = encode_provenance(evaluate_annotated(q, annotate(db)))
        plans += _check_every_plan(q, db, keys, want, instrument=True)
    # an aggregation's method is a choice; an SPJU query has one plan
    assert plans > 60 if family == "agg" else plans == 60


@pytest.mark.parametrize("pool", [(), POOL], ids=["own-names", "pool"])
def test_every_uninstrumented_plan_gives_the_query_answer(pool):
    rng = random.Random(f"dupelim-{len(pool)}")
    plans = 0
    for _ in range(150):
        q, state = random_query(rng, rng.randint(1, 5), UNINSTRUMENTED_OPS, pool=pool)
        if rng.random() < 0.5:  # the duplicate eliminations below become removable
            q = DupElim(q)
        unique, keys = _declared_keys(state, rng)
        db = random_instance(state, rng, 5, unique_first=unique)
        plans += _check_every_plan(q, db, keys, evaluate(q, db), instrument=False)
    assert plans > 150  # some duplicate eliminations are removable
