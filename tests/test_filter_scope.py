"""The filter scope of a long transaction is checked, rewritten and
evaluated in time linear in its condition's DAG.

Each statement's condition over the pre-transaction state substitutes the
earlier statements' conditional assignments, so the scope's condition shares
subexpressions heavily: its tree is exponentially larger than its DAG. The
schema check reads the attributes of each distinct subexpression once, and
the evaluator computes each distinct subexpression once over all the rows.
"""
import random
import time

from provopt import algebra
from provopt.algebra import Select, all_nodes, expr_children, schema_of
from provopt.executor import BagRelation, evaluate
from provopt.instrument import (
    FILTER_UPDATED, HIST_JOIN, VersionedStore, parse_updates, reenact, scope_to_updated,
)
from provopt.rewrites import apply_pats

COLS = tuple(f"a{i}" for i in range(1, 9))
SCHEMA = ("id",) + COLS


def _transaction(n: int):
    """n statements ``UPDATE r SET a_i = a_i + c WHERE a_j = v`` over
    ``r(id, a1..a8)``, with the columns the benchmark's ``reenact_txn``
    workload draws for its first n statements."""
    shape, rng = random.Random("reenact_txn"), random.Random(1)
    lines = []
    for _ in range(n):
        i, j = COLS[shape.randrange(len(COLS))], COLS[shape.randrange(len(COLS))]
        lines.append(f"UPDATE r SET {i} = {i} + {rng.randrange(1, 10)} "
                     f"WHERE {j} = {rng.randrange(100)};\n")
    return parse_updates("".join(lines))


def _filter_scoped(n: int):
    updates = _transaction(n)
    return scope_to_updated(reenact(updates, schema=SCHEMA), updates, None,
                            FILTER_UPDATED, txn_id=1)[0]


def _history_joined(n: int, r: BagRelation) -> BagRelation:
    """The transaction's history-join scope evaluated over ``r``."""
    updates = _transaction(n)
    store = VersionedStore()
    store.load("r", r, key=("id",))
    store.apply_transaction(1, updates)
    plan, extra = scope_to_updated(reenact(updates, schema=SCHEMA), updates, store,
                                   HIST_JOIN, txn_id=1)
    return evaluate(plan, {"r": r, **extra})


def _distinct_subexpressions(e) -> int:
    seen, stack = {id(e)}, [e]
    while stack:
        for c in expr_children(stack.pop()):
            if id(c) not in seen:
                seen.add(id(c))
                stack.append(c)
    return len(seen)


def test_schema_check_reads_each_shared_subexpression_once(monkeypatch):
    calls = [0]

    def counted(e):
        calls[0] += 1
        return expr_children(e)

    monkeypatch.setattr(algebra, "expr_children", counted)
    plan = _filter_scoped(60)
    assert schema_of(plan) == SCHEMA
    monkeypatch.undo()
    exprs = [e for n in all_nodes(plan) for e in
             ((n.cond,) if isinstance(n, Select) else
              tuple(e for e, _ in getattr(n, "targets", ())))]
    distinct = sum(_distinct_subexpressions(e) for e in exprs)
    # the scope check and the rebuilt ancestors each read their expressions
    assert calls[0] <= 3 * distinct


def test_apply_pats_rewrites_a_60_update_filter_scope():
    plan = _filter_scoped(60)
    started = time.perf_counter()
    out = apply_pats(plan)
    assert time.perf_counter() - started < 2
    assert schema_of(out) == SCHEMA


def _expressions(plan):
    return [e for n in all_nodes(plan) for e in
            ((n.cond,) if isinstance(n, Select) else
             tuple(e for e, _ in getattr(n, "targets", ())))]


def test_evaluation_computes_each_shared_subexpression_once(monkeypatch):
    rng = random.Random("reenact_txn:1")
    r = BagRelation.from_rows(SCHEMA, [(k,) + tuple(rng.randrange(100) for _ in COLS)
                                       for k in range(500)])
    plan = _filter_scoped(80)
    calls = [0]

    def counted(e):
        calls[0] += 1
        return expr_children(e)

    monkeypatch.setattr(algebra, "expr_children", counted)
    started = time.perf_counter()
    out = evaluate(plan, {"r": r})
    elapsed = time.perf_counter() - started
    monkeypatch.undo()
    assert out.tuples == _history_joined(80, r).tuples
    assert out.total > 100  # the scope keeps the rows some statement matched
    distinct = sum(_distinct_subexpressions(e) for e in _expressions(plan))
    # the schema check and the evaluation each read every expression once
    assert calls[0] <= 3 * distinct
    # a backstop: recomputing the shared condition in each branch takes seconds here
    assert elapsed < 3
