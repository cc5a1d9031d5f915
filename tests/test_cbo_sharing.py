"""One ``optimize`` call shares the subplans its iterations have in common.

Plans that differ in one choice are built from the same node objects where
that choice changes nothing, so keys, equivalence classes and cost
estimates are computed once per distinct node, not once per plan. The
sharing must not show: every traced plan equals the plan built alone from
its path, with the same sharing within it, the same text, SQL and cost, and
nothing is carried from one ``optimize`` call to the next.
"""
import contextlib
import io
import random
from collections import Counter
from pathlib import Path

import pytest

from randgen import random_agg_query, random_instance, random_query

from provopt import cli, optimizer, properties
from provopt.algebra import (
    DupElim, Join, Project, Relation, all_nodes, identity_targets, schema_of,
    shared_table, sharing_subplans, structurally_equal,
)
from provopt.datafiles import load_directory
from provopt.executor import TableStats, cost
from provopt.instrument import instrument_query
from provopt.optimizer import optimize
from provopt.plantext import format_plan, parse_plan
from provopt.rewrites import RewriteConfig, apply_pats
from provopt.sqlgen import to_sql

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
#: the agg_deep benchmark shape: four group sums joined on their group
AGG4_PLAN = GOLDEN / "agg4.plan"
AGG4_DATA = GOLDEN / "agg4"


@pytest.fixture
def counted(monkeypatch):
    """Calls of the per-node bottom-up inferences, by function name."""
    calls = Counter()
    for name in ("_ec_up", "_keys_of"):
        fn = getattr(properties, name)
        monkeypatch.setattr(properties, name,
                            lambda *args, _fn=fn, _name=name: calls.update((_name,)) or _fn(*args))
    return calls


def _stats(db) -> dict[str, TableStats]:
    return {name: TableStats(rel.total, {a: float(len({t[i] for t in rel.tuples}))
                                         for i, a in enumerate(rel.schema)})
            for name, rel in db.items()}


def _agg4():
    db, base_keys = load_directory(AGG4_DATA)
    query = parse_plan(AGG4_PLAN.read_text(), {n: r.schema for n, r in db.items()})
    return query, base_keys, _stats(db)


def _instrumenting(query, base_keys):
    """The pipeline of ``provopt run --prov-of --agg-method cbo``."""
    def pipeline(choose):
        graph = instrument_query(query, choice=choose)
        return apply_pats(graph, RewriteConfig(base_keys=base_keys, dupelim_set_choice=choose))
    return pipeline


def _rewriting(query, base_keys):
    """The pipeline of ``provopt run --plan``: duplicate eliminations only."""
    return lambda choose: apply_pats(
        query, RewriteConfig(base_keys=base_keys, dupelim_set_choice=choose))


def _replay(path):
    """A choice callback answering ``path`` in order."""
    answers = iter(path)
    return lambda n: next(answers)


def _assert_traced_plans_stand_alone(pipeline, stats, **kwargs) -> int:
    """Each traced plan equals the one its path builds outside ``optimize``;
    returns how many plans were checked."""
    result = optimize(pipeline, lambda g: cost(g, stats).total, **kwargs)
    for p in result.trace:
        alone = pipeline(_replay(p.path))
        assert structurally_equal(p.graph, alone), p.path
        # the same sharing within the plan: no equal subtrees were merged
        assert len(all_nodes(p.graph)) == len(all_nodes(alone)), p.path
        assert format_plan(p.graph) == format_plan(alone), p.path
        assert to_sql(p.graph).text == to_sql(alone).text, p.path
        assert p.cost == cost(alone, stats).total, p.path
    return len(result.trace)


def test_one_optimize_infers_each_shared_node_once(counted):
    # 16 plans of about 32 nodes each, 128 of them distinct; without sharing
    # an optimize computes classes for 504 nodes. Keys are read only for a
    # duplicate elimination's input, and no plan holds one
    query, base_keys, stats = _agg4()
    result = optimize(_instrumenting(query, base_keys), lambda g: cost(g, stats).total)
    assert len(result.trace) == 16
    assert 0 < counted["_ec_up"] <= 160
    assert counted["_keys_of"] == 0


@pytest.mark.parametrize("strategy", ["seq", "bin", "sa"])
def test_traced_plans_equal_standalone_plans_agg4(strategy):
    query, base_keys, stats = _agg4()
    checked = _assert_traced_plans_stand_alone(
        _instrumenting(query, base_keys), stats, strategy=strategy, max_iters=40)
    assert checked >= 16


def test_traced_plans_equal_standalone_plans_random_aggs():
    rng = random.Random(1904)
    plans = 0
    for _ in range(40):
        q, state = random_agg_query(rng, rng.randint(1, 3))
        db = random_instance(state, rng, 5, unique_first=True)
        base_keys = {name: [(attrs[0],)] for name, attrs in state.relations.items()
                     if rng.random() < 0.5}
        plans += _assert_traced_plans_stand_alone(_instrumenting(q, base_keys), _stats(db))
    assert plans > 80


def test_traced_plans_equal_standalone_plans_dupelim_choices():
    # duplicate eliminations the pipeline may keep or remove by choice: a
    # kept one is decided again in every plan, so each asks its choice
    rng = random.Random(1905)
    plans = 0
    for _ in range(60):
        q, state = random_query(rng, rng.randint(2, 6))
        sch = schema_of(q)
        kept = rng.sample(sch, rng.randint(1, len(sch)))
        # the outer elimination makes the inner one removable by choice
        q = DupElim(Project(identity_targets(kept), DupElim(q)))
        db = random_instance(state, rng, 5)
        plans += _assert_traced_plans_stand_alone(_rewriting(q, {}), _stats(db))
    assert plans > 100


def test_no_carry_over_between_runs(counted, monkeypatch):
    # a kept OptimizeResult holds plans, not the memo: a second run of the
    # same command computes as much as the first
    kept = []
    real = optimizer.optimize
    monkeypatch.setattr(optimizer, "optimize",
                        lambda *args, **kwargs: kept.append(real(*args, **kwargs)) or kept[-1])
    argv = ["run", "--prov-of", str(AGG4_PLAN), "--data", str(AGG4_DATA), "--agg-method", "cbo"]
    per_run = []
    for _ in range(2):
        counted.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        per_run.append(dict(counted))
    assert len(kept) == 2 and kept[0].trace
    assert per_run[0] == per_run[1]
    assert per_run[0]["_ec_up"] > 0


def test_no_carry_over_between_optimize_calls_on_one_plan(counted):
    # the same source plan and statistics objects: what one call shares
    # with its own iterations, it does not share with the next call
    query, base_keys, stats = _agg4()
    pipeline = _instrumenting(query, base_keys)
    kept, per_call = [], []
    for _ in range(2):
        counted.clear()
        kept.append(optimize(pipeline, lambda g: cost(g, stats).total))
        per_call.append(dict(counted))
    assert per_call[0] == per_call[1]
    assert per_call[0]["_ec_up"] > 0


def test_one_source_plan_under_two_base_key_maps():
    # keys depend on the declared base keys: two optimize calls on one
    # source plan object each remove the duplicate elimination by their own
    join = Join((("a", "c"),), Relation("R", ("a", "b")), Relation("S", ("c", "d")))
    q = DupElim(join)
    keyed = {"R": [("a",)], "S": [("c",)]}
    stats = {"R": TableStats(4.0, {}), "S": TableStats(4.0, {})}
    for order in ((keyed, {}), ({}, keyed), (keyed, {}, keyed)):
        for base_keys in order:
            result = optimize(_rewriting(q, base_keys), lambda g: cost(g, stats).total)
            for p in result.trace:
                assert isinstance(p.graph, DupElim) is (base_keys is not keyed), order


def test_memo_lives_for_one_optimize_call():
    tables = []

    def pipeline(choose):
        tables.append(shared_table("probe"))
        with sharing_subplans():  # a nested scope starts empty
            assert shared_table("probe") is not tables[-1]
        assert shared_table("probe") is tables[-1]
        return choose(2)

    def failing_cost(plan):
        raise ValueError("no estimate")

    optimize(pipeline, float)
    with pytest.raises(optimizer.EnumerationError):
        optimize(pipeline, failing_cost)
    assert len(tables) == 4
    assert tables[0] is tables[1] and tables[2] is tables[3] and tables[0] is not tables[2]
    # outside any optimize call every caller gets a table of its own
    assert shared_table("probe") is not shared_table("probe")
