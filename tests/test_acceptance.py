"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; timing bounds are asserted where the criterion states one.
"""
import itertools
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

from helpers import bags_equal, count_attr_refs
from randgen import random_agg_query, random_instance, random_query
from test_optimizer import structure

from provopt.algebra import (
    Agg, Arith, Attr, Cmp, Const, DupElim, Join, Project, Relation,
    Select, all_nodes, identity_targets, schema_of, SchemaError, substitute,
)
from provopt.executor import (
    BagRelation, TableStats, cost, evaluate,
)
from provopt.instrument import (
    FILTER_UPDATED, HIST_JOIN, UpdateStmt, VersionedStore, instrument_query,
    parse_updates, reenact, replay, scope_to_updated,
)
from provopt.optimizer import optimize
from provopt.properties import EcConst, infer_all, infer_ec
from provopt.rewrites import (
    RewriteConfig, apply_pats, factor_attributes,
    merge_projections, merge_selections, project_to_icols,
    pull_up_prov_projection, remove_dupelim_by_key, remove_dupelim_by_set,
    remove_redundant_projection, remove_window, selection_move_around,
    total_expression_size,
)
from provopt.sqlgen import to_sql

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, name, limit_seconds=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number:02d} {name}: PASS ({elapsed:.2f}s)")
    if limit_seconds is not None:
        assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def ex1_query():
    shop = Relation("shop", ("name", "numEmpl"))
    sale = Relation("sale", ("shop", "item"))
    item = Relation("item", ("id", "price"))
    return Project(((Attr("name"), "name"),),
                   Join((("item", "id"),),
                        Join((("name", "shop"),), shop, sale),
                        Select(Cmp(">", Attr("price"), Const(20)), item)))


def ex1_db():
    return {
        "shop": BagRelation.from_rows(("name", "numEmpl"),
                                      [("Walmart", 3), ("Cosco", 14)]),
        "sale": BagRelation.from_rows(
            ("shop", "item"),
            [("Walmart", "Steak"), ("Walmart", "Butter"), ("Walmart", "Bread"),
             ("Cosco", "Butter"), ("Cosco", "Bread")]),
        "item": BagRelation.from_rows(("id", "price"),
                                      [("Steak", 100), ("Butter", 10), ("Bread", 25)]),
    }


EX1_ENCODING = {
    ("Walmart", "Walmart", 3, "Walmart", "Steak", "Steak", 100): 1,
    ("Walmart", "Walmart", 3, "Walmart", "Bread", "Bread", 25): 1,
    ("Cosco", "Cosco", 14, "Cosco", "Bread", "Bread", 25): 1,
}


def test_criterion_01_provenance_encoding_exactness():
    with criterion(1, "provenance-encoding-exactness", limit_seconds=1.0):
        db = ex1_db()
        for method in ("join", "window"):
            inst = instrument_query(ex1_query(), agg_method=method)
            assert evaluate(inst, db).tuples == EX1_ENCODING
            optimized = apply_pats(inst, RewriteConfig())
            assert evaluate(optimized, db).tuples == EX1_ENCODING


def test_criterion_02_instrumentation_choice_interchangeability():
    with criterion(2, "ic-interchangeability", limit_seconds=60.0):
        rng = random.Random(20260)
        for _ in range(500):
            q, state = random_agg_query(rng, rng.randint(1, 3))
            db = random_instance(state, rng, 5)
            num_aggs = sum(isinstance(n, Agg) for n in all_nodes(q))
            reference = None
            for combo in itertools.product((0, 1), repeat=num_aggs):
                pending = list(combo)
                inst = instrument_query(q, choice=lambda n: pending.pop(0))
                out = evaluate(inst, db)
                if reference is None:
                    reference = out
                else:
                    assert bags_equal(reference, out, by_name=True)


RULES = (
    factor_attributes,
    merge_projections,
    merge_selections,
    selection_move_around,
    pull_up_prov_projection,
    project_to_icols,
    remove_window,
    remove_dupelim_by_key,
    remove_dupelim_by_set,
    remove_redundant_projection,
)


def _pat_corpus(count):
    rng = random.Random(20263)
    for _ in range(count):
        q, state = random_query(rng, max_ops=5)
        db = random_instance(state, rng, 8, unique_first=True)
        base_keys = {name: [(attrs[0],)] for name, attrs in state.relations.items()}
        yield q, db, base_keys


def test_criterion_03_pat_soundness():
    with criterion(3, "pat-soundness", limit_seconds=120.0):
        for q, db, base_keys in _pat_corpus(1000):
            expected = evaluate(q, db)
            whole = evaluate(apply_pats(q, RewriteConfig(base_keys=base_keys)), db)
            assert whole.schema == expected.schema and whole.tuples == expected.tuples
            for rule in RULES:
                if rule is remove_dupelim_by_key:
                    got = evaluate(rule(q, base_keys), db)
                else:
                    got = evaluate(rule(q), db)
                assert bags_equal(expected, got, by_name=True), rule.__name__


def test_criterion_04_property_soundness():
    with criterion(4, "property-soundness"):
        for q, db, base_keys in _pat_corpus(1000):
            store = infer_all(q, base_keys)
            expected = evaluate(q, db)
            for node in all_nodes(q):
                sch = schema_of(node)
                out = None
                for key in store.keys[node]:
                    out = out if out is not None else evaluate(node, db)
                    idx = [sch.index(a) for a in key]
                    seen = set()
                    for t, m in out.rows():
                        assert m == 1
                        kv = tuple(t[i] for i in idx)
                        assert kv not in seen
                        seen.add(kv)
                for cls in store.ecs[node]:
                    members = sorted(cls, key=lambda m: (isinstance(m, EcConst), repr(m)))
                    if len(members) < 2:
                        continue
                    first = members[0]
                    for other in members[1:]:
                        lhs = Const(first.value) if isinstance(first, EcConst) else Attr(first)
                        rhs = Const(other.value) if isinstance(other, EcConst) else Attr(other)
                        enforced = substitute(q, node, Select(Cmp("=", lhs, rhs), node),
                                              check_schema=False)
                        assert evaluate(enforced, db).tuples == expected.tuples
                if node is not q:
                    keep = tuple(a for a in sch if a in store.icols[node])
                    if keep != sch:
                        try:
                            narrowed = substitute(
                                q, node, Project(identity_targets(keep), node),
                                check_schema=False)
                            got = evaluate(narrowed, db)
                        except SchemaError:
                            got = None
                        if got is not None:
                            assert got.tuples == expected.tuples
                    if store.dup_insensitive[node]:
                        forced = substitute(q, node, DupElim(node), check_schema=False)
                        assert evaluate(forced, db).tuples == expected.tuples


def test_criterion_05_ec_worked_examples():
    with criterion(5, "ec-worked-examples"):
        base = Select(Cmp("=", Attr("a"), Attr("b")), Relation("R", ("a", "b", "c")))
        sel = Select(Cmp("=", Attr("a"), Const(5)),
                     Select(Cmp("<", Attr("c"), Const(9)), base))
        got = infer_ec(sel)[sel]
        assert got == frozenset((frozenset(("a", "b", EcConst(5))), frozenset(("c",))))

        left = Select(Cmp("=", Attr("a"), Attr("b")), Relation("R", ("a", "b", "c")))
        right = Select(Cmp("=", Attr("e"), Attr("f")), Relation("S", ("d", "e", "f")))
        join = Join((("a", "d"),), left, right)
        got = infer_ec(join)[join]
        assert got == frozenset((frozenset(("a", "b", "d")), frozenset(("c",)),
                                 frozenset(("e", "f"))))


def test_criterion_06_plan_enumeration():
    with criterion(6, "plan-enumeration"):
        def fig_tree(choose):
            if choose(2) == 0:
                choose(2)
            else:
                choose(2)
                choose(2)
            return None

        res = optimize(fig_tree, lambda p: 1.0)
        assert [list(p.path) for p in res.trace] == [
            [0, 0], [0, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]

        global _ENUM_RESULTS
        _ENUM_RESULTS = []
        for seed in range(200):
            pipeline, leaves = structure(seed)
            expected = set(leaves())
            for strategy in ("seq", "bin"):
                res = optimize(pipeline, lambda p: 1.0, strategy=strategy)
                visited = [p.path for p in res.trace]
                assert len(visited) == len(set(visited)), strategy
                assert set(visited) == expected, strategy
                _ENUM_RESULTS.append((res, max(len(p) for p in expected)))


def test_criterion_07_cbo_optimality_at_desk_scale():
    with criterion(7, "cbo-optimality"):
        from provopt.cli import stacked_agg_workload
        rng = random.Random(3)
        for levels in (1, 2, 3, 4):
            db, query = stacked_agg_workload(levels, 200, 3, rng)
            stats = {"base": TableStats(
                db["base"].total,
                {a: float(len({t[i] for t in db["base"].tuples}))
                 for i, a in enumerate(db["base"].schema)})}

            def pipeline(choose):
                return instrument_query(query, choice=choose)

            res = optimize(pipeline, lambda g: cost(g, stats).total)
            assert len(res.trace) == 2 ** levels

            brute = math.inf
            for combo in itertools.product((0, 1), repeat=levels):
                pending = list(combo)
                plan = instrument_query(query, choice=lambda n: pending.pop(0))
                brute = min(brute, cost(plan, stats).total)
            assert res.best.cost == brute


def test_criterion_08_reenactment_exactness():
    with criterion(8, "reenactment-exactness"):
        ups = parse_updates("UPDATE R SET A = A - 5 WHERE B = 2;"
                            "UPDATE R SET A = A + 1 WHERE B = 1;")
        db = {"R": BagRelation.from_rows(("A", "B"), [(2, 1), (3, 2), (4, 2)])}
        out = evaluate(reenact(ups, schema=("A", "B")), db)
        assert out.tuples == {(3, 1): 1, (-2, 2): 1, (-1, 2): 1}

        rng = random.Random(20268)
        for _ in range(500):
            schema = ("k", "a", "b")
            rows = [(k, rng.randrange(5), rng.randrange(3))
                    for k in rng.sample(range(40), rng.randint(1, 8))]
            state = BagRelation.from_rows(schema, rows)
            ups = []
            for _ in range(rng.randint(1, 6)):
                attr = rng.choice(("a", "b"))
                ups.append(UpdateStmt(
                    "R", ((attr, Arith(rng.choice("+-"), Attr(attr),
                                       Const(rng.randint(1, 3)))),),
                    Cmp(rng.choice(("=", "<", ">", "<=")),
                        Attr(rng.choice(schema)), Const(rng.randrange(6)))))
            dbr = {"R": state}
            root = reenact(ups, schema=schema)
            assert evaluate(root, dbr).tuples == replay(ups, state).tuples

            store = VersionedStore()
            store.load("R", state, key=("k",))
            store.apply_transaction(1, ups)
            filt, e1 = scope_to_updated(root, ups, store, FILTER_UPDATED)
            hist, e2 = scope_to_updated(root, ups, store, HIST_JOIN, txn_id=1)
            assert (evaluate(filt, {**dbr, **e1}).tuples
                    == evaluate(hist, {**dbr, **e2}).tuples)


def test_criterion_09_blowup_containment():
    with criterion(9, "blowup-containment"):
        n = 12
        ups = [UpdateStmt("R", (("a", Arith("+", Attr("a"), Const(1))),),
                          Cmp(">", Attr("a"), Const(i)))
               for i in range(n)]
        root = reenact(ups, schema=("a", "b"))
        single = reenact(ups[:1], schema=("a", "b"))
        optimized = apply_pats(root, RewriteConfig())
        assert (total_expression_size(optimized)
                <= 50 * total_expression_size(single))

        naive = merge_projections(factor_attributes(root),
                                  RewriteConfig(unsafe_naive_merge=True))
        merged = [x for x in all_nodes(naive) if isinstance(x, Project)]
        assert len(merged) == 1
        refs = max(count_attr_refs(e, "a") for e, _ in merged[0].targets)
        assert refs > 2 ** 10


def test_criterion_10_adaptive_stopping_competitive():
    with criterion(10, "adaptive-stopping-competitiveness", limit_seconds=30.0):
        rng = random.Random(202610)
        for _ in range(1000):
            n = rng.randint(1, 100)
            costs = [rng.choice([0.5, 1, 2, 5, 10, 20, 50, 100, 500])
                     for _ in range(n)]
            clock = [0.0]

            def pipeline(choose):
                i = choose(n)
                clock[0] += 1.0
                return i

            res = optimize(pipeline, lambda i: float(costs[i]),
                           stop="adaptive", clock=lambda: clock[0])
            total = res.budget.time_optimizing + res.best.cost
            offline = min(min(costs[:k]) + k for k in range(1, n + 1))
            assert total <= 2.05 * offline


def test_criterion_11_enumerator_state_is_depth_bounded():
    with criterion(11, "enumerator-state-bound"):
        assert _ENUM_RESULTS, "criterion 6 must run first"
        for res, depth in _ENUM_RESULTS:
            assert res.log.max_state_len <= depth


def test_criterion_12_sql_golden_files():
    with criterion(12, "sql-golden-files"):
        for method in ("join", "window"):
            inst = instrument_query(ex1_query(), agg_method=method)
            assert to_sql(inst).text == (GOLDEN / f"ex1_{method}.sql").read_text()
        rr = reenact(parse_updates("UPDATE R SET b = b + 2 WHERE a = 1;"),
                     schema=("a", "b"))
        sql = to_sql(rr).text
        assert sql == (GOLDEN / "reenact_update.sql").read_text()
        assert "CASE WHEN a=1 THEN b+2 ELSE b END AS b" in sql
