import random
import time

import pytest

import oracles
from annotated import annotate, encode_provenance, evaluate_annotated, poly_weight
from helpers import bags_equal, compile_expr, compile_row, eval_expr, reorder_columns
from randgen import random_instance, random_spju_query

from provopt import executor
from provopt.algebra import (
    Agg, Arith, Attr, BoolOp, Cmp, Cond, Const, Cross, Diff, DupElim, Intersect,
    Join, Project, Relation, Select, Union, Window, FRAME_PARTITION,
    all_nodes, identity_targets, replace_children, schema_of,
)
from provopt.executor import BagRelation, EvalError, cost, evaluate, TableStats
from provopt.instrument import instrument_query


def bag(schema, rows):
    return BagRelation.from_rows(schema, rows)


class TestEvaluateBasics:
    def test_select_on_shop_example(self, shop_db):
        q = Select(Cmp(">", Attr("price"), Const(20)), Relation("item", ("id", "price")))
        out = evaluate(q, shop_db)
        assert out.tuples == {("Steak", 100): 1, ("Bread", 25): 1}

    def test_dupelim_on_duplicate_free_input(self):
        r = bag(("a",), [(1,), (2,)])
        q = DupElim(Relation("R", ("a",)))
        assert evaluate(q, {"R": r}).tuples == r.tuples

    def test_projection_sums_multiplicities(self):
        r = BagRelation(("a", "b"))
        r.add((1, 10), 2)
        r.add((1, 20), 3)
        q = Project(((Attr("a"), "a"),), Relation("R", ("a", "b")))
        assert evaluate(q, {"R": r}).tuples == {(1,): 5}

    def test_division_by_zero_raises(self):
        q = Project(((Arith("/", Attr("a"), Const(0)), "x"),), Relation("R", ("a",)))
        with pytest.raises(EvalError):
            evaluate(q, {"R": bag(("a",), [(1,)])})

    def test_unbound_relation_raises(self):
        with pytest.raises(EvalError):
            evaluate(Relation("missing", ("a",)), {})

    def test_null_compares_unequal_to_everything(self):
        assert eval_expr(Cmp("=", Const(None), Const(None)), {}) is False
        assert eval_expr(Cmp("<>", Const(None), Const(3)), {}) is True

    def test_numeric_coercion(self):
        assert eval_expr(Cmp("=", Const(1), Const(1.0)), {}) is True

    def test_window_running_frame_includes_ties(self):
        r = bag(("g", "o", "v"), [(1, 1, 10), (1, 1, 20), (1, 2, 5)])
        q = Window("sum", "v", "x", ("g",), ("o",), Relation("R", ("g", "o", "v")))
        out = evaluate(q, {"R": r})
        assert out.tuples == {(1, 1, 10, 30): 1, (1, 1, 20, 30): 1, (1, 2, 5, 35): 1}

    def test_window_whole_partition_frame(self):
        r = bag(("g", "v"), [(1, 10), (1, 20)])
        q = Window("sum", "v", "x", ("g",), (), Relation("R", ("g", "v")),
                   FRAME_PARTITION)
        out = evaluate(q, {"R": r})
        assert out.tuples == {(1, 10, 30): 1, (1, 20, 30): 1}

    def test_agg_without_groupby_over_empty_input_is_empty(self):
        q = Agg((), (("count", "a", "c"),), Relation("R", ("a",)))
        assert evaluate(q, {"R": BagRelation(("a",))}).tuples == {}


class TestDiffOracle:
    def test_diff_matches_per_tuple_counting(self):
        rng = random.Random(11)
        for _ in range(100):
            rows_l = [(rng.randrange(3),) for _ in range(5)]
            rows_r = [(rng.randrange(3),) for _ in range(5)]
            l, r = bag(("a",), rows_l), bag(("a",), rows_r)
            got = evaluate(Diff(Relation("L", ("a",)), Relation("R", ("a",))),
                           {"L": l, "R": r})
            assert got.tuples == oracles.diff(l.tuples, r.tuples)


class TestOperatorDefinitions:
    """Each variant agrees with a definition-transcribing oracle on small bags."""

    def _bags(self, rng, arity, count=6):
        rows = [tuple(rng.randrange(3) for _ in range(arity))
                for _ in range(rng.randint(0, count))]
        out = BagRelation(tuple(f"a{i}" for i in range(arity)))
        for row in rows:
            out.add(row, rng.randint(1, 3))
        return out

    @pytest.mark.parametrize("seed", range(30))
    def test_unary_and_binary_operators(self, seed):
        rng = random.Random(seed)
        arity = rng.randint(1, 3)
        l = self._bags(rng, arity)
        r = self._bags(rng, arity)
        attrs = l.schema
        dbl = {"L": l, "R": r}
        L, R = Relation("L", attrs), Relation("R", tuple(f"b{i}" for i in range(arity)))

        i = rng.randrange(arity)
        cond = Cmp("<=", Attr(attrs[i]), Const(1))
        assert (evaluate(Select(cond, L), dbl).tuples
                == oracles.sigma(l.tuples, lambda t: t[i] <= 1))

        keep = rng.sample(range(arity), rng.randint(1, arity))
        proj = Project(tuple((Attr(attrs[j]), attrs[j]) for j in keep), L)
        assert (evaluate(proj, dbl).tuples
                == oracles.pi(l.tuples, lambda t: tuple(t[j] for j in keep)))

        assert (evaluate(Union(L, Relation("R", attrs)), dbl).tuples
                == oracles.union(l.tuples, r.tuples))
        assert (evaluate(Intersect(L, Relation("R", attrs)), dbl).tuples
                == oracles.intersect(l.tuples, r.tuples))
        assert (evaluate(Diff(L, Relation("R", attrs)), dbl).tuples
                == oracles.diff(l.tuples, r.tuples))
        assert (evaluate(Cross(L, R), dbl).tuples
                == oracles.cross(l.tuples, r.tuples))
        assert evaluate(DupElim(L), dbl).tuples == oracles.dupelim(l.tuples)

        gi = sorted(rng.sample(range(arity), rng.randint(0, arity - 1)))
        fn = rng.choice(("sum", "count", "min", "max"))
        agg = Agg(tuple(attrs[j] for j in gi), ((fn, attrs[i], "out"),), L)
        assert (evaluate(agg, dbl).tuples
                == oracles.group(l.tuples, gi, [(fn, i)]))

        pi_idx = sorted(rng.sample(range(arity), rng.randint(0, arity - 1)))
        oi = sorted(rng.sample(range(arity), rng.randint(0, arity - 1)))
        whole = rng.random() < 0.5
        win = Window(fn, attrs[i], "w",
                     tuple(attrs[j] for j in pi_idx),
                     tuple(attrs[j] for j in oi), L,
                     FRAME_PARTITION if whole else "running")
        assert (evaluate(win, dbl).tuples
                == oracles.window(l.tuples, fn, i, pi_idx, oi, whole))


class TestAnnotatedEvaluation:
    def test_shop_example_polynomials(self, shop_query, shop_db):
        ann = evaluate_annotated(shop_query, annotate(shop_db))
        by_tuple = {t: p for t, p in ann.rows}
        walmart = by_tuple[("Walmart",)]
        cosco = by_tuple[("Cosco",)]
        # two alternative joint derivations for Walmart, one for Cosco
        assert sorted(len(m) for m in walmart) == [3, 3]
        assert all(c == 1 for c in walmart.values())
        assert sorted(len(m) for m in cosco) == [3]
        assert {v.rel for m in walmart for v in m} == {"shop", "sale", "item"}

    def test_single_relation_annotates_each_tuple(self):
        db = {"R": bag(("a",), [(1,), (2,)])}
        ann = evaluate_annotated(Relation("R", ("a",)), annotate(db))
        assert len(ann.rows) == 2
        assert all(poly_weight(p) == 1 for _, p in ann.rows)

    def test_support_matches_plain_evaluation(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(200):
            q, state = random_spju_query(rng)
            db = random_instance(state, rng, 5)
            plain = evaluate(q, db)
            ann = evaluate_annotated(q, annotate(db))
            assert ann.as_bag().tuples == plain.tuples
            checked += 1
        assert checked == 200

    def test_witnesses_match_bruteforce_on_spj(self):
        rng = random.Random(23)
        for _ in range(50):
            # three-relation join with a filter, checked against exhaustive
            # enumeration of input-row combinations
            r = bag(("a", "b"), [(rng.randrange(3), rng.randrange(3)) for _ in range(4)])
            s = bag(("c", "d"), [(rng.randrange(3), rng.randrange(3)) for _ in range(4)])
            q = Project(((Attr("b"), "b"), (Attr("d"), "d")),
                        Select(Cmp("<=", Attr("a"), Const(1)),
                               Join((("a", "c"),), Relation("R", ("a", "b")),
                                    Relation("S", ("c", "d")))))
            db = {"R": r, "S": s}
            ann = evaluate_annotated(q, annotate(db))

            inputs = {
                name: [(t, i) for i, (t, m) in enumerate(sorted(db[name].tuples.items()))
                       for _ in range(m)]
                for name in db
            }
            # expand copy ids so multiplicities become distinct witnesses
            inputs = {name: [(t, (t, j)) for j, (t, _) in enumerate(rows)]
                      for name, rows in inputs.items()}
            expected = oracles.spj_witnesses(
                inputs,
                pred=lambda rows: rows["R"][0] == rows["S"][0] and rows["R"][0] <= 1,
                proj=lambda rows: (rows["R"][1], rows["S"][1]))
            got = {t: poly_weight(p) for t, p in ann.rows}
            assert got == {t: len(ws) for t, ws in expected.items()}


class TestEncodeProvenance:
    def test_shop_example_exact_rows(self, shop_query, shop_db, shop_provenance_rows):
        ann = evaluate_annotated(shop_query, annotate(shop_db))
        enc = encode_provenance(ann)
        assert enc.tuples == shop_provenance_rows

    def test_empty_input_encodes_empty(self):
        db = {"R": BagRelation(("a",))}
        ann = evaluate_annotated(Relation("R", ("a",)), annotate(db))
        assert encode_provenance(ann).tuples == {}

    def test_encoding_matches_instrumented_query(self):
        rng = random.Random(31)
        for _ in range(150):
            q, state = random_spju_query(rng)
            db = random_instance(state, rng, 5)
            inst = evaluate(instrument_query(q), db)
            enc = encode_provenance(evaluate_annotated(q, annotate(db)))
            assert bags_equal(inst, enc, by_name=True)

    def test_self_join_without_disambiguation_raises(self):
        leaf = Relation("R", ("a",))
        q = Cross(leaf, Relation("R", ("a2",)))
        db = {"R": bag(("a",), [(1,), (2,)])}
        ann = evaluate_annotated(q, annotate(db))
        with pytest.raises(EvalError):
            encode_provenance(ann)


class TestCostModel:
    def test_leaf_passthrough(self):
        leaf = Relation("R", ("a",))
        est = cost(leaf, {"R": TableStats(1000, {"a": 1000})})
        rows, _ = est.per_node[leaf]
        assert rows == 1000

    def test_join_method_costlier_when_window_avoids_join(self):
        # aggregation over a large input with few groups: the join method
        # pays the group-by sort plus a million-row join
        r = Relation("R", ("a", "b"))
        stats = {"R": TableStats(10 ** 6, {"a": 10 ** 6, "b": 10})}
        agg = Agg(("b",), (("sum", "a", "s"),), r)
        join_plan = instrument_query(agg, agg_method="join")
        window_plan = instrument_query(agg, agg_method="window")
        assert cost(join_plan, stats).total > cost(window_plan, stats).total

    def test_shared_subexpression_charged_once(self):
        leaf = Relation("R", ("a", "b"))
        filt = Select(Cmp("<", Attr("a"), Const(3)), leaf)
        diamond = Union(filt, filt)
        chain = Union(Select(Cmp("<", Attr("a"), Const(3)), leaf),
                      Select(Cmp("<", Attr("a"), Const(3)), leaf))
        stats = {"R": TableStats(1000, {"a": 100, "b": 10})}
        assert cost(diamond, stats).total < cost(chain, stats).total

    def test_missing_stats_raises(self):
        with pytest.raises(EvalError):
            cost(Relation("R", ("a",)), {})

    def test_deterministic(self):
        q = Select(Cmp("=", Attr("a"), Const(1)), Relation("R", ("a", "b")))
        stats = {"R": TableStats(500, {"a": 10, "b": 50})}
        assert cost(q, stats).total == cost(q, stats).total


def test_reorder_columns_roundtrip():
    b = bag(("a", "b"), [(1, 2), (3, 4)])
    r = reorder_columns(b, ("b", "a"))
    assert r.tuples == {(2, 1): 1, (4, 3): 1}
    assert bags_equal(b, r, by_name=True)


def test_bag_containment_uses_multiplicities():
    small = bag(("a",), [(1,)])
    big = bag(("a",), [(1,), (1,), (2,)])
    assert big.contains(small)
    assert not small.contains(big)


# ---------------------------------------------------------------------------
# equi-join semantics, for both evaluators


def _plain(q, db):
    return evaluate(q, db)


def _annotated(q, db):
    return evaluate_annotated(q, annotate(db)).as_bag()


EVALUATORS = pytest.mark.parametrize("run", [_plain, _annotated], ids=["plain", "annotated"])


def _join(pairs, left_attrs, right_attrs):
    return Join(tuple(pairs), Relation("L", left_attrs), Relation("R", right_attrs))


class TestJoinSemantics:
    @EVALUATORS
    def test_null_keys_never_match(self, run):
        db = {"L": bag(("a", "x"), [(None, 1), (1, 2), (None, 3)]),
              "R": bag(("b",), [(None,), (1,)])}
        assert run(_join([("a", "b")], ("a", "x"), ("b",)), db).tuples == {(1, 2, 1): 1}

    @EVALUATORS
    def test_null_in_a_later_key_column_never_matches(self, run):
        db = {"L": bag(("a", "c"), [(1, None), (1, 2)]),
              "R": bag(("b", "d"), [(1, None), (1, 2)])}
        q = _join([("a", "b"), ("c", "d")], ("a", "c"), ("b", "d"))
        assert run(q, db).tuples == {(1, 2, 1, 2): 1}

    @EVALUATORS
    def test_nan_keys_never_match(self, run):
        nan = float("nan")
        db = {"L": bag(("a",), [(nan,), (1.5,)]), "R": bag(("b",), [(nan,), (1.5,)])}
        assert run(_join([("a", "b")], ("a",), ("b",)), db).tuples == {(1.5, 1.5): 1}

    @EVALUATORS
    def test_int_joins_float(self, run):
        db = {"L": bag(("a",), [(1,), (2,)]), "R": bag(("b",), [(1.0,), (3.0,)])}
        out = run(_join([("a", "b")], ("a",), ("b",)), db)
        assert out.tuples == {(1, 1.0): 1}

    @EVALUATORS
    @pytest.mark.parametrize("left, right", [(True, 1), (1, True), ("x", 1), (1, "x")])
    def test_keys_of_different_kinds_raise(self, run, left, right):
        db = {"L": bag(("a",), [(left,)]), "R": bag(("b",), [(right,)])}
        with pytest.raises(EvalError, match="different kinds"):
            run(_join([("a", "b")], ("a",), ("b",)), db)

    @EVALUATORS
    def test_later_key_column_of_mixed_kinds_raises(self, run):
        # no pair agrees on the first column, but the second mixes kinds
        db = {"L": bag(("a", "c"), [(1, "x")]), "R": bag(("b", "d"), [(2, 5)])}
        with pytest.raises(EvalError, match="different kinds"):
            run(_join([("a", "b"), ("c", "d")], ("a", "c"), ("b", "d")), db)

    @EVALUATORS
    def test_mixed_kinds_against_only_nulls_do_not_raise(self, run):
        db = {"L": bag(("a",), [(1,), ("x",)]), "R": bag(("b",), [(None,)])}
        assert run(_join([("a", "b")], ("a",), ("b",)), db).tuples == {}

    @EVALUATORS
    @pytest.mark.parametrize("empty_side", ["L", "R"])
    def test_empty_input_never_raises(self, run, empty_side):
        mixed = bag(("a",), [(1,), ("x",), (True,), (None,)])
        db = {"L": mixed, "R": mixed.renamed(("b",))}
        db[empty_side] = BagRelation(db[empty_side].schema)
        assert run(_join([("a", "b")], ("a",), ("b",)), db).tuples == {}

    @EVALUATORS
    def test_multi_column_duplicates_multiply(self, run):
        left = BagRelation(("a", "c"))
        left.add((1, 2), 2)
        left.add((1, 3), 1)
        right = BagRelation(("b", "d"))
        right.add((1, 2), 3)
        right.add((1.0, 3), 1)
        right.add((2, 2), 5)
        q = _join([("a", "b"), ("c", "d")], ("a", "c"), ("b", "d"))
        assert run(q, {"L": left, "R": right}).tuples == {(1, 2, 1, 2): 6, (1, 3, 1.0, 3): 1}

    def test_matches_in_nested_loop_order(self):
        db = {"L": bag(("a", "x"), [(2, "p"), (1, "q"), (2, "r")]),
              "R": bag(("b", "y"), [(2, "s"), (1, "t"), (2, "u")])}
        out = evaluate(_join([("a", "b")], ("a", "x"), ("b", "y")), db)
        assert list(out.tuples) == [(2, "p", 2, "s"), (2, "p", 2, "u"), (1, "q", 1, "t"),
                                    (2, "r", 2, "s"), (2, "r", 2, "u")]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_joins_match_select_over_cross(self, seed):
        rng = random.Random(seed)
        values = [None, 0, 1, 2, 0.0, 1.0, 2.5]

        def random_bag(attrs):
            out = BagRelation(attrs)
            for _ in range(rng.randint(0, 12)):
                out.add(tuple(rng.choice(values) for _ in attrs), rng.randint(1, 3))
            return out

        left, right = random_bag(("a0", "a1", "a2")), random_bag(("b0", "b1"))
        pairs = rng.sample([(i, j) for i in range(3) for j in range(2)], rng.randint(1, 2))
        q = _join([(f"a{i}", f"b{j}") for i, j in pairs], left.schema, right.schema)

        def pred(t):
            return all(t[i] is not None and t[3 + j] is not None and t[i] == t[3 + j]
                       for i, j in pairs)

        expected = oracles.sigma(oracles.cross(left.tuples, right.tuples), pred)
        db = {"L": left, "R": right}
        assert evaluate(q, db).tuples == expected
        assert _annotated(q, db).tuples == expected


# ---------------------------------------------------------------------------
# compiled expressions


class TestCompiledExpressions:
    def test_unbound_attribute_raises_only_in_the_taken_branch(self):
        fn = compile_expr(Cond(Cmp("=", Attr("a"), Const(1)), Attr("a"), Attr("missing")),
                          ("a",))
        assert fn((1,)) == 1
        with pytest.raises(EvalError, match="unbound attribute 'missing'"):
            fn((2,))

    @pytest.mark.parametrize("op", ["and", "or"])
    def test_boolop_type_checks_every_argument(self, op):
        first = Const(op == "or")  # decides the result on its own
        with pytest.raises(EvalError, match="non-boolean"):
            eval_expr(BoolOp(op, (first, Attr("a"))), {"a": 1})

    def test_not_over_non_boolean_raises(self):
        with pytest.raises(EvalError, match="non-boolean"):
            eval_expr(BoolOp("not", (Const(0),)), {})

    def test_conditional_test_must_be_boolean(self):
        with pytest.raises(EvalError, match="conditional test"):
            eval_expr(Cond(Const(1), Const(2), Const(3)), {})

    def test_division_by_zero_raises(self):
        with pytest.raises(EvalError, match="division by zero"):
            eval_expr(Arith("/", Attr("a"), Arith("-", Attr("a"), Attr("a"))), {"a": 4})
        assert eval_expr(Arith("/", Attr("a"), Const(2)), {"a": 4}) == 2.0

    def test_arithmetic_and_comparison_type_checks(self):
        with pytest.raises(EvalError, match="non-numeric"):
            eval_expr(Arith("+", Const(True), Const(1)), {})
        with pytest.raises(EvalError, match="boolean with non-boolean"):
            eval_expr(Cmp("<", Const(True), Const(1)), {})
        with pytest.raises(EvalError, match="different types"):
            eval_expr(Cmp("=", Const("1"), Const(1)), {})

    def test_repeated_name_reads_the_last_column(self):
        assert compile_expr(Attr("a"), ("a", "b", "a"))((1, 2, 3)) == 3

    def test_shared_conditional_chain_compiles_linearly(self):
        # as a tree this is 2**60 nodes; as a DAG, 60 conditionals
        x = Attr("a")
        for i in range(60):
            x = Cond(Cmp("<", Attr("b"), Const(i)), x, x)
        started = time.perf_counter()
        fn = compile_expr(x, ("a", "b"))
        assert [fn((7, b)) for b in range(100)] == [7] * 100
        assert eval_expr(x, {"a": 1, "b": 2}) == 1
        assert time.perf_counter() - started < 1.0

    def test_row_compiler_over_expressions_freed_as_it_goes(self):
        # the generator's expressions are dropped once compiled, so a memo
        # keyed by identity alone would hand a later one an earlier one's code
        schema = tuple(f"c{i}" for i in range(50))
        row = compile_row((Arith("+", Attr(a), Const(i)) for i, a in enumerate(schema)),
                          schema)
        assert row(tuple(range(50))) == tuple(2 * i for i in range(50))

    def test_row_compiler_shares_subexpressions(self):
        shared = Arith("+", Attr("a"), Const(1))
        row = compile_row([shared, Arith("*", shared, shared), Attr("a")], ("a",))
        assert row((2,)) == (3, 9, 2)


def test_partition_frame_aggregates_once_per_partition(monkeypatch):
    from provopt import executor

    calls = []
    real = executor.aggregate

    def counting(fn, values):
        calls.append(len(values))
        return real(fn, values)

    monkeypatch.setattr(executor, "aggregate", counting)
    r = bag(("g", "v"), [(1, 10), (1, 20), (1, 30), (2, 5), (2, 6)])
    q = Window("sum", "v", "x", ("g",), ("v",), Relation("R", ("g", "v")), FRAME_PARTITION)
    out = evaluate(q, {"R": r})
    assert out.tuples == {(1, 10, 60): 1, (1, 20, 60): 1, (1, 30, 60): 1,
                          (2, 5, 11): 1, (2, 6, 11): 1}
    assert calls == [3, 2]


# ---------------------------------------------------------------------------
# where rows are checked, attribute-only projections, and join keys that
# need the null/NaN test


class TestBagEdges:
    @pytest.mark.parametrize("row", [(1,), (1, 2, 3)])
    def test_add_rejects_a_row_of_the_wrong_width(self, row):
        with pytest.raises(EvalError, match="row width"):
            BagRelation(("a", "b")).add(row)

    @pytest.mark.parametrize("count", [0, -1])
    def test_add_rejects_a_count_that_is_not_positive(self, count):
        with pytest.raises(EvalError, match="positive"):
            BagRelation(("a",)).add((1,), count)

    def test_from_rows_checks_every_row(self):
        with pytest.raises(EvalError, match="row width"):
            BagRelation.from_rows(("a", "b"), [(1, 2), (3,)])

    def test_relation_bound_with_the_wrong_arity_raises(self):
        with pytest.raises(EvalError, match="wrong arity"):
            evaluate(Relation("R", ("a", "b")), {"R": bag(("a",), [(1,)])})

    def test_evaluation_leaves_the_bound_bag_unchanged(self):
        r = bag(("a",), [(1,), (2,)])
        out = evaluate(Union(Relation("R", ("a",)), Relation("R", ("a",))), {"R": r})
        assert out.tuples == {(1,): 2, (2,): 2}
        assert r.tuples == {(1,): 1, (2,): 1}


class TestAttributeProjection:
    def test_one_target_gives_one_tuples(self):
        row = compile_row([Attr("b")], ("a", "b"))
        assert row((1, 2)) == (2,)
        q = Project(((Attr("b"), "b"),), Relation("R", ("a", "b")))
        assert evaluate(q, {"R": bag(("a", "b"), [(1, 2), (3, 2)])}).tuples == {(2,): 2}

    def test_repeated_name_reads_the_last_column(self):
        assert compile_row([Attr("a")], ("a", "b", "a"))((1, 2, 3)) == (3,)
        assert compile_row([Attr("b"), Attr("a")], ("a", "b", "a"))((1, 2, 3)) == (2, 3)

    def test_columns_in_any_order_and_repeated(self):
        row = compile_row([Attr("c"), Attr("a"), Attr("c")], ("a", "b", "c"))
        assert row((1, 2, 3)) == (3, 1, 3)

    @pytest.mark.parametrize("targets", [["missing"], ["a", "missing"]])
    def test_unbound_attribute_raises_only_when_a_row_is_read(self, targets):
        row = compile_row([Attr(a) for a in targets], ("a",))
        assert list(map(row, [])) == []
        with pytest.raises(EvalError, match="unbound attribute 'missing'"):
            row((1,))

    def test_no_targets_give_the_empty_row(self):
        q = Project((), Relation("R", ("a",)))
        assert evaluate(q, {"R": bag(("a",), [(1,), (2,)])}).tuples == {(): 2}


class TestJoinKeyScreen:
    @pytest.mark.parametrize("bad", [None, float("nan")], ids=["null", "nan"])
    @pytest.mark.parametrize("first", [1, "k"], ids=["int", "str"])
    def test_clean_first_column_and_bad_later_column_never_match(self, bad, first):
        db = {"L": bag(("a", "c"), [(first, bad), (first, 2.0)]),
              "R": bag(("b", "d"), [(first, bad), (first, 2)])}
        q = _join([("a", "b"), ("c", "d")], ("a", "c"), ("b", "d"))
        assert evaluate(q, db).tuples == {(first, 2.0, first, 2): 1}

    def test_bad_value_on_one_side_only(self):
        nan = float("nan")
        db = {"L": bag(("a", "c"), [(1, 5), (1, 6)]),
              "R": bag(("b", "d"), [(1, nan), (1, 5), (1, None)])}
        q = _join([("a", "b"), ("c", "d")], ("a", "c"), ("b", "d"))
        assert evaluate(q, db).tuples == {(1, 5, 1, 5): 1}

    def test_the_same_nan_object_never_matches_itself(self):
        nan = float("nan")
        db = {"L": bag(("a",), [(nan,)]), "R": bag(("b",), [(nan,)])}
        assert evaluate(_join([("a", "b")], ("a",), ("b",)), db).tuples == {}


# ---------------------------------------------------------------------------
# a projection of attributes over a join builds the join's rows


def alone(root, db):
    """Each node evaluated on its own, over its inputs' evaluated bags bound
    as relations: a projection runs over a relation bound to its join's
    bag, so no join is fused into its projection."""
    bags = {}
    for n in all_nodes(root):
        if isinstance(n, Relation):
            bags[n] = evaluate(n, db)
            continue
        kids = tuple(Relation(f"in{i}", schema_of(c)) for i, c in enumerate(n.children))
        bags[n] = evaluate(replace_children(n, kids),
                           {k.name: bags[c] for k, c in zip(kids, n.children)})
    return bags[root]


def outcome(evaluator, root, db):
    """The bag's schema and its rows with their counts, in dict order (``repr``
    tells ``1``, ``True`` and ``1.0`` apart), or the error's type and text."""
    try:
        out = evaluator(root, db)
    except EvalError as exc:
        return type(exc).__name__, str(exc)
    return out.schema, [(repr(t), m) for t, m in out.tuples.items()]


@pytest.fixture
def fusions(monkeypatch):
    """The projections evaluated over their join's matches, in order."""
    seen = []
    real = executor._fused

    def spy(n, matches):
        seen.append(n)
        return real(n, matches)

    monkeypatch.setattr(executor, "_fused", spy)
    return seen


def attrs(*pairs):
    """Projection targets: each (input attribute, output name)."""
    return tuple((Attr(a), name) for a, name in pairs)


L2, R2 = Relation("L", ("a", "x")), Relation("R", ("b", "y"))
ON_AB = Join((("a", "b"),), L2, R2)


class TestFusedJoin:
    @pytest.mark.parametrize("pool", [(), ("a", "b", "c")], ids=["unique", "pool"])
    def test_random_corpus_matches_each_node_alone(self, pool, fusions):
        rng = random.Random(27 + len(pool))
        whole = partial = 0
        for _ in range(150):
            q, state = random_spju_query(rng, rng.randint(1, 4), pool=pool)
            right = state.fresh_relation(rng.randint(1, 3))
            if rng.random() < 0.2:
                join = Cross(q, right)
            else:
                join = Join(((rng.choice(schema_of(q)), rng.choice(schema_of(right))),), q, right)
            names = schema_of(join)
            if rng.random() < 0.4:
                read = rng.sample(names, len(names))  # every column, reordered
            else:
                read = rng.choices(names, k=rng.randint(0, len(names) + 1))
            whole += set(read) == set(names)
            partial += set(read) != set(names)
            top = Project(attrs(*((a, f"t{i}") for i, a in enumerate(read))), join)
            db = random_instance(state, rng, 6)
            assert outcome(evaluate, top, db) == outcome(alone, top, db)
        assert whole > 40 and partial > 40
        assert len(fusions) > 150  # the top join and some inside the random queries

    def test_a_projection_that_drops_columns_merges_counts(self, fusions):
        db = {"L": bag(("a", "x"), [(1, "p"), (1, "q"), (2, "r")]),
              "R": bag(("b", "y"), [(1, 10), (2, 20), (1, 10)])}
        top = Project(attrs(("y", "y"), ("a", "a")), ON_AB)
        got = outcome(evaluate, top, db)
        assert got == (("y", "a"), [("(10, 1)", 4), ("(20, 2)", 1)])
        assert got == outcome(alone, top, db)
        assert fusions == [top]

    def test_a_duplicating_projection(self, fusions):
        db = {"L": bag(("a", "x"), [(1, "p"), (2, "q"), (1, "r")]),
              "R": bag(("b", "y"), [(1, "s"), (2, "t"), (1, "u")])}
        dropping = Project(attrs(("a", "x"), ("a", "y")), ON_AB)
        got = outcome(evaluate, dropping, db)
        assert got == (("x", "y"), [("(1, 1)", 4), ("(2, 2)", 1)])
        assert got == outcome(alone, dropping, db)
        keeping = Project(attrs(("y", "y"), ("a", "a1"), ("x", "x"), ("a", "a2"), ("b", "b")),
                          ON_AB)
        got = outcome(evaluate, keeping, db)
        assert [t for t, _ in got[1]] == [
            "('s', 1, 'p', 1, 1)", "('u', 1, 'p', 1, 1)", "('t', 2, 'q', 2, 2)",
            "('s', 1, 'r', 1, 1)", "('u', 1, 'r', 1, 1)"]
        assert got == outcome(alone, keeping, db)
        assert fusions == [dropping, keeping]

    def test_null_and_nan_keys_never_match_and_one_matches_one_point_zero(self, fusions):
        nan = float("nan")
        db = {"L": bag(("a", "x"), [(None, 1), (nan, 2), (1, 3), (1.0, 4)]),
              "R": bag(("b", "y"), [(1.0, "u"), (None, "v"), (nan, "w"), (1, "z")])}
        merged = Project(attrs(("b", "b")), ON_AB)
        got = outcome(evaluate, merged, db)
        assert got == (("b",), [("(1.0,)", 4)])
        assert got == outcome(alone, merged, db)
        every = Project(attrs(("x", "x"), ("y", "y"), ("a", "a"), ("b", "b")), ON_AB)
        got = outcome(evaluate, every, db)
        assert got == (("x", "y", "a", "b"), [
            ("(3, 'u', 1, 1.0)", 1), ("(3, 'z', 1, 1)", 1),
            ("(4, 'u', 1.0, 1.0)", 1), ("(4, 'z', 1.0, 1)", 1)])
        assert got == outcome(alone, every, db)
        assert fusions == [merged, every]

    def test_a_key_error_comes_before_a_later_siblings_error(self, fusions):
        db = {"L": bag(("a", "x"), [(1, 2)]), "R": bag(("b", "y"), [("k", 3)]),
              "S": bag(("c",), [(0,)])}
        fused = Project(attrs(("x", "x"), ("y", "y")), ON_AB)
        failing = Project(((Arith("/", Const(1), Attr("c")), "q"),), Relation("S", ("c",)))
        first = Cross(fused, failing)
        got = outcome(evaluate, first, db)
        assert got == ("EvalError",
                       "cannot compare join key values of different kinds: int, str")
        assert got == outcome(alone, first, db)
        after = Cross(failing, fused)
        got = outcome(evaluate, after, db)
        assert got == ("EvalError", "division by zero")
        assert got == outcome(alone, after, db)
        assert fusions == []  # the join raised before its projection ran

    def test_joins_that_must_not_fuse(self, fusions):
        db = {"L": bag(("a", "x"), [(1, 2), (2, 3), (1, 4)]),
              "R": bag(("b", "y"), [(1, 5), (1, 6), (3, 7)])}
        two_slots = Union(Project(attrs(("a", "v")), ON_AB), Project(attrs(("y", "v")), ON_AB))
        computed = Project(((Arith("+", Attr("x"), Const(1)), "z"), (Attr("a"), "a")), ON_AB)
        for root in (ON_AB, two_slots, computed):
            got = outcome(evaluate, root, db)
            assert got == outcome(alone, root, db) and got[1]
        assert fusions == []

    def test_a_fused_projection_chained_under_projections(self, fusions):
        # the history-join narrowing: a reenactment's projections over the
        # updated rows, picked by a join with the updated keys
        schema = ("k", "a", "b")
        keys = Project(attrs(("k", "k1")), Relation("K", ("k",)))
        narrowed = Project(identity_targets(schema),
                           Join((("k", "k1"),), Relation("T", schema), keys))
        update = Project(((Attr("k"), "k"),
                          (Cond(Cmp("=", Attr("b"), Const(0)),
                                Arith("+", Attr("a"), Const(1)), Attr("a")), "a"),
                          (Attr("b"), "b")), narrowed)
        top = Project(attrs(("a", "a"), ("b", "b")), update)
        db = {"T": bag(schema, [(1, 5, 0), (2, 5, 1), (3, 4, 0), (4, 6, 0)]),
              "K": bag(("k",), [(1,), (3,), (4,)])}
        got = outcome(evaluate, top, db)
        assert got == (("a", "b"), [("(6, 0)", 1), ("(5, 0)", 1), ("(7, 0)", 1)])
        assert got == outcome(alone, top, db)
        assert fusions == [narrowed]
