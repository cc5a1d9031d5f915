import random

import pytest

from annotated import annotate, encode_provenance, evaluate_annotated
from helpers import _predicate, bags_equal, eval_expr
from randgen import random_agg_query, random_instance, random_spju_query

from provopt.algebra import (
    Agg, Arith, Attr, Cmp, Cond, Const, DupElim, Project,
    Relation, Union, schema_of,
)
from provopt.executor import BagRelation, EvalError, evaluate
from provopt.instrument import (
    AGG_WINDOW, FILTER_UPDATED, HIST_JOIN, InstrumentError, UpdateStmt, UpdateSyntaxError,
    VersionedStore, conditions_over_prestate, instrument_query, parse_updates,
    reenact, replay, scope_to_updated,
)


def bag(schema, rows):
    return BagRelation.from_rows(schema, rows)


class TestInstrumentQuery:
    def test_shop_example_three_rows(self, shop_query, shop_db, shop_provenance_rows):
        inst = instrument_query(shop_query)
        assert evaluate(inst, shop_db).tuples == shop_provenance_rows

    def test_single_relation_duplicates_attrs(self):
        q = Relation("R", ("a", "b"))
        inst = instrument_query(q)
        out = evaluate(inst, {"R": bag(("a", "b"), [(1, 2)])})
        assert out.tuples == {(1, 2, 1, 2): 1}

    def test_matches_annotated_oracle_on_random_spju(self):
        rng = random.Random(99)
        for _ in range(200)            :
            q, state = random_spju_query(rng)
            db = random_instance(state, rng, 5)
            inst = evaluate(instrument_query(q), db)
            oracle = encode_provenance(evaluate_annotated(q, annotate(db)))
            assert bags_equal(inst, oracle, by_name=True)

    def test_original_columns_preserved(self):
        rng = random.Random(123)
        for _ in range(100):
            q, state = random_spju_query(rng)
            db = random_instance(state, rng, 5)
            plain = evaluate(q, db)
            inst = evaluate(instrument_query(q), db)
            width = len(schema_of(q))
            projected = {}
            for t, m in inst.rows():
                key = t[:width]
                projected[key] = projected.get(key, 0) + m
            assert set(projected) == set(plain.tuples)

    def test_dupelim_dropped_on_instrumented_path(self):
        q = DupElim(Relation("R", ("a",)))
        inst = instrument_query(q)
        out = evaluate(inst, {"R": bag(("a",), [(1,), (1,)])})
        # one row per witness, so both copies survive
        assert out.tuples == {(1, 1): 2}

    def test_unsupported_operator_raises(self):
        from provopt.algebra import Diff
        q = Diff(Relation("R", ("a",)), Relation("S", ("b",)))
        with pytest.raises(InstrumentError):
            instrument_query(q)

    def test_unsupported_operator_raises_before_any_choice(self):
        from provopt.algebra import Intersect
        r = Relation("R", ("a", "b"))
        q = Intersect(Agg(("a",), (("sum", "b", "s"),), r), Relation("S", ("c", "d")))
        choices = []

        def choice(n):
            choices.append(n)
            return AGG_WINDOW

        with pytest.raises(InstrumentError, match="Intersect"):
            instrument_query(q, choice=choice)
        assert choices == []

    def test_union_pads_missing_side_with_nulls(self):
        q = Union(Relation("R", ("a",)), Relation("S", ("b",)))
        inst = instrument_query(q)
        out = evaluate(inst, {"R": bag(("a",), [(1,)]), "S": bag(("b",), [(2,)])})
        assert out.tuples == {(1, 1, None): 1, (2, None, 2): 1}


class TestAggChoices:
    def test_join_method_worked_example(self):
        agg = Agg(("b",), (("sum", "a", "s"),), Relation("R", ("a", "b")))
        inst = instrument_query(agg, agg_method="join")
        out = evaluate(inst, {"R": bag(("a", "b"), [(1, 7), (2, 7)])})
        assert out.tuples == {(7, 3, 1, 7): 1, (7, 3, 2, 7): 1}

    def test_window_method_worked_example(self):
        agg = Agg(("b",), (("sum", "a", "s"),), Relation("R", ("a", "b")))
        inst = instrument_query(agg, agg_method="window")
        out = evaluate(inst, {"R": bag(("a", "b"), [(1, 7), (2, 7)])})
        assert out.tuples == {(7, 3, 1, 7): 1, (7, 3, 2, 7): 1}

    def test_window_single_group_gets_global_sum(self):
        agg = Agg((), (("sum", "a", "s"),), Relation("R", ("a",)))
        inst = instrument_query(agg, agg_method="window")
        out = evaluate(inst, {"R": bag(("a",), [(1,), (2,), (3,)])})
        assert out.tuples == {(6, 1): 1, (6, 2): 1, (6, 3): 1}

    def test_empty_groupby_join_method_degenerates_to_cross(self):
        agg = Agg((), (("count", "a", "c"),), Relation("R", ("a",)))
        inst = instrument_query(agg, agg_method="join")
        out = evaluate(inst, {"R": bag(("a",), [(5,), (6,)])})
        assert out.tuples == {(2, 5): 1, (2, 6): 1}

    def test_methods_interchangeable_on_random_queries(self):
        rng = random.Random(7)
        for _ in range(120):
            q, state = random_agg_query(rng, rng.randint(1, 3))
            db = random_instance(state, rng, 5)
            join_out = evaluate(instrument_query(q, agg_method="join"), db)
            win_out = evaluate(instrument_query(q, agg_method="window"), db)
            assert bags_equal(join_out, win_out, by_name=True)

    @pytest.mark.parametrize("aggs", [
        (("sum", "k", "k"),),
        # the second output takes the name the first one's window is computed under
        (("sum", "k", "k"), ("count", "g", "k'")),
    ])
    def test_methods_agree_when_an_output_reuses_an_input_name(self, aggs):
        agg = Agg(("g",), aggs, Relation("S", ("k", "g")))
        db = {"S": bag(("k", "g"), [(1, 7), (3, 8), (2, 8)])}
        join_out = evaluate(instrument_query(agg, agg_method="join"), db)
        win_out = evaluate(instrument_query(agg, agg_method="window"), db)
        assert join_out.schema == win_out.schema
        assert join_out.tuples == win_out.tuples
        assert {t[:2] for t in win_out.tuples} == {(7, 1), (8, 5)}  # g and the sum k

    def test_choice_callback_consulted_per_aggregation(self):
        inner = Agg(("b",), (("sum", "a", "s"),), Relation("R", ("a", "b")))
        outer = Agg(("s",), (("count", "b", "c"),), Project(
            ((Attr("b"), "b"), (Attr("s"), "s")), inner))
        calls = []

        def choice(n):
            calls.append(n)
            return 0

        instrument_query(outer, choice=choice)
        assert calls == [2, 2]


class TestReenactment:
    def test_worked_transaction(self):
        ups = parse_updates(
            "UPDATE R SET A = A - 5 WHERE B = 2;"
            "UPDATE R SET A = A + 1 WHERE B = 1;")
        root = reenact(ups, schema=("A", "B"))
        db = {"R": bag(("A", "B"), [(2, 1), (3, 2), (4, 2)])}
        assert evaluate(root, db).tuples == {(3, 1): 1, (-2, 2): 1, (-1, 2): 1}

    def test_empty_update_list_is_identity(self):
        base = Relation("R", ("a",))
        assert reenact([], base=base) is base

    def test_height_equals_update_count(self):
        ups = [UpdateStmt("R", (("a", Const(i)),), Const(True)) for i in range(4)]
        root = reenact(ups, schema=("a",))
        height = 0
        node = root
        while isinstance(node, Project):
            height += 1
            node = node.child
        assert height == 4

    def test_random_transactions_match_replay(self):
        rng = random.Random(17)
        for _ in range(200):
            ups, db = _random_transaction(rng)
            root = reenact(ups, schema=db["R"].schema)
            assert evaluate(root, db).tuples == replay(ups, db["R"]).tuples

    def test_mixed_relations_rejected(self):
        ups = [UpdateStmt("R", (("a", Const(1)),), Const(True)),
               UpdateStmt("S", (("a", Const(1)),), Const(True))]
        with pytest.raises(InstrumentError):
            reenact(ups, schema=("a",))

    def test_unknown_attribute_rejected(self):
        ups = [UpdateStmt("R", (("zz", Const(1)),), Const(True))]
        with pytest.raises(InstrumentError):
            reenact(ups, schema=("a",))


def _random_transaction(rng, max_updates=6):
    schema = ("k", "a", "b")
    rows = []
    for i, k in enumerate(rng.sample(range(40), rng.randint(1, 8))):
        rows.append((k, rng.randrange(5), rng.randrange(3)))
    db = {"R": bag(schema, rows)}
    ups = []
    for _ in range(rng.randint(1, max_updates)):
        attr = rng.choice(("a", "b"))
        expr = Arith(rng.choice("+-"), Attr(attr), Const(rng.randint(1, 3)))
        cond_attr = rng.choice(schema)
        cond = Cmp(rng.choice(("=", "<", ">", "<=")), Attr(cond_attr),
                   Const(rng.randrange(6)))
        ups.append(UpdateStmt("R", ((attr, expr),), cond))
    return ups, db


class TestScoping:
    def _store(self, db, ups):
        store = VersionedStore()
        store.load("R", db["R"], key=("k",))
        store.apply_transaction(1, ups)
        return store

    def test_filter_updated_touches_all_rows(self):
        ups = parse_updates(
            "UPDATE R SET A = A - 5 WHERE B = 2;"
            "UPDATE R SET A = A + 1 WHERE B = 1;")
        root = reenact(ups, schema=("A", "B"))
        scoped, extra = scope_to_updated(root, ups, None, FILTER_UPDATED)
        db = {"R": bag(("A", "B"), [(2, 1), (3, 2), (4, 2)])}
        out = evaluate(scoped, {**db, **extra})
        # every row matches one of the conditions, so all survive
        assert out.tuples == {(3, 1): 1, (-2, 2): 1, (-1, 2): 1}

    def test_no_rows_touched_yields_empty(self):
        ups = [UpdateStmt("R", (("a", Const(0)),),
                          Cmp("=", Attr("a"), Const(99)))]
        db = {"R": bag(("k", "a", "b"), [(1, 1, 1)])}
        root = reenact(ups, schema=("k", "a", "b"))
        store = self._store(db, ups)
        for method in (FILTER_UPDATED, HIST_JOIN):
            scoped, extra = scope_to_updated(root, ups, store, method, txn_id=1)
            assert evaluate(scoped, {**db, **extra}).tuples == {}

    def test_methods_agree_on_random_workloads(self):
        rng = random.Random(77)
        for _ in range(150):
            ups, db = _random_transaction(rng)
            store = self._store(db, ups)
            root = reenact(ups, schema=db["R"].schema)
            filt, e1 = scope_to_updated(root, ups, store, FILTER_UPDATED, txn_id=1)
            hist, e2 = scope_to_updated(root, ups, store, HIST_JOIN, txn_id=1)
            out_f = evaluate(filt, {**db, **e1})
            out_h = evaluate(hist, {**db, **e2})
            assert out_f.tuples == out_h.tuples

    def test_scoped_rows_match_touched_replay(self):
        # the scoped reenactment returns exactly the post-state of rows some
        # update matched, with conditions evaluated at the version each
        # update saw
        rng = random.Random(78)
        for _ in range(100):
            ups, db = _random_transaction(rng)
            store = self._store(db, ups)
            root = reenact(ups, schema=db["R"].schema)
            scoped, extra = scope_to_updated(root, ups, store, FILTER_UPDATED)
            got = evaluate(scoped, {**db, **extra})

            # oracle: replay imperatively, remembering which keys matched
            state = db["R"]
            touched = set()
            for u in ups:
                assigned = dict(u.set_clauses)
                out = BagRelation(state.schema)
                for t, m in state.rows():
                    env = dict(zip(state.schema, t))
                    if _predicate(u.where, env):
                        touched.add(env["k"])
                        row = tuple(eval_expr(assigned[a], env) if a in assigned else env[a]
                                    for a in state.schema)
                    else:
                        row = t
                    out.add(row, m)
                state = out
            expected = {t: m for t, m in state.rows() if t[0] in touched}
            assert got.tuples == expected

    def test_histjoin_requires_key(self):
        ups = [UpdateStmt("R", (("a", Const(0)),), Const(True))]
        db = {"R": bag(("k", "a", "b"), [(1, 1, 1)])}
        store = VersionedStore()
        store.load("R", db["R"])  # no key declared
        store.apply_transaction(1, ups)
        root = reenact(ups, schema=("k", "a", "b"))
        with pytest.raises(InstrumentError):
            scope_to_updated(root, ups, store, HIST_JOIN, txn_id=1)

    def test_key_assignment_rejected(self):
        ups = [UpdateStmt("R", (("k", Const(0)),), Const(True))]
        db = {"R": bag(("k", "a", "b"), [(1, 1, 1)])}
        store = VersionedStore()
        store.load("R", db["R"], key=("k",))
        with pytest.raises(InstrumentError):
            store.apply_transaction(1, ups)


class TestConditionsOverPrestate:
    def test_later_condition_composed_with_earlier_updates(self):
        # first update rewrites a; the second's condition reads the new a
        ups = [UpdateStmt("R", (("a", Arith("+", Attr("a"), Const(1))),),
                          Cmp("=", Attr("b"), Const(1))),
               UpdateStmt("R", (("b", Const(9)),),
                          Cmp("=", Attr("a"), Const(5)))]
        conds = conditions_over_prestate(ups, ("a", "b"))
        assert conds[0] == Cmp("=", Attr("b"), Const(1))
        assert isinstance(conds[1], Cmp) and isinstance(conds[1].left, Cond)


class TestUpdateParser:
    def test_parses_set_and_where(self):
        ups = parse_updates("UPDATE R SET b = b + 2 WHERE a = 1;")
        assert ups == [UpdateStmt("R", (("b", Arith("+", Attr("b"), Const(2))),),
                                  Cmp("=", Attr("a"), Const(1)))]

    def test_multiple_clauses_and_statements(self):
        ups = parse_updates("""
            -- touch two columns
            UPDATE R SET a = 0, b = a * 2 WHERE a < 3 AND b <> 5;
            UPDATE R SET a = a + 1;
        """)
        assert len(ups) == 2
        assert len(ups[0].set_clauses) == 2
        assert ups[1].where == Const(True)

    def test_string_and_negative_literals(self):
        ups = parse_updates("UPDATE R SET s = 'o''clock' WHERE a = -4;")
        assert ups[0].set_clauses[0][1] == Const("o'clock")
        assert ups[0].where == Cmp("=", Attr("a"), Const(-4))

    def test_string_holding_a_statement_end_or_a_comment(self):
        ups = parse_updates("UPDATE r SET s = 'a;b' WHERE k = 1;\n"
                            "UPDATE r SET s = 'a--b' -- a comment; not a statement end\n"
                            "  WHERE k = 2;")
        assert [u.set_clauses[0][1] for u in ups] == [Const("a;b"), Const("a--b")]
        assert ups[1].where == Cmp("=", Attr("k"), Const(2))

    def test_syntax_error(self):
        with pytest.raises(UpdateSyntaxError):
            parse_updates("UPDATE R WHERE a = 1;")

    def test_float_and_keyword_literals(self):
        ups = parse_updates("UPDATE R SET a = 1.5, b = TRUE, c = false, d = Null WHERE e = -0.25")
        assert ups[0].set_clauses == (("a", Const(1.5)), ("b", Const(True)),
                                      ("c", Const(False)), ("d", Const(None)))
        assert ups[0].where == Cmp("=", Attr("e"), Const(-0.25))

    def test_a_minus_folds_into_a_number_but_not_a_boolean(self):
        # -TRUE evaluates as 0 - TRUE, which is an error, not -1
        ups = parse_updates("UPDATE R SET a = -TRUE, b = -FALSE, c = -3;")
        assert ups[0].set_clauses == (("a", Arith("-", Const(0), Const(True))),
                                      ("b", Arith("-", Const(0), Const(False))),
                                      ("c", Const(-3)))

    def test_the_last_statement_needs_no_semicolon(self):
        ups = parse_updates("UPDATE R SET a = 1; UPDATE R SET b = 2")
        assert [u.set_clauses for u in ups] == [(("a", Const(1)),), (("b", Const(2)),)]

    @pytest.mark.parametrize("text, message", [
        ("UPDATE R SET a = 1 ? 2;", "cannot read input at '? 2;'"),
        ("UPDATE R SET a = 1 2;", "trailing input '2'"),
        ("UPDATE R SET a = 1 WHERE b = 1 c;", "trailing input 'c'"),
        ("UPDATE R SET a =;", "unexpected end of statement"),
        ("UPDATE R SET a = (1;", "unexpected end of statement"),
        ("UPDATE R SET a = (1 2);", "expected ), found '2'"),
        ("UPDATE R SET a = );", "cannot read expression at ')'"),
        ("UPDATE R WHERE a = 1;", "expected SET, found 'WHERE'"),
    ])
    def test_a_syntax_error_says_where(self, text, message):
        with pytest.raises(UpdateSyntaxError) as err:
            parse_updates(text)
        assert str(err.value) == message


def test_replay_on_the_fixture_transaction():
    from pathlib import Path

    from provopt.datafiles import load_directory

    fixtures = Path(__file__).resolve().parent.parent / "fixtures_txn"
    db, _ = load_directory(fixtures)
    ups = parse_updates((fixtures / "t1.sql").read_text())
    matched = []
    got = replay(ups, db["R"], on_match=matched.append)
    assert got.tuples == {(3, 1): 1, (-2, 2): 1, (-1, 2): 1}
    assert matched == [{"A": 3, "B": 2}, {"A": 4, "B": 2}, {"A": 2, "B": 1}]
    assert evaluate(reenact(ups, schema=db["R"].schema), db).tuples == got.tuples


class TestReplay:
    def test_a_set_error_on_an_earlier_row_wins_over_a_later_where_error(self):
        # row 1 matches and its SET adds to a string; row 2's WHERE compares
        # a string with a number
        state = bag(("a", "b"), [("x", 1), (1, "s")])
        before = dict(state.tuples)
        up = UpdateStmt("R", (("a", Arith("+", Attr("a"), Const(1))),),
                        Cmp("=", Attr("b"), Const(1)))
        with pytest.raises(EvalError, match="arithmetic on non-numeric"):
            replay([up], state)
        assert state.tuples == before

    def test_a_where_error_on_an_earlier_row_wins_over_a_later_set_error(self):
        state = bag(("a", "b"), [(1, "s"), ("x", 1)])
        up = UpdateStmt("R", (("a", Arith("+", Attr("a"), Const(1))),),
                        Cmp("=", Attr("b"), Const(1)))
        with pytest.raises(EvalError, match="different types"):
            replay([up], state)

    def test_the_input_bag_is_left_unchanged(self):
        state = bag(("a",), [(1,), (2,), (3,)])
        before = dict(state.tuples)
        up = UpdateStmt("R", (("a", Arith("+", Attr("a"), Const(1))),),
                        Cmp("<", Attr("a"), Const(3)))
        got = replay([up, up], state)
        assert got.tuples == {(3,): 3}
        assert state.tuples == before

    def test_new_values_merge_with_rows_matched_or_not(self):
        # 1 -> 2 and 2 -> 3 in one update; 2 also meets an unmatched 2 later
        state = BagRelation(("a", "b"))
        state.add((1, 0), 2)
        state.add((2, 0), 3)
        state.add((3, 1), 1)
        up = UpdateStmt("R", (("a", Arith("+", Attr("a"), Const(1))),),
                        Cmp("=", Attr("b"), Const(0)))
        assert replay([up], state).tuples == {(2, 0): 2, (3, 0): 3, (3, 1): 1}
        back = UpdateStmt("R", (("b", Const(0)),), Cmp("=", Attr("b"), Const(1)))
        assert replay([up, back], state).tuples == {(2, 0): 2, (3, 0): 4}

    def test_an_unbound_set_attribute_over_an_empty_bag_does_not_raise(self):
        up = UpdateStmt("R", (("a", Attr("missing")),), Const(True))
        assert replay([up], BagRelation(("a",))).tuples == {}
        with pytest.raises(EvalError, match="unbound attribute 'missing'"):
            replay([up], bag(("a",), [(1,)]))


class TestSharedRelation:
    """One Relation object read by both inputs of a binary operator gives
    both inputs the same provenance columns; instrumenting refuses it."""

    @pytest.mark.parametrize("kind", ["union", "join", "cross"])
    def test_collision_raises_instrument_error(self, kind):
        from provopt.algebra import Cross, Join, Select
        r = Relation("R", ("a",))
        left = Select(Cmp("=", Attr("a"), Const(1)), r)
        q = {"union": lambda: Union(left, r), "join": lambda: Join((("a", "a"),), left, r),
             "cross": lambda: Cross(left, r)}[kind]()
        with pytest.raises(InstrumentError, match=rf"collide across {kind} inputs.*prov_R_0_a"):
            instrument_query(q)

    def test_two_occurrences_of_one_relation_instrument(self):
        q = Union(Relation("R", ("a",)), Relation("R", ("a",)))
        inst = instrument_query(q)
        assert schema_of(inst) == ("a", "prov_R_0_a", "prov_R_1_a")
