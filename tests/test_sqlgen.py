import random
import sqlite3
from pathlib import Path

from randgen import random_agg_query, random_instance, random_spju_query

from provopt.algebra import (
    CMP_OPS, Agg, Arith, Attr, BoolOp, Cmp, Cond, Const, DupElim, Join, Project,
    Relation, Select, Union, Window, schema_of,
)
from provopt.datafiles import load_directory
from provopt.executor import BagRelation, evaluate
from provopt.instrument import instrument_query, parse_updates, reenact
from provopt.sqlgen import render_expr, to_sql

GOLDEN = Path(__file__).parent / "golden"


def ex1_query():
    shop = Relation("shop", ("name", "numEmpl"))
    sale = Relation("sale", ("shop", "item"))
    item = Relation("item", ("id", "price"))
    return Project(((Attr("name"), "name"),),
                   Join((("item", "id"),),
                        Join((("name", "shop"),), shop, sale),
                        Select(Cmp(">", Attr("price"), Const(20)), item)))


class TestRenderExpr:
    def test_compact_comparison_and_arith(self):
        assert render_expr(Cmp("=", Attr("a"), Const(1))) == "a=1"
        assert render_expr(Arith("+", Attr("b"), Const(2))) == "b+2"

    def test_case_expression(self):
        e = Cond(Cmp("=", Attr("a"), Const(1)),
                 Arith("+", Attr("b"), Const(2)), Attr("b"))
        assert render_expr(e) == "CASE WHEN a=1 THEN b+2 ELSE b END"

    def test_nested_arith_parenthesized(self):
        e = Arith("*", Arith("+", Attr("a"), Attr("b")), Const(2))
        assert render_expr(e) == "(a+b)*2"

    def test_quoting_only_when_needed(self):
        assert render_expr(Attr("prov_R_0_a")) == "prov_R_0_a"
        assert render_expr(Attr("b'")) == '"b\'"'

    def test_the_update_reader_reads_back_each_printed_expression(self):
        # the printer's parentheses are enough under the reader's precedence
        # table, which is SQL's: a condition reads back bare after WHERE and
        # parenthesized as a SET value
        rng = random.Random(31)

        def expression(depth):
            if depth == 0 or rng.random() < 0.25:
                return rng.choice((Attr(rng.choice("abc")), Const(rng.randint(-5, 5)),
                                   Const(rng.randint(-12, 12) / 4)))
            kind = rng.randrange(4)
            if kind == 0:
                return Arith(rng.choice("+-*/"), expression(depth - 1), expression(depth - 1))
            if kind == 1:
                return Cmp(rng.choice(CMP_OPS), expression(depth - 1), expression(depth - 1))
            if kind == 2:
                return BoolOp("not", (expression(depth - 1),))
            return BoolOp(rng.choice(("and", "or")),
                          tuple(expression(depth - 1) for _ in range(rng.randint(2, 3))))

        for _ in range(2000):
            e = expression(5)
            text = render_expr(e)
            [u] = parse_updates(f"UPDATE R SET x = ({text}) WHERE {text}")
            assert u.set_clauses[0][1] is e and u.where is e, text


class TestGoldenFiles:
    def _check(self, node, name):
        expected = (GOLDEN / name).read_text()
        assert to_sql(node).text == expected

    def test_ex1_window(self):
        self._check(instrument_query(ex1_query(), agg_method="window"),
                    "ex1_window.sql")

    def test_ex1_join(self):
        self._check(instrument_query(ex1_query(), agg_method="join"),
                    "ex1_join.sql")

    def test_agg_join(self):
        agg = Agg(("b",), (("sum", "a", "s"),), Relation("R", ("a", "b")))
        self._check(instrument_query(agg, agg_method="join"), "agg_join.sql")

    def test_agg_window(self):
        agg = Agg(("b",), (("sum", "a", "s"),), Relation("R", ("a", "b")))
        self._check(instrument_query(agg, agg_method="window"), "agg_window.sql")

    def test_reenactment_contains_verbatim_case(self):
        rr = reenact(parse_updates("UPDATE R SET b = b + 2 WHERE a = 1;"),
                     schema=("a", "b"))
        sql = to_sql(rr).text
        assert sql == (GOLDEN / "reenact_update.sql").read_text()
        assert "CASE WHEN a=1 THEN b+2 ELSE b END AS b" in sql

    def test_deterministic(self):
        node = instrument_query(ex1_query())
        assert to_sql(node).text == to_sql(node).text


class TestStructure:
    def test_single_relation_shape(self):
        sql = to_sql(Relation("R", ("a", "b"))).text
        assert sql == "SELECT a, b FROM R;\n"

    def test_shared_node_becomes_single_cte(self):
        shared = Select(Cmp("<", Attr("a"), Const(3)), Relation("R", ("a",)))
        root = Union(shared, shared)
        unit = to_sql(root)
        assert len(unit.cte_defs) == 1
        name = unit.cte_defs[0][0]
        assert unit.text.count("WHERE a<3") == 1
        assert unit.text.count(f"FROM {name}") == 2

    def test_materialize_fence_emits_comment(self):
        inner = Project(((Arith("+", Attr("a"), Attr("a")), "a"),),
                        Relation("R", ("a",)), materialize=True)
        root = Project(((Attr("a"), "a"),), inner)
        unit = to_sql(root)
        assert "/*MATERIALIZE*/" in unit.text
        unit_kw = to_sql(root, materialized_keyword=True)
        assert "AS MATERIALIZED" in unit_kw.text

    def test_bag_set_operators(self):
        r, s = Relation("R", ("a",)), Relation("S", ("b",))
        from provopt.algebra import Diff, Intersect
        assert "UNION ALL" in to_sql(Union(r, s)).text
        assert "INTERSECT ALL" in to_sql(Intersect(r, s)).text
        assert "EXCEPT ALL" in to_sql(Diff(r, s)).text
        assert "SELECT DISTINCT" in to_sql(DupElim(r)).text


# ---------------------------------------------------------------------------
# execution cross-check against SQLite


def _sqlite_bag(conn, sql, width):
    rows = conn.execute(sql.rstrip(";\n ")).fetchall()
    out: dict = {}
    for row in rows:
        t = tuple(row)
        assert len(t) == width
        out[t] = out.get(t, 0) + 1
    return out


def _load_sqlite(conn, db):
    for name, bag in db.items():
        cols = ", ".join(f'"{a}"' for a in bag.schema)
        conn.execute(f'CREATE TABLE "{name}" ({cols})')
        placeholders = ", ".join("?" for _ in bag.schema)
        for t, m in bag.rows():
            for _ in range(m):
                conn.execute(f'INSERT INTO "{name}" VALUES ({placeholders})', t)


class TestSqliteCrossCheck:
    """Generated SQL executed by SQLite agrees with the evaluator."""

    def _check(self, q, db):
        conn = sqlite3.connect(":memory:")
        try:
            _load_sqlite(conn, db)
            got = _sqlite_bag(conn, to_sql(q).text, len(schema_of(q)))
        finally:
            conn.close()
        expected = evaluate(q, db)
        assert got == expected.tuples

    def test_random_spju_queries(self):
        rng = random.Random(55)
        for _ in range(60):
            q, state = random_spju_query(rng)
            db = random_instance(state, rng, 5)
            self._check(q, db)

    def test_instrumented_aggregations_both_methods(self):
        rng = random.Random(56)
        for _ in range(30):
            q, state = random_agg_query(rng, rng.randint(1, 2))
            db = random_instance(state, rng, 5)
            for method in ("join", "window"):
                self._check(instrument_query(q, agg_method=method), db)

    def test_window_running_frame(self):
        q = Window("sum", "v", "x", ("g",), ("o",), Relation("R", ("g", "o", "v")))
        db = {"R": BagRelation.from_rows(("g", "o", "v"),
                                         [(1, 1, 10), (1, 1, 20), (1, 2, 5), (2, 1, 7)])}
        self._check(q, db)

    def test_fenced_projection_still_correct(self):
        inner = Project(((Arith("+", Attr("a"), Attr("a")), "a"),),
                        Relation("R", ("a",)), materialize=True)
        root = Project(((Arith("+", Attr("a"), Const(1)), "b"),), inner)
        db = {"R": BagRelation.from_rows(("a",), [(1,), (2,)])}
        self._check(root, db)

    def test_reenacted_transaction(self):
        ups = parse_updates("UPDATE R SET A = A - 5 WHERE B = 2;"
                            "UPDATE R SET A = A + 1 WHERE B = 1;")
        q = reenact(ups, schema=("A", "B"))
        db = {"R": BagRelation.from_rows(("A", "B"), [(2, 1), (3, 2), (4, 2)])}
        self._check(q, db)

    def test_a_minus_before_a_negative_number_starts_no_comment(self):
        # SQL reads -- as the start of a comment: a--3 must print as a-(-3)
        r = Relation("R", ("a", "b"))
        db = {"R": BagRelation.from_rows(("a", "b"), [(1, 2), (5, -1)])}
        for e, text in ((Arith("-", Attr("a"), Const(-3)), "a-(-3)"),
                        (Arith("-", Attr("a"), Arith("*", Const(-2), Attr("b"))), "a-(-2*b)")):
            assert render_expr(e) == text
            self._check(Project(((e, "x"),), r), db)

    def test_reenacted_subtraction_of_a_negative_number(self):
        ups = parse_updates("UPDATE R SET A = B - -2 WHERE B = 2;")
        q = reenact(ups, schema=("A", "B"))
        assert "B-(-2)" in to_sql(q).text
        db, _ = load_directory(Path(__file__).resolve().parent.parent / "fixtures_txn")
        self._check(q, db)

    def test_shared_subexpressions_emit_ctes(self):
        from randgen import share_subtree
        from provopt.algebra import Relation as Rel
        rng = random.Random(999)
        for _ in range(40):
            q, state = random_spju_query(rng, 3)
            dag = share_subtree(rng, q)
            db = random_instance(state, rng, 5)
            shared_nonleaf = dag.left.child is dag.right.child and not isinstance(
                dag.left.child, Rel)
            if shared_nonleaf:
                # a shared operator is emitted once, as a named CTE
                assert to_sql(dag).cte_defs
            self._check(dag, db)
