"""SQL generation is one children-first loop over the plan.

The recursive printer below is the implementation :func:`provopt.sqlgen.to_sql`
replaced, kept as the reference: the loop must give the same text and the
same CTE definitions on every plan, including the ``t<N>`` alias numbering
(CTE bodies first, then the main query; an input's alias before the aliases
nested inside it). The loop must in addition print plans of any depth and
leave no reference cycle behind.
"""
import dataclasses
import gc
import random
import time

import pytest

from randgen import random_agg_query, random_query, random_spju_query, share_subtree
from test_expr_fold import FIXTURES_TXN, _updates
from test_local_rules import _select_project_chain

from provopt import cli
from provopt.algebra import (
    Agg, Attr, Cmp, Const, Cross, Diff, DupElim, FRAME_PARTITION, Intersect,
    Join, Node, Project, Relation, SchemaError, Select, Union, Window, identity_targets,
    all_nodes, fold_expr, parent_map, rebuild_bottom_up, right_output_names,
    schema_of,
)
from provopt.instrument import InstrumentError, instrument_query
from provopt.rewrites import RewriteConfig, apply_pats
from provopt.sqlgen import SqlGenError, SqlUnit, _render_step, quote_ident, render_expr, to_sql

# ---------------------------------------------------------------------------
# the recursive reference printer


def _old_to_sql(root: Node, *, materialized_keyword: bool = False) -> SqlUnit:
    parents = parent_map(root)
    order = all_nodes(root)
    cte_nodes = [n for n in order
                 if (len(parents[n]) > 1 and not isinstance(n, Relation))
                 or (isinstance(n, Project) and n.materialize and n is not root)]
    cte_names = {n: f"q{i}" for i, n in enumerate(cte_nodes)}

    alias_counter = [0]

    def next_alias() -> str:
        alias_counter[0] += 1
        return f"t{alias_counter[0]}"

    def from_clause(n: Node) -> tuple[str, str]:
        alias = next_alias()
        if n in cte_names:
            return f"{cte_names[n]} AS {alias}", alias
        if isinstance(n, Relation):
            return f"{quote_ident(n.name)} AS {alias}", alias
        return f"({render(n)}) AS {alias}", alias

    def simple_from(n: Node) -> str:
        if n in cte_names:
            return cte_names[n]
        if isinstance(n, Relation):
            return quote_ident(n.name)
        return f"({render(n)})"

    def render(n: Node) -> str:
        if isinstance(n, Relation):
            cols = ", ".join(quote_ident(a) for a in n.attrs)
            return f"SELECT {cols} FROM {quote_ident(n.name)}"
        if isinstance(n, Select):
            return (f"SELECT * FROM {simple_from(n.child)}"
                    f" WHERE {render_expr(n.cond)}")
        if isinstance(n, Project):
            cols = []
            texts = fold_expr((e for e, _ in n.targets), _render_step)
            for (e, name), rendered in zip(n.targets, texts):
                if isinstance(e, Attr) and e.name == name:
                    cols.append(rendered)
                else:
                    cols.append(f"{rendered} AS {quote_ident(name)}")
            return f"SELECT {', '.join(cols)} FROM {simple_from(n.child)}"
        if isinstance(n, (Join, Cross)):
            left_sql, la = from_clause(n.left)
            right_sql, ra = from_clause(n.right)
            left_schema = schema_of(n.left)
            right_schema = schema_of(n.right)
            right_names = right_output_names(n)
            cols = [f"{la}.{quote_ident(a)}" for a in left_schema]
            for src, out in zip(right_schema, right_names):
                ref = f"{ra}.{quote_ident(src)}"
                cols.append(ref if src == out else f"{ref} AS {quote_ident(out)}")
            if isinstance(n, Join):
                on = " AND ".join(f"{la}.{quote_ident(a)}={ra}.{quote_ident(b)}"
                                  for a, b in n.pairs)
                return (f"SELECT {', '.join(cols)} FROM {left_sql}"
                        f" INNER JOIN {right_sql} ON {on}")
            return (f"SELECT {', '.join(cols)} FROM {left_sql}"
                    f" CROSS JOIN {right_sql}")
        if isinstance(n, (Union, Intersect, Diff)):
            op = {"Union": "UNION ALL", "Intersect": "INTERSECT ALL",
                  "Diff": "EXCEPT ALL"}[type(n).__name__]
            left_sql, _ = from_clause(n.left)
            right_sql, _ = from_clause(n.right)
            return (f"SELECT * FROM {left_sql} {op} SELECT * FROM {right_sql}")
        if isinstance(n, Agg):
            cols = [quote_ident(a) for a in n.group_by]
            cols += [f"{fn}({quote_ident(arg)}) AS {quote_ident(out)}"
                     for fn, arg, out in n.aggs]
            sql = f"SELECT {', '.join(cols)} FROM {simple_from(n.child)}"
            if n.group_by:
                sql += " GROUP BY " + ", ".join(quote_ident(a) for a in n.group_by)
            return sql
        if isinstance(n, DupElim):
            cols = ", ".join(quote_ident(a) for a in schema_of(n))
            return f"SELECT DISTINCT {cols} FROM {simple_from(n.child)}"
        if isinstance(n, Window):
            over = []
            if n.partition_by:
                over.append("PARTITION BY " + ", ".join(quote_ident(a) for a in n.partition_by))
            if n.order_by:
                over.append("ORDER BY " + ", ".join(quote_ident(a) for a in n.order_by))
            if n.frame == FRAME_PARTITION:
                over.append("ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING")
            elif n.order_by:
                over.append("RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW")
            window = f"{n.fn}({quote_ident(n.arg)}) OVER ({' '.join(over)})"
            cols = ", ".join(quote_ident(a) for a in schema_of(n.child))
            return (f"SELECT {cols}, {window} AS {quote_ident(n.out)}"
                    f" FROM {simple_from(n.child)}")
        raise SqlGenError(f"unknown operator {type(n).__name__}")

    def render_input(n: Node) -> str:
        if n in cte_names:
            return f"SELECT * FROM {cte_names[n]}"
        return render(n)

    cte_defs = []
    for n in cte_nodes:
        body = render(n)
        cte_defs.append((cte_names[n], body))

    main = render_input(root) if root in cte_names else render(root)
    if cte_defs:
        parts = []
        for (name, body), node in zip(cte_defs, cte_nodes):
            fence = isinstance(node, Project) and node.materialize
            hint = " /*MATERIALIZE*/" if fence else ""
            keyword = " MATERIALIZED" if fence and materialized_keyword else ""
            parts.append(f"{name} AS{keyword}{hint} (\n  {body}\n)")
        text = "WITH " + ",\n".join(parts) + "\n" + main
    else:
        text = main
    return SqlUnit(text + ";\n", tuple(cte_defs))


# ---------------------------------------------------------------------------
# the differential corpus


def _fence_some(rng: random.Random, q: Node) -> Node:
    """The plan with a random half of its projections (the root's too)
    flagged as materialization fences."""
    return rebuild_bottom_up(q, lambda n, rebuilt: dataclasses.replace(rebuilt, materialize=True)
                             if isinstance(n, Project) and rng.random() < 0.5 else rebuilt)


def _try(fn, *args):
    try:
        return fn(*args)
    except (InstrumentError, SchemaError):  # shared subgraphs are not instrumentable
        return None


def corpus():
    rng = random.Random(20)
    plans = []
    for _ in range(60):
        q, _ = random_query(rng, rng.randint(1, 7))
        plans += [q, share_subtree(rng, q)]
    for _ in range(40):
        q, _ = random_spju_query(rng, rng.randint(1, 5))
        plans += [q, share_subtree(rng, q)]
    for _ in range(20):
        plans.append(random_agg_query(rng, rng.randint(1, 3))[0])
    plans += [_fence_some(rng, q) for q in plans]
    instrumented = [_try(instrument_query, q, lambda n: rng.randrange(2)) for q in plans]
    plans += [q for q in instrumented if q is not None]
    plans += [apply_pats(q, RewriteConfig(dupelim_set_choice=lambda n: rng.randrange(2)))
              for q in plans[::3]]
    return plans


def test_corpus_covers_every_case():
    plans = corpus()
    nodes = [n for q in plans for n in all_nodes(q)]
    kinds = {type(n) for n in nodes}
    assert kinds == {Relation, Select, Project, Join, Cross, Union, Intersect, Diff,
                     Agg, DupElim, Window}
    units = [to_sql(q) for q in plans]
    assert sum(bool(u.cte_defs) for u in units) > 100
    assert sum("/*MATERIALIZE*/" in u.text for u in units) > 30
    assert sum(u.text.count(" AS t") >= 3 for u in units) > 100
    # a fenced root stays the main query
    assert any(isinstance(q, Project) and q.materialize for q in plans)


@pytest.mark.parametrize("keyword", [False, True])
def test_sql_matches_the_recursive_printer(keyword):
    for q in corpus():
        new = to_sql(q, materialized_keyword=keyword)
        old = _old_to_sql(q, materialized_keyword=keyword)
        assert new.text == old.text
        assert new.cte_defs == old.cte_defs


def test_aliases_number_inputs_before_what_nests_in_them():
    r, s, u = Relation("R", ("a",)), Relation("S", ("b",)), Relation("U", ("c",))
    shared = Select(Cmp("<", Attr("a"), Const(3)), r)
    q = Cross(Cross(shared, s), Union(shared, Project(((Attr("c"), "a"),), u)))
    sql = to_sql(q).text
    assert sql == _old_to_sql(q).text
    # the CTE body is a selection, so it has no alias; the main query reads
    # left to right, each input before what nests in it
    assert (sql.index(") AS t1") > sql.index("q0 AS t2") and
            sql.index("q0 AS t5") < sql.index("FROM U) AS t6") < sql.index(") AS t4"))
    assert "S AS t3" in sql and "t7" not in sql


# ---------------------------------------------------------------------------
# depth


DEEP = 5000


def test_to_sql_prints_a_deep_select_project_chain():
    text = to_sql(_select_project_chain(DEEP)).text
    assert text.count("SELECT") == DEEP and text.count("(") == DEEP - 1
    assert text.startswith("SELECT * FROM (SELECT a, b FROM (") and "FROM R)" in text


@pytest.mark.parametrize("left_deep", [True, False])
def test_to_sql_prints_a_deep_cross_stack(left_deep):
    pairs = DEEP // 2
    node: Node = Relation("R", ("a", "b"))
    for i in range(pairs):
        other = Relation(f"S{i}", ("c",))
        cross = Cross(node, other) if left_deep else Cross(other, node)
        node = Project(identity_targets(("a", "b")), cross)
    started = time.perf_counter()
    text = to_sql(node).text
    assert time.perf_counter() - started < 10
    assert f" AS t{DEEP}" in text and f" AS t{DEEP + 1}" not in text
    # the outermost cross's relation input comes last in a left-deep stack
    assert f"S{pairs - 1} AS t{DEEP if left_deep else 1}" in text


def test_run_prints_sql_of_1000_stacked_updates(tmp_path, capsys):
    code = cli.main(["run", "--reenact", str(_updates(tmp_path, 1000)),
                     "--data", str(FIXTURES_TXN), "--no-heuristics"])
    out = capsys.readouterr()
    assert code == 0, out.err
    sql = out.out.split("SQL:\n", 1)[1]
    assert sql.count("SELECT") == 1000 and sql.endswith("FROM R" + ")" * 999 + ";\n")


# ---------------------------------------------------------------------------
# reference cycles


def test_to_sql_leaves_no_reference_cycles():
    r, s = Relation("R", ("a", "b")), Relation("S", ("c",))
    shared = Select(Cmp("<", Attr("a"), Const(3)), r)
    fence = Project(((Attr("b"), "x"),), shared, materialize=True)
    plan = Cross(fence, Join((("a", "c"),), shared, s))
    first = to_sql(plan)  # caches schemas and the node order
    assert first.cte_defs and "/*MATERIALIZE*/" in first.text
    gc.collect()
    gc.disable()
    try:
        assert to_sql(plan) == first
        assert gc.collect() == 0
    finally:
        gc.enable()
