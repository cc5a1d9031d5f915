"""Deterministic SQL text generation for algebra graphs.

Every operator renders to a canonical SELECT block over parenthesized
subqueries, its step in one table, :data:`RENDER`. Nodes referenced by more
than one parent, and projections flagged as materialization fences, become
named common table expressions emitted once in dependency order; a fence
additionally carries a ``/*MATERIALIZE*/`` comment (and optionally the
MATERIALIZED keyword, which some engines honor). The inputs of joins, cross
products and set operators are aliased ``t1``, ``t2``, ... in reading
order: the CTE bodies in CTE order, then the main query, each input before
the inputs nested in it.

Identifiers are emitted bare when they are plain lowercase-safe names and
double-quoted otherwise, so generated provenance columns read naturally
while primed join aliases stay valid.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

from .algebra import (
    Agg, Arith, Attr, BoolOp, Cmp, Cond, Const, Diff, DupElim, Expr,
    FRAME_PARTITION, Intersect, Node, PassTable, Product, Project, Relation, Select,
    SetOp, Union, Window, all_nodes, fold_expr, parent_map, schema_of,
)


class SqlGenError(Exception):
    pass


@dataclass
class SqlUnit:
    text: str
    cte_defs: tuple[tuple[str, str], ...] = ()


_PLAIN = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_RESERVED = frozenset("""
    all and as asc between by case cross current default delete desc distinct
    else end except exists from full group having in inner insert intersect
    into is join left like limit natural not null offset on or order outer
    over partition right rows select set table then union update using values
    when where window with
""".split())


def quote_ident(name: str) -> str:
    if _PLAIN.match(name) and name.lower() not in _RESERVED:
        return name
    return '"' + name.replace('"', '""') + '"'


def render_value(v) -> str:
    if v is None:
        return "NULL"
    if v is True:
        return "TRUE"
    if v is False:
        return "FALSE"
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return repr(v)


_PRECEDENCE = {"*": 2, "/": 2, "+": 1, "-": 1}
#: what a comparison asks of its sides: more than any arithmetic binds, so
#: an arithmetic side of a comparison is always parenthesized
_CMP_PRECEDENCE = 3


def _binding(x: Expr) -> int:
    """How tightly an operand of arithmetic or a comparison binds:
    attributes, constants and CASE never need parentheses, comparisons and
    boolean operators always do."""
    if isinstance(x, Arith):
        return _PRECEDENCE[x.op]
    return 0 if isinstance(x, (Cmp, BoolOp)) else _CMP_PRECEDENCE + 1


def _render_step(x: Expr, kids: tuple[str, ...]) -> str:
    if isinstance(x, Attr):
        return quote_ident(x.name)
    if isinstance(x, Const):
        return render_value(x.value)
    if isinstance(x, BoolOp):
        if x.op == "not":
            return f"NOT ({kids[0]})"
        return (" AND " if x.op == "and" else " OR ").join(
            f"({k})" if isinstance(a, BoolOp) and a.op in ("and", "or") else k
            for a, k in zip(x.args, kids))
    if isinstance(x, Cond):
        return "CASE WHEN {} THEN {} ELSE {} END".format(*kids)
    # an Arith or Cmp: a side binding more loosely than the operator is
    # parenthesized, a right side binding equally too (a-(b-c)), and a
    # minus's right side starting with a minus, or SQL reads a comment (a-(-3))
    prec = _PRECEDENCE[x.op] if isinstance(x, Arith) else _CMP_PRECEDENCE
    left, right = kids
    if _binding(x.left) < prec:
        left = f"({left})"
    if _binding(x.right) <= prec or x.op == "-" and right.startswith("-"):
        right = f"({right})"
    return f"{left}{x.op}{right}"


def render_expr(e: Expr) -> str:
    return fold_expr((e,), _render_step)[0]


def _columns(attrs: Iterable[str]) -> str:
    return ", ".join(quote_ident(a) for a in attrs)


def _render_project(n: Project, source, aliases) -> str:
    texts = fold_expr((e for e, _ in n.targets), _render_step)
    passed = n.lineage[0]  # a column under its own name prints bare
    cols = [text if passed.get(name) == name else f"{text} AS {quote_ident(name)}"
            for (_, name), text in zip(n.targets, texts)]
    return f"SELECT {', '.join(cols)} FROM {source(n, 0)}"


def _render_join(n: Product, source, aliases) -> str:
    la, ra = aliases[n, 0], aliases[n, 1]
    cols = [f"{la}.{quote_ident(a)}" for a in schema_of(n.left)]
    for out, src in n.lineage[1].items():
        ref = f"{ra}.{quote_ident(src)}"
        cols.append(ref if src == out else f"{ref} AS {quote_ident(out)}")
    sql = f"SELECT {', '.join(cols)} FROM {source(n, 0)}"
    if not n.pairs:
        return f"{sql} CROSS JOIN {source(n, 1)}"
    on = " AND ".join(f"{la}.{quote_ident(a)}={ra}.{quote_ident(b)}" for a, b in n.pairs)
    return f"{sql} INNER JOIN {source(n, 1)} ON {on}"


def _set_operation(keyword: str) -> Callable[[SetOp, Callable, dict], str]:
    return lambda n, source, aliases: (
        f"SELECT * FROM {source(n, 0)} {keyword} SELECT * FROM {source(n, 1)}")


def _render_agg(n: Agg, source, aliases) -> str:
    cols = [quote_ident(a) for a in n.group_by]
    cols += [f"{fn}({quote_ident(arg)}) AS {quote_ident(out)}" for fn, arg, out in n.aggs]
    sql = f"SELECT {', '.join(cols)} FROM {source(n, 0)}"
    if n.group_by:
        sql += " GROUP BY " + _columns(n.group_by)
    return sql


def _render_window(n: Window, source, aliases) -> str:
    over = []
    if n.partition_by:
        over.append("PARTITION BY " + _columns(n.partition_by))
    if n.order_by:
        over.append("ORDER BY " + _columns(n.order_by))
    if n.frame == FRAME_PARTITION:
        over.append("ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING")
    elif n.order_by:
        over.append("RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW")
    window = f"{n.fn}({quote_ident(n.arg)}) OVER ({' '.join(over)})"
    return (f"SELECT {_columns(schema_of(n.child))}, {window} AS {quote_ident(n.out)}"
            f" FROM {source(n, 0)}")


#: each operator's SELECT block: ``step(node, source, aliases)``, where
#: ``source(node, i)`` is input i's FROM text and ``aliases[node, i]`` its alias
RENDER = PassTable("render", {
    Relation: lambda n, source, aliases: f"SELECT {_columns(n.attrs)} FROM {quote_ident(n.name)}",
    Select: lambda n, source, aliases: f"SELECT * FROM {source(n, 0)} WHERE {render_expr(n.cond)}",
    Project: _render_project,
    Product: _render_join,
    Union: _set_operation("UNION ALL"),
    Intersect: _set_operation("INTERSECT ALL"),
    Diff: _set_operation("EXCEPT ALL"),
    Agg: _render_agg,
    DupElim: lambda n, source, aliases: (
        f"SELECT DISTINCT {_columns(schema_of(n))} FROM {source(n, 0)}"),
    Window: _render_window,
}, error=lambda cls: SqlGenError(f"unknown operator {cls.__name__}"))


def to_sql(root: Node, *, materialized_keyword: bool = False) -> SqlUnit:
    """Render a graph to SQL; shared nodes and fences become CTEs."""
    parents = parent_map(root)
    order = all_nodes(root)
    cte_nodes = [n for n in order
                 if (len(parents[n]) > 1 and not isinstance(n, Relation))
                 or (isinstance(n, Project) and n.materialize and n is not root)]
    cte_names = {n: f"q{i}" for i, n in enumerate(cte_nodes)}

    # the binary operators' input aliases, numbered in reading order: a
    # stack walk through the CTE bodies and the main query, inputs first
    aliases: dict[tuple[Node, int], str] = {}
    stack = [(n, i) for n in reversed([*cte_nodes, root])
             for i in reversed(range(len(n.children)))]
    while stack:
        n, i = stack.pop()
        if len(n.children) == 2:
            aliases[n, i] = f"t{len(aliases) + 1}"
        c = n.children[i]
        if c not in cte_names:
            stack.extend((c, j) for j in reversed(range(len(c.children))))

    text: dict[Node, str] = {}

    def source(n: Node, i: int) -> str:
        """FROM rendering of input i, aliased when n is binary. An inline
        input has this one parent, so its text leaves the dict here."""
        c = n.children[i]
        if c in cte_names:
            sql = cte_names[c]
        elif isinstance(c, Relation):
            sql = quote_ident(c.name)
        else:
            sql = f"({text.pop(c)})"
        alias = aliases.get((n, i))
        return f"{sql} AS {alias}" if alias else sql

    for n in order:
        text[n] = RENDER(n, source, aliases)
    cte_defs = tuple((cte_names[n], text[n]) for n in cte_nodes)
    # the root has no parent and is never a fence, so it is never a CTE
    main = text[root] + ";\n"
    if not cte_defs:
        return SqlUnit(main)
    parts = []
    for (name, body), n in zip(cte_defs, cte_nodes):
        fence = isinstance(n, Project) and n.materialize
        hint = " /*MATERIALIZE*/" if fence else ""
        keyword = " MATERIALIZED" if fence and materialized_keyword else ""
        parts.append(f"{name} AS{keyword}{hint} (\n  {body}\n)")
    return SqlUnit("WITH " + ",\n".join(parts) + "\n" + main, cte_defs)
