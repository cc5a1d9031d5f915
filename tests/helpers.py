"""Helpers that only tests use: one-row and row-list wrappers around the
executor's column-at-a-time expression evaluation, bag equality up to column
order, plan comparison with a short failure report, and counts over plans
and expressions."""
from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from provopt.algebra import (
    Attr, Expr, Node, Value, all_nodes, expr_children, fold_expr, schema_of, structurally_equal,
)
from provopt.executor import BagRelation, EvalError, evaluate_exprs, selection_mask


def bags_equal(a: BagRelation, b: BagRelation, *, by_name: bool = False) -> bool:
    """Multiset equality; with by_name, reorder columns by attribute name."""
    if by_name:
        if set(a.schema) != set(b.schema) or len(a.schema) != len(b.schema):
            return False
        b = reorder_columns(b, a.schema)
    return a.schema == b.schema and a.tuples == b.tuples


def reorder_columns(bag: BagRelation, schema: Iterable[str]) -> BagRelation:
    """Project a bag onto the same columns in a different order."""
    schema = tuple(schema)
    if set(schema) != set(bag.schema) or len(schema) != len(bag.schema):
        raise EvalError("reorder_columns needs a permutation of the schema")
    idx = [bag.schema.index(col) for col in schema]
    return BagRelation(schema, {tuple(t[i] for i in idx): m for t, m in bag.tuples.items()})


def _check_exprs(exprs: Iterable[Expr]) -> None:
    """Raise on a non-expression anywhere in ``exprs``, before any row is read."""
    fold_expr(exprs, lambda x, kids: None)


def compile_expr(e: Expr, schema: Sequence[str]) -> Callable[[tuple], Value]:
    """The expression as a function of one row of ``schema``."""
    _check_exprs((e,))
    return lambda row: evaluate_exprs((e,), schema, [row])[0][0]


def projected_rows(exprs: Sequence[Expr], schema: Sequence[str],
                   rows: list[tuple]) -> list[tuple]:
    """The tuple of the expressions' values for each row of ``schema``."""
    columns = evaluate_exprs(exprs, schema, rows)
    return list(zip(*columns)) if columns else [()] * len(rows)


def compile_row(exprs: Iterable[Expr], schema: Sequence[str]) -> Callable[[tuple], tuple]:
    """A function from a row of ``schema`` to the tuple of the expressions'
    values; subexpressions shared between them are computed once per row."""
    exprs = tuple(exprs)
    _check_exprs(exprs)
    return lambda row: projected_rows(exprs, schema, [row])[0]


def compile_predicate(cond: Expr, schema: Sequence[str]) -> Callable[[tuple], bool]:
    """A selection condition over rows of ``schema``; a non-boolean value raises."""
    _check_exprs((cond,))
    return lambda row: selection_mask(cond, schema, [row])[0]


def eval_expr(e: Expr, env: Mapping[str, Value]) -> Value:
    """Evaluate one expression over an attribute -> value environment."""
    return compile_expr(e, tuple(env))(tuple(env.values()))


def _predicate(cond: Expr, env: Mapping[str, Value]) -> bool:
    """Evaluate one selection condition over an environment."""
    return compile_predicate(cond, tuple(env))(tuple(env.values()))


def plan_summary(root: Node) -> str:
    """A plan's node count per operator and its root schema: text that grows
    with the graph, where the repr of a shared graph grows with its tree."""
    counts = Counter(type(n).__name__ for n in all_nodes(root))
    return f"{dict(sorted(counts.items()))} -> {schema_of(root)}"


def assert_same_plan(got: Node, want: Node, note: object = "") -> None:
    """Assert that two plans are structurally equal. A failure reports each
    plan's :func:`plan_summary`, never the plans: pytest would print both
    reprs, which on a merged reenactment stack are exponential."""
    same = structurally_equal(got, want)
    assert same, f"plans differ: got {plan_summary(got)}, want {plan_summary(want)} {note}"


def node_count(root: Node) -> int:
    return len(all_nodes(root))


def expr_nodes(e: Expr) -> Iterator[Expr]:
    """Every node of an expression tree, a shared subexpression once per
    reference. Iterative, so any depth is walked at any recursion limit."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(expr_children(x))


def expr_size(e: Expr) -> int:
    """Node count of an expression tree, kept on the expression."""
    return e.size


def count_attr_refs(e: Expr, name: str) -> int:
    return sum(isinstance(x, Attr) and x.name == name for x in expr_nodes(e))
