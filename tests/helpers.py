"""Helpers that only tests use: one-row wrappers around the executor's
column-at-a-time expression evaluation, bag equality up to column order,
and counts over plans and expressions."""
from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from provopt.algebra import Attr, Expr, Node, Value, all_nodes, expr_nodes, fold_expr
from provopt.executor import (BagRelation, EvalError, evaluate_exprs, projected_rows,
                              selection_mask)


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


def node_count(root: Node) -> int:
    return len(all_nodes(root))


def count_attr_refs(e: Expr, name: str) -> int:
    return sum(isinstance(x, Attr) and x.name == name for x in expr_nodes(e))
