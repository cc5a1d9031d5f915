"""Bag-semantics evaluator and cost model.

The evaluator is the correctness oracle for the rest of the package: each
operator implements its multiset definition directly, and it is the one
evaluator in the package (provenance comes from evaluating an instrumented
query, not from a second engine).

Each operator touches each input row a constant number of times and fills
its output row -> count dict directly, with no per-row bookkeeping: only a
projection and a union can produce one row twice and merge counts. Row
widths and counts are checked where rows enter the evaluator
(:meth:`BagRelation.add`, :meth:`BagRelation.from_rows`), not again by
every operator. An equi-join builds a dict on the right input's key values
and probes it with the left rows in order, so matches come out in
nested-loop order (left rows in order, their right matches in right order)
and bags, float sums above the join and printed output do not depend on the
join algorithm. A key with a null never matches, ``1`` matches ``1.0``, and
a key column whose non-null values on the two inputs span more than one
kind (boolean, numeric, other) raises :class:`EvalError` unless an input is
empty; the per-row null/NaN test runs only when a key column holds a value
of a type other than int, bool or str. A cross product is the equi-join on
no key columns.

Expressions run a column at a time (:func:`evaluate_exprs`): a selection,
a projection and each replayed UPDATE evaluate their expressions once over
the operator's whole input, computing every subexpression once as a list
of values, one per row, and most of them as one ``map`` of an
``operator`` function. Every type check of a row-at-a-time evaluation is
kept, and so is its first error: a batch that raises is run again one row
at a time. A projection of attributes only, a join key and a grouping key
are each one ``itemgetter`` call per row.

Evaluation and costing are each one loop over
:func:`~provopt.algebra.all_nodes`, children before parents: a node's
result goes into a dict that its parents read, so shared nodes run once
and a plan of any depth runs at the default recursion limit.

The cost model is a deterministic textbook estimator; it exists to give the
cost-based optimizer a total order over plans, not to predict real runtimes.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence, TypeVar

from .algebra import (
    Agg, Arith, Attr, BoolOp, Cmp, Cond, Const, Diff, DupElim, Expr,
    FRAME_PARTITION, Intersect, Node, Product, Project, Relation,
    Select, Union, Window, Value,
    all_nodes, expr_children, fold_expr, right_output_names, schema_of,
)


class EvalError(Exception):
    """Runtime evaluation failure: unbound relation, type error, etc."""


# ---------------------------------------------------------------------------
# bags


@dataclass
class BagRelation:
    """A multiset of equal-width tuples with strictly positive counts."""

    schema: tuple[str, ...]
    tuples: dict[tuple, int] = field(default_factory=dict)

    @classmethod
    def from_rows(cls, schema: Iterable[str], rows: Iterable[tuple]) -> "BagRelation":
        bag = cls(tuple(schema))
        for row in rows:
            bag.add(tuple(row))
        return bag

    def add(self, row: tuple, count: int = 1) -> None:
        if count <= 0:
            raise EvalError("multiplicities must be positive")
        if len(row) != len(self.schema):
            raise EvalError(f"row width {len(row)} does not match schema width {len(self.schema)}")
        self.tuples[row] = self.tuples.get(row, 0) + count

    def rows(self):
        """(tuple, multiplicity) pairs."""
        return self.tuples.items()

    @property
    def total(self) -> int:
        return sum(self.tuples.values())

    def renamed(self, schema: Iterable[str]) -> "BagRelation":
        schema = tuple(schema)
        if len(schema) != len(self.schema):
            raise EvalError("renaming must preserve arity")
        return BagRelation(schema, dict(self.tuples))

    def contains(self, other: "BagRelation") -> bool:
        """Bag containment: every tuple of `other` occurs here at least as often."""
        return all(self.tuples.get(t, 0) >= m for t, m in other.tuples.items())


def _columns(idx: Sequence[int]) -> Callable[[tuple], tuple]:
    """A function from a row to the tuple of its columns ``idx``: one
    ``itemgetter`` call, which also gives a 1-tuple for one column."""
    if len(idx) == 1:
        return itemgetter(slice(idx[0], idx[0] + 1))
    if idx:
        return itemgetter(*idx)
    return lambda row: ()


# ---------------------------------------------------------------------------
# expression evaluation
#
# Expressions run a column at a time over a batch of rows: every
# subexpression is computed once per batch, as the list of its values, one
# per row. An attribute is a column of the rows, read when first needed;
# arithmetic and a comparison are one ``map`` of the ``operator`` function
# once a scan of both columns' types finds only types that need no per-value
# check (numbers; for a comparison also one type throughout), and run value
# by value with the checks otherwise. A conditional evaluates its test, then
# each branch over the rows whose test chose it (a sub-batch), and merges
# the two columns back in row order; a branch that cannot raise (a constant,
# a bound attribute) runs over the whole batch instead. A subexpression
# shared within a batch is computed once. The evaluator is a loop over an
# explicit work list, so an expression of any depth runs at the default
# recursion limit.
#
# Errors are the row-at-a-time evaluator's: when a batch raises anything,
# it is run again one row at a time, in input order, on one-row batches, and
# the first row's error is raised. On one row the work list runs the
# subexpressions in the order a recursive evaluation would, so an unbound
# attribute raises only when read, a conditional evaluates only the branch
# it takes, and a boolean operator evaluates all of its arguments and then
# type-checks each one.


T = TypeVar("T")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


#: exact value types that arithmetic and comparison accept without a per-value check
_NUMBER_TYPES = frozenset((int, float))
_BOOL_TYPES = frozenset((bool,))
_NONE_TYPE = type(None)
#: value types whose comparison gives a boolean
_BUILTIN_TYPES = frozenset((int, float, str, bool, _NONE_TYPE))


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_CMP = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _kind(tp: type) -> str:
    """Values of different kinds (boolean, numeric, other) never compare."""
    if issubclass(tp, bool):
        return "boolean"
    return "numeric" if issubclass(tp, (int, float)) else "other"


def _check_comparable(lv: Value, rv: Value) -> None:
    lk, rk = _kind(type(lv)), _kind(type(rv))
    if lk != rk:
        what = "boolean with non-boolean" if "boolean" in (lk, rk) else "values of different types"
        raise EvalError(f"cannot compare {what} ({lv!r}, {rv!r})")


def _overflow(exc: OverflowError) -> EvalError:
    return EvalError(f"arithmetic overflow: {exc}")


def _arith_value(op: str, lv: Value, rv: Value) -> Value:
    if not (_is_number(lv) and _is_number(rv)):
        raise EvalError(f"arithmetic on non-numeric values {lv!r}, {rv!r}")
    if op == "/" and rv == 0:
        raise EvalError("division by zero")
    try:
        return _ARITH[op](lv, rv)
    except OverflowError as exc:
        raise _overflow(exc) from None


def _arith_column(op: str, left: Sequence, right: Sequence,
                  types: frozenset) -> tuple[list, Optional[frozenset]]:
    if types <= _NUMBER_TYPES and (op != "/" or 0 not in right):
        try:
            return list(map(_ARITH[op], left, right)), _NUMBER_TYPES
        except OverflowError as exc:
            raise _overflow(exc) from None
    return [_arith_value(op, lv, rv) for lv, rv in zip(left, right)], None


def _cmp_value(op: str, lv: Value, rv: Value) -> bool:
    if lv is None or rv is None:
        return op == "<>"  # null compares unequal to everything, including null
    if type(lv) is not type(rv):  # values of one type are always comparable
        _check_comparable(lv, rv)
    return _CMP[op](lv, rv)


def _cmp_column(op: str, left: Sequence, right: Sequence,
                types: frozenset) -> tuple[list, Optional[frozenset]]:
    # a comparison of built-in values gives a boolean
    out_types = _BOOL_TYPES if types <= _BUILTIN_TYPES else None
    if types <= _NUMBER_TYPES or (len(types) == 1 and _NONE_TYPE not in types):
        return list(map(_CMP[op], left, right)), out_types
    return [_cmp_value(op, lv, rv) for lv, rv in zip(left, right)], out_types


def _check_booleans(column: Sequence, types: frozenset, message: str) -> None:
    """Raise ``message`` with the first value of ``column`` that is not a
    boolean; ``types`` holds the types of its values, perhaps more."""
    if not types <= _BOOL_TYPES:
        for v in column:
            if v is not True and v is not False:
                raise EvalError(f"{message} {v!r}")


class _Batch:
    """Rows evaluated together: the value column of each subexpression
    computed over them (by id) and the columns of the rows themselves, both
    computed when first needed, and the types each column may hold (a
    superset of its values' types)."""

    __slots__ = ("rows", "columns", "values", "types")

    def __init__(self, rows: list[tuple]):
        self.rows = rows
        self.columns: dict[int, Sequence] = {}
        self.values: dict[int, Sequence] = {}
        #: id(column) -> (column, types); holding the column keeps its id unique
        self.types: dict[int, tuple[Sequence, frozenset]] = {}

    def read_columns(self) -> None:
        """Read every column of the rows in one transposition, which costs
        less than reading most of them one at a time."""
        self.columns.update(enumerate(zip(*self.rows)))

    def column(self, i: int) -> Sequence:
        col = self.columns.get(i)
        if col is None:
            col = self.columns[i] = list(map(itemgetter(i), self.rows))
        return col

    def types_of(self, column: Sequence) -> frozenset:
        known = self.types.get(id(column))
        if known is None:
            known = self.types[id(column)] = (column, frozenset(map(type, column)))
        return known[1]

    def put(self, x: Expr, column: Sequence, types: Optional[frozenset] = None) -> None:
        """Store ``x``'s column; ``types``, when given, holds its values' types."""
        self.values[id(x)] = column
        if types is not None:
            self.types[id(column)] = (column, types)

    def evaluate(self, exprs: Sequence[Expr], index: Mapping[str, int]) -> list[Sequence]:
        """The value column of each expression over the rows, whose
        attributes are at the columns ``index`` names; raises as soon as
        any row fails.

        One work list runs every batch: subexpressions are entered depth
        first, children in order, and each is computed once per batch; a
        conditional's test is computed before its branches are entered."""
        todo = [(e, self, _ENTER, None) for e in reversed(exprs)]
        while todo:
            x, batch, stage, parts = todo.pop()
            if stage == _ENTER:
                if id(x) in batch.values:
                    continue
                if isinstance(x, Attr):
                    if x.name in index:
                        batch.put(x, batch.column(index[x.name]))
                    elif batch.rows:
                        raise EvalError(f"unbound attribute {x.name!r}")
                    else:
                        batch.put(x, [])
                elif isinstance(x, Const):
                    batch.put(x, [x.value] * len(batch.rows), frozenset((type(x.value),)))
                elif isinstance(x, Cond):
                    todo.append((x, batch, _SPLIT, None))
                    todo.append((x.pred, batch, _ENTER, None))
                else:
                    kids = expr_children(x)  # raises on a non-expression
                    todo.append((x, batch, _COMBINE, None))
                    todo.extend([(k, batch, _ENTER, None) for k in reversed(kids)])
            elif stage == _COMBINE:
                batch.put(x, *batch._combine(x))
            elif stage == _SPLIT:
                test = batch.values[id(x.pred)]
                _check_booleans(test, batch.types_of(test), "conditional test is not boolean:")
                taken = test.count(True)
                parts = (batch._branch(x.if_true, test, True, taken, index),
                         batch._branch(x.if_false, test, False, len(test) - taken, index))
                todo.append((x, batch, _MERGE, parts))
                for branch, sub in ((x.if_false, parts[1]), (x.if_true, parts[0])):
                    if sub is not None:
                        todo.append((branch, sub, _ENTER, None))
            else:
                batch._merge(x, parts)
        return [self.values[id(e)] for e in exprs]

    def _combine(self, x: Expr) -> tuple[list, Optional[frozenset]]:
        """An operator's column from its arguments' columns, and its types."""
        if isinstance(x, BoolOp):
            args = [self.values[id(a)] for a in x.args]
            for column in args:
                _check_booleans(column, self.types_of(column),
                                "boolean operator over non-boolean value")
            if x.op == "not":
                return list(map(operator.not_, args[0])), _BOOL_TYPES
            return list(map(all if x.op == "and" else any, zip(*args))), _BOOL_TYPES
        left, right = self.values[id(x.left)], self.values[id(x.right)]
        types = self.types_of(left) | self.types_of(right)
        if isinstance(x, Arith):
            return _arith_column(x.op, left, right, types)
        return _cmp_column(x.op, left, right, types)

    def _branch(self, branch: Expr, test: Sequence, side: bool, taken: int,
                index: Mapping[str, int]) -> Optional["_Batch"]:
        """The batch a conditional's branch runs over: this batch when every
        row takes the branch (an empty batch takes both) or it cannot raise
        (a constant or a bound attribute); none when no row takes it; else
        a sub-batch of the rows that take it, which lives until the
        conditional's column is merged, so memory stays bounded by the
        conditionals being evaluated at once."""
        if taken == len(test):
            return self
        if not taken:
            return None
        if isinstance(branch, Const) or (isinstance(branch, Attr) and branch.name in index):
            return self
        return _Batch(list(compress(self.rows, test if side else map(operator.not_, test))))

    def _merge(self, x: Cond, parts: tuple) -> None:
        """A conditional's column from its branches' columns, in row order."""
        test = self.values[id(x.pred)]
        on_true, on_false = parts
        if on_false is None or on_true is None:
            sub, branch = (on_true, x.if_true) if on_false is None else (on_false, x.if_false)
            column = sub.values[id(branch)]
            self.put(x, column, sub.types_of(column))
            return
        if_true, if_false = on_true.values[id(x.if_true)], on_false.values[id(x.if_false)]
        types = on_true.types_of(if_true) | on_false.types_of(if_false)
        if on_true is not self and on_false is not self:
            picks = (iter(if_false), iter(if_true))
            self.put(x, list(map(next, map(picks.__getitem__, test))), types)
            return
        # copy a branch computed over the whole batch, then write the rows
        # the other branch took over it
        if on_false is self:
            out, other, sub, chosen = list(if_false), if_true, on_true, test
        else:
            out, other, sub = list(if_true), if_false, on_false
            chosen = list(map(operator.not_, test))
        if sub is self:
            other = compress(other, chosen)
        for i, v in zip(compress(range(len(out)), chosen), other):
            out[i] = v
        self.put(x, out, types)


# work-list stages of a subexpression
_ENTER, _COMBINE, _SPLIT, _MERGE = range(4)


def _index(schema: Sequence[str]) -> dict[str, int]:
    """Attribute name -> column; a repeated name resolves to its last
    column, as a name -> value environment built from a row would."""
    return {a: i for i, a in enumerate(schema)}


def _mask(cond: Expr, index: Mapping[str, int], rows: list[tuple]) -> Sequence[bool]:
    batch = _Batch(rows)
    column = batch.evaluate((cond,), index)[0]
    _check_booleans(column, batch.types_of(column), "selection condition evaluated to non-boolean")
    return column


def _projected(exprs: Sequence[Expr], index: Mapping[str, int],
               rows: list[tuple]) -> list[tuple]:
    """The tuple of the expressions' values for each row. A list of bound
    attributes only is one ``itemgetter`` call per row."""
    if exprs and all(isinstance(e, Attr) and e.name in index for e in exprs):
        return list(map(_columns([index[e.name] for e in exprs]), rows))
    batch = _Batch(rows)
    batch.read_columns()
    columns = batch.evaluate(exprs, index)
    return list(zip(*columns)) if columns else [()] * len(rows)


def _first_row_error(run: Callable[[list[tuple]], T], rows: list[tuple]) -> T:
    """``run(rows)``; when that raises, the error ``run`` raises on the
    first row, in order, that fails on its own."""
    try:
        return run(rows)
    except Exception as exc:
        if len(rows) <= 1:
            raise
        failure = exc
    for row in rows:
        run([row])
    raise failure


def evaluate_exprs(exprs: Sequence[Expr], schema: Sequence[str], rows: list[tuple]) -> list[list]:
    """The value column of each expression over rows of ``schema``: one list
    per expression, one value per row. Raises what evaluating the rows one
    at a time, in order, would raise first."""
    index = _index(schema)
    return _first_row_error(lambda batch: _Batch(batch).evaluate(exprs, index), rows)


def selection_mask(cond: Expr, schema: Sequence[str], rows: list[tuple]) -> Sequence[bool]:
    """Whether each row of ``schema`` satisfies a selection condition; a
    non-boolean value raises."""
    index = _index(schema)
    return _first_row_error(lambda batch: _mask(cond, index, batch), rows)


def projected_rows(exprs: Sequence[Expr], schema: Sequence[str],
                   rows: list[tuple]) -> list[tuple]:
    """The tuple of the expressions' values for each row of ``schema``."""
    index = _index(schema)
    return _first_row_error(lambda batch: _projected(exprs, index, batch), rows)


def updated_rows(cond: Expr, exprs: Sequence[Expr], schema: Sequence[str],
                 rows: list[tuple]) -> tuple[list[tuple], list[tuple]]:
    """The rows of ``schema`` that satisfy ``cond``, in order, and the tuple
    of the expressions' values for each of them. Raises what evaluating the
    rows one at a time, in order, would raise first: each row's condition,
    then, if it holds, its expressions."""
    index = _index(schema)

    def run(batch):
        matched = list(compress(batch, _mask(cond, index, batch)))
        return matched, _projected(exprs, index, matched)
    return _first_row_error(run, rows)


def aggregate(fn: str, values: list[tuple[Value, int]]) -> Value:
    """Apply an aggregation function to a weighted multiset of values.

    count of an empty multiset is 0; the other functions raise, since the
    evaluator never produces empty groups.
    """
    n = sum(m for _, m in values)
    if fn == "count":
        return n
    if n == 0:
        raise EvalError(f"{fn} over an empty group")
    if fn in ("sum", "avg"):
        total = 0
        try:
            for v, m in values:
                if not _is_number(v):
                    raise EvalError(f"sum over non-numeric value {v!r}")
                total += v * m
            return total if fn == "sum" else total / n
        except OverflowError as exc:
            raise EvalError(f"{fn} overflow: {exc}") from None
    flat = [v for v, _ in values]
    try:
        return min(flat) if fn == "min" else max(flat)
    except TypeError as exc:
        raise EvalError(f"{fn} over incomparable values") from exc


# ---------------------------------------------------------------------------
# equi-join


#: the row of a (row, payload) item
_ROW = itemgetter(0)
#: types whose every value equals itself, so a key of them needs no null/NaN test
_REFLEXIVE = frozenset((int, bool, str))


def _equi_matches(left: Collection[tuple[tuple, object]], right: Collection[tuple[tuple, object]],
                  li: Sequence[int], ri: Sequence[int]) -> Iterable[tuple]:
    """The (left item, right item) pairs whose rows agree on the key columns.

    Items are (row, payload) pairs; column ``li[k]`` of a left row is
    compared with column ``ri[k]`` of a right row. A dict on the right
    rows' keys is probed with the left rows, so pairs come out in the
    nested loop's order: left order, then right order within each left row.
    A key with a null (or NaN) never matches, and ``1`` matches ``1.0``.
    A key column whose non-null values on the two inputs, taken together,
    are of more than one kind (boolean, numeric, other) raises, when both
    inputs have such values. That is what comparing every pair would do for
    the first column; for later columns it is stricter, since a pairwise
    comparison reaches them only after the earlier columns matched. An
    empty input never raises.

    Keys are read with one ``itemgetter`` call per row. The per-row
    null/NaN test runs only when the per-column type scan finds a value
    whose type is not one that always equals itself (int, bool, str): a
    null, a float or anything else.
    """
    if not left or not right:
        return ()
    screen = False
    for i, j in zip(li, ri):
        lt = set(map(type, map(itemgetter(i), map(_ROW, left))))
        rt = set(map(type, map(itemgetter(j), map(_ROW, right))))
        screen = screen or not (lt | rt) <= _REFLEXIVE
        lt.discard(type(None))
        rt.discard(type(None))
        if lt and rt and len({_kind(tp) for tp in lt | rt}) > 1:
            raise EvalError("cannot compare join key values of different kinds: "
                            + ", ".join(sorted(tp.__name__ for tp in lt | rt)))
    lkey, rkey = _columns(li), _columns(ri)
    if screen:
        left = [item for item in left if _matchable(lkey(item[0]))]
        right = [item for item in right if _matchable(rkey(item[0]))]
    table: dict[tuple, list] = {}
    for item in right:
        table.setdefault(rkey(item[0]), []).append(item)
    return [(item, other) for item in left for other in table.get(lkey(item[0]), ())]


def _matchable(key: tuple) -> bool:
    # NaN is the one value unequal to itself
    return None not in key and all(v == v for v in key)


# ---------------------------------------------------------------------------
# plain evaluation


def evaluate(root: Node, db: Mapping[str, BagRelation]) -> BagRelation:
    """Evaluate a graph over named base relations; shared nodes run once.

    Each operator builds its output row -> count dict directly and wraps it
    once; only Project and Union can produce one row twice and merge
    counts. Rows enter through :class:`BagRelation` (``from_rows``,
    ``add``), which checks their width and counts, so no operator checks
    them again."""
    memo: dict[Node, BagRelation] = {}

    def compute(n: Node) -> dict[tuple, int]:
        if isinstance(n, Relation):
            if n.name not in db:
                raise EvalError(f"unbound relation {n.name!r}")
            rel = db[n.name]
            if len(rel.schema) != len(n.attrs):
                raise EvalError(f"relation {n.name!r} bound with wrong arity")
            return dict(rel.tuples)
        if isinstance(n, Select):
            child = memo[n.child]
            keep = selection_mask(n.cond, child.schema, list(child.tuples))
            return dict(compress(child.tuples.items(), keep))
        if isinstance(n, Project):
            child = memo[n.child]
            new = projected_rows([e for e, _ in n.targets], child.schema, list(child.tuples))
            rows = list(zip(new, child.tuples.values()))
            out = dict(rows)
            # a projection that keeps a key of its input merges no rows
            return out if len(out) == len(rows) else _merged(rows, {})
        if isinstance(n, Product):
            left, right = memo[n.left], memo[n.right]
            li = [left.schema.index(a) for a, _ in n.pairs]
            ri = [right.schema.index(b) for _, b in n.pairs]
            return {lt + rt: lm * rm
                    for (lt, lm), (rt, rm) in _equi_matches(left.rows(), right.rows(), li, ri)}
        if isinstance(n, Union):
            return _merged(memo[n.right].tuples.items(), dict(memo[n.left].tuples))
        if isinstance(n, Intersect):
            other = memo[n.right].tuples
            return {t: min(m, other[t]) for t, m in memo[n.left].tuples.items() if t in other}
        if isinstance(n, Diff):
            other = memo[n.right].tuples.get
            return {t: rest for t, m in memo[n.left].tuples.items()
                    if (rest := m - other(t, 0)) > 0}
        if isinstance(n, Agg):
            child = memo[n.child]
            key = _columns([child.schema.index(a) for a in n.group_by])
            args = [child.schema.index(a) for _, a, _ in n.aggs]
            groups: dict[tuple, list[tuple[tuple, int]]] = {}
            for item in child.tuples.items():
                groups.setdefault(key(item[0]), []).append(item)
            return {k + tuple(aggregate(fn, [(t[ai], m) for t, m in members])
                              for (fn, _, _), ai in zip(n.aggs, args)): 1
                    for k, members in groups.items()}
        if isinstance(n, DupElim):
            return dict.fromkeys(memo[n.child].tuples, 1)
        if isinstance(n, Window):
            return _window(n, memo[n.child])
        raise EvalError(f"unknown operator {type(n).__name__}")

    for n in all_nodes(root):
        memo[n] = BagRelation(schema_of(n), compute(n))
    return memo[root]


def _merged(items: Iterable[tuple[tuple, int]], out: dict[tuple, int]) -> dict[tuple, int]:
    """``out`` with each (row, count) added to it."""
    get = out.get
    for t, m in items:
        out[t] = get(t, 0) + m
    return out


def _window(n: Window, child: BagRelation) -> dict[tuple, int]:
    """Window aggregate over each row's frame within its partition.

    The whole-partition frame is aggregated once per partition. The running
    frame (members ordered at or before the row, ties included) is
    aggregated afresh for every row, O(n^2) per partition: a running total
    would add floats in another order than the per-row sum, and the
    evaluator, being the oracle, must stay exact.
    """
    part = _columns([child.schema.index(a) for a in n.partition_by])
    oi = [child.schema.index(a) for a in n.order_by]
    ai = child.schema.index(n.arg)
    parts: dict[tuple, list[tuple[tuple, int]]] = {}
    for item in child.tuples.items():
        parts.setdefault(part(item[0]), []).append(item)
    out: dict[tuple, int] = {}
    whole = n.frame == FRAME_PARTITION or not oi
    for members in parts.values():
        if whole:
            val = aggregate(n.fn, [(u[ai], um) for u, um in members])
        for t, m in members:
            if not whole:
                key = _order_key(t, oi)
                window = [(u, um) for u, um in members if _order_key(u, oi) <= key]
                val = aggregate(n.fn, [(u[ai], um) for u, um in window])
            out[t + (val,)] = m
    return out


def _order_key(t: tuple, oi: list[int]) -> tuple:
    key = tuple(t[i] for i in oi)
    for v in key:
        if v is None:
            raise EvalError("null in window ordering")
    return key


# ---------------------------------------------------------------------------
# cost model


#: per-input-row processing weight
CPU_WEIGHT = 1.0
#: per-output-row construction weight
BUILD_WEIGHT = 2.0
#: selectivity assumed for non-equality predicates
RANGE_SELECTIVITY = 1.0 / 3.0


@dataclass
class TableStats:
    rows: float
    distinct: dict[str, float]


@dataclass
class CostEstimate:
    total: float
    per_node: dict[Node, tuple[float, float]]  # node -> (est rows, cost)


def _sort_term(rows: float) -> float:
    return rows * math.log2(rows + 1.0)


def cost(root: Node, stats: Mapping[str, TableStats]) -> CostEstimate:
    """Deterministic bottom-up cost estimate; shared nodes are charged once."""
    info: dict[Node, tuple[float, dict[str, float]]] = {}
    per_node: dict[Node, tuple[float, float]] = {}

    def distinct_of(d: Mapping[str, float], attr: str, rows: float) -> float:
        return max(1.0, min(d.get(attr, rows), rows))

    def selectivity(cond: Expr, d: Mapping[str, float], rows: float) -> float:
        def step(x: Expr, kids: tuple[float, ...]) -> float:
            if isinstance(x, BoolOp):
                if x.op == "and":
                    return math.prod(kids)
                if x.op == "or":
                    return 1.0 - math.prod(1.0 - s for s in kids)
                return max(0.0, 1.0 - kids[0])
            if isinstance(x, Cmp) and x.op == "=":
                attrs = [s.name for s in (x.left, x.right) if isinstance(s, Attr)]
                if len(attrs) == 2:
                    return 1.0 / max(distinct_of(d, attrs[0], rows), distinct_of(d, attrs[1], rows))
                if len(attrs) == 1:
                    return 1.0 / distinct_of(d, attrs[0], rows)
                return RANGE_SELECTIVITY
            if isinstance(x, Const) and x.value is True:
                return 1.0
            return RANGE_SELECTIVITY

        return fold_expr((cond,), step)[0]

    def cap(d: Mapping[str, float], rows: float) -> dict[str, float]:
        return {a: max(1.0, min(v, rows)) for a, v in d.items()}

    def compute(n: Node) -> tuple[float, dict[str, float], float]:
        sch = schema_of(n)
        if isinstance(n, Relation):
            if n.name not in stats:
                raise EvalError(f"missing statistics for relation {n.name!r}")
            st = stats[n.name]
            d = {a: st.distinct.get(a, st.rows) for a in n.attrs}
            return st.rows, cap(d, st.rows), CPU_WEIGHT * st.rows
        if isinstance(n, Select):
            in_rows, d = info[n.child]
            est = in_rows * selectivity(n.cond, d, in_rows)
            return est, cap(d, est), CPU_WEIGHT * in_rows + BUILD_WEIGHT * est
        if isinstance(n, Project):
            in_rows, d = info[n.child]
            out = {}
            for e, name in n.targets:
                out[name] = d.get(e.name, in_rows) if isinstance(e, Attr) else in_rows
            return in_rows, cap(out, in_rows), CPU_WEIGHT * in_rows + BUILD_WEIGHT * in_rows
        if isinstance(n, Product):
            lr, ld = info[n.left]
            rr, rd = info[n.right]
            d = dict(ld)
            for orig, out_name in zip(schema_of(n.right), right_output_names(n)):
                d[out_name] = rd.get(orig, rr)
            est = lr * rr
            for a, b in n.pairs:
                est /= max(distinct_of(ld, a, lr), distinct_of(rd, b, rr))
            return est, cap(d, est), CPU_WEIGHT * (lr + rr) + BUILD_WEIGHT * est
        if isinstance(n, Union):
            lr, ld = info[n.left]
            rr, rd = info[n.right]
            est = lr + rr
            d = {a: ld.get(a, lr) + rd.get(b, rr)
                 for a, b in zip(schema_of(n.left), schema_of(n.right))}
            return est, cap(d, est), CPU_WEIGHT * (lr + rr) + BUILD_WEIGHT * est
        if isinstance(n, Intersect):
            lr, ld = info[n.left]
            rr, _ = info[n.right]
            est = min(lr, rr)
            return est, cap(ld, est), CPU_WEIGHT * (lr + rr) + BUILD_WEIGHT * est
        if isinstance(n, Diff):
            lr, ld = info[n.left]
            rr, _ = info[n.right]
            est = lr
            return est, cap(ld, est), CPU_WEIGHT * (lr + rr) + BUILD_WEIGHT * est
        if isinstance(n, Agg):
            in_rows, d = info[n.child]
            groups = 1.0
            for a in n.group_by:
                groups *= distinct_of(d, a, in_rows)
            est = min(in_rows, groups) if n.group_by else min(in_rows, 1.0)
            out = {a: distinct_of(d, a, est) for a in n.group_by}
            for _, _, name in n.aggs:
                out[name] = est
            own = CPU_WEIGHT * in_rows + BUILD_WEIGHT * est + _sort_term(in_rows)
            return est, cap(out, est), own
        if isinstance(n, DupElim):
            in_rows, d = info[n.child]
            groups = 1.0
            for a in schema_of(n.child):
                groups *= distinct_of(d, a, in_rows)
            est = min(in_rows, groups)
            return est, cap(d, est), CPU_WEIGHT * in_rows + BUILD_WEIGHT * est
        if isinstance(n, Window):
            in_rows, d = info[n.child]
            out = dict(d)
            out[n.out] = in_rows
            own = CPU_WEIGHT * in_rows + BUILD_WEIGHT * in_rows + _sort_term(in_rows)
            return in_rows, cap(out, in_rows), own
        raise EvalError(f"unknown operator {type(n).__name__}")

    for n in all_nodes(root):
        est, d, own = compute(n)
        info[n] = (est, d)
        per_node[n] = (est, own)
    total = sum(c for _, c in per_node.values())
    return CostEstimate(total, per_node)
