"""Bag-semantics evaluator and cost model.

The evaluator is the correctness oracle for the rest of the package: each
operator implements its multiset definition directly, and it is the one
evaluator in the package (provenance comes from evaluating an instrumented
query, not from a second engine).

Each operator touches each input row a constant number of times and fills
its output row -> count dict directly, with no per-row bookkeeping: only a
projection and a union can produce one row twice and merge counts. The
exception is a chain of projections: a projection whose one reader is a
projection hands it its value columns and row counts, unmerged, and only the
chain's top builds rows and merges counts (see :func:`evaluate`). A join
whose one reader is a projection of attributes only fills no dict of its
own: the projection picks each of its rows from the join's pair of input
rows, hashes and stores it once, and merges counts only when it drops a
join column. Row widths and counts are checked where rows enter the
evaluator (:meth:`BagRelation.add`, :meth:`BagRelation.from_rows`), not
again by every operator. An equi-join builds a dict on the right input's key values
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
a projection and each replayed UPDATE evaluate their expressions in one
pass over the operator's whole input, computing every subexpression once
as a list of values, one per row, and most of them as one ``map`` of an
``operator`` function. A conditional computes both of its branches over
every row. Errors are values: a row that fails holds its error where its
value would be, so every type check of a row-at-a-time evaluation is kept,
and the first row's error, in row order, is the one raised. A projection
of attributes only, a join key and a grouping key are each one
``itemgetter`` call per row.

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
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .algebra import (
    Agg, Arith, Attr, BoolOp, Cmp, Cond, Const, Diff, DupElim, Expr,
    FRAME_PARTITION, Intersect, Node, Product, Project, Relation,
    Select, Union, Window, Value,
    all_nodes, fold_expr, schema_of, shared_table,
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


def columns_getter(idx: Sequence[int]) -> Callable[[tuple], tuple]:
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
# subexpression is computed once per batch, over every row, as the list of
# its values, one per row. The batch is one :func:`~provopt.algebra.fold_expr`
# over the expressions, so a subexpression shared within or across them is
# computed once and an expression of any depth runs at the default recursion
# limit. An attribute is a column of the rows, read when first needed;
# arithmetic and a comparison are one ``map`` of the ``operator`` function
# once a scan of both columns' types finds only types that need no per-value
# check (numbers; for a comparison also one type throughout, neither null nor
# an error), and run value by value with the checks otherwise. A conditional
# computes its test and both of its branches over every row, copies the
# false branch's column and writes over it the rows whose test is true.
#
# Errors are values: a row that fails holds its :class:`EvalError` where its
# value would be. Every operator passes on its first failing operand, in the
# order a row-at-a-time evaluation computes them, so each row holds the error
# that evaluation would raise first. An unbound attribute fails only the rows
# that read it; a conditional fails a row only when its test fails, or is not
# boolean, or the branch the row takes fails; a boolean operator passes on
# an argument's error before it type-checks its arguments. The entry points
# raise the error of the first row, in row order, that fails.


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


#: exact value types that arithmetic and comparison accept without a per-value check
_NUMBER_TYPES = frozenset((int, float))
_BOOL_TYPES = frozenset((bool,))
_NONE_TYPE = type(None)
#: the type of a failed row's value
_ERROR_TYPES = frozenset((EvalError,))
#: value types whose comparison gives a boolean
_BUILTIN_TYPES = frozenset((int, float, str, bool, _NONE_TYPE))
#: value types whose values may equal another type's (``True == 1 == 1.0``)
_CROSS_EQUAL_TYPES = frozenset((int, float, bool))


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_CMP = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _kind(tp: type) -> str:
    """Values of different kinds (boolean, numeric, other) never compare."""
    if issubclass(tp, bool):
        return "boolean"
    return "numeric" if issubclass(tp, (int, float)) else "other"


def _not_boolean(v, message: str) -> EvalError:
    """The error of a value that should be a boolean: its own, if it is one."""
    return v if type(v) is EvalError else EvalError(f"{message} {v!r}")


def _arith_value(op: str, lv, rv):
    if not (_is_number(lv) and _is_number(rv)):
        for v in (lv, rv):
            if type(v) is EvalError:
                return v
        return EvalError(f"arithmetic on non-numeric values {lv!r}, {rv!r}")
    if op == "/" and rv == 0:
        return EvalError("division by zero")
    try:
        return _ARITH[op](lv, rv)
    except OverflowError as exc:
        return EvalError(f"arithmetic overflow: {exc}")


def _arith_column(op: str, left: Sequence, right: Sequence,
                  ltypes: frozenset, rtypes: frozenset) -> tuple[list, frozenset]:
    if ltypes | rtypes <= _NUMBER_TYPES and (op != "/" or 0 not in right):
        try:
            out = list(map(_ARITH[op], left, right))
        except OverflowError:
            pass  # the rows that overflow fail one by one below
        else:
            # two ints give an int but for a quotient; a float gives a float
            ints = op != "/" and int in ltypes and int in rtypes
            floats = op == "/" or float in ltypes or float in rtypes
            return out, frozenset((int,) * ints + (float,) * floats)
    out = [_arith_value(op, lv, rv) for lv, rv in zip(left, right)]
    return out, frozenset(map(type, out))


def _cmp_value(op: str, lv, rv):
    for v in (lv, rv):
        if type(v) is EvalError:
            return v
    if lv is None or rv is None:
        return op == "<>"  # null compares unequal to everything, including null
    if type(lv) is not type(rv):  # values of one type are always comparable
        lk, rk = _kind(type(lv)), _kind(type(rv))
        if lk != rk:
            what = "boolean with non-boolean" if "boolean" in (lk, rk) else "values of different types"
            return EvalError(f"cannot compare {what} ({lv!r}, {rv!r})")
    return _CMP[op](lv, rv)


def _cmp_column(op: str, left: Sequence, right: Sequence,
                types: frozenset) -> tuple[list, frozenset]:
    if types <= _NUMBER_TYPES or (len(types) == 1 and types.isdisjoint((_NONE_TYPE, EvalError))):
        out = list(map(_CMP[op], left, right))
        # a comparison of built-in values gives a boolean
        return out, _BOOL_TYPES if types <= _BUILTIN_TYPES else frozenset(map(type, out))
    out = [_cmp_value(op, lv, rv) for lv, rv in zip(left, right)]
    return out, frozenset(map(type, out))


def _bool_value(op: str, args: tuple):
    for v in args:
        if type(v) is EvalError:
            return v
    for v in args:
        if v is not True and v is not False:
            return EvalError(f"boolean operator over non-boolean value {v!r}")
    if op == "not":
        return not args[0]
    return all(args) if op == "and" else any(args)


class _Batch:
    """Rows evaluated together: their columns, read when first needed, and
    the types each column may hold (a superset of its values' types),
    recorded for every computed column and, for a column of the rows read
    one at a time, taken from ``column_types`` when given (a superset for
    each column of the rows) or else scanned when first needed. Only a
    computed column can hold an error. A batch may also be built from its
    columns alone (:meth:`of_columns`)."""

    __slots__ = ("rows", "size", "columns", "types", "column_types")

    def __init__(self, rows: list[tuple], column_types: Optional[Sequence[frozenset]] = None):
        self.rows = rows
        self.size = len(rows)
        self.columns: dict[int, Sequence] = {}
        #: id(column) -> (column, types); holding the column keeps its id unique
        self.types: dict[int, tuple[Sequence, frozenset]] = {}
        self.column_types = column_types

    @classmethod
    def of_columns(cls, columns: Sequence[Sequence],
                   types: Mapping[int, tuple[Sequence, frozenset]], size: int) -> "_Batch":
        """A batch of ``size`` rows given as every one of their columns, in
        order, with the types ``types`` records for each of them."""
        batch = cls([])
        batch.size = size
        batch.columns = dict(enumerate(columns))
        batch.types = {id(c): types[id(c)] for c in columns}
        return batch

    def read_columns(self) -> None:
        """Read every column of the rows in one transposition, which costs
        less than reading most of them one at a time."""
        self.columns.update(enumerate(zip(*self.rows)))

    def column(self, i: int) -> Sequence:
        col = self.columns.get(i)
        if col is None:
            col = self.columns[i] = list(map(itemgetter(i), self.rows))
            if self.column_types is not None:
                self.types[id(col)] = (col, self.column_types[i])
        return col

    def types_of(self, column: Sequence) -> frozenset:
        known = self.types.get(id(column))
        if known is None:
            known = self.types[id(column)] = (column, frozenset(map(type, column)))
        return known[1]

    def evaluate(self, exprs: Sequence[Expr], index: Mapping[str, int]) -> list[Sequence]:
        """The value column of each expression over the rows, whose
        attributes are at the columns ``index`` names."""
        def step(x: Expr, kids: tuple) -> Sequence:
            if isinstance(x, Attr) and x.name in index:
                return self.column(index[x.name])
            column, types = self._compute(x, kids)
            self.types[id(column)] = (column, types)
            return column
        return fold_expr(exprs, step)

    def _compute(self, x: Expr, kids: tuple) -> tuple[Sequence, frozenset]:
        """A computed column from its arguments' columns, and its types."""
        if isinstance(x, Attr):
            return [EvalError(f"unbound attribute {x.name!r}")] * self.size, _ERROR_TYPES
        if isinstance(x, Const):
            return [x.value] * self.size, frozenset((type(x.value),))
        if isinstance(x, Cond):
            return self._cond(*kids)
        if isinstance(x, BoolOp):
            if all(self.types_of(a) <= _BOOL_TYPES for a in kids):
                if x.op == "not":
                    return list(map(operator.not_, kids[0])), _BOOL_TYPES
                return list(map(all if x.op == "and" else any, zip(*kids))), _BOOL_TYPES
            out = [_bool_value(x.op, args) for args in zip(*kids)]
            return out, frozenset(map(type, out))
        left, right = kids
        ltypes, rtypes = self.types_of(left), self.types_of(right)
        if isinstance(x, Arith):
            return _arith_column(x.op, left, right, ltypes, rtypes)
        return _cmp_column(x.op, left, right, ltypes | rtypes)

    def _cond(self, test: Sequence, if_true: Sequence,
              if_false: Sequence) -> tuple[Sequence, frozenset]:
        """A conditional's column: each row's value from the branch its test
        chose, or the test's error."""
        boolean = self.types_of(test) <= _BOOL_TYPES
        if boolean:
            taken = test.count(True)
            if taken == len(test):
                return if_true, self.types_of(if_true)
            if not taken:
                return if_false, self.types_of(if_false)
        types = self.types_of(if_true) | self.types_of(if_false)
        out = list(if_false)
        for i in compress(range(len(out)), test):
            out[i] = if_true[i]
        if not boolean:
            for i in self.non_booleans(test):
                out[i] = _not_boolean(test[i], "conditional test is not boolean:")
            types |= _ERROR_TYPES
        return out, types

    def non_booleans(self, column: Sequence) -> list[int]:
        """The rows whose value in ``column`` is not a boolean (an error is not)."""
        if self.types_of(column) <= _BOOL_TYPES:
            return []
        return [i for i, v in enumerate(column) if v is not True and v is not False]

    def raise_first_error(self, columns: Sequence[Sequence]) -> None:
        """Raise the error of the first row, in row order, that fails in any
        of ``columns``: the one of the first column it fails in. Only the
        columns whose recorded types hold an error are scanned."""
        first, error = self.size, None
        for column in columns:
            known = self.types.get(id(column))
            if known is not None and EvalError in known[1]:
                try:
                    first = list(map(type, islice(column, first))).index(EvalError)
                except ValueError:
                    continue
                error = column[first]
        if error is not None:
            raise error

    def interchangeable(self, columns: Sequence[Sequence]) -> bool:
        """Whether rows equal in ``columns`` are equal in each value's type
        too, and hold no NaN, so every expression computes the same value
        or error from each of them: no column holds a NaN, a type that is
        not built in, or two of bool, int and float (``True == 1 == 1.0``)."""
        for column in columns:
            types = self.types_of(column) - _ERROR_TYPES
            if not types <= _BUILTIN_TYPES or len(types & _CROSS_EQUAL_TYPES) > 1:
                return False
            if float in types and any(map(operator.ne, column, column)):
                return False
        return True


def _index(schema: Sequence[str]) -> dict[str, int]:
    """Attribute name -> column; a repeated name resolves to its last
    column, as a name -> value environment built from a row would."""
    return {a: i for i, a in enumerate(schema)}


def _mask(cond: Expr, index: Mapping[str, int], rows: list[tuple],
          column_types: Optional[Sequence[frozenset]] = None
          ) -> tuple[Sequence, int, Optional[EvalError]]:
    """A selection condition's column over the rows, its first row whose
    value is not a boolean (else the row count), and that row's error."""
    batch = _Batch(rows, column_types)
    column = batch.evaluate((cond,), index)[0]
    bad = batch.non_booleans(column)
    if not bad:
        return column, len(rows), None
    return column, bad[0], _not_boolean(column[bad[0]],
                                        "selection condition evaluated to non-boolean")


def _projected(exprs: Sequence[Expr], index: Mapping[str, int],
               rows: list[tuple]) -> list[tuple]:
    """The tuple of the expressions' values for each row. A list of bound
    attributes only is one ``itemgetter`` call per row."""
    if exprs and all(isinstance(e, Attr) and e.name in index for e in exprs):
        return list(map(columns_getter([index[e.name] for e in exprs]), rows))
    batch = _Batch(rows)
    batch.read_columns()
    columns = batch.evaluate(exprs, index)
    batch.raise_first_error(columns)
    return _rows(columns, len(rows))


def _rows(columns: Sequence[Sequence], size: int) -> list[tuple]:
    """The ``size`` rows of ``columns``."""
    return list(zip(*columns)) if columns else [()] * size


def evaluate_exprs(exprs: Sequence[Expr], schema: Sequence[str], rows: list[tuple]) -> list[list]:
    """The value column of each expression over rows of ``schema``: one list
    per expression, one value per row. Raises what evaluating the rows one
    at a time, in order, would raise first."""
    return _values(exprs, _index(schema), rows)


def _values(exprs: Sequence[Expr], index: Mapping[str, int], rows: list[tuple],
            column_types: Optional[Sequence[frozenset]] = None) -> list[Sequence]:
    """:func:`evaluate_exprs` over the columns ``index`` names, each of
    which is read only if an expression reads it."""
    batch = _Batch(rows, column_types)
    columns = batch.evaluate(exprs, index)
    batch.raise_first_error(columns)
    return columns


def selection_mask(cond: Expr, schema: Sequence[str], rows: list[tuple]) -> Sequence[bool]:
    """Whether each row of ``schema`` satisfies a selection condition; a
    non-boolean value raises."""
    column, _, error = _mask(cond, _index(schema), rows)
    if error is not None:
        raise error
    return column


def updated_rows(cond: Expr, exprs: Sequence[Expr], schema: Sequence[str], rows: list[tuple],
                 column_types: Optional[Sequence[frozenset]] = None
                 ) -> tuple[list[tuple], list[tuple]]:
    """The rows of ``schema`` that satisfy ``cond``, in order, and the tuple
    of the expressions' values for each of them. Raises what evaluating the
    rows one at a time, in order, would raise first: each row's condition,
    then, if it holds, its expressions. ``column_types``, when given, holds
    for each column of ``schema`` a superset of the types of its values in
    ``rows``, which spares scanning the columns the expressions read."""
    index = _index(schema)
    test, bad, error = _mask(cond, index, rows, column_types)
    # the rows before the first failing condition are matched or not
    matched = list(compress(rows, islice(test, bad)))
    new = _rows(_values(exprs, index, matched, column_types), len(matched))
    if error is not None:
        raise error
    return matched, new


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
                  li: Sequence[int], ri: Sequence[int]) -> Iterator[tuple]:
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

    The key checks, the null/NaN screen and the dict run when this is
    called, so a key error is raised then; the pairs come out lazily, as
    they are read.
    """
    if not left or not right:
        return iter(())
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
    lkey, rkey = columns_getter(li), columns_getter(ri)
    if screen:
        left = [item for item in left if _matchable(lkey(item[0]))]
        right = [item for item in right if _matchable(rkey(item[0]))]
    table: dict[tuple, list] = {}
    for item in right:
        table.setdefault(rkey(item[0]), []).append(item)
    return ((item, other) for item in left for other in table.get(lkey(item[0]), ()))


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
    them again.

    A stack of projections runs column by column. A projection that is not
    the root and whose one parent slot is a projection's passes that parent
    its value columns, the types recorded for them and each row's count,
    unmerged; the parent's batch is built from those columns, with no
    transposition and no type scan. The chain's top (a projection read by
    anything else, by two parent slots, or the root) builds rows and merges
    equal rows' counts once. A chained projection whose output could hold
    equal rows that expressions tell apart (``1`` and ``True``, or a NaN)
    merges them itself, as the top does. A chained projection's output is
    dropped once its parent has read it.

    A join that is not the root and whose one parent slot is a projection
    of attributes only is fused into that projection: the join runs its key
    checks where it stands in the loop, so its key error is raised there,
    and hands the projection its matches (:func:`_equi_matches`), so no
    joined row is hashed or stored. The projection picks each of its rows
    from a pair's joined row (made for that and dropped), hashes and stores
    it once, and merges equal rows' counts only when it leaves out a join
    column. It hands its reader a bag, even when that reader is a
    projection.
    Each node's schema is read before the node runs, so a schema error
    comes before any evaluation error of the node."""
    nodes = all_nodes(root)
    #: the projections whose one parent slot is a projection's
    chained = {n.child for n in nodes if isinstance(n, Project) and isinstance(n.child, Project)}
    #: the joins whose one parent slot is a projection of attributes only
    fused = {n.child for n in nodes if isinstance(n, Project) and isinstance(n.child, Product)
             and all(isinstance(e, Attr) for e, _ in n.targets)}
    if chained or fused:
        slots = Counter(c for n in nodes for c in n.children)
        chained = {c for c in chained if slots[c] == 1}
        fused = {c for c in fused if slots[c] == 1}
    memo: dict[Node, BagRelation | _Chained | Iterator[tuple]] = {}

    def compute(n: Node) -> dict[tuple, int] | _Chained | Iterator[tuple]:
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
            if n.child in fused:
                return _fused(n, memo.pop(n.child))
            # a chain entry is read once: dropping it frees its columns
            child = memo.pop(n.child) if n.child in chained else memo[n.child]
            return _project(n, child, n in chained)
        if isinstance(n, Product):
            left, right = memo[n.left], memo[n.right]
            li = [left.schema.index(a) for a, _ in n.pairs]
            ri = [right.schema.index(b) for _, b in n.pairs]
            matches = _equi_matches(left.rows(), right.rows(), li, ri)
            if n in fused:  # its projection builds the rows
                return matches
            return {lt + rt: lm * rm for (lt, lm), (rt, rm) in matches}
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
            key = columns_getter([child.schema.index(a) for a in n.group_by])
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

    for n in nodes:
        schema = schema_of(n)  # a schema error is raised before the node runs
        out = compute(n)
        memo[n] = BagRelation(schema, out) if type(out) is dict else out
    return memo[root]


class _Chained(NamedTuple):
    """A projection's output as the one projection that reads it gets it:
    its rows unmerged, as a batch of their columns, and each row's count."""

    batch: _Batch
    counts: list[int]


def _project(n: Project, child: BagRelation | _Chained,
             chained: bool) -> dict[tuple, int] | _Chained:
    """A projection's row -> count dict; or, when it is ``chained`` and
    rows equal in its output are interchangeable, its :class:`_Chained`
    output. Merging equal rows' counts waits for the top of the chain:
    projection is additive on bags, and the first occurrences of equal rows
    keep their order, so the top's dict and its first failing row are the
    ones a merge at every level gives."""
    exprs = [e for e, _ in n.targets]
    index = _index(schema_of(n.child))
    if isinstance(child, _Chained):
        batch, counts = child
    elif chained:
        batch, counts = _Batch(list(child.tuples)), list(child.tuples.values())
        batch.read_columns()
    else:
        new = _projected(exprs, index, list(child.tuples))
        return _counted(zip(new, child.tuples.values()))
    columns = batch.evaluate(exprs, index)
    batch.raise_first_error(columns)
    if chained and batch.interchangeable(columns):
        return _Chained(_Batch.of_columns(columns, batch.types, batch.size), counts)
    return _counted(zip(_rows(columns, batch.size), counts))


def _fused(n: Project, matches: Iterator[tuple]) -> dict[tuple, int]:
    """The row -> count dict of a projection of attributes over a join,
    from the join's matches: each output row is picked from its pair's
    joined row and hashed and stored once, in match order, so the dict and
    its order are the ones projecting the join's bag gives."""
    schema = schema_of(n.child)
    index = _index(schema)
    idx = [index[e.name] for e, _ in n.targets]
    get = columns_getter(idx)
    if len(set(idx)) == len(schema):
        # rows that differ in some column differ in the output: none merge,
        # and one comprehension skips _counted's list of (row, count) pairs
        return {get(lt + rt): lm * rm for (lt, lm), (rt, rm) in matches}
    return _counted((get(lt + rt), lm * rm) for (lt, lm), (rt, rm) in matches)


def _counted(items: Iterable[tuple[tuple, int]]) -> dict[tuple, int]:
    """The row -> count dict of (row, count) pairs, equal rows merged."""
    items = list(items)
    out = dict(items)
    # a projection that keeps a key of its input merges no rows
    return out if len(out) == len(items) else _merged(items, {})


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
    part = columns_getter([child.schema.index(a) for a in n.partition_by])
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
    """Deterministic bottom-up cost estimate; shared nodes are charged once.

    A node's estimate depends on its subgraph and the statistics only, so
    within a :func:`provopt.algebra.sharing_subplans` scope the estimates
    under one ``stats`` object are kept for every later plan."""
    #: node -> (estimated rows, distinct counts), and node -> own cost
    info: dict[Node, tuple[float, dict[str, float]]] = shared_table("cost_rows", stats)
    own_cost: dict[Node, float] = shared_table("cost_own", stats)
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

    def passed(n: Node, est: float) -> dict[str, float]:
        """Capped distinct counts: a column passing an input through keeps
        the first such input's count, any other gets the output estimate."""
        d: Mapping[str, float] = {}
        for child, lineage in zip(n.children, n.lineage):
            cd = info[child][1]
            if lineage is not None:
                cd = {a: cd[src] for a, src in lineage.items()}
            d = {**cd, **d} if d else cd
        return {a: max(1.0, min(d.get(a, est), est)) for a in schema_of(n)}

    def compute(n: Node) -> tuple[float, float, Optional[dict[str, float]]]:
        """(estimated rows, own cost, distinct counts unless they pass
        through the lineage)."""
        if isinstance(n, Relation):
            if n.name not in stats:
                raise EvalError(f"missing statistics for relation {n.name!r}")
            st = stats[n.name]
            return st.rows, CPU_WEIGHT * st.rows, {a: st.distinct.get(a, st.rows) for a in n.attrs}
        if isinstance(n, Select):
            in_rows, d = info[n.child]
            est = in_rows * selectivity(n.cond, d, in_rows)
            return est, CPU_WEIGHT * in_rows + BUILD_WEIGHT * est, None
        if isinstance(n, Project):
            in_rows = info[n.child][0]
            return in_rows, CPU_WEIGHT * in_rows + BUILD_WEIGHT * in_rows, None
        if isinstance(n, Product):
            lr, ld = info[n.left]
            rr, rd = info[n.right]
            est = lr * rr
            for a, b in n.pairs:
                est /= max(distinct_of(ld, a, lr), distinct_of(rd, b, rr))
            return est, CPU_WEIGHT * (lr + rr) + BUILD_WEIGHT * est, None
        if isinstance(n, Union):
            lr, ld = info[n.left]
            rr, rd = info[n.right]
            est = lr + rr
            d = {a: ld.get(a, lr) + rd.get(b, rr) for a, b in n.lineage[1].items()}
            return est, CPU_WEIGHT * (lr + rr) + BUILD_WEIGHT * est, d
        if isinstance(n, (Intersect, Diff)):
            lr, rr = info[n.left][0], info[n.right][0]
            est = min(lr, rr) if isinstance(n, Intersect) else lr
            return est, CPU_WEIGHT * (lr + rr) + BUILD_WEIGHT * est, None
        if isinstance(n, Agg):
            in_rows, d = info[n.child]
            groups = 1.0
            for a in n.group_by:
                groups *= distinct_of(d, a, in_rows)
            est = min(in_rows, groups) if n.group_by else min(in_rows, 1.0)
            return est, CPU_WEIGHT * in_rows + BUILD_WEIGHT * est + _sort_term(in_rows), None
        if isinstance(n, DupElim):
            in_rows, d = info[n.child]
            groups = 1.0
            for a in schema_of(n.child):
                groups *= distinct_of(d, a, in_rows)
            est = min(in_rows, groups)
            return est, CPU_WEIGHT * in_rows + BUILD_WEIGHT * est, None
        if isinstance(n, Window):
            in_rows = info[n.child][0]
            own = CPU_WEIGHT * in_rows + BUILD_WEIGHT * in_rows + _sort_term(in_rows)
            return in_rows, own, None
        raise EvalError(f"unknown operator {type(n).__name__}")

    for n in all_nodes(root):
        if n not in info:
            est, own, d = compute(n)
            info[n] = (est, passed(n, est) if d is None else cap(d, est))
            own_cost[n] = own
        per_node[n] = (info[n][0], own_cost[n])
    total = sum(c for _, c in per_node.values())
    return CostEstimate(total, per_node)
