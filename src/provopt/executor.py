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
of a type other than int, bool or str. Selection conditions and projection
targets are compiled once per operator into functions of a row tuple
(:func:`compile_expr`), with attributes resolved to column indexes and
every type check kept, made lazily at evaluation time. A projection of
attributes only, a join key and a grouping key are each one
``itemgetter`` call per row. A cross product is the equi-join on no key
columns.

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
from operator import itemgetter
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .algebra import (
    Agg, Arith, Attr, BoolOp, Cmp, Const, Diff, DupElim, Expr,
    FRAME_PARTITION, Intersect, Node, Product, Project, Relation,
    Select, Union, Window, Value,
    all_nodes, fold_expr, right_output_names, schema_of,
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
    row = _columns([bag.schema.index(col) for col in schema])
    return BagRelation(schema, dict(zip(map(row, bag.tuples), bag.tuples.values())))


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
# An expression is compiled once per operator into a function of a row
# tuple: every attribute is resolved to its column index up front and the
# per-row work is one closure call per expression node. Compiling is one
# :func:`~provopt.algebra.fold_expr` over the operator's expressions, so a
# shared subexpression compiles once and any depth compiles; a compiled
# function still nests one Python call per level when it runs. Every check
# but "not an expression" is made at evaluation time, lazily: an unbound
# attribute raises only when it is read, a conditional evaluates only the
# branch it takes, and a boolean operator evaluates all of its arguments and
# then type-checks each one.


RowFn = Callable[[tuple], Value]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


#: exact types :func:`_is_number` accepts, tested first as a fast path
_NUMBER_TYPES = frozenset((int, float))


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
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


def _compile(exprs: Iterable[Expr], schema: Sequence[str]) -> list[RowFn]:
    """The expressions as functions of one row of ``schema``, folded
    children first so that shared subexpressions compile once.

    A repeated attribute name resolves to its last column, as a name ->
    value environment built from the row would."""
    index = {a: i for i, a in enumerate(schema)}

    def step(x: Expr, kids: tuple[RowFn, ...]) -> RowFn:
        if isinstance(x, Attr):
            return itemgetter(index[x.name]) if x.name in index else _unbound(x.name)
        if isinstance(x, Const):
            return _constant(x.value)
        if isinstance(x, Arith):
            return _arith(x.op, *kids)
        if isinstance(x, Cmp):
            return _cmp(x.op, *kids)
        if isinstance(x, BoolOp):
            return _boolop(x.op, kids)
        return _cond(*kids)  # fold_expr admits nothing else

    return fold_expr(exprs, step)


def _unbound(name: str) -> RowFn:
    def unbound(row):
        raise EvalError(f"unbound attribute {name!r}")
    return unbound


def _constant(value: Value) -> RowFn:
    return lambda row: value


def _arith(op: str, left: RowFn, right: RowFn) -> RowFn:
    apply = _ARITH.get(op)

    def arith(row):
        lv, rv = left(row), right(row)
        if not ((type(lv) in _NUMBER_TYPES or _is_number(lv))
                and (type(rv) in _NUMBER_TYPES or _is_number(rv))):
            raise EvalError(f"arithmetic on non-numeric values {lv!r}, {rv!r}")
        if apply is not None:
            return apply(lv, rv)
        if rv == 0:
            raise EvalError("division by zero")
        return lv / rv
    return arith


def _cmp(op: str, left: RowFn, right: RowFn) -> RowFn:
    apply = _CMP[op]
    # null compares unequal to everything, including null
    on_null = op == "<>"

    def cmp(row):
        lv, rv = left(row), right(row)
        if lv is None or rv is None:
            return on_null
        if type(lv) is not type(rv):  # values of one type are always comparable
            _check_comparable(lv, rv)
        return apply(lv, rv)
    return cmp


def _boolop(op: str, args: tuple[RowFn, ...]) -> RowFn:
    def boolop(row):
        vals = [a(row) for a in args]
        for v in vals:
            if v is not True and v is not False:
                raise EvalError(f"boolean operator over non-boolean value {v!r}")
        if op == "and":
            return all(vals)
        if op == "or":
            return any(vals)
        return not vals[0]
    return boolop


def _cond(pred: RowFn, if_true: RowFn, if_false: RowFn) -> RowFn:
    def cond(row):
        p = pred(row)
        if p is True:
            return if_true(row)
        if p is False:
            return if_false(row)
        raise EvalError(f"conditional test is not boolean: {p!r}")
    return cond


def compile_expr(e: Expr, schema: Sequence[str]) -> RowFn:
    """The expression as a function of one row of ``schema``."""
    return _compile((e,), schema)[0]


def compile_row(exprs: Iterable[Expr], schema: Sequence[str]) -> Callable[[tuple], tuple]:
    """A function from a row of ``schema`` to the tuple of the expressions'
    values; subexpressions shared between them compile once.

    When every expression is an attribute bound in ``schema`` the function
    is one ``itemgetter`` call; any other list keeps the per-expression
    functions, so an unbound attribute still raises only when a row is read."""
    exprs = list(exprs)
    index = {a: i for i, a in enumerate(schema)}
    if exprs and all(isinstance(e, Attr) and e.name in index for e in exprs):
        return _columns([index[e.name] for e in exprs])
    fns = _compile(exprs, schema)
    return lambda row: tuple([f(row) for f in fns])


def compile_predicate(cond: Expr, schema: Sequence[str]) -> Callable[[tuple], bool]:
    """A selection condition over rows of ``schema``; a non-boolean value raises."""
    fn = compile_expr(cond, schema)

    def predicate(row):
        v = fn(row)
        if v is not True and v is not False:
            raise EvalError(f"selection condition evaluated to non-boolean {v!r}")
        return v
    return predicate


def eval_expr(e: Expr, env: Mapping[str, Value]) -> Value:
    """Evaluate one expression over an attribute -> value environment."""
    return compile_expr(e, tuple(env))(tuple(env.values()))


def _predicate(cond: Expr, env: Mapping[str, Value]) -> bool:
    """Evaluate one selection condition over an environment."""
    return compile_predicate(cond, tuple(env))(tuple(env.values()))


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
    if fn == "sum":
        total = 0
        for v, m in values:
            if not _is_number(v):
                raise EvalError(f"sum over non-numeric value {v!r}")
            total += v * m
        return total
    if fn == "avg":
        return aggregate("sum", values) / n
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
            keep = compile_predicate(n.cond, child.schema)
            return {t: m for t, m in child.tuples.items() if keep(t)}
        if isinstance(n, Project):
            child = memo[n.child]
            row = compile_row((e for e, _ in n.targets), child.schema)
            rows = list(zip(map(row, child.tuples), child.tuples.values()))
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
