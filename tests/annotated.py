"""Provenance-polynomial evaluator: the test oracle for instrumented queries, in the
provenance-semiring model of Green, Karvounarakis and Tannen (PODS 2007). It writes
expressions, the equi-join and aggregates again, with the executor's semantics but none
of its code. Aggregation is single-level: over a nested aggregation it double-counts,
as the window instrumentation method does.
"""
from __future__ import annotations

import operator
from collections import Counter
from typing import Mapping, NamedTuple

from provopt.algebra import (
    Agg, Arith, Attr, BoolOp, Cond, Const, DupElim, Node, Product, Project, Relation,
    Select, Union, all_nodes, schema_of,
)
from provopt.executor import BagRelation, EvalError


class TupleVar(NamedTuple):
    """One variable per base tuple copy, named after its source relation."""
    rel: str
    idx: int


Monomial = tuple[TupleVar, ...]  # sorted variables, repetition allowed
Poly = Counter  # Monomial -> coefficient >= 1
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "=": operator.eq, "<>": operator.ne, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


def poly_product(a: Poly, b: Poly) -> Poly:
    return sum((Counter({tuple(sorted(ma + mb)): ca * cb})
                for ma, ca in a.items() for mb, cb in b.items()), Counter())


def poly_sum(a: Poly, b: Poly) -> Poly:
    return Counter(a) + Counter(b)


def poly_weight(p: Poly) -> int:
    """Evaluate the polynomial with every variable set to 1."""
    return sum(p.values())


class AnnotatedDb(NamedTuple):
    """Base relations where every tuple copy carries a distinct variable."""
    tables: dict[str, list[tuple[tuple, TupleVar]]]
    schemas: dict[str, tuple[str, ...]]
    var_rows: dict[TupleVar, tuple]


def annotate(db: Mapping[str, BagRelation]) -> AnnotatedDb:
    adb = AnnotatedDb({}, {}, {})
    for name in sorted(db):
        copies = [t for t in sorted(db[name].tuples, key=repr) for _ in range(db[name].tuples[t])]
        adb.tables[name] = [(t, TupleVar(name, i)) for i, t in enumerate(copies, start=1)]
        adb.var_rows.update((var, t) for t, var in adb.tables[name])
        adb.schemas[name] = db[name].schema
    return adb


class AnnotatedRelation(NamedTuple):
    """Rows paired with provenance polynomials; one row per distinct tuple."""
    schema: tuple[str, ...]
    rows: list[tuple[tuple, Poly]]
    sources: tuple[str, ...]  # source relations in leaf order, for the encoding
    var_rows: Mapping[TupleVar, tuple]
    source_schemas: Mapping[str, tuple[str, ...]]

    def as_bag(self) -> BagRelation:
        """Drop annotations, interpreting each polynomial's weight as a count."""
        return BagRelation(self.schema, {t: poly_weight(p) for t, p in self.rows})


def _kind(v) -> str:
    return ("boolean" if isinstance(v, bool)
            else "numeric" if isinstance(v, (int, float)) else "other")


def _truth(v, what: str) -> bool:
    if v is not True and v is not False:
        raise EvalError(f"{what} is not boolean: {v!r}")
    return v


def _value(e, env: Mapping[str, object]):
    """The expression's value over one row, given as a name -> value dict."""
    if isinstance(e, Attr):
        return env[e.name]  # bound: evaluate_annotated checks the plan's schemas first
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Cond):
        return _value(e.if_true if _truth(_value(e.pred, env), "test") else e.if_false, env)
    if isinstance(e, BoolOp):
        vals = [_truth(v, "operand") for v in [_value(a, env) for a in e.args]]
        return all(vals) if e.op == "and" else any(vals) if e.op == "or" else not vals[0]
    lv, rv = _value(e.left, env), _value(e.right, env)
    if isinstance(e, Arith):
        if _kind(lv) != "numeric" or _kind(rv) != "numeric":
            raise EvalError(f"arithmetic on non-numeric values {lv!r}, {rv!r}")
        if e.op == "/" and rv == 0:
            raise EvalError("division by zero")
    elif lv is None or rv is None:
        return e.op == "<>"  # null compares unequal to everything
    elif _kind(lv) != _kind(rv):
        raise EvalError(f"cannot compare values of different kinds ({lv!r}, {rv!r})")
    return _OPS[e.op](lv, rv)


def _aggregate(fn: str, values: list[tuple[object, int]]):
    n = sum(m for _, m in values)
    if fn in ("count", "min", "max"):
        try:
            return n if fn == "count" else (min if fn == "min" else max)(v for v, _ in values)
        except TypeError as exc:
            raise EvalError(f"{fn} over incomparable values") from exc
    total = 0
    for v, m in values:
        if _kind(v) != "numeric":
            raise EvalError(f"{fn} over non-numeric value {v!r}")
        total += v * m
    return total if fn == "sum" else total / n


def evaluate_annotated(root: Node, adb: AnnotatedDb) -> AnnotatedRelation:
    """Propagate polynomials in one children-first loop over the plan's nodes."""
    schema, nodes = schema_of(root), all_nodes(root)
    memo: dict[Node, list[tuple[tuple, Poly]]] = {}
    for n in nodes:
        kids = [memo[c] for c in n.children]
        # a unary operator reads its input rows as name -> value dicts
        envs = [dict(zip(schema_of(n.children[0]), t)) for t, _ in kids[0]] if len(kids) == 1 else []
        if isinstance(n, Relation):
            rows = [(t, Counter({(var,): 1})) for t, var in adb.tables[n.name]]
        elif isinstance(n, Select):
            rows = [r for r, env in zip(kids[0], envs) if _truth(_value(n.cond, env), "selection")]
        elif isinstance(n, Project):
            rows = [(tuple(_value(e, env) for e, _ in n.targets), p)
                    for (_, p), env in zip(kids[0], envs)]
        elif isinstance(n, Product):
            # nested loop: null and NaN keys never match, 1 matches 1.0, mixed kinds raise
            keys = [(schema_of(n.left).index(a), schema_of(n.right).index(b)) for a, b in n.pairs]
            for i, j in keys:
                lk, rk = ({_kind(t[c]) for t, _ in side if t[c] is not None}
                          for side, c in zip(kids, (i, j)))
                if lk and rk and len(lk | rk) > 1:
                    raise EvalError("cannot compare join key values of different kinds")
            rows = [(lt + rt, poly_product(lp, rp)) for lt, lp in kids[0] for rt, rp in kids[1]
                    if all(lt[i] is not None and lt[i] == rt[j] for i, j in keys)]
        elif isinstance(n, Union):
            rows = kids[0] + kids[1]
        elif isinstance(n, Agg):
            groups: dict[tuple, list] = {}
            for (_, p), env in zip(kids[0], envs):
                groups.setdefault(tuple(env[a] for a in n.group_by), []).append((env, p))
            rows = [(key + tuple(_aggregate(fn, [(env[a], poly_weight(p)) for env, p in members])
                                 for fn, a, _ in n.aggs), sum((p for _, p in members), Counter()))
                    for key, members in groups.items()]
        elif isinstance(n, DupElim):
            rows = kids[0]  # rows are merged by tuple already; alternatives stay summed
        else:
            raise EvalError(f"operator {type(n).__name__} outside the annotated fragment")
        merged: dict[tuple, Poly] = {}
        for t, p in rows:
            merged[t] = poly_sum(merged.get(t, Counter()), p)
        memo[n] = list(merged.items())
    sources = tuple(dict.fromkeys(n.name for n in nodes if isinstance(n, Relation)))
    return AnnotatedRelation(schema, memo[root], sources, adb.var_rows, adb.schemas)


def encode_provenance(ann: AnnotatedRelation) -> BagRelation:
    """Flatten polynomials into the relational provenance encoding: one row per
    (tuple, monomial), the tuple followed by witness columns ``prov_<rel>_<occurrence>_<attr>``
    per source relation; a monomial with two tuples of one relation does not fit and raises."""
    blocks = [(rel, ann.source_schemas[rel]) for rel in ann.sources]
    out = BagRelation(ann.schema + tuple(f"prov_{rel}_0_{a}"
                                         for rel, attrs in blocks for a in attrs))
    for t, poly in ann.rows:
        for mono, coeff in poly.items():
            by_rel = {var.rel: var for var in mono}
            twice = [var.rel for var in mono if by_rel[var.rel] != var]
            if twice:
                raise EvalError(f"monomial uses two tuples of relation {twice[0]!r}")
            witnesses = (ann.var_rows[by_rel[rel]] if rel in by_rel else (None,) * len(attrs)
                         for rel, attrs in blocks)
            out.add(t + sum(witnesses, ()), coeff)
    return out
