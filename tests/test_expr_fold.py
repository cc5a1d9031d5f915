"""Compiling, printing and costing an expression are each one
:func:`provopt.algebra.fold_expr` step.

The recursive walkers below are the implementations those steps replaced,
kept as the reference: the SQL printer, the plan-text printer, the row
compiler, the cost model's selectivity and the conjunct flattening must
give the same text, the same numbers, the same lists and the same values or
errors on every input, including deep
expressions and DAGs with shared subexpressions. The fold versions must in
addition run at any depth and leave no reference cycle behind.

The row-closure compiler is also the reference for the batch evaluator,
which runs expressions a column at a time: applied row by row, in order, it
must give the same values, or the same first error, for projections,
selections and replayed UPDATEs over many rows.
"""
import collections
import gc
import itertools
import operator
import random
import sys
import time
from pathlib import Path
from typing import Callable

import pytest

from helpers import compile_expr, compile_predicate, compile_row, expr_nodes
from randgen import random_condition, random_query

from provopt import cli
from provopt.algebra import (
    ARITH_OPS, AlgebraError, Arith, Attr, BoolOp, CMP_OPS, Cmp, Cond, Const,
    Expr, Project, Relation, Select, all_nodes, conjunction, conjuncts,
    Value, expr_attrs, expr_children, fold_expr, schema_of,
)
from provopt.executor import (
    RANGE_SELECTIVITY, BagRelation, EvalError, TableStats, cost, evaluate, evaluate_exprs,
    updated_rows,
)
from provopt.instrument import parse_updates, reenact, replay
from provopt.plantext import _BARE, _format_literal, format_expr, format_name, format_plan
from provopt.rewrites import RewriteConfig, apply_pats, merge_selections
from provopt.sqlgen import quote_ident, render_expr, render_value

DEEP = 5000

# ---------------------------------------------------------------------------
# the recursive reference walkers


def _old_render_expr(e):
    if isinstance(e, Attr):
        return quote_ident(e.name)
    if isinstance(e, Const):
        return render_value(e.value)
    if isinstance(e, Arith):
        return _old_render_arith(e)
    if isinstance(e, Cmp):
        return f"{_old_operand(e.left)}{e.op}{_old_operand(e.right)}"
    if isinstance(e, BoolOp):
        if e.op == "not":
            return f"NOT ({_old_render_expr(e.args[0])})"
        joiner = " AND " if e.op == "and" else " OR "
        return joiner.join(_old_bool_operand(a) for a in e.args)
    if isinstance(e, Cond):
        return (f"CASE WHEN {_old_render_expr(e.pred)} THEN {_old_render_expr(e.if_true)}"
                f" ELSE {_old_render_expr(e.if_false)} END")
    raise AssertionError(e)


_OLD_PRECEDENCE = {"*": 2, "/": 2, "+": 1, "-": 1}


def _old_render_arith(e):
    def side(x, parent_prec, right):
        if isinstance(x, Arith):
            prec = _OLD_PRECEDENCE[x.op]
            if prec < parent_prec or (right and prec == parent_prec):
                return f"({_old_render_arith(x)})"
            return _old_render_arith(x)
        return _old_operand(x)

    prec = _OLD_PRECEDENCE[e.op]
    right = side(e.right, prec, True)
    if e.op == "-" and right.startswith("-"):  # a-(-1): SQL reads -- as a comment
        right = f"({right})"
    return f"{side(e.left, prec, False)}{e.op}{right}"


def _old_operand(x):
    if isinstance(x, (Attr, Const, Cond)):
        return _old_render_expr(x)
    if isinstance(x, Arith):
        return f"({_old_render_arith(x)})"
    return f"({_old_render_expr(x)})"


def _old_bool_operand(x):
    if isinstance(x, BoolOp) and x.op in ("and", "or"):
        return f"({_old_render_expr(x)})"
    return _old_render_expr(x)


def _old_format_expr(e):
    if isinstance(e, Attr):
        if _BARE.match(e.name) and e.name not in ("true", "false", "null"):
            return e.name
        return f"(attr {format_name(e.name)})"
    if isinstance(e, Const):
        return _format_literal(e.value)
    if isinstance(e, (Arith, Cmp)):
        return f"({e.op} {_old_format_expr(e.left)} {_old_format_expr(e.right)})"
    if isinstance(e, BoolOp):
        return "(" + e.op + "".join(" " + _old_format_expr(a) for a in e.args) + ")"
    if isinstance(e, Cond):
        return (f"(if {_old_format_expr(e.pred)} {_old_format_expr(e.if_true)}"
                f" {_old_format_expr(e.if_false)})")
    raise AssertionError(e)


# ---------------------------------------------------------------------------
# the row-closure compiler, the reference for the batch evaluator


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


def _old_compiler(schema):
    from operator import itemgetter
    index = {a: i for i, a in enumerate(schema)}
    memo = {}

    def comp(e):
        if id(e) in memo:
            return memo[id(e)][1]
        if isinstance(e, Attr):
            fn = itemgetter(index[e.name]) if e.name in index else _unbound(e.name)
        elif isinstance(e, Const):
            fn = _constant(e.value)
        elif isinstance(e, Arith):
            fn = _arith(e.op, comp(e.left), comp(e.right))
        elif isinstance(e, Cmp):
            fn = _cmp(e.op, comp(e.left), comp(e.right))
        elif isinstance(e, BoolOp):
            fn = _boolop(e.op, tuple(comp(a) for a in e.args))
        else:
            fn = _cond(comp(e.pred), comp(e.if_true), comp(e.if_false))
        memo[id(e)] = (e, fn)
        return fn

    return comp


def _old_selectivity(cond, d, rows):
    def distinct_of(attr):
        return max(1.0, min(d.get(attr, rows), rows))

    if isinstance(cond, BoolOp):
        if cond.op == "and":
            s = 1.0
            for c in cond.args:
                s *= _old_selectivity(c, d, rows)
            return s
        if cond.op == "or":
            s = 1.0
            for c in cond.args:
                s *= 1.0 - _old_selectivity(c, d, rows)
            return 1.0 - s
        return max(0.0, 1.0 - _old_selectivity(cond.args[0], d, rows))
    if isinstance(cond, Cmp) and cond.op == "=":
        attrs = [s.name for s in (cond.left, cond.right) if isinstance(s, Attr)]
        if len(attrs) == 2:
            return 1.0 / max(distinct_of(attrs[0]), distinct_of(attrs[1]))
        if len(attrs) == 1:
            return 1.0 / distinct_of(attrs[0])
        return RANGE_SELECTIVITY
    if isinstance(cond, Const) and cond.value is True:
        return 1.0
    return RANGE_SELECTIVITY


def _old_conjuncts(e):
    if isinstance(e, BoolOp) and e.op == "and":
        out = []
        for a in e.args:
            out.extend(_old_conjuncts(a))
        return out
    return [e]


# ---------------------------------------------------------------------------
# inputs

SCHEMA = ("a", "b", "c")
#: read by no row: an unbound attribute, which must raise only when read
UNBOUND = "zz"


def _leaves():
    return [Attr("a"), Attr("b"), Attr("c"), Attr(UNBOUND), Attr("b'"), Attr("select"),
            Const(0), Const(2), Const(-1), Const(1.5), Const(True), Const(False),
            Const(None), Const("x'y")]


def _operands():
    """One operand of every kind an Arith or Cmp side can hold."""
    a, b = Attr("a"), Attr("b")
    eq = Cmp("=", a, Const(1))
    return ([a, Const(3), Cond(eq, a, b), eq, BoolOp("and", (eq, Cmp("<", b, a))),
             BoolOp("or", (eq, eq)), BoolOp("not", (eq,))]
            + [Arith(op, a, b) for op in ARITH_OPS])


def precedence_cases():
    """Every operator over every operand kind on either side, nested one
    level more on the left and on the right, and nested and/or/not."""
    ops = [(Arith, op) for op in ARITH_OPS] + [(Cmp, op) for op in CMP_OPS]
    out = []
    for (cls, op), x in itertools.product(ops, _operands()):
        out += [cls(op, x, Attr("c")), cls(op, Attr("c"), x), cls(op, x, x)]
    for (c1, o1), (c2, o2) in itertools.product(ops, ops):
        inner = c2(o2, Attr("a"), Attr("b"))
        out += [c1(o1, inner, Attr("c")), c1(o1, Attr("c"), inner),
                c1(o1, c1(o1, inner, inner), inner)]
    for op, x in itertools.product(("and", "or", "not"), _operands()):
        args = (x,) if op == "not" else (x, Cmp(">", Attr("c"), Const(0)), x)
        out.append(BoolOp(op, args))
        for op2 in ("and", "or", "not"):
            out.append(BoolOp(op2, (BoolOp(op, args),) if op2 == "not"
                              else (BoolOp(op, args), x)))
    return out


def random_dag(rng: random.Random, size: int, max_tree: int = 400) -> Expr:
    """A random expression whose nodes pick their children among all earlier
    ones, so subexpressions are shared within and across branches; its tree
    (the DAG unfolded, which the printers' text is) stays below ``max_tree``
    nodes."""
    pool = _leaves()
    tree = {id(x): 1 for x in pool}
    while len(pool) < len(_leaves()) + size:
        kids = [pool[-rng.randint(1, min(len(pool), 8))] if rng.random() < 0.7
                else rng.choice(pool) for _ in range(3)]
        kind = rng.randrange(4)
        if kind == 0:
            x = Arith(rng.choice(ARITH_OPS), kids[0], kids[1])
        elif kind == 1:
            x = Cmp(rng.choice(CMP_OPS), kids[0], kids[1])
        elif kind == 2:
            op = rng.choice(("and", "or", "not"))
            x = BoolOp(op, (kids[0],) if op == "not" else tuple(kids[:rng.randint(1, 3)]))
        else:
            x = Cond(*kids)
        n = 1 + sum(tree[id(c)] for c in expr_children(x))
        if n <= max_tree:
            tree[id(x)] = n
            pool.append(x)
    return pool[-1]


def _random_update_script(rng: random.Random, n: int) -> str:
    def arith(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(["a", "b", "c", str(rng.randint(0, 3))])
        text = f"{arith(depth - 1)} {rng.choice('+-*/')} {arith(depth - 1)}"
        return f"({text})" if rng.random() < 0.4 else text

    def cond(depth):
        c = f"{arith(2)} {rng.choice(CMP_OPS)} {arith(2)}"
        if depth and rng.random() < 0.5:
            c = f"{rng.choice(['NOT ', ''])}({c} {rng.choice(['AND', 'OR'])} {cond(depth - 1)})"
        return c

    return "".join(f"UPDATE R SET {rng.choice('abc')} = {arith(3)} WHERE {cond(2)};\n"
                   for _ in range(n))


def corpus():
    """Expressions from randgen's queries and conditions, from rewritten
    reenactments of random UPDATE scripts, random DAGs and the precedence
    cases."""
    rng = random.Random(9)
    out = precedence_cases()
    for _ in range(60):
        out.append(random_condition(rng, list(SCHEMA)))
        q, _ = random_query(rng, max_ops=5)
        for n in all_nodes(q):
            if isinstance(n, Select):
                out.append(n.cond)
            elif isinstance(n, Project):
                out += [e for e, _ in n.targets]
    for _ in range(30):
        plan = apply_pats(reenact(parse_updates(_random_update_script(rng, rng.randint(1, 6))),
                                  schema=SCHEMA), RewriteConfig())
        for n in all_nodes(plan):
            if isinstance(n, Select):
                out.append(n.cond)
            elif isinstance(n, Project):
                out += [e for e, _ in n.targets]
    out += [random_dag(rng, rng.randint(1, 40)) for _ in range(300)]
    return out


CORPUS = corpus()
ROWS = [(a, b, c) for a in (0, 1, 2.5, -3, None, True, "s") for b in (0, 2, None, False)
        for c in (1, 0)]


def _outcome(fn, row):
    try:
        v = fn(row)
    except EvalError as exc:
        return ("error", str(exc))
    return ("value", type(v), repr(v))


# ---------------------------------------------------------------------------
# differential tests


def test_corpus_covers_every_case():
    kinds = {(type(x).__name__, getattr(x, "op", None), side, type(c).__name__,
              getattr(c, "op", None))
             for e in CORPUS for x in _subexpressions(e) if isinstance(x, (Arith, Cmp))
             for side, c in (("left", x.left), ("right", x.right))}
    for op in ARITH_OPS + CMP_OPS:
        for side in ("left", "right"):
            for child in ("Attr", "Const", "Cond", "Cmp", "BoolOp"):
                cls = "Arith" if op in ARITH_OPS else "Cmp"
                assert any(k[:4] == (cls, op, side, child) for k in kinds), (op, side, child)
            for child_op in ARITH_OPS:
                assert any(k[1:] == (op, side, "Arith", child_op) for k in kinds)
    shared = sum(len({id(x) for x in _subexpressions(e)}) < sum(1 for _ in expr_nodes(e))
                 for e in CORPUS)
    assert shared > 100
    assert any(isinstance(e, BoolOp) and any(isinstance(a, BoolOp) for a in e.args)
               for e in CORPUS)


def _subexpressions(e):
    seen = {}
    for x in expr_nodes(e):
        seen.setdefault(id(x), x)
    return seen.values()


def test_sql_text_matches_the_recursive_printer():
    for e in CORPUS:
        assert render_expr(e) == _old_render_expr(e), e


def test_plan_text_matches_the_recursive_printer():
    for e in CORPUS:
        assert format_expr(e) == _old_format_expr(e), e


def test_conjuncts_match_the_recursive_flattening():
    for e in CORPUS:
        assert conjuncts(e) == _old_conjuncts(e)


def _selection_rows(e, distinct, rows):
    """(the cost model's estimated rows for a selection on ``e`` over ``rows``
    input rows, the same estimate from the recursive selectivity); ``rows``
    is a power of two, so the products are equal exactly when the
    selectivities are."""
    attrs = tuple(sorted(expr_attrs(e)))
    node = Select(e, Relation("R", attrs))
    got = cost(node, {"R": TableStats(rows, distinct)}).per_node[node][0]
    d = {a: max(1.0, min(distinct.get(a, rows), rows)) for a in attrs}
    return got, rows * _old_selectivity(e, d, rows)


def test_selectivity_matches_the_recursive_estimate():
    for e in CORPUS:
        for d, rows in (({"a": 4.0, "b": 10.0}, 64.0), ({}, 4.0), ({"c": 1.0}, 0.5)):
            got, want = _selection_rows(e, d, rows)
            assert got == want, e


def test_compiled_functions_match_the_recursive_compiler():
    for e in CORPUS:
        new, old = compile_expr(e, SCHEMA), _old_compiler(SCHEMA)(e)
        assert [_outcome(new, r) for r in ROWS] == [_outcome(old, r) for r in ROWS], e


def test_compiled_rows_match_the_recursive_compiler():
    for i in range(0, len(CORPUS), 5):
        exprs = CORPUS[i:i + 5]
        old = _old_compiler(SCHEMA)
        old_fns = [old(e) for e in exprs]
        new = compile_row(exprs, SCHEMA)
        for r in ROWS:  # the first raising expression decides the error
            assert _outcome(new, r) == _outcome(lambda r: tuple([f(r) for f in old_fns]), r)


def test_untaken_branch_and_division_errors_match():
    e = Cond(Cmp("=", Attr("a"), Const(0)), Arith("/", Attr("b"), Attr("a")), Attr(UNBOUND))
    new, old = compile_expr(e, SCHEMA), _old_compiler(SCHEMA)(e)
    for r in [(0, 1, 1), (0, 0, 0), (1, 1, 1)]:
        assert _outcome(new, r) == _outcome(old, r)
    assert _outcome(new, (0, 1, 1)) == ("error", "division by zero")
    assert _outcome(new, (1, 1, 1)) == ("error", "unbound attribute 'zz'")


# ---------------------------------------------------------------------------
# batch evaluation against the row-closure compiler, row by row


def _old_predicate(fn):
    """A selection condition as the row compiler checked it."""
    def predicate(row):
        v = fn(row)
        if v is not True and v is not False:
            raise EvalError(f"selection condition evaluated to non-boolean {v!r}")
        return v
    return predicate


def _first_error_or(compute):
    try:
        return ("value", compute())
    except EvalError as exc:
        return ("error", str(exc))


def _typed(items):
    """(row, count) pairs with each value's type, in order."""
    return [(tuple((type(v), repr(v)) for v in t), m) for t, m in items]


#: ROWS, and the rows of it that hold numbers only, or numbers and nulls,
#: on which more expressions evaluate without an error
ROW_SETS = [ROWS, [r for r in ROWS if {type(v) for v in r} <= {int, float}],
            [r for r in ROWS if {type(v) for v in r} <= {int, float, type(None)}]]
#: the schema of the evaluated relation: SCHEMA and two more names the corpus reads
WIDE = SCHEMA + ("b'", "select")


def _reference_project(exprs, bag):
    comp = _old_compiler(bag.schema)
    fns = [comp(e) for e in exprs]
    out = {}
    for t, m in bag.tuples.items():
        row = tuple([f(t) for f in fns])
        out[row] = out.get(row, 0) + m
    return _typed(out.items())


def _reference_select(cond, bag):
    keep = _old_predicate(_old_compiler(bag.schema)(cond))
    return _typed((t, m) for t, m in bag.tuples.items() if keep(t))


def test_rows_cover_every_value_kind():
    kinds = {type(v) for r in ROWS for v in r}
    assert kinds == {int, float, bool, str, type(None)}
    assert all(any(r[1] == 0 for r in rows) for rows in ROW_SETS)  # a zero divisor


def test_evaluate_exprs_matches_the_row_compiler_row_by_row():
    outcomes = collections.Counter()
    for rows, size in itertools.product(ROW_SETS, (1, 3)):
        for i in range(0, len(CORPUS), size):
            exprs = CORPUS[i:i + size]
            comp = _old_compiler(SCHEMA)
            fns = [comp(e) for e in exprs]
            want = _first_error_or(lambda: _typed((tuple([f(r) for f in fns]), 1) for r in rows))
            got = _first_error_or(lambda: _typed((row, 1) for row in
                                                 zip(*evaluate_exprs(exprs, SCHEMA, rows))))
            assert got == want, exprs
            outcomes[want[0]] += 1
    assert outcomes["value"] > 1000 and outcomes["error"] > 1000


def test_evaluate_matches_the_row_compiler_on_projections_and_selections():
    rel = Relation("R", WIDE)
    outcomes = collections.Counter()
    for rows in ROW_SETS:
        bag = BagRelation.from_rows(WIDE, [r + (r[2], r[0]) for r in rows])
        db = {"R": bag}
        for i, e in enumerate(CORPUS):
            if not expr_attrs(e) <= set(WIDE):
                continue
            exprs = [x for x in CORPUS[i:i + 3] if expr_attrs(x) <= set(WIDE)]
            project = Project(tuple((x, f"t{k}") for k, x in enumerate(exprs)), rel)
            want = _first_error_or(lambda: _reference_project(exprs, bag))
            assert _first_error_or(lambda: _typed(evaluate(project, db).rows())) == want, exprs
            outcomes[want[0]] += 1
            want = _first_error_or(lambda: _reference_select(e, bag))
            assert _first_error_or(lambda: _typed(evaluate(Select(e, rel), db).rows())) == want, e
            outcomes["selected " + want[0]] += 1
    assert min(outcomes.values()) > 300 and len(outcomes) == 4


def _numeric_dag(rng: random.Random, size: int) -> Expr:
    """A random expression over numbers that seldom raises: nested
    conditionals whose branches are computed and share subexpressions, and
    arithmetic that cannot grow without bound (a product has a constant
    side)."""
    pool = [Attr("a"), Attr("b"), Attr("c"), Const(0), Const(1), Const(2.5)]
    for _ in range(size):
        x, y, z, w = (pool[-rng.randint(1, min(len(pool), 6))] for _ in range(4))
        kind = rng.randrange(3)
        if kind == 0:
            pool.append(Arith(rng.choice("+-"), x, y))
        elif kind == 1:
            pool.append(Arith(rng.choice("*/"), x, Const(rng.choice([2, -1, 0.5]))))
        else:
            pool.append(Cond(Cmp(rng.choice(CMP_OPS), x, y), z, w))
    return pool[-1]


def test_batch_conditionals_match_the_row_compiler_on_numbers():
    rng = random.Random(3)
    rows = [(rng.randint(-3, 3), rng.choice([0, 1, 2, 0.5, -2]), rng.randint(0, 2))
            for _ in range(40)]
    outcomes = collections.Counter()
    for _ in range(300):
        exprs = [_numeric_dag(rng, rng.randint(3, 25)) for _ in range(2)]
        comp = _old_compiler(SCHEMA)
        fns = [comp(e) for e in exprs]
        want = _first_error_or(lambda: _typed((tuple([f(r) for f in fns]), 1) for r in rows))
        got = _first_error_or(lambda: _typed((row, 1) for row in
                                             zip(*evaluate_exprs(exprs, SCHEMA, rows))))
        assert got == want, exprs
        outcomes[want[0]] += 1
    assert outcomes["value"] > 200


def test_batch_takes_each_branch_only_on_its_rows():
    e = Cond(Cmp("=", Attr("a"), Const(0)), Arith("/", Attr("b"), Attr("a")), Attr(UNBOUND))
    with pytest.raises(EvalError, match="unbound attribute 'zz'"):
        evaluate_exprs([e], SCHEMA, [(1, 1, 1), (0, 1, 1)])
    with pytest.raises(EvalError, match="division by zero"):
        evaluate_exprs([e], SCHEMA, [(0, 1, 1), (1, 1, 1)])
    # every row takes the division branch: the unbound attribute is never read
    e = Cond(Cmp("<>", Attr("a"), Const(0)), Arith("/", Attr("b"), Attr("a")), Attr(UNBOUND))
    assert evaluate_exprs([e], SCHEMA, [(2, 1, 0), (4, 2, 0)]) == [[0.5, 0.5]]
    # the untaken branch would divide by zero
    e = Cond(Cmp("=", Attr("a"), Const(0)), Const(None), Arith("/", Attr("b"), Attr("a")))
    assert evaluate_exprs([e], SCHEMA, [(0, 1, 0), (2, 1, 0), (0, 3, 0)]) == [[None, 0.5, None]]


def test_batch_error_is_the_first_failing_rows():
    # row 1 fails in the second target, row 2 in the first: row 1's error wins
    exprs = [Arith("/", Const(1), Attr("a")), Arith("+", Attr("b"), Const(1))]
    rows = [(1, 1, 0), (2, "s", 0), (0, 1, 0)]
    with pytest.raises(EvalError, match="arithmetic on non-numeric values 's', 1"):
        evaluate_exprs(exprs, SCHEMA, rows)
    with pytest.raises(EvalError, match="division by zero"):
        evaluate_exprs(exprs, SCHEMA, rows[:1] + rows[2:])


def test_updated_rows_raises_the_first_rows_condition_or_new_value():
    # each row's condition, then its new values: the earlier row's error wins
    cond = Cmp(">", Attr("a"), Const(0))
    exprs = [Arith("/", Attr("b"), Attr("c")), Attr("b")]
    new_value_fails, cond_fails = (1, 1, 0), ("s", 1, 1)
    with pytest.raises(EvalError, match="division by zero"):
        updated_rows(cond, exprs, SCHEMA, [(0, 1, 0), new_value_fails, cond_fails])
    with pytest.raises(EvalError, match="cannot compare values of different types"):
        updated_rows(cond, exprs, SCHEMA, [(0, 1, 0), cond_fails, new_value_fails])
    # a row the condition does not match never computes its new values
    assert updated_rows(cond, exprs, SCHEMA, [(0, 1, 0), (2, 3, 1)]) == ([(2, 3, 1)], [(3.0, 3)])
    # a non-boolean condition raises for its row, after the matched rows before it
    cond = Attr("a")
    with pytest.raises(EvalError, match="division by zero"):
        updated_rows(cond, exprs, SCHEMA, [(True, 1, 0), (1, 1, 1)])
    with pytest.raises(EvalError, match="selection condition evaluated to non-boolean 1"):
        updated_rows(cond, exprs, SCHEMA, [(1, 1, 1), (True, 1, 0)])


def _reference_replay(updates, state):
    """Replay with the row compiler, one row at a time: the new snapshot
    and the environments of the matched rows in order."""
    schema = state.schema
    tuples = dict(state.tuples)
    matched = []
    comp = _old_compiler(schema)
    for u in updates:
        assigned = dict(u.set_clauses)
        matches = _old_predicate(comp(u.where))
        fns = [comp(assigned.get(a, Attr(a))) for a in schema]
        moved = []
        for t, m in tuples.items():
            if matches(t):
                moved.append((t, tuple([f(t) for f in fns]), m))
                matched.append(dict(zip(schema, t)))
        for t, _, _ in moved:
            del tuples[t]
        for _, row, m in moved:
            tuples[row] = tuples.get(row, 0) + m
    return _typed(tuples.items()), matched


def _replay_outcome(updates, state):
    matched = []
    snapshot = replay(updates, state, matched.append)
    return _typed(snapshot.rows()), matched


def test_replay_matches_the_row_compiler_on_random_scripts():
    rng = random.Random(15)
    numbers = [(rng.randint(-2, 3), rng.randint(0, 3), rng.randint(0, 2)) for _ in range(30)]
    states = [BagRelation.from_rows(SCHEMA, numbers), BagRelation.from_rows(SCHEMA, ROWS)]
    outcomes = set()
    for _ in range(150):
        updates = parse_updates(_random_update_script(rng, rng.randint(1, 6)))
        for state in states:
            want = _first_error_or(lambda: _reference_replay(updates, state))
            if want[0] == "error":
                got = _first_error_or(lambda: _replay_outcome(updates, state))
                assert got[0] == "error" and got[1] == want[1], updates
            else:
                assert _replay_outcome(updates, state) == want[1], updates
            outcomes.add(want[0])
    assert outcomes == {"value", "error"}


def test_replay_reads_a_column_whose_type_a_set_changed():
    # a SET gives some rows of a a string, a null, a bool or a float; a later
    # WHERE or SET reads a, so it must see the new type. In the last state a
    # names two columns, which read as its last one
    states = [BagRelation.from_rows(SCHEMA, [(0, 1, 0), (1, 2, 1), (2, 1, 0), (3, 3, 1)]),
              BagRelation.from_rows(SCHEMA, [(2, 1, 0), (1.5, 2, 1), (0, 1, 1)]),
              BagRelation.from_rows(("a", "b", "a"), [("x", 1, 0), (1, 1, 2), (None, 2, 2)])]
    outcomes = collections.Counter()
    for value in ["'x'", "NULL", "TRUE", "(a > 1)", "a / 2", "2.0", "a + 0.5"]:
        for where in ["a = 2", "a > 1", "a", "NOT a", "a + 1 = 3", "a = 'x'", "a = TRUE",
                      "a <> NULL", "c = 0"]:
            updates = parse_updates(f"UPDATE R SET a = {value} WHERE b = 1;\n"
                                    f"UPDATE R SET c = a + 1 WHERE {where};\n"
                                    f"UPDATE R SET b = 5 WHERE a = 2;\n")
            for state in states:
                want = _first_error_or(lambda: _reference_replay(updates, state))
                assert _first_error_or(lambda: _replay_outcome(updates, state)) == want, updates
                outcomes[want[0]] += 1
    assert outcomes["value"] > 30 and outcomes["error"] > 30


def test_a_shared_strict_dag_evaluates_once_per_node():
    x = Attr("a")
    for _ in range(60):
        x = Arith("+", x, x)  # unfolded, 2**60 leaves
    rows = [(i,) for i in range(100)]
    started = time.perf_counter()
    assert evaluate_exprs([x], ("a",), rows) == [[i * 2 ** 60 for i in range(100)]]
    bag = evaluate(Project(((x, "x"),), Relation("R", ("a",))),
                   {"R": BagRelation.from_rows(("a",), rows)})
    assert sorted(bag.tuples) == [(i * 2 ** 60,) for i in range(100)]
    assert time.perf_counter() - started < 1


# ---------------------------------------------------------------------------
# fold_expr


def test_fold_steps_once_per_shared_subexpression():
    a = Attr("a")
    s = Arith("+", a, Const(1))
    t = Arith("*", s, s)
    calls = []

    def step(x, kids):
        calls.append(x)
        return len(calls)

    values = fold_expr([t, s, Cmp("<", s, Attr("a"))], step)
    assert len(calls) == 5  # a, 1, s, t and the Cmp: the second Attr("a") is the first
    assert sorted(map(id, calls)) == sorted(set(map(id, calls)))
    assert values[1] == calls.index(s) + 1


def test_fold_hands_children_values_in_order():
    e = BoolOp("or", (Attr("x"), Const(2), Cond(Attr("p"), Const(3), Const(4))))
    assert fold_expr([e], lambda x, kids: (type(x).__name__, kids))[0] == (
        "BoolOp", (("Attr", ()), ("Const", ()),
                   ("Cond", (("Attr", ()), ("Const", ()), ("Const", ())))))
    assert fold_expr([], lambda x, kids: 0) == []


@pytest.mark.parametrize("walk", [render_expr, format_expr, lambda e: compile_expr(e, SCHEMA)])
def test_a_non_expression_raises_when_walked(walk):
    with pytest.raises(AlgebraError, match="not an expression"):
        walk(Arith("+", Attr("a"), "b"))


# ---------------------------------------------------------------------------
# depth


def _merged_condition(n):
    node = Relation("R", ("a", "b"))
    for i in range(n):
        node = Select(Cmp("<", Attr("a"), Const(i)), node)
    out = merge_selections(node)
    assert isinstance(out.child, Relation)
    return out.cond


def _arith_chain(n):
    x = Attr("a")
    for i in range(n):
        x = Arith("+-*"[i % 3], x, Const(i)) if i % 2 else Arith("-", Const(i), x)
    return x


def _cond_chain(n):
    x = Attr("b")
    for i in range(n):
        x = Cond(Cmp("=", Attr("a"), Const(i)), Const(i), x)
    return x


MERGED = _merged_condition(DEEP)
ARITH = _arith_chain(DEEP)
COND = _cond_chain(DEEP)


def test_conjuncts_of_a_deep_conjunction():
    parts = conjuncts(MERGED)
    assert parts == [Cmp("<", Attr("a"), Const(i)) for i in reversed(range(DEEP))]
    assert conjuncts(conjunction(parts)) == parts


def test_render_expr_prints_deep_expressions():
    assert render_expr(MERGED).count(" AND ") == DEEP - 1
    text = render_expr(ARITH)
    assert text.count("(") == text.count(")") and text.endswith(f"-{DEEP - 1}")
    text = render_expr(COND)
    assert text.startswith(f"CASE WHEN a={DEEP - 1} THEN {DEEP - 1} ELSE CASE WHEN")
    assert text.endswith("ELSE b" + " END" * DEEP)


def test_format_plan_prints_deep_expressions():
    r = Relation("R", ("a", "b"))
    plan = Project(((ARITH, "x"), (COND, "y")), Select(MERGED, r))
    text = format_plan(plan)
    assert text.startswith("(project ((")
    assert text.count("(if ") == DEEP and text.count("(< a ") == DEEP
    assert format_expr(COND).endswith(" b" + ")" * DEEP)


def test_cost_estimates_a_deep_condition():
    r = Relation("R", ("a", "b"))
    est = cost(Select(MERGED, r), {"R": TableStats(1e6, {"a": 10.0})})
    assert est.per_node[r] == (1e6, 1e6) and len(est.per_node) == 2


def test_deep_chains_match_the_reference_below_the_recursion_limit():
    for e in (_merged_condition(150), _arith_chain(150), _cond_chain(150)):
        assert render_expr(e) == _old_render_expr(e)
        assert format_expr(e) == _old_format_expr(e)
        got, want = _selection_rows(e, {"a": 7.0}, 64.0)
        assert got == want
        for r in [(0, 1), (3, 2), (None, 5)]:
            assert _outcome(compile_expr(e, ("a", "b")), r) == _outcome(_old_compiler(("a", "b"))(e), r)
        assert conjuncts(e) == _old_conjuncts(e)


def _arith_chain_value(n, a):
    x = a
    for i in range(n):
        x = _ARITH["+-*"[i % 3]](x, i) if i % 2 else i - x
    return x


def test_evaluate_runs_deep_expressions():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        rows = [(-1, 7), (0, 8), (3, 9), (DEEP - 1, 1), (DEEP + 5, 2)]
        r = Relation("R", ("a", "b"))
        db = {"R": BagRelation.from_rows(("a", "b"), rows)}
        assert list(evaluate(Select(MERGED, r), db).tuples) == [(-1, 7)]
        assert list(evaluate(Select(Cmp("<", COND, Const(5)), r), db).tuples) == [
            (0, 8), (3, 9), (DEEP + 5, 2)]
        bag = evaluate(Project(((ARITH, "x"), (COND, "y")), r), db)
    finally:
        sys.setrecursionlimit(limit)
    assert list(bag.tuples) == [(_arith_chain_value(DEEP, a), a if 0 <= a < DEEP else b)
                                for a, b in rows]


def test_compile_expr_compiles_deep_expressions():
    # evaluating them at this depth is test_evaluate_runs_deep_expressions
    for e in (MERGED, ARITH, COND):
        assert callable(compile_expr(e, ("a", "b")))
        assert callable(compile_predicate(e, ("a", "b")))
    assert compile_expr(_arith_chain(400), ("a",))((1,)) is not None


# ---------------------------------------------------------------------------
# reference cycles


def test_compiling_and_costing_leave_no_reference_cycles():
    shared = Attr("a")  # 12 levels: a schema check walks the DAG as a tree
    for i in range(12):
        shared = Cond(Cmp("<", Attr("b"), Const(i)), Arith("+", shared, Const(1)), shared)
    plan = Select(BoolOp("and", (Cmp("=", Attr("a"), Const(1)), Cmp("<", Attr("b"), Const(2)))),
                  Project(((shared, "a"), (Attr("b"), "b")), Relation("R", ("a", "b"))))
    schema_of(plan)
    stats = {"R": TableStats(10.0, {"a": 5.0})}
    gc.collect()
    gc.disable()
    try:
        row = compile_row([shared, Arith("*", shared, Const(2))], ("a", "b"))
        assert row((1, 100)) == (1, 2)
        est = cost(plan, stats)
        assert est.total > 0
        del row, est
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the command line on long reenactments


def _updates(tmp_path, n):
    path = tmp_path / f"t{n}.sql"
    path.write_text("".join(f"UPDATE R SET A = A + 1 WHERE B = {i % 3};\n" for i in range(n)))
    return path


FIXTURES_TXN = Path(__file__).parent.parent / "fixtures_txn"


def test_run_reenacts_800_stacked_updates(tmp_path, capsys):
    started = time.perf_counter()
    code = cli.main(["run", "--reenact", str(_updates(tmp_path, 800)),
                     "--data", str(FIXTURES_TXN)])
    out = capsys.readouterr()
    assert code == 0, out.err
    # B = 1 matches 267 of the 800 statements, B = 2 matches 266
    assert "269 | 1" in out.out and "269 | 2" in out.out and "270 | 2" in out.out
    assert "SQL:" in out.out
    assert time.perf_counter() - started < 30


def test_run_reenacts_1200_stacked_updates(tmp_path, capsys):
    code = cli.main(["run", "--reenact", str(_updates(tmp_path, 1200)),
                     "--data", str(FIXTURES_TXN)])
    out = capsys.readouterr()
    assert code == 0, out.err
    # B = 1 and B = 2 each match 400 of the 1,200 statements
    assert "402 | 1" in out.out and "403 | 2" in out.out and "404 | 2" in out.out


def test_run_reenacts_2000_stacked_updates_at_the_default_recursion_limit(tmp_path, capsys):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        started = time.perf_counter()
        code = cli.main(["run", "--reenact", str(_updates(tmp_path, 2000)),
                         "--data", str(FIXTURES_TXN)])
        elapsed = time.perf_counter() - started
    finally:
        sys.setrecursionlimit(limit)
    out = capsys.readouterr()
    assert code == 0, out.err
    # B = 1 matches 667 of the 2,000 statements, B = 2 matches 666
    assert "669 | 1" in out.out and "669 | 2" in out.out and "670 | 2" in out.out
    assert elapsed < 30


def test_deep_plan_file_optimizes(tmp_path, capsys):
    node = Relation("R", ("a", "b"))
    for i in range(500):
        node = Project(((Attr("a"), "a"), (Attr("b"), "b")),
                       Select(Cmp("<", Attr("a"), Const(i)), node))
    plan = tmp_path / "deep.plan"
    plan.write_text(format_plan(node))
    code = cli.main(["optimize", "--plan", str(plan)])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert out.out == format_plan(apply_pats(node)) + "\n"
