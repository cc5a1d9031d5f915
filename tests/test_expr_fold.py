"""Compiling, printing and costing an expression are each one
:func:`provopt.algebra.fold_expr` step.

The recursive walkers below are the implementations those steps replaced,
kept as the reference: the SQL printer, the plan-text printer, the row
compiler, the cost model's selectivity and the conjunct flattening must
give the same text, the same numbers, the same lists and the same values or
errors on every input, including deep
expressions and DAGs with shared subexpressions. The fold versions must in
addition run at any depth and leave no reference cycle behind.
"""
import gc
import itertools
import random
import time
from pathlib import Path

import pytest

from randgen import random_condition, random_query

from provopt import cli
from provopt.algebra import (
    ARITH_OPS, AlgebraError, Arith, Attr, BoolOp, CMP_OPS, Cmp, Cond, Const,
    Expr, Project, Relation, Select, all_nodes, conjunction, conjuncts,
    expr_attrs, expr_children, expr_nodes, fold_expr, schema_of,
)
from provopt.executor import (
    RANGE_SELECTIVITY, EvalError, TableStats, _arith, _boolop, _cmp, _cond,
    _constant, _unbound, compile_expr, compile_predicate, compile_row, cost,
)
from provopt.instrument import parse_updates, reenact
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
    return f"{side(e.left, prec, False)}{e.op}{side(e.right, prec, True)}"


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
    assert len(calls) == 6  # a, 1, s, t, the second Attr("a") object and the Cmp
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


def test_compile_expr_compiles_deep_expressions():
    # running them would nest one Python call per level, which stays bounded
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


def test_too_deep_reenactment_is_an_error_line(tmp_path, capsys):
    code = cli.main(["run", "--reenact", str(_updates(tmp_path, 1200)),
                     "--data", str(FIXTURES_TXN)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: input nested too deeply") and err.count("\n") == 1


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
