"""Expressions are hash-consed: one object per distinct expression.

Equal expressions built separately are one object, so ``==`` is ``is`` and
``hash`` is O(1) at any size or depth. Constants that Python calls equal but
that evaluate differently (``1``, ``1.0`` and ``True``; ``0.0`` and
``-0.0``) stay distinct, so no rewrite can exchange one for another.
"""
import gc
import math
import time
import weakref

import pytest

from helpers import expr_size

from provopt.algebra import Arith, Attr, BoolOp, Cmp, Cond, Const
from provopt.cli import format_bag
from provopt.executor import BagRelation, evaluate
from provopt.plantext import parse_plan
from provopt.rewrites import apply_pats


def test_equal_expressions_built_separately_are_one_object():
    def build():
        return Cond(Cmp("=", Attr("a"), Const(0)),
                    Arith("+", Attr("a"), Const(1.5)),
                    BoolOp("and", (Attr("p"), Const(None))))

    assert build() is build()
    assert build() == build() and hash(build()) == hash(build())
    assert Arith("+", Attr("a"), Const(1)) is not Arith("+", Attr("a"), Const(2))


def test_constants_that_python_calls_equal_stay_distinct():
    assert Const(1) is not Const(1.0) and Const(1) != Const(1.0)
    assert Const(1) is not Const(True) and Const(1) != Const(True)
    assert Const(0) is not Const(False) and Const(0.0) is not Const(-0.0)
    assert Const(0.0) != Const(-0.0)
    assert Const(1.0) is Const(1.0) and Const("1") is Const("1") and Const(None) is Const(None)


def test_a_nan_constant_equals_itself():
    assert Const(math.nan) is Const(float("nan"))
    assert Const(math.nan) == Const(math.nan)


def test_the_table_does_not_keep_an_expression_alive():
    e = Arith("*", Attr("only_here"), Const(7))
    dead = weakref.ref(e)
    del e
    gc.collect()
    assert dead() is None
    assert Arith("*", Attr("only_here"), Const(7)).size == 3


def test_deep_chain_compares_and_hashes():
    x = Attr("a")
    for i in range(3000):
        x = Arith("+-*"[i % 3], x, Const(i))
    assert x == x and hash(x) == hash(x)
    assert x != Arith("+", x, Const(0))
    assert expr_size(x) == 6001


def test_shared_dag_hashes_in_constant_time():
    x = Attr("a")
    for _ in range(20):
        x = Arith("+", x, x)
    started = time.perf_counter()
    hash(x)
    assert time.perf_counter() - started < 0.001
    assert expr_size(x) == 2 ** 21 - 1  # counted per reference, read off the root


@pytest.mark.parametrize("target, rows", [
    # factoring read `(+ 1.0 a)` as `1 + a` because Const(1.0) == Const(1): 1.0 became 1
    ("(if (= a 0) (+ 1.0 a) 1)", [(0,), (5,)]),
    # and `true` as the 1 of `(+ 1 a)`: the plan then added a number to true
    ("(if (= a 0) (+ 1 a) true)", [(0,), (1,)]),
])
def test_apply_pats_keeps_constants_of_another_type(target, rows):
    plan = parse_plan(f"(project ({target} -> x) (rel R (attrs a)))")
    db = {"R": BagRelation.from_rows(("a",), rows)}
    # compared as printed: as dict keys, 1 == 1.0 == True
    assert format_bag(evaluate(apply_pats(plan), db)) == format_bag(evaluate(plan, db))


@pytest.mark.parametrize("constant, rows", [
    # the classes {a, 1} and {b, true} merged, since the constants compared
    # equal by value: the plan gained (= a b) and compared 1 with true
    ("true", [(1, True), (2, False)]),
    # with 1.0 the answer held, but the plan gained a redundant (= a b) and
    # a second equality to the constant the merged class kept
    ("1.0", [(1, 1.0), (2, 2.0)]),
])
def test_equalities_to_constants_of_another_type_stay_in_two_classes(constant, rows):
    plan = parse_plan(f"(select (and (= a 1) (= b {constant})) (rel R (attrs a b)))")
    db = {"R": BagRelation.from_rows(("a", "b"), rows)}
    out = apply_pats(plan)
    assert format_bag(evaluate(out, db)) == format_bag(evaluate(plan, db))
    assert out is plan
