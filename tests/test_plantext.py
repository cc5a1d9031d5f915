import sys

import pytest

from helpers import assert_same_plan
from test_local_rules import reenact_txn_stack

from provopt.algebra import (
    Agg, Arith, Attr, BoolOp, Cmp, Cond, Const, Cross, Join, Project, Relation, Select,
    Union, Window, all_nodes, structurally_equal,
)
from provopt.plantext import PlanSyntaxError, format_plan, parse_plan
from provopt.rewrites import apply_pats
from provopt.sqlgen import to_sql


def roundtrip(node):
    text = format_plan(node)
    again = parse_plan(text)
    assert structurally_equal(node, again), text
    assert format_plan(again) == text


def test_readme_example_parses_with_catalog():
    catalog = {"shop": ("name", "numEmpl"), "sale": ("shop", "item")}
    q = parse_plan(
        "(project ((attr name) -> name)"
        " (join (= name shop) (rel shop) (rel sale)))", catalog)
    assert isinstance(q, Project)
    assert isinstance(q.child, Join) and q.child.pairs == (("name", "shop"),)


def test_rel_without_catalog_needs_inline_attrs():
    with pytest.raises(PlanSyntaxError):
        parse_plan("(rel shop)")
    q = parse_plan("(rel shop (attrs name numEmpl))")
    assert q == Relation("shop", ("name", "numEmpl")) or q.attrs == ("name", "numEmpl")


def test_roundtrip_small_query():
    r = Relation("R", ("a", "b"))
    roundtrip(Select(Cmp("<", Attr("a"), Const(5)), r))
    roundtrip(Project(((Arith("+", Attr("a"), Attr("b")), "c"),), r))
    roundtrip(Union(r, Relation("S", ("x", "y"))))
    roundtrip(Agg(("b",), (("sum", "a", "s"), ("count", "b", "c")), r))
    roundtrip(Window("max", "a", "m", ("b",), ("a",), r, "partition"))
    roundtrip(Select(Cond(Cmp("=", Attr("a"), Const(1)), Const(True), Const(False)), r))


def test_roundtrip_instrumented_graph(shop_query):
    from provopt.instrument import instrument_query
    roundtrip(instrument_query(shop_query))


def test_string_and_literal_values():
    q = parse_plan('(select (= a 1.5) (rel R (attrs a)))')
    assert q.cond.right == Const(1.5)
    q = parse_plan('(select (= a null) (rel R (attrs a)))')
    assert q.cond.right == Const(None)
    q = parse_plan('(select (= a true) (rel R (attrs a)))')
    assert q.cond.right == Const(True)
    q = parse_plan('(select (= a "two words") (rel R (attrs a)))')
    assert q.cond.right == Const("two words")


def test_roundtrip_awkward_names():
    # primed names from join qualification and string constants with quotes
    r = Relation("R", ("a", "b'"))
    roundtrip(Select(Cmp("=", Attr("b'"), Const('say "hi"')), r))
    roundtrip(Project(((Attr("a"), "select"),), r))
    # a ; or a line break inside a string is not a comment or a line end
    roundtrip(Select(Cmp("=", Attr("a"), Const("x;y")), Relation("R", ("a",))))
    roundtrip(Select(Cmp("=", Attr("a"), Const("x\ny")), Relation("R", ("a",))))
    roundtrip(Project(((Attr("a"), "a;b"),), r))
    alphabet = '\\";\na'
    texts = [""]
    for _ in range(4):
        texts += [t + c for t in texts if len(t) == len(texts[-1]) for c in alphabet]
    for text in texts:
        roundtrip(Select(Cmp("=", Attr(text or "a"), Const(text)), Relation("R", (text or "a",))))
        roundtrip(Project(((Attr("a"), text or "a"),), r))


def test_error_reports_position():
    with pytest.raises(PlanSyntaxError) as err:
        parse_plan("(select (= a 1)\n  (bogus x))")
    assert err.value.line == 2


@pytest.mark.parametrize("text, line, col", [
    ('(rel "R (attrs a))', 1, 6),
    ('(select (= a\n  "x\\") (rel R (attrs a)))', 2, 3),
])
def test_unterminated_string_rejected(text, line, col):
    with pytest.raises(PlanSyntaxError, match="unterminated string") as err:
        parse_plan(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_trailing_input_rejected():
    with pytest.raises(PlanSyntaxError):
        parse_plan("(rel R (attrs a)) (rel S (attrs b))")


def test_empty_plan_rejected():
    with pytest.raises(PlanSyntaxError):
        parse_plan("   ; just a comment\n")


def test_multi_pair_join_condition():
    text = "(join (and (= a c) (= b d)) (rel R (attrs a b)) (rel S (attrs c d)))"
    q = parse_plan(text)
    assert q.pairs == (("a", "c"), ("b", "d"))
    roundtrip(q)


@pytest.mark.parametrize("cond, col", [("(and)", 7), ("(and (= a c) (and))", 20)])
def test_join_condition_needs_a_pair(cond, col):
    with pytest.raises(PlanSyntaxError) as err:
        parse_plan(f"(join {cond} (rel R (attrs a b)) (rel S (attrs c d)))")
    assert (err.value.line, err.value.col) == (1, col)
    assert "'and' needs at least one (= a b)" in str(err.value)


def test_join_on_no_pairs_prints_as_cross():
    r, s = Relation("R", ("a", "b")), Relation("S", ("a", "c"))
    text = format_plan(Join((), r, s))
    assert text == "(cross (rel R (attrs a b)) (rel S (attrs a c)))"
    assert structurally_equal(parse_plan(text), Cross(r, s))


# ---------------------------------------------------------------------------
# parsing at any depth

DEEP = 5000


def test_roundtrip_at_5000_levels_of_nodes():
    assert sys.getrecursionlimit() < DEEP
    node = Relation("R", ("a", "b"))
    for i in range(DEEP // 2):
        node = Project(((Attr("a"), "a"), (Attr("b"), "b")),
                       Select(Cmp("<", Attr("a"), Const(i)), node))
    roundtrip(node)
    with pytest.raises(PlanSyntaxError, match=r"missing closing parenthesis \(line 1, column 1\)"):
        parse_plan(format_plan(node)[:-1])


def test_roundtrip_at_5000_levels_of_expressions():
    e = Attr("a")
    for i in range(DEEP):
        e = [Arith("+", e, Const(i)), Cmp("<", Const(i), e), BoolOp("and", (e, Attr("b"))),
             BoolOp("not", (e,)), Cond(Attr("b"), Const(None), e)][i % 5]
    text = format_plan(Project(((e, "x"),), Relation("R", ("a", "b"))))
    # compared as text, since comparing the expressions would recurse per level
    assert format_plan(parse_plan(text)) == text


def test_fenced_projections_round_trip():
    # the merged reenactment stack keeps the pairs it refused to merge as
    # fences, which SQL generation makes CTEs of
    plan = apply_pats(reenact_txn_stack())
    assert sum(isinstance(n, Project) and n.materialize for n in all_nodes(plan)) == 27
    again = parse_plan(format_plan(plan))
    assert_same_plan(again, plan)
    assert to_sql(again) == to_sql(plan)
    roundtrip(Project(((Attr("a"), "b"),), Relation("R", ("a",)), materialize=True))
