import pytest

from provopt.algebra import (
    Agg, Arith, Attr, Cmp, Cond, Const, Cross, Join, Project, Relation, Select,
    Union, Window, structurally_equal,
)
from provopt.plantext import PlanSyntaxError, format_plan, parse_plan


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


def test_error_reports_position():
    with pytest.raises(PlanSyntaxError) as err:
        parse_plan("(select (= a 1)\n  (bogus x))")
    assert err.value.line == 2


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
