import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import assert_same_plan
from randgen import random_agg_query, random_query, share_subtree
from test_local_rules import reenact_txn_stack

from provopt import plantext
from provopt.algebra import (
    Agg, Arith, Attr, BoolOp, Cmp, Cond, Const, Cross, Diff, DupElim, Intersect, Join,
    Project, Relation, Select, Union, Window, all_nodes, structurally_equal,
)
from provopt.instrument import instrument_query
from provopt.plantext import _FORMS, PlanSyntaxError, format_plan, parse_plan
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


# ---------------------------------------------------------------------------
# every malformed plan is a syntax error

R = "(rel R (attrs a))"
WINDOW = "(window sum a -> s (partition) (order)"


@pytest.mark.parametrize("text, col, message", [
    # expressions: each head's operand count
    (f"(select (not) {R})", 9, "usage: (not EXPR)"),
    (f"(select (not a b) {R})", 9, "usage: (not EXPR)"),
    (f"(select (attr) {R})", 9, "usage: (attr NAME)"),
    (f"(select (attr a b) {R})", 9, "usage: (attr NAME)"),
    (f"(select (const) {R})", 9, "usage: (const LITERAL)"),
    (f"(select (+ a) {R})", 9, "usage: (+ EXPR EXPR)"),
    (f"(select (= a) {R})", 9, "usage: (= EXPR EXPR)"),
    (f"(select (if a b) {R})", 9, "usage: (if EXPR EXPR EXPR)"),
    (f"(select (and) {R})", 9, "usage: (and EXPR+)"),
    (f"(select (or) {R})", 9, "usage: (or EXPR+)"),
    (f"(select (% a 1) {R})", 9, "unknown expression operator '%'"),
    (f"(select () {R})", 9, "expected (operator ...)"),
    (f"(select (= a ->) {R})", 14, "expected EXPR, not '->'"),
    (f"(select (= a (const b)) {R})", 21, "expected LITERAL, not 'b'"),
    (f"(select (= a {'9' * 5000}) {R})", 14, "number of 5000 characters is too long"),
    # join conditions
    (f"(join () {R} {R})", 7, "expected (= NAME NAME) or (and COND+)"),
    (f"(join (= a) {R} {R})", 7, "expected (= NAME NAME) or (and COND+)"),
    (f"(join (or (= a a)) {R} {R})", 7, "expected (= NAME NAME) or (and COND+)"),
    # relations
    ("(rel)", 1, "usage: (rel NAME [(attrs NAME*)])"),
    (f"(rel R (attrs a) x)", 1, "usage: (rel NAME [(attrs NAME*)])"),
    ("(rel R x)", 8, "expected (attrs NAME*)"),
    ("(rel R (attrs (a)))", 15, "expected NAME"),
    # each operator with the wrong number of inputs
    ("(select (= a 1))", 1, "usage: (select EXPR node)"),
    (f"(select (= a 1) {R} {R})", 1, "usage: (select EXPR node)"),
    (f"(project {R})", 1, "usage: (project TARGET+ node)"),
    (f"(fence {R})", 1, "usage: (fence TARGET+ node)"),
    (f"(join (= a a) {R})", 1, "usage: (join COND node node)"),
    (f"(cross {R})", 1, "usage: (cross node node)"),
    (f"(union {R} {R} {R})", 1, "usage: (union node node)"),
    (f"(intersect {R})", 1, "usage: (intersect node node)"),
    ("(diff)", 1, "usage: (diff node node)"),
    ("(agg (groupby) (aggs))", 1, "usage: (agg (groupby NAME*) (aggs (FN NAME -> NAME)*) node)"),
    ("(dupelim)", 1, "usage: (dupelim node)"),
    (f"(dupelim {R} {R})", 1, "usage: (dupelim node)"),
    (f"{WINDOW})", 1, "usage: (window FN NAME -> NAME (partition NAME*) (order NAME*)"
                      " [(frame running|partition)] node)"),
    (f"{WINDOW} (frame running) {R} {R})", 1, "usage: (window FN NAME -> NAME"),
    # the parts of a form
    (f"(project a {R})", 10, "projection target must look like (EXPR -> NAME)"),
    (f"(project (a a) {R})", 10, "projection target must look like (EXPR -> NAME)"),
    (f"(project (a -> (b)) {R})", 16, "expected NAME"),
    (f"(agg (groupby) (aggs (sum a s)) {R})", 22, "aggregate must look like (FN NAME -> NAME)"),
    (f"(agg (groupby) (aggs (median a -> s)) {R})", 23, "unknown aggregation function 'median'"),
    (f"(agg (group a) (aggs) {R})", 6, "expected (groupby NAME*)"),
    (f"(agg (groupby) (sum a -> s) {R})", 16, "expected (aggs (FN NAME -> NAME)*)"),
    (f"(window median a -> s (partition) (order) {R})", 9, "unknown aggregation function"),
    (f"(window sum a s s (partition) (order) {R})", 15, "expected '->'"),
    (f"{WINDOW} (frame all) {R})", 40, "expected (frame running|partition)"),
    (f"{WINDOW} (frame) {R})", 40, "expected (frame running|partition)"),
    (f"(window sum a -> s (order) (partition) {R})", 20, "expected (partition NAME*)"),
    # operators and the lists themselves
    ("(scan R)", 1, "unknown operator 'scan'"),
    ("()", 1, "expected (operator ...)"),
    ("rel", 1, "expected (operator ...)"),
    (")", 1, "unexpected ')'"),
    (f"{R})", 18, "trailing input ')'"),
    ("(select (= a 1) (rel R (attrs a))", 1, "missing closing parenthesis"),
])
def test_every_malformed_form_is_a_syntax_error(text, col, message):
    with pytest.raises(PlanSyntaxError) as err:
        parse_plan(text)
    assert (err.value.line, err.value.col) == (1, col)
    assert str(err.value).startswith(message), str(err.value)


def test_at_most_one_part_of_a_form_repeats_or_is_optional():
    for kind, form in _FORMS.items():
        spare = [way for _, way in form.parts if way.symbol.endswith("+") or way.absent]
        assert len(spare) <= 1, kind


def _mutation_plans():
    r, s = Relation("R", ("a", "b")), Relation("S", ("c", "d"))
    shop = Relation("shop", ("name", "numEmpl"))
    sale, item = Relation("sale", ("shop", "item")), Relation("item", ("id", "price"))
    yield instrument_query(Project(((Attr("name"), "name"),), Join(
        (("item", "id"),), Join((("name", "shop"),), shop, sale),
        Select(Cmp(">", Attr("price"), Const(20)), item))))
    yield Window("sum", "a", "w", ("b",), ("a",), Agg(("b",), (("count", "a", "a"),), r),
                 "partition")
    yield DupElim(Diff(Union(r, s), Intersect(r, Project(
        ((Attr("e"), "c"), (Attr("f"), "d")),
        Cross(Relation("T", ("e",)), Relation("U", ("f",)))))))
    yield Project(((Attr("a"), "x y"),),
                  Project(((Arith("*", Attr("a"), Const(2)), "a"),), r), materialize=True)
    yield Select(BoolOp("or", (
        BoolOp("not", (Cmp("=", Attr("a"), Const("t;x")),)),
        Cond(Cmp("<=", Attr("b"), Const(1.5)), Const(True), Const(None)),
        Cmp("<>", Attr("true"), Const(False)))), Relation("R", ("a", "b", "true")))


def test_mutated_plans_raise_only_syntax_errors():
    token = re.compile(r'\(|\)|"(?:[^"\\]|\\.)*"|[^\s()]+')
    texts = [format_plan(p) for p in _mutation_plans()]
    vocab = sorted({t for text in texts for t in token.findall(text)}
                   | {"()", "->", "and", "not", "frame", "attrs", "1"})
    rng = random.Random(26)
    parsed = 0
    for i in range(8000):
        toks = token.findall(texts[i % len(texts)])
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(toks))
            edit = rng.randrange(4)
            if edit == 0:
                del toks[k]
            elif edit == 1:
                toks.insert(k, rng.choice(vocab))
            elif edit == 2:
                toks[k] = rng.choice(vocab)
            else:
                toks[k:k + 2] = toks[k:k + 2][::-1]
            toks = toks or ["("]
        try:
            parse_plan(" ".join(toks))
            parsed += 1
        except PlanSyntaxError:
            pass
    assert 0 < parsed < 8000


# ---------------------------------------------------------------------------
# round trips and the grammar


def _random_plans():
    """Random plans over every operator, half over pooled names (which
    products prime) and a third sharing a subtree; and instrumented
    aggregations rewritten, which can fence projections."""
    rng = random.Random(1026)
    for i in range(300):
        pool = ("a", "b", "c") if i % 2 else ()
        q, _ = random_query(rng, rng.randint(1, 7), pool=pool)
        yield share_subtree(rng, q) if i % 3 == 1 else q
        if i % 4 == 3:
            yield apply_pats(instrument_query(random_agg_query(rng, 2, pool=pool)[0]))
    yield apply_pats(reenact_txn_stack())


def test_random_plans_round_trip():
    kinds = Counter()
    for q in _random_plans():
        roundtrip(q)
        kinds.update(format_plan(n).split(" ", 1)[0][1:] for n in all_nodes(q))
    assert set(kinds) == set(_FORMS), kinds


def _grammar_keywords(text: str) -> set[str]:
    """The keywords of the node alternatives in a text's grammar, each
    line's note on the right left out."""
    grammar = re.split(r"EXPR\s+:=", re.split(r"node\s+:=", text, 1)[1], 1)[0]
    rules = [re.sub(r"\)\s{2,}.*", ")", line) for line in grammar.splitlines()]
    return {kw for rule in rules for kw in re.findall(r"(?:^|\|)\s*\((\w+)", rule)}


def test_the_grammar_names_exactly_the_forms():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert _grammar_keywords(readme.split("## Plan text format", 1)[1]) == set(_FORMS)
    assert _grammar_keywords(plantext.__doc__) == set(_FORMS)
