"""Stacked projections evaluated as one chain: a projection whose only reader
is a projection passes its columns up unmerged, and the top of the chain
merges equal rows once. Every result here must equal a level-by-level
evaluation, in which each projection runs over its child's merged bag,
in the same dict order, and raise the same error."""
import math
import random
import sys
import tracemalloc

from helpers import projected_rows
from randgen import random_instance, random_query, share_subtree

from provopt.algebra import (
    Arith, Attr, BoolOp, Cmp, Cond, Const, Cross, Join, Project, Relation,
    SchemaError, Select, Union, all_nodes, replace_children, schema_of,
)
from provopt.executor import BagRelation, EvalError, evaluate
from provopt.instrument import UpdateStmt, reenact


def level_by_level(root, db):
    """Each node over its children's merged bags: a projection is
    :func:`projected_rows` over its child's rows, then a merge of counts;
    any other operator is :func:`evaluate` over its children bound as
    relations."""
    bags = {}
    for n in all_nodes(root):
        schema = schema_of(n)
        if isinstance(n, Project):
            child = bags[n.child]
            new = projected_rows([e for e, _ in n.targets], child.schema, list(child.tuples))
            out = {}
            for t, m in zip(new, child.tuples.values()):
                out[t] = out.get(t, 0) + m
            bags[n] = BagRelation(schema, out)
        elif isinstance(n, Relation):
            bags[n] = evaluate(n, db)
        else:
            kids = tuple(Relation(f"in{i}", schema_of(c)) for i, c in enumerate(n.children))
            bags[n] = evaluate(replace_children(n, kids),
                               {k.name: bags[c] for k, c in zip(kids, n.children)})
    return bags[root]


def items(bag):
    """A bag's rows with their counts, in dict order; ``repr`` tells ``1``,
    ``True`` and ``1.0`` apart."""
    return bag.schema, [(repr(t), m) for t, m in bag.tuples.items()]


def outcome(evaluator, root, db):
    """The evaluator's :func:`items`, or its error's type and text."""
    try:
        return items(evaluator(root, db))
    except (EvalError, SchemaError) as exc:
        return type(exc).__name__, str(exc)


def assert_matches(root, db):
    got = outcome(evaluate, root, db)
    assert got == outcome(level_by_level, root, db)
    return got


R = Relation("R", ("k", "a", "b"))


def r_db(rows):
    bag = BagRelation(("k", "a", "b"))
    for row, m in rows:
        bag.add(row, m)
    return {"R": bag}


DB = r_db([((1, 3, 0), 2), ((2, 3, 1), 1), ((3, 4, 0), 1), ((4, 3, 0), 3), ((5, 4, 1), 1)])


def project(child, *targets):
    return Project(tuple((e, name) for e, name in targets), child)


def test_rows_that_merge_in_the_middle_of_the_chain():
    # the first level keeps k, so nothing merges; the second drops it
    lower = project(R, (Attr("k"), "k"), (Arith("+", Attr("a"), Const(1)), "a"), (Attr("b"), "b"))
    middle = project(lower, (Attr("a"), "a"), (Attr("b"), "b"))
    top = project(middle, (Arith("*", Attr("a"), Const(2)), "x"),
                  (Cmp("=", Attr("b"), Const(0)), "zero"))
    _, rows = assert_matches(top, DB)
    assert rows == [("(8, True)", 5), ("(8, False)", 1), ("(10, True)", 1), ("(10, False)", 1)]
    # a level that maps rows onto fewer rows, then one that splits nothing
    fold = project(project(R, (Attr("b"), "b")), (Arith("-", Attr("b"), Const(1)), "c"))
    assert assert_matches(fold, DB)[1] == [("(-1,)", 6), ("(0,)", 2)]


def test_an_empty_input():
    chain = project(project(R, (Arith("+", Attr("a"), Const(1)), "a")), (Attr("a"), "a"))
    assert assert_matches(chain, r_db([])) == (("a",), [])


def test_a_projection_with_no_targets():
    empty = project(R)
    assert assert_matches(project(empty, (Const(7), "seven")), DB) == (("seven",), [("(7,)", 8)])
    assert assert_matches(project(empty), DB) == ((), [("()", 8)])
    assert assert_matches(project(project(empty), (Const(1), "one")), r_db([])) == (("one",), [])


def test_one_projection_with_two_parents():
    shared = project(R, (Arith("+", Attr("a"), Attr("b")), "s"), (Attr("b"), "b"))
    left = project(shared, (Attr("s"), "s"))
    right = project(shared, (Arith("*", Attr("s"), Const(10)), "t"))
    union = Union(project(left, (Attr("s"), "v")), project(right, (Attr("t"), "v")))
    assert assert_matches(union, DB)[1]
    assert assert_matches(Cross(left, right), DB)[1]


def test_a_join_of_one_projection_with_itself():
    shared = project(project(R, (Attr("a"), "a"), (Attr("b"), "b")),
                     (Arith("-", Attr("a"), Attr("b")), "d"), (Attr("b"), "b"))
    _, rows = assert_matches(Join((("d", "d"),), shared, shared), DB)
    assert rows
    _, rows = assert_matches(project(Cross(shared, shared), (Attr("d"), "d")), DB)
    assert sum(m for _, m in rows) == 8 * 8


def test_a_chain_that_ends_at_the_root():
    chain = R
    for i in range(6):
        chain = project(chain, (Attr("k"), "k"),
                        (Cond(Cmp("=", Attr("b"), Const(i % 2)), Arith("+", Attr("a"), Const(i)),
                              Attr("a")), "a"),
                        (Attr("b"), "b"))
    _, rows = assert_matches(chain, DB)
    assert len(rows) == 5
    # the same chain under a selection: its top is read by a non-projection
    assert assert_matches(Select(Cmp(">", Attr("a"), Const(9)), chain), DB)[1]


def test_errors_at_two_levels_raise_the_first_failing_rows_error():
    # the lower level fails on a later row than the upper one: the lower
    # level runs first, so its error is the one raised
    lower = project(R, (Attr("k"), "k"),
                    (Arith("/", Const(12), Arith("-", Attr("k"), Const(4))), "q"))
    upper = project(lower, (Arith("+", Attr("q"), Cond(Cmp("=", Attr("k"), Const(1)),
                                                          Const("x"), Const(0))), "y"))
    assert assert_matches(upper, DB) == ("EvalError", "division by zero")
    # within one level, the first row that fails in any column
    lower = project(R, (Attr("k"), "k"), (Attr("a"), "a"))
    upper = project(lower, (Arith("/", Attr("a"), Arith("-", Attr("k"), Const(3))), "q"),
                    (Arith("+", Attr("a"),
                           Cond(Cmp("=", Attr("k"), Const(2)), Const("x"), Const(0))), "p"))
    assert assert_matches(upper, DB) == ("EvalError", "arithmetic on non-numeric values 3, 'x'")
    # rows that merge below the failing level fail once, as their first
    # occurrence does
    lower = project(R, (Attr("b"), "b"))
    upper = project(lower, (Arith("/", Const(1), Attr("b")), "q"))
    assert assert_matches(upper, DB) == ("EvalError", "division by zero")


def test_a_schema_error_is_raised_before_the_node_runs():
    # evaluating the middle level's unknown attribute would fail every row
    # with an "unbound attribute" error; its schema is read first
    lower = project(R, (Attr("k"), "k"), (Attr("a"), "a"))
    middle = project(lower, (Attr("b"), "b"))
    top = project(middle, (Attr("b"), "c"))
    got = assert_matches(top, DB)
    assert got[0] == "SchemaError" and "b" in got[1]
    # a lower level that fails at run time fails first
    lower = project(R, (Arith("/", Attr("a"), Attr("b")), "q"))
    assert assert_matches(project(project(lower, (Attr("b"), "b")), (Attr("b"), "c")), DB) == (
        "EvalError", "division by zero")


def test_values_equal_across_types_merge_where_they_meet():
    # 1, True and 1.0 are one dict key: the level that makes them equal
    # merges them, so the comparison above sees only the first of them
    db = {"S": BagRelation.from_rows(("x", "y"), [(1, "p"), (True, "q"), (1.0, "r"), (2, "s")])}
    s = Relation("S", ("x", "y"))
    chain = project(project(project(s, (Attr("x"), "x")), (Attr("x"), "x")),
                    (Cmp("=", Attr("x"), Const(1)), "one"))
    assert assert_matches(chain, db) == (("one",), [("(True,)", 3), ("(False,)", 1)])
    # a computed column of two numeric types too: True + 0 would fail
    mixed = project(s, (Cond(Cmp("=", Attr("y"), Const("q")), Const(True),
                             Arith("*", Attr("x"), Const(1))), "x"))
    assert assert_matches(project(mixed, (Arith("+", Attr("x"), Const(0)), "z")), db) == (
        ("z",), [("(1,)", 3), ("(2,)", 1)])
    flipped = {"S": BagRelation.from_rows(("x", "y"), [(1.0, "p"), (True, "q"), (1, "r")])}
    plus_one = project(project(s, (Attr("x"), "x")), (Arith("+", Attr("x"), Const(1)), "z"))
    assert assert_matches(plus_one, flipped) == (("z",), [("(2.0,)", 3)])


def test_one_nan_object_in_many_rows_merges_where_it_meets():
    nan = math.nan
    s = Relation("S", ("x", "y"))
    db = {"S": BagRelation.from_rows(("x", "y"), [(1.5, 1), (2.5, 1), (3.5, 2)])}
    lower = project(s, (Const(nan), "n"), (Attr("y"), "y"))
    upper = project(lower, (Arith("+", Attr("n"), Const(1.0)), "m"), (Attr("y"), "y"))
    _, rows = assert_matches(upper, db)
    assert [m for _, m in rows] == [2, 1]


def _updates(n, rng):
    """``UPDATE R SET x = y + c WHERE z = v`` statements over columns a, b, c."""
    attrs = ("a", "b", "c")
    return [UpdateStmt("R", ((rng.choice(attrs),
                              Arith("+", Attr(rng.choice(attrs)), Const(rng.randint(1, 3)))),),
                       Cmp("=", Attr(rng.choice(attrs)), Const(rng.randrange(6))))
            for _ in range(n)]


def _state(rows, rng):
    return BagRelation.from_rows(("k", "a", "b", "c"),
                                 [(k, rng.randrange(6), rng.randrange(6), rng.randrange(6))
                                  for k in range(rows)])


def test_a_2000_update_reenactment_at_the_default_recursion_limit():
    rng = random.Random(2000)
    db = {"R": _state(40, rng)}
    root = reenact(_updates(2000, rng), schema=("k", "a", "b", "c"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        got, want = outcome(evaluate, root, db), outcome(level_by_level, root, db)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want and len(got[1]) == 40


def _random_chain(rng, child, levels):
    """Projections stacked on ``child``: attributes, renamings, arithmetic
    and conditionals over the level below, and a level that drops columns."""
    node = child
    for _ in range(levels):
        sch = schema_of(node)
        targets = []
        for a in rng.sample(sch, rng.randint(1, len(sch))):
            roll = rng.random()
            if roll < 0.4:
                e = Attr(a)
            elif roll < 0.7:
                e = Arith(rng.choice("+-*"), Attr(a), Const(rng.randrange(3)))
            elif roll < 0.9:
                test = Cmp(rng.choice(("=", "<")), Attr(rng.choice(sch)), Const(rng.randrange(5)))
                e = Cond(test, Arith("+", Attr(a), Const(1)), Attr(a))
            else:
                e = BoolOp("not", (Cmp("=", Attr(a), Const(0)),))
            targets.append((e, a))
        node = Project(tuple(targets), node)
    return node


def test_a_seeded_corpus_with_shared_subtrees():
    rng = random.Random(2020)
    errors = rows = 0
    for i in range(300):
        q, state = random_query(rng, rng.randint(1, 4))
        q = _random_chain(rng, q, rng.randint(1, 4))
        if i % 2:
            q = share_subtree(rng, q)
        q = _random_chain(rng, q, rng.randint(0, 3))
        db = random_instance(state, rng, 6)
        got = assert_matches(q, db)
        if got[0] == "EvalError":
            errors += 1
        else:
            rows += len(got[1])
    assert rows > 300 and errors < 100


def _traced_peak(fn):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


#: the most evaluating a 200-level stacked-UPDATE reenactment over 500 rows
#: may hold at once, in multiples of what evaluating one level holds. A
#: chain holds about 1.1 of them; a level-by-level evaluation keeps every
#: level's bag, about 100 of them
PEAK_LEVELS = 4


def test_a_chain_keeps_no_intermediate_bags():
    rng = random.Random(200)
    db = {"R": _state(500, rng)}
    ups = _updates(200, rng)
    schema = ("k", "a", "b", "c")
    one = reenact(ups[:1], schema=schema)
    root = reenact(ups, schema=schema)
    schema_of(root)  # schemas are cached on the nodes, not held by the evaluation
    bag, one_level = _traced_peak(lambda: evaluate(one, db))
    assert len(bag.tuples) == 500
    del bag
    bag, peak = _traced_peak(lambda: evaluate(root, db))
    assert len(bag.tuples) == 500
    assert peak < PEAK_LEVELS * one_level, (peak, one_level)
