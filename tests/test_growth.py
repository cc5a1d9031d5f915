"""The optimizer's work stays polynomial in the size of its input.

Each family is rewritten at n and 2n levels, and the work is counted, not
timed: the steps of every children-first pass, the nodes copied over new
inputs and the filter maps read (one per node a selection descends into,
or a guard or an equivalence class is carried across). Each family's
growth per doubling must stay under its stated bound. Wall time is capped
once, generously, as a backstop.

The pruning family also counts the schemas re-derived over stub inputs,
the stacked reenactment and the shared expression DAG the expression nodes
folded (the merge's substitution, a transferred condition's renaming and
the evaluator's batches among them), and every family the nodes each
property read lists, the member pairs the enforcement of ancestor
equalities tests and the names ``fresh_name`` tries (a name tested against
a list or tuple costs its length, which a membership test scans).

The wide families (join chains and stars, a wide projection, a join on
many pairs) are bounded per doubling of the plan's total schema width, the
sum over its nodes of their schemas' lengths: in a k-way join the node at
depth i has O(k - i) columns, so merely reading every schema is quadratic
in k. A quadratic step there can sit where no counter looks: inside a
node's cached schema (a check per target against a set built anew) or in
property inference (a set union per target, a pairwise merge of
equivalence classes), so most of those families also bound a best-of-3
``time.process_time`` ratio. Unions of many inputs and stacked
aggregations are still to come. ``to_sql`` of shared expression DAGs stays
out until the filter scope's SQL is staged, since its text is exponential.
"""
import math
import random
import time
from collections.abc import Mapping, Set

import pytest

from test_move_around import chain_into_a_join, chain_into_a_relation, guarded_over_fences

from provopt import algebra, executor, instrument, properties, rewrites
from provopt.algebra import (
    Agg, Arith, Attr, Cmp, Const, Join, Project, Relation, Select, Union, all_nodes,
    identity_targets, schema_of,
)
from provopt.executor import BagRelation
from provopt.instrument import UpdateStmt, instrument_query, reenact

N = 100


def union_held_chain(n):
    """``project (a) (union sigma(a<>n)...sigma(a<>1) R(a,b) S(a,b))``:
    every selection is a pruning candidate that the union refuses."""
    left = Relation("R", ("a", "b"))
    for i in range(1, n + 1):
        left = Select(Cmp("<>", Attr("a"), Const(i)), left)
    return Project(identity_targets(("a",)), Union(left, Relation("S", ("a", "b"))))


def stacked_reenactment(n):
    """n statements ``UPDATE r SET a_i = a_i + c WHERE a_j = v`` over
    ``r(id, a1..a8)``, the columns drawn as the reenact_txn benchmark draws
    them, reenacted as a stack of n projections."""
    shape, rng = random.Random("reenact_txn"), random.Random(n)
    cols = tuple(f"a{i}" for i in range(1, 9))
    ups = []
    for _ in range(n):
        i, j = cols[shape.randrange(8)], cols[shape.randrange(8)]
        ups.append(UpdateStmt("r", ((i, Arith("+", Attr(i), Const(rng.randrange(1, 10)))),),
                              Cmp("=", Attr(j), Const(rng.randrange(100)))))
    return reenact(ups, schema=("id",) + cols)


def exported_twice(n):
    """``sigma(y = b)`` over a projection exporting ``a`` as ``x`` and ``y``,
    over n fenced identity projections over ``R(a, b)``: the equality is
    enforced at ``R``, so every node above it is rebuilt."""
    node = Relation("R", ("a", "b"))
    for _ in range(n):
        node = Project(identity_targets(("a", "b")), node, materialize=True)
    node = Project(((Attr("a"), "x"), (Attr("a"), "y"), (Attr("b"), "b")), node)
    return Select(Cmp("=", Attr("y"), Attr("b")), node)


def doubled(name, n):
    """``x = x + x`` n times over an attribute: n + 1 distinct nodes, a tree
    of 2**(n + 1) - 1."""
    x = Attr(name)
    for _ in range(n):
        x = Arith("+", x, x)
    return x


def shared_dag(n):
    """``project (doubled a) (sigma(doubled a > 0) R(a) join(a=b) S(b))``:
    the condition transfers to ``S`` renamed, and back to ``R``, where it
    meets itself."""
    left = Select(Cmp(">", doubled("a", n), Const(0)), Relation("R", ("a",)))
    return Project(((doubled("a", n), "x"),), Join((("a", "b"),), left, Relation("S", ("b",))))


DAG_DB = {"R": BagRelation.from_rows(("a",), [(-1,), (1,), (2,)]),
          "S": BagRelation.from_rows(("b",), [(1,), (2,), (3,)])}


def rewritten_and_evaluated(plan):
    return executor.evaluate(rewrites.apply_pats(plan), DAG_DB)


#: family -> (plan maker, rewrite, the most work may grow per doubling)
FAMILIES = {
    # (R(a) join(a=d) U(d)) join(a=b) sigma(b<>n)...sigma(b<>2) S(b)
    "join-held selection chain": (chain_into_a_join, rewrites.selection_move_around, 2.2),
    # R(a) join(a=b) sigma(b<>n)...sigma(b<>2) S(b)
    "join-free selection chain": (chain_into_a_relation, rewrites.selection_move_around, 2.2),
    # sigma(a=b) over n fenced identity projections over R(a) x S(b)
    "equality over fences": (guarded_over_fences, rewrites._enforce_ancestor_equalities, 2.2),
    # project (a) over union(sigma(a<>n)...sigma(a<>1) R(a,b), S(a,b))
    "union-held selection chain": (union_held_chain, rewrites.project_to_icols, 2.2),
    # the rewrite pipeline over n stacked UPDATE projections
    "stacked reenactment": (stacked_reenactment, rewrites.apply_pats, 2.2),
    # sigma(y = b) over a projection exporting a twice, over n fenced projections
    "equality exported twice": (exported_twice, rewrites._enforce_ancestor_equalities, 2.2),
    # a projection and a transferred selection of x = x + x, n levels, rewritten and evaluated
    "shared expression DAG": (shared_dag, rewritten_and_evaluated, 2.2),
}


def _work(monkeypatch, rewrite, plan) -> int:
    count = [0]

    def counted(fn):
        def wrapper(*args):
            count[0] += 1
            return fn(*args)
        return wrapper

    def listed(root):
        nodes = algebra.all_nodes(root)
        count[0] += len(nodes)
        return nodes

    def named(base, taken):
        name = fresh_name(base, taken)
        tried = len(name) - len(base) + 1  # the base, then one more prime each
        count[0] += tried * (1 if isinstance(taken, (Set, Mapping)) else len(taken))
        return name

    with monkeypatch.context() as m:
        rebuild, fold = rewrites.rebuild_bottom_up, algebra.fold_expr
        licensed, fresh_name = rewrites._licensed_below, algebra.fresh_name
        m.setattr(rewrites, "rebuild_bottom_up", lambda root, step: rebuild(root, counted(step)))
        for module in (rewrites, algebra, executor):
            m.setattr(module, "fold_expr", lambda roots, step: fold(roots, counted(step)))
        m.setattr(properties, "all_nodes", listed)
        m.setattr(rewrites, "over_schemas", counted(rewrites.over_schemas))
        m.setattr(rewrites, "replace_children", counted(rewrites.replace_children))
        m.setattr(rewrites, "filter_map", counted(rewrites.filter_map))
        m.setattr(properties, "filter_map", counted(properties.filter_map))
        # the test of one node's pairs, called once per pair tested
        m.setattr(rewrites, "_licensed_below", lambda n, down: counted(licensed(n, down)))
        for module in (algebra, instrument):
            m.setattr(module, "fresh_name", named)
        rewrite(plan)
    return count[0]


@pytest.mark.parametrize("family", FAMILIES)
def test_work_grows_within_its_bound(monkeypatch, family):
    make, rewrite, bound = FAMILIES[family]
    small, large = (_work(monkeypatch, rewrite, make(n)) for n in (N, 2 * N))
    assert 0 < small and large <= bound * small, (small, large)
    started = time.perf_counter()
    rewrite(make(2 * N))
    assert time.perf_counter() - started < 2.0


def test_stacked_unions_pass_the_provenance_pull_up_at_once():
    # marking the nodes below a positional set operator is linear in the
    # height of the stack
    plan = Relation("R", ("a",))
    for i in range(2000):
        plan = Union(plan, Relation(f"S{i}", ("a",)))
    started = time.process_time()
    assert rewrites.pull_up_prov_projection(plan) is plan
    assert time.process_time() - started < 1.0


def join_chain(k):
    """``sigma(a0 = 5) R0(a0) join(a0=a1) (R1(a1) join(a1=a2) (... R_k(a_k)))``:
    the selection transfers down the whole chain, and the join at depth i
    has k + 1 - i columns."""
    node = Relation(f"R{k}", (f"a{k}",))
    for i in reversed(range(k)):
        left = Relation(f"R{i}", (f"a{i}",))
        node = Join(((f"a{i}", f"a{i + 1}"),),
                    Select(Cmp("=", Attr("a0"), Const(5)), left) if i == 0 else left, node)
    return node


def join_star(k, method):
    """The ``agg_deep`` benchmark's plan with k relations: ``r_i(id_i, g_i,
    v_i)`` summed per group, joined on ``g1 = g_i``, left-deep, instrumented
    with one aggregation method."""
    def summed(i):
        return Agg((f"g{i}",), (("sum", f"v{i}", f"s{i}"),),
                   Relation(f"r{i}", (f"id{i}", f"g{i}", f"v{i}")))

    plan = summed(1)
    for i in range(2, k + 1):
        plan = Join((("g1", f"g{i}"),), plan, summed(i))
    return instrument_query(plan, agg_method=method)


def wide_projection(w):
    """``project (c_i + 1 -> x_i)`` of w columns over ``R(c_1..c_w)``."""
    cols = tuple(f"c{i}" for i in range(w))
    return Project(tuple((Arith("+", Attr(c), Const(1)), f"x{c}") for c in cols),
                   Relation("R", cols))


def wide_join(w):
    """``L(l_1..l_w) join(l_i = r_i, for every i) R(r_1..r_w)``."""
    left, right = (tuple(f"{side}{i}" for i in range(w)) for side in "lr")
    return Join(tuple(zip(left, right)), Relation("L", left), Relation("R", right))


def schema_width(plan) -> int:
    """The plan's total schema width: the sum over its nodes of their
    schemas' lengths."""
    return sum(len(schema_of(n)) for n in all_nodes(plan))


#: family -> (plan maker, smaller and larger size, rewrite, the most work
#: may grow per doubling of total schema width, also timed). Linear in the
#: width is 2.0: the chain's counted work reads 1.93 and gets 10% for lower
#: order terms; the star grows slower than its width (1.45 counted, 1.65
#: timed) and is held to linear; the projection and the join on many pairs
#: grow as fast as their width, and their timed ratio gets 30% for noise.
WIDE_FAMILIES = {
    "right-nested join chain": (join_chain, (100, 200), rewrites.selection_move_around,
                                2.2, False),
    "join star, window method": (lambda k: join_star(k, "window"), (64, 128),
                                 rewrites.apply_pats, 2.0, True),
    "join star, join method": (lambda k: join_star(k, "join"), (64, 128),
                               rewrites.apply_pats, 2.0, True),
    "wide computed projection": (wide_projection, (2000, 4000), rewrites.apply_pats, 2.6, True),
    "join on many pairs": (wide_join, (1000, 2000), rewrites.apply_pats, 2.6, True),
}


def _seconds(rewrite, make, sizes) -> list[float]:
    """The best of three process times of the rewrite per size, the sizes
    taken in turn, so that a slower spell of the host slows both; each run
    is on a new plan."""
    best = [math.inf] * len(sizes)
    for _ in range(3):
        for i, n in enumerate(sizes):
            plan = make(n)
            started = time.process_time()
            rewrite(plan)
            best[i] = min(best[i], time.process_time() - started)
    return best


def per_width_doubling(small, large, widths) -> float:
    """A growth from ``small`` to ``large`` as a factor per doubling of width."""
    return (large / small) ** (1 / math.log2(widths[1] / widths[0]))


@pytest.mark.parametrize("family", WIDE_FAMILIES)
def test_wide_work_grows_within_its_bound_per_doubling_of_width(monkeypatch, family):
    make, sizes, rewrite, bound, timed = WIDE_FAMILIES[family]
    widths = [schema_width(make(n)) for n in sizes]
    small, large = (_work(monkeypatch, rewrite, make(n)) for n in sizes)
    assert 0 < small and per_width_doubling(small, large, widths) <= bound, (small, large, widths)
    if timed:
        small, large = _seconds(rewrite, make, sizes)
        assert per_width_doubling(small, large, widths) <= bound, (small, large, widths)
    started = time.perf_counter()
    rewrite(make(sizes[1]))
    assert time.perf_counter() - started < 2.0
