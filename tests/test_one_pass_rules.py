"""Each property-driven rule is one children-first pass, and builds the plan
that rewriting one candidate at a time and rescanning the graph built.

The rescanning rules are kept verbatim in ``rescan_reference``. On the
pipeline corpus, on the random plans of the move-around tests, on unions
of selection chains and on join chains and stars, every rule must build a
structurally equal plan, return its input object when the reference does,
and ``remove_dupelim_by_set`` must ask the same choices in the same order.
"""
import random

import pytest

import rescan_reference as reference
from helpers import assert_same_plan, bags_equal
from randgen import random_query
from test_move_around import joins_of_chains
from test_pipeline_memo import CORPUS, RecordingChoice

from provopt import rewrites
from provopt.algebra import (
    Attr, Cmp, Const, Cross, Diff, DupElim, Join, Project, Relation, Select, Union, all_nodes,
    conjunction, identity_targets, structurally_equal,
)
from provopt.executor import BagRelation, evaluate


def union_held_chains(rng, count):
    """``project`` over a union of two selection chains over R(a, b[, c])
    and S, the columns kept and read drawn at random. Half the unions read
    their inputs through projections of the kept columns, so prunings in
    the chains are taken; under the other half the union refuses them."""
    for _ in range(count):
        sch = ("a", "b", "c")[:rng.randint(2, 3)]
        keep = tuple(a for a in sch if rng.random() < 0.5) or sch[:1]
        topped = rng.random() < 0.5
        inputs = []
        for name in "RS":
            node = Relation(name, sch)
            for i in range(rng.randint(0, 12)):
                node = Select(Cmp("<>", Attr(rng.choice(sch)), Const(i)), node)
                if rng.random() < 0.1:
                    node = Project(identity_targets(sch), node)
            inputs.append(Project(identity_targets(keep), node) if topped else node)
        out = keep if topped else sch
        yield Project(identity_targets(tuple(a for a in out if rng.random() < 0.7) or out[:1]),
                      Union(*inputs))


def chains_and_stars(rng, count):
    """Right-nested join chains ``R0 join(a0=a1) (R1 join(a1=a2) (...))``
    and left-deep stars ``((R0 join(a0=a1) R1) join(a0=a2) R2) ...`` of 2
    to 30 joins over ``R_i(a_i, b_i)``, under a selection of one to three
    equalities, some also on a relation. An equality of two ``a`` columns
    lies inside the joins' class; one with a ``b`` column or a constant
    makes classes that cross the classes below it."""
    for made in range(count):
        k = rng.randint(2, 30)
        rels = [Relation(f"R{i}", (f"a{i}", f"b{i}")) for i in range(k + 1)]
        if rng.random() < 0.3:
            i = rng.randrange(k + 1)
            rels[i] = Select(Cmp("=", Attr(f"a{i}"), Const(rng.randrange(3))), rels[i])
        if made % 2:
            node = rels[k]
            for i in reversed(range(k)):
                node = Join(((f"a{i}", f"a{i + 1}"),), rels[i], node)
        else:
            node = rels[0]
            for i in range(1, k + 1):
                node = Join((("a0", f"a{i}"),), node, rels[i])

        def operand():
            return Attr(f"{rng.choice('aab')}{rng.randrange(k + 1)}")

        yield Select(conjunction(
            Cmp("=", operand(), operand() if rng.random() < 0.8 else Const(rng.randrange(3)))
            for _ in range(rng.randint(1, 3))), node)


def _plans():
    """(plan, base keys): the pipeline corpus, then the move-around tests'
    random plans and joins of selection chains, then unions of chains, then
    join chains and stars."""
    yield from CORPUS
    rng = random.Random(12)
    for _ in range(300):
        yield random_query(rng, 6)[0], {}
    for q in joins_of_chains(rng, 600):
        yield q, {}
    for q in union_held_chains(rng, 300):
        yield q, {}
    for q in chains_and_stars(rng, 60):
        yield q, {}


PLANS = list(_plans())

#: rule -> (one pass, rescanning reference), each called on (plan, base keys)
PAIRS = {
    "project_to_icols": (lambda q, keys: rewrites.project_to_icols(q),
                         lambda q, keys: reference.project_to_icols(q)),
    "remove_window": (lambda q, keys: rewrites.remove_window(q),
                      lambda q, keys: reference.remove_window(q)),
    "remove_dupelim_by_key": (lambda q, keys: rewrites.remove_dupelim_by_key(q, keys),
                              lambda q, keys: reference.remove_dupelim_by_key(q, keys)),
    "pull_up_prov_projection": (lambda q, keys: rewrites.pull_up_prov_projection(q),
                                lambda q, keys: reference.pull_up_prov_projection(q)),
    "_transfer_join_conditions": (lambda q, keys: rewrites._transfer_join_conditions(q),
                                  lambda q, keys: reference._transfer_join_conditions(q)),
    "_enforce_ancestor_equalities": (lambda q, keys: rewrites._enforce_ancestor_equalities(q),
                                     lambda q, keys: reference._enforce_ancestor_equalities(q)),
}

#: the fewest plans on which each rule must fire, so the comparison means something
FIRED = {"project_to_icols": 250, "remove_window": 10, "remove_dupelim_by_key": 200,
         "pull_up_prov_projection": 80, "_transfer_join_conditions": 300,
         "_enforce_ancestor_equalities": 400}


@pytest.mark.parametrize("rule", PAIRS)
def test_one_pass_matches_the_rescanning_reference(rule):
    one_pass, rescan = PAIRS[rule]
    fired = 0
    for i, (q, keys) in enumerate(PLANS):
        want = rescan(q, keys)
        got = one_pass(q, keys)
        assert structurally_equal(got, want), (rule, i)
        assert (got is q) == (want is q), (rule, i)
        fired += want is not q
    assert fired >= FIRED[rule], fired


@pytest.mark.parametrize("with_choice", [False, True])
def test_dupelim_by_set_asks_the_reference_choices(with_choice):
    asked = 0
    for i, (q, _) in enumerate(PLANS):
        choice, ref_choice = (RecordingChoice(i), RecordingChoice(i)) if with_choice else (None, None)
        kept, ref_kept = set(), set()
        got = rewrites.remove_dupelim_by_set(q, choice, kept)
        want = reference.remove_dupelim_by_set(q, ref_choice, ref_kept)
        assert structurally_equal(got, want), i
        assert (got is q) == (want is q), i
        if with_choice:
            assert choice.calls == ref_choice.calls, i
            assert len(kept) == len(ref_kept), i
            asked += len(choice.calls)
    if with_choice:  # choices were asked, and some operators kept
        assert asked >= 300


# ---------------------------------------------------------------------------
# plans that reach the rules' rarer branches, which the corpora above miss


def _copy_of_k(name):
    """``T(k)`` under a projection passing ``k`` and a copy of it, ``name``."""
    return Project(((Attr("k"), "k"), (Attr("k"), name)), Relation("T", ("k",)))


def test_pull_up_refuses_a_copy_whose_name_the_parent_holds():
    # the cross product already has a column k2: pulled above it, the copy
    # would be a second one
    q = Cross(Relation("S", ("k2",)), _copy_of_k("k2"))
    assert rewrites.pull_up_prov_projection(q) is q
    assert reference.pull_up_prov_projection(q) is q


def test_pull_up_reads_the_source_under_the_name_the_product_gives_it():
    # above the cross product T's k is k'; the pulled copy k2 reads it, not S's k
    q = Cross(Relation("S", ("k",)), _copy_of_k("k2"))
    db = {"S": BagRelation.from_rows(("k",), [(1,)]), "T": BagRelation.from_rows(("k",), [(2,)])}
    got = rewrites.pull_up_prov_projection(q)
    assert_same_plan(got, reference.pull_up_prov_projection(q))
    assert isinstance(got, Project) and got.targets[-1] == (Attr("k'"), "k2")
    assert evaluate(got, db).tuples == evaluate(q, db).tuples == {(1, 2, 2): 1}


def test_pull_up_refuses_a_reordering_that_a_product_above_renames():
    # pulled above the duplicate elimination, the copy m' moves behind m;
    # the cross product over it then primes m to m' and m' to m'', so the
    # selection would read m under m'. The rescanning reference makes that
    # pull and changes the result.
    copies = Project(((Attr("k"), "m'"), (Attr("m"), "m"), (Attr("k"), "k")),
                     Relation("R", ("m", "k")))
    q = Select(Cmp("=", Attr("m'"), Const(1)), Cross(Relation("X", ("m",)), DupElim(copies)))
    db = {"R": BagRelation.from_rows(("m", "k"), [(1, 2), (2, 1)]),
          "X": BagRelation.from_rows(("m",), [(7,)])}
    assert rewrites.pull_up_prov_projection(q) is q
    assert not bags_equal(evaluate(reference.pull_up_prov_projection(q), db), evaluate(q, db))


def test_pull_up_pulls_twice_into_one_parent():
    # the second pull reorders the cross product's columns under the
    # projection the first pull put above it, which keeps its output
    q = Cross(_copy_of_k("k2"), Project(((Attr("b"), "b2"), (Attr("b"), "b")),
                                        Relation("S", ("b",))))
    got = rewrites.pull_up_prov_projection(q)
    assert_same_plan(got, reference.pull_up_prov_projection(q))
    assert isinstance(got.child, Project) and isinstance(got.child.child, Cross)


@pytest.mark.parametrize("second", ["select", "union"])
def test_pruning_walks_up_two_parents(second):
    # pruning R under the shared selection re-derives both of its parents;
    # a union, which would get inputs of different arity, refuses it
    n = Select(Cmp("=", Attr("a"), Const(1)), Relation("R", ("a", "b", "c", "d")))
    other = (Select(Cmp("=", Attr("c"), Const(2)), n) if second == "select"
             else Union(n, Relation("T", ("a", "b", "c", "d"))))
    q = Project(((Attr("a"), "a"),), Cross(Select(Cmp("=", Attr("b"), Const(1)), n), other))
    got = rewrites.project_to_icols(q)
    assert_same_plan(got, reference.project_to_icols(q))
    assert any(isinstance(x, Project) and x.child is n.child for x in all_nodes(got)) == (
        second == "select")


def test_an_equality_under_a_difference_is_enforced():
    # a = 1 and b = 1 license a = b at the cross product; a filter cannot
    # move through a difference's right input, so the path to the root
    # is unguarded
    cross = Cross(Relation("R", ("a",)), Relation("S", ("b",)))
    q = Diff(Relation("L", ("a", "b")),
             Select(Cmp("=", Attr("a"), Const(1)), Select(Cmp("=", Attr("b"), Const(1)), cross)))
    got = rewrites._enforce_ancestor_equalities(q)
    assert_same_plan(got, reference._enforce_ancestor_equalities(q))
    assert any(isinstance(x, Select) and x.cond == Cmp("=", Attr("a"), Attr("b"))
               and x.child is cross for x in all_nodes(got))
