"""Each property-driven rule is one children-first pass, and builds the plan
that rewriting one candidate at a time and rescanning the graph built.

The rescanning rules are kept verbatim in ``rescan_reference``. On the
pipeline corpus, on the random plans of the move-around tests and on
unions of selection chains, every rule must build a structurally equal
plan, return its input object when the reference does, and
``remove_dupelim_by_set`` must ask the same choices in the same order.
"""
import random

import pytest

import rescan_reference as reference
from randgen import random_query
from test_move_around import joins_of_chains
from test_pipeline_memo import CORPUS, RecordingChoice

from provopt import rewrites
from provopt.algebra import (
    Attr, Cmp, Const, Project, Relation, Select, Union, identity_targets, structurally_equal,
)


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


def _plans():
    """(plan, base keys): the pipeline corpus, then the move-around tests'
    random plans and joins of selection chains, then unions of chains."""
    yield from CORPUS
    rng = random.Random(12)
    for _ in range(300):
        yield random_query(rng, 6)[0], {}
    for q in joins_of_chains(rng, 600):
        yield q, {}
    for q in union_held_chains(rng, 300):
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
