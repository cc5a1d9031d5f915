"""The rewrite pipeline skips work whose inputs did not change.

``apply_pats`` does not run a rule again on a root that rule left unchanged,
and one run keeps keys and bottom-up equivalence classes per node, and the
needed columns of the last root scanned for them, in a ``PipelineMemo``. The reference below is the pipeline without either: every
enabled rule in every round, each property computed from scratch. Both must
build structurally equal plans and ask the same duplicate-elimination
choices in the same order.
"""
import random
from itertools import count

import pytest

from randgen import random_agg_query, random_query, random_spju_query, share_subtree
from test_local_rules import _update_stack

from provopt.algebra import (
    Attr, Cmp, Const, DupElim, Join, Node, Project, Relation, Select,
    all_nodes, identity_targets, schema_of, structurally_equal,
)
from provopt.instrument import instrument_query
from provopt.properties import infer_ec_bottom_up, infer_keys
from provopt import rewrites
from provopt.rewrites import (
    PipelineMemo, RULE_ORDER, RULES, RewriteConfig, _absorb, apply_pats,
    factor_attributes, merge_projections, merge_selections,
    project_to_icols, pull_up_prov_projection, remove_dupelim_by_key,
    remove_dupelim_by_set, remove_redundant_projection, remove_window,
    selection_move_around,
)

#: the pipeline's rules, called without a property memo
REFERENCE_RULES = {
    "factor_attributes": lambda root, cfg, kept: factor_attributes(root),
    "merge_projections": lambda root, cfg, kept: merge_projections(root, cfg),
    "merge_selections": lambda root, cfg, kept: merge_selections(root),
    "selection_move_around": lambda root, cfg, kept: selection_move_around(root),
    "pull_up_prov_projection": lambda root, cfg, kept: pull_up_prov_projection(root),
    "project_to_icols": lambda root, cfg, kept: project_to_icols(root),
    "remove_window": lambda root, cfg, kept: remove_window(root),
    "remove_dupelim_by_key": lambda root, cfg, kept: remove_dupelim_by_key(root, cfg.base_keys),
    "remove_dupelim_by_set":
        lambda root, cfg, kept: remove_dupelim_by_set(root, cfg.dupelim_set_choice, kept),
    "remove_redundant_projection": lambda root, cfg, kept: remove_redundant_projection(root),
}


def reference_apply_pats(root: Node, cfg: RewriteConfig) -> Node:
    """``apply_pats`` running every enabled rule in every round."""
    original_schema = schema_of(root)
    kept: set = set()
    for rnd in count(1):
        before = root
        for name, rule in REFERENCE_RULES.items():
            if cfg.rule_enabled(name):
                root = rule(root, cfg, kept)
        if rnd >= 2 and root is before:
            break
    if schema_of(root) != original_schema:
        root = Project(identity_targets(original_schema), root)
        if cfg.rule_enabled("merge_projections"):
            root = merge_projections(root, cfg)
        if cfg.rule_enabled("remove_redundant_projection"):
            root = remove_redundant_projection(root)
    return root


class RecordingChoice:
    """A ``dupelim_set_choice`` answering 0 or 1 from a seeded RNG and
    recording every call."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.calls = []

    def __call__(self, n):
        answer = self.rng.randrange(n)
        self.calls.append((n, answer))
        return answer


def _keys_of(state):
    return {name: [(attrs[0],)] for name, attrs in state.relations.items()}


def _corpus():
    """(query, base keys): plain and shared random queries, instrumented
    queries under both aggregation methods, reenacted update stacks."""
    rng = random.Random(8080)
    for _ in range(50):
        q, state = random_query(rng, max_ops=7)
        yield q, _keys_of(state)
        yield share_subtree(rng, q), _keys_of(state)
    for _ in range(60):
        # duplicate eliminations below a duplicate elimination: the choices
        # of the set-based removal
        q, state = random_query(rng, max_ops=6, ops=("select", "project", "join", "dupelim"))
        yield DupElim(q), {}
        yield DupElim(share_subtree(rng, q)), _keys_of(state)
    for i in range(50):
        q, state = (random_spju_query(rng) if i % 2
                    else random_agg_query(rng, rng.randint(1, 3)))
        for method in ("window", "join"):
            yield instrument_query(q, agg_method=method), _keys_of(state)
    for _ in range(20):
        yield _update_stack(rng, rng.randint(1, 12)), {"R": [("k",)]}
    yield _update_stack(rng, 80), {}


CORPUS = list(_corpus())


def test_rule_order_matches_reference():
    assert tuple(REFERENCE_RULES) == RULE_ORDER == tuple(RULES)


@pytest.mark.parametrize("with_choice", [False, True])
def test_skipping_matches_running_every_rule(with_choice):
    fired = 0
    for i, (q, base_keys) in enumerate(CORPUS):
        ref_choice, choice = (RecordingChoice(i), RecordingChoice(i)) if with_choice else (None, None)
        want = reference_apply_pats(q, RewriteConfig(base_keys=base_keys,
                                                     dupelim_set_choice=ref_choice))
        got = apply_pats(q, RewriteConfig(base_keys=base_keys, dupelim_set_choice=choice))
        assert structurally_equal(got, want), i
        if with_choice:
            assert choice.calls == ref_choice.calls, i
            fired += bool(choice.calls)
        else:
            fired += got is not q
    # the comparison means something only if rules fire and choices are asked
    assert fired >= (30 if with_choice else 150)


def _count_rule_calls(monkeypatch):
    calls = []
    for name in RULE_ORDER:
        fn = getattr(rewrites, name)
        monkeypatch.setattr(rewrites, name,
                            lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    return calls


def test_rule_not_rerun_on_a_root_it_left_unchanged(monkeypatch):
    # nothing fires on this plan: round 1 runs every rule once, and no
    # rule runs again
    q = Select(Cmp("=", Attr("a"), Const(1)), Relation("R", ("a", "b")))
    calls = _count_rule_calls(monkeypatch)
    assert apply_pats(q, RewriteConfig()) is q
    assert calls == list(RULE_ORDER)


def test_rule_runs_again_once_another_rule_changed_the_root(monkeypatch):
    # the redundant projection goes in round 1 (the last rule), so round 2
    # sees a new root and runs every rule on it; round 3 runs none
    q = Project(identity_targets(("a", "b")),
                Select(Cmp("=", Attr("a"), Const(1)), Relation("R", ("a", "b"))))
    calls = _count_rule_calls(monkeypatch)
    out = apply_pats(q, RewriteConfig())
    assert isinstance(out, Select)
    assert calls == list(RULE_ORDER) * 2


def test_dupelim_by_set_asks_nothing_on_a_root_it_left_unchanged():
    # the invariant behind skipping the stateful rule: a run that returns
    # its input kept every candidate it saw, so a rerun asks no choice
    asked = reruns = 0
    for i, (q, _) in enumerate(CORPUS):
        choice = RecordingChoice(i)
        kept: set = set()
        root = q
        while True:
            new_root = remove_dupelim_by_set(root, choice, kept)
            if new_root is root:
                break
            root = new_root
        before = len(choice.calls)
        assert remove_dupelim_by_set(root, choice, kept) is root, i
        assert len(choice.calls) == before, i
        asked += before
        reruns += any(answer == 1 for _, answer in choice.calls)
    assert asked >= 20 and reruns >= 10


def test_a_dupelim_removal_is_always_absorbed():
    # why an unchanged run yielded nothing: dropping a DupElim never breaks
    # an ancestor, since its child has its schema
    seen = 0
    for q, _ in CORPUS:
        for n in all_nodes(q):
            if isinstance(n, DupElim):
                assert _absorb(q, n, n.child) is not None
                seen += 1
    assert seen >= 20


def test_memoized_properties_equal_recomputation_after_every_rule():
    for i, (q, base_keys) in enumerate(CORPUS[::3]):
        cfg = RewriteConfig(base_keys=base_keys)
        memo = PipelineMemo()
        root = q
        for _ in range(2):
            for name, rule in RULES.items():
                root = rule(root, cfg, memo)
                keys = infer_keys(root, base_keys, memo=memo.keys)
                assert list(keys.items()) == list(infer_keys(root, base_keys).items()), (i, name)
                ecs = infer_ec_bottom_up(root, memo=memo.ecs)
                assert list(ecs.items()) == list(infer_ec_bottom_up(root).items()), (i, name)


def test_one_graph_under_two_base_key_maps():
    # keys depend on the declared base keys, so a memo must not carry over
    # from one apply_pats call to the next on the same graph
    join = Join((("a", "c"),), Relation("R", ("a", "b")), Relation("S", ("c", "d")))
    q = DupElim(join)
    keyed = {"R": [("a",)], "S": [("c",)]}
    for order in ((keyed, {}), ({}, keyed), (keyed, {}, keyed)):
        for base_keys in order:
            out = apply_pats(q, RewriteConfig(base_keys=base_keys))
            assert isinstance(out, DupElim) is (base_keys is not keyed), order
    assert infer_keys(q, keyed, memo={})[join] == infer_keys(q, keyed)[join] != frozenset()
    assert infer_keys(q, {}, memo={})[join] == infer_keys(q, {})[join] == frozenset()


def test_needed_columns_computed_once_per_root(monkeypatch):
    # project_to_icols leaves its last root unchanged, and remove_window
    # scans that same root next: one infer_icols serves both
    roots = []
    infer = rewrites.infer_icols
    monkeypatch.setattr(rewrites, "infer_icols", lambda root: roots.append(root) or infer(root))
    runs = calls = 0
    for i, (q, base_keys) in enumerate(CORPUS):
        roots.clear()
        apply_pats(q, RewriteConfig(base_keys=base_keys))
        assert len({id(r) for r in roots}) == len(roots), i  # roots holds them alive
        assert roots, i
        runs += 1
        calls += len(roots)
    # pruning projections went in: scans saw more than one root per run
    assert calls > 1.5 * runs


def test_carried_needed_columns_equal_recomputation(monkeypatch):
    # after a pruning that renames no column, project_to_icols scans the
    # new root with the needed columns carried over from the old one
    from provopt.properties import infer_icols
    seen = []
    needed = rewrites._needed_columns
    monkeypatch.setattr(rewrites, "_needed_columns",
                        lambda root, memo: seen.append((root, needed(root, memo))) or seen[-1][1])
    carried = 0
    for i, (q, _) in enumerate(CORPUS):
        seen.clear()
        computed = []
        with monkeypatch.context() as m:
            m.setattr(rewrites, "infer_icols", lambda root: computed.append(root) or infer_icols(root))
            project_to_icols(q, {})
        for root, icols in seen:
            assert icols == infer_icols(root), i
        carried += len({id(r) for r, _ in seen}) - len(computed)
    assert carried > 100
