"""The local rewrite rules (projection and selection merging, redundant
projection removal) run as one bottom-up pass.

The candidate generators below are the rules as they were written for the
rescanning loop ``rescan_reference._rewrite``, which applies one candidate, rebuilds
every ancestor and rescans the whole graph. They are kept as the reference:
the single pass must build a structurally equal graph, and return its input
object when nothing applies.
"""
import random
import sys
from pathlib import Path

import pytest

from annotated import annotate, evaluate_annotated
from helpers import count_attr_refs
from randgen import random_agg_query, random_query, random_spju_query, share_subtree
from rescan_reference import _rewrite
from test_expr_fold import random_dag

from provopt.algebra import (
    Arith, Attr, BoolOp, Cmp, Cond, Const, DupElim, Join, Node, Project,
    Relation, Select, Union, all_nodes, conjunction, expr_attrs, expr_size,
    expr_with_children, fold_expr, identity_targets, parent_map,
    rebuild_bottom_up, schema_of, structurally_equal, substitute,
    substitute_attrs,
)
from provopt.executor import BagRelation, TableStats, cost, evaluate
from provopt.instrument import UpdateStmt, instrument_query, parse_updates, reenact
from provopt.plantext import format_plan
from provopt.rewrites import (
    MERGE_GROWTH_FACTOR, MERGE_REF_LIMIT, RewriteConfig, _factor_cond,
    factor_attributes, factor_expression, merge_projections,
    merge_selections, remove_redundant_projection,
)

# ---------------------------------------------------------------------------
# the rescanning reference


def _old_merge_safe(outer, inner, cfg, merged):
    if cfg.unsafe_naive_merge:
        return True
    for e, name in inner.targets:
        if expr_size(e) <= 1:
            continue
        refs = sum(count_attr_refs(oe, name) for oe, _ in outer.targets)
        if refs > MERGE_REF_LIMIT:
            return False
    merged_size = sum(expr_size(e) for e, _ in merged)
    input_size = (sum(expr_size(e) for e, _ in outer.targets)
                  + sum(expr_size(e) for e, _ in inner.targets))
    return merged_size <= MERGE_GROWTH_FACTOR * input_size


def old_merge_projections(root, cfg=None):
    cfg = cfg or RewriteConfig()

    def candidates(root):
        parents = parent_map(root)
        for n in all_nodes(root):
            if (isinstance(n, Project) and isinstance(n.child, Project)
                    and len(parents[n.child]) == 1 and not n.child.materialize):
                inner = n.child
                defs = {name: e for e, name in inner.targets}
                merged = tuple((substitute_attrs(e, defs), name) for e, name in n.targets)
                if _old_merge_safe(n, inner, cfg, merged):
                    yield n, Project(merged, inner.child, n.materialize)
                else:
                    yield inner, Project(inner.targets, inner.child, materialize=True)

    return _rewrite(root, candidates)


def old_factor_expression(e):
    """``factor_expression`` as it was before attribute targets were skipped."""
    if isinstance(e, (Attr, Const)):
        return e

    def step(x, kids):
        if isinstance(x, Cond):
            pred, then, other = kids
            factored = _factor_cond(pred, then, other, negate=False)
            if factored is None:
                factored = _factor_cond(pred, other, then, negate=True)
            if factored is not None:
                return factored
        return expr_with_children(x, kids)

    return fold_expr((e,), step)[0]


def old_factor_attributes(root):
    """``factor_attributes`` as it was: every target factored, a change
    detected by comparing the targets structurally."""
    def step(n, node):
        if isinstance(node, Project):
            targets = tuple((old_factor_expression(e), name) for e, name in node.targets)
            if targets != node.targets:
                return Project(targets, node.child, node.materialize)
        return node

    return rebuild_bottom_up(root, step)


def old_merge_selections(root):
    def candidates(root):
        parents = parent_map(root)
        for n in all_nodes(root):
            if (isinstance(n, Select) and isinstance(n.child, Select)
                    and len(parents[n.child]) == 1):
                yield n, Select(conjunction([n.cond, n.child.cond]), n.child.child)

    return _rewrite(root, candidates)


def old_remove_redundant_projection(root):
    def candidates(root):
        for n in all_nodes(root):
            if isinstance(n, Project) and not n.materialize:
                child_schema = schema_of(n.child)
                if (len(n.targets) == len(child_schema)
                        and all(isinstance(e, Attr) and e.name == a and name == a
                                for (e, name), a in zip(n.targets, child_schema))):
                    yield n, n.child

    return _rewrite(root, candidates)


PAIRS = {
    "merge_projections": (merge_projections, old_merge_projections),
    "merge_selections": (merge_selections, old_merge_selections),
    "remove_redundant_projection": (remove_redundant_projection,
                                    old_remove_redundant_projection),
}

# ---------------------------------------------------------------------------
# corpora


def _update_stack(rng, n):
    """A reenacted transaction over R(k, a, b); self-doubling updates make
    the merge reject pairs and fence them."""
    def assignment():
        roll = rng.random()
        if roll < 0.5:
            return Arith("+", Attr("a"), Const(rng.randrange(1, 4)))
        if roll < 0.8:
            return Arith("+", Attr("a"), Attr("a"))
        return Arith("*", Attr("b"), Const(2))

    ups = [UpdateStmt("R", ((rng.choice("ab"), assignment()),),
                      Cmp(rng.choice(("=", ">")), Attr(rng.choice("ab")),
                          Const(rng.randrange(3))))
           for _ in range(n)]
    return reenact(ups, schema=("k", "a", "b"))


TXN96 = Path(__file__).resolve().parent / "golden" / "cli" / "txn96.sql"


def reenact_txn_stack():
    """The reenactment of ``tests/golden/cli/txn96.sql``: 96 statements
    ``UPDATE r SET a_i = a_i + c WHERE a_j = v`` over ``r(id, a1..a8)``,
    some with i = j, in the shape of the reenact_txn benchmark."""
    cols = ("id",) + tuple(f"a{i}" for i in range(1, 9))
    return reenact(parse_updates(TXN96.read_text()), schema=cols)


def _random_tower(rng, depth):
    """Projections (renaming, computing, identity, some fenced), selections
    and duplicate eliminations over R(a, b, c); the top may share a lower
    level with a second parent."""
    attrs = ("a", "b", "c")
    node: Node = Relation("R", attrs)
    levels = [node]
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.45:
            def target(name):
                x, y = rng.choice(attrs), rng.choice(attrs)
                return rng.choice((
                    Attr(x), Arith("+", Attr(x), Const(1)), Arith("+", Attr(x), Attr(x)),
                    Cond(Cmp("=", Attr(y), Const(rng.randrange(3))),
                         Arith("+", Attr(x), Const(2)), Attr(x)),
                ))
            node = Project(tuple((target(a), a) for a in attrs), node,
                           materialize=rng.random() < 0.1)
        elif roll < 0.65:
            node = Project(identity_targets(attrs), node, materialize=rng.random() < 0.1)
        elif roll < 0.9:
            node = Select(Cmp(rng.choice(("<", "=")), Attr(rng.choice(attrs)),
                              Const(rng.randrange(4))), node)
        else:
            node = DupElim(node)
        levels.append(node)
    shared = rng.choice(levels[:-1])
    roll = rng.random()
    if roll < 0.3:
        return Union(node, shared)
    if roll < 0.5:
        return Join((("a", "b"),), node, shared)
    return node


def _corpus():
    rng = random.Random(6061)
    for _ in range(60):
        q, _state = random_query(rng, max_ops=8)
        yield q
        yield share_subtree(rng, q)
    for i in range(60):
        q, _state = (random_spju_query(rng) if i % 2
                     else random_agg_query(rng, rng.randint(1, 2)))
        yield instrument_query(q, agg_method=rng.choice(("join", "window")))
    for _ in range(40):
        stack = _update_stack(rng, rng.randint(1, 12))
        yield stack
        mid = rng.choice([n for n in all_nodes(stack) if isinstance(n, Project)])
        yield Union(stack, mid)
    for _ in range(150):
        yield _random_tower(rng, rng.randint(1, 14))


CORPUS = list(_corpus())


@pytest.mark.parametrize("rule", PAIRS)
def test_single_pass_matches_rescanning_loop(rule):
    new, old = PAIRS[rule]
    unchanged = 0
    for i, q in enumerate(CORPUS):
        for g in (q, factor_attributes(q)):
            want = old(g)
            got = new(g)
            assert structurally_equal(got, want), (rule, i)
            if want is g:
                unchanged += 1
                assert got is g, (rule, i)
    assert 0 < unchanged < 2 * len(CORPUS)


def test_corpus_has_fences_shared_inputs_and_merges():
    # the comparison above means something only if the corpus exercises
    # each branch of the merge rule
    fenced = shared = merged = 0
    for q in CORPUS:
        parents = parent_map(q)
        shared += any(len(parents[n.child]) > 1 for n in parents
                      if isinstance(n, Project) and isinstance(n.child, Project))
        out = merge_projections(q)
        fenced += any(isinstance(n, Project) and n.materialize for n in all_nodes(out))
        merged += len(all_nodes(out)) < len(all_nodes(q))
    assert min(fenced, shared, merged) >= 10


def test_naive_merge_matches_rescanning_loop():
    cfg = RewriteConfig(unsafe_naive_merge=True)
    rng = random.Random(5)
    for _ in range(20):
        q = _update_stack(rng, rng.randint(1, 6))
        assert structurally_equal(merge_projections(q, cfg), old_merge_projections(q, cfg))


@pytest.mark.parametrize("factored", [False, True], ids=["raw", "factored"])
@pytest.mark.parametrize("naive", [False, True], ids=["safe", "naive"])
def test_wide_reenactment_merges_as_the_rescanning_loop(factored, naive):
    cfg = RewriteConfig(unsafe_naive_merge=naive)
    q = reenact_txn_stack()
    if factored:
        q = factor_attributes(q)
    got = merge_projections(q, cfg)
    # a named flag: pytest would print the plans, whose naive merge's
    # expressions are exponential as trees
    same = structurally_equal(got, old_merge_projections(q, cfg))
    assert same
    projections = [n for n in all_nodes(got) if isinstance(n, Project)]
    # naive merging leaves one projection; the safety check fences some pairs
    assert len(projections) == 1 if naive else 1 < len(projections) < 96


def test_projections_without_targets_merge_as_the_rescanning_loop():
    r = Relation("R", ("a", "b"))
    plans = [Project((), Project(((Arith("+", Attr("a"), Attr("b")), "a"),), r)),
             Project(((Const(1), "x"),), Project((), r)),
             Project((), Project((), r))]
    for q in plans:
        for cfg in (RewriteConfig(), RewriteConfig(unsafe_naive_merge=True)):
            got = merge_projections(q, cfg)
            assert structurally_equal(got, old_merge_projections(q, cfg))
            assert isinstance(got.child, Relation)


# ---------------------------------------------------------------------------
# attribute factoring, against the code before attribute targets were skipped


def _random_factorable(rng, depth):
    """Conditionals ``if p then A (+) d else A`` in either branch order and
    either operand order, where the two A are one object or equal copies,
    nested in each other and in other operators; some near misses have
    different A."""
    leaf = rng.choice((Attr("a"), Attr("b"), Const(rng.randrange(3))))
    if depth == 0 or rng.random() < 0.15:
        return leaf
    sub = [_random_factorable(rng, depth - 1) for _ in range(3)]
    roll = rng.random()
    if roll < 0.2:
        return Arith(rng.choice(("+", "*")), sub[0], sub[1])
    if roll < 0.3:
        return BoolOp("and", (Cmp("<", sub[0], sub[1]), Cmp("=", sub[2], leaf)))
    base = sub[0]
    same = base if rng.random() < 0.5 else substitute_attrs(base, {"a": Attr("a"), "b": Attr("b")})
    if rng.random() < 0.15:
        same = sub[2]  # most likely a near miss
    op = rng.choice(("+", "-", "*", "/"))
    bigger = Arith(op, same, sub[1]) if rng.random() < 0.6 else Arith(op, sub[1], same)
    pred = Cmp(rng.choice(("=", "<")), sub[2], Const(rng.randrange(3)))
    return Cond(pred, bigger, base) if rng.random() < 0.5 else Cond(pred, base, bigger)


def _factor_corpus():
    rng = random.Random(2207)
    stacks = [_update_stack(rng, rng.randint(1, 12)) for _ in range(60)] + [reenact_txn_stack()]
    exprs = [random_dag(rng, rng.randint(1, 40)) for _ in range(150)]
    exprs += [_random_factorable(rng, rng.randint(1, 5)) for _ in range(300)]
    exprs += [e for q in stacks for n in all_nodes(q) if isinstance(n, Project) for e, _ in n.targets]
    return stacks, exprs


FACTOR_STACKS, FACTOR_EXPRS = _factor_corpus()


def test_factor_expression_matches_old_code():
    factored = 0
    for i, e in enumerate(FACTOR_EXPRS):
        want, got = old_factor_expression(e), factor_expression(e)
        assert structurally_equal(got, want), i
        assert (got is e) == (want is e), i
        factored += want is not e
    assert 100 < factored < len(FACTOR_EXPRS) - 100


def test_factor_attributes_matches_old_code():
    unchanged = 0
    for i, q in enumerate(FACTOR_STACKS + CORPUS):
        want, got = old_factor_attributes(q), factor_attributes(q)
        assert structurally_equal(got, want), i
        assert (got is q) == (want is q), i
        unchanged += want is q
    assert 50 < unchanged < len(FACTOR_STACKS) + len(CORPUS) - 50


# ---------------------------------------------------------------------------
# linear work and depth


def _renaming_chain(n):
    node: Node = Relation("R", ("a", "b"))
    for _ in range(n):
        node = Project(((Attr("b"), "a"), (Attr("a"), "b")), node)
    return node


def test_merge_builds_linearly_many_projections(monkeypatch):
    # the rescanning loop rebuilt every ancestor after each merge: about
    # n * n / 2 projections for an n-deep stack
    built = [0]
    init = Project.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    for n in (100, 400):
        q = _renaming_chain(n)
        built[0] = 0
        monkeypatch.setattr(Project, "__init__", counting_init)
        out = merge_projections(q)
        monkeypatch.setattr(Project, "__init__", init)
        assert isinstance(out, Project) and isinstance(out.child, Relation)
        assert built[0] <= 3 * n, (n, built[0])


DEEP = 5000


def _select_project_chain(n):
    """n operators over R(a, b), alternating identity projection and a
    selection every row passes."""
    node: Node = Relation("R", ("a", "b"))
    for i in range(n):
        if i % 2:
            node = Select(Cmp("<", Attr("a"), Const(i)), node)
        else:
            node = Project(identity_targets(("a", "b")), node)
    return node


DEEP_DB = {"R": BagRelation.from_rows(("a", "b"), [(0, 1), (0, 1), (-1, 2)])}


@pytest.fixture
def default_recursion_limit():
    # the chains below are deeper than the limit, so a recursive walk fails
    assert sys.getrecursionlimit() < DEEP


@pytest.mark.usefixtures("default_recursion_limit")
class TestDeepChains:
    def test_select_chain_merges(self):
        r = Relation("R", ("a", "b"))
        node: Node = r
        for i in range(DEEP):
            node = Select(Cmp("<", Attr("a"), Const(i)), node)
        out = merge_selections(node)
        assert isinstance(out, Select) and out.child is r
        cond, depth = out.cond, 0
        while isinstance(cond, BoolOp):
            cond, depth = cond.args[1], depth + 1
        assert depth == DEEP - 1

    def test_renaming_chain_merges(self):
        out = merge_projections(_renaming_chain(DEEP))
        assert isinstance(out, Project) and isinstance(out.child, Relation)
        assert out.targets == ((Attr("a"), "a"), (Attr("b"), "b"))  # DEEP is even

    def test_identity_chain_removed(self):
        r = Relation("R", ("a", "b"))
        node: Node = r
        for _ in range(DEEP):
            node = Project(identity_targets(("a", "b")), node)
        assert remove_redundant_projection(node) is r

    def test_dupelim_chain_substitutes(self):
        r, s = Relation("R", ("a",)), Relation("S", ("a",))
        node: Node = r
        for _ in range(DEEP):
            node = DupElim(node)
        out = substitute(node, r, s)
        parents = parent_map(out)
        assert len(parents) == DEEP + 1 and len(parents[s]) == 1
        assert r not in parents
        assert all_nodes(out)[0] is s

    def test_schema_of_reads_a_deep_chain(self):
        assert schema_of(_select_project_chain(DEEP)) == ("a", "b")

    def test_evaluate_runs_a_deep_chain(self):
        out = evaluate(_select_project_chain(DEEP), DEEP_DB)
        assert out.schema == ("a", "b") and out.tuples == DEEP_DB["R"].tuples

    def test_evaluate_annotated_runs_a_deep_chain(self):
        ann = evaluate_annotated(_select_project_chain(DEEP), annotate(DEEP_DB))
        assert ann.sources == ("R",) and ann.as_bag().tuples == DEEP_DB["R"].tuples

    def test_cost_estimates_a_deep_chain(self):
        est = cost(_select_project_chain(DEEP), {"R": TableStats(3.0, {"a": 2.0, "b": 2.0})})
        assert len(est.per_node) == DEEP + 1 and est.total > 0

    def test_instrument_query_rewrites_a_deep_chain(self):
        inst = instrument_query(_select_project_chain(DEEP))
        out = evaluate(inst, DEEP_DB)
        assert out.schema == ("a", "b", "prov_R_0_a", "prov_R_0_b")
        assert out.tuples == {(0, 1, 0, 1): 2, (-1, 2, -1, 2): 1}

    def test_format_plan_prints_a_deep_chain(self):
        text = format_plan(_select_project_chain(DEEP))
        assert text.startswith("(select (< a 4999) (project (a -> a) (b -> b) (select")
        assert text.endswith("(rel R (attrs a b))" + ")" * DEEP)
        assert text.count("(select ") == DEEP // 2

    def test_structurally_equal_compares_deep_chains(self):
        a, b = _select_project_chain(DEEP), _select_project_chain(DEEP)
        assert structurally_equal(a, b)
        # a difference at the bottom is found too
        c = _select_project_chain(DEEP)
        leaf = all_nodes(c)[0]
        assert not structurally_equal(a, substitute(c, leaf, Relation("S", ("a", "b"))))


def _deep_reenacted_value(n):
    """The value of ``a`` after n updates ``a = a + 1 where b = i % 3``: each
    level is a conditional that shares the level below in both branches."""
    e = Attr("a")
    for i in range(n):
        e = Cond(Cmp("=", Attr("b"), Const(i % 3)), Arith("+", e, Const(1)), e)
    return e


@pytest.mark.usefixtures("default_recursion_limit")
class TestDeepExpressions:
    def test_factor_expression_factors_a_deep_stack(self):
        out = factor_expression(_deep_reenacted_value(DEEP))
        # a + (if ... then 1 else 0) + ...: one reference to a, linear size
        assert count_attr_refs(out, "a") == 1
        assert expr_size(out) == 1 + DEEP * 7

    def test_factor_expression_returns_an_unfactorable_input(self):
        e = Attr("a")
        for i in range(DEEP):
            e = Arith("+", e, Const(i))
        assert factor_expression(e) is e

    def test_substitute_attrs_rewrites_a_deep_expression(self):
        e = Attr("a")
        for i in range(DEEP):
            e = Arith("+", e, Attr("b") if i % 2 else Const(i))
        out = substitute_attrs(e, {"a": Attr("x"), "b": Const(7)})
        assert expr_attrs(out) == {"x"} and expr_size(out) == expr_size(e)
        assert substitute_attrs(e, {"c": Attr("x")}) is e

    def test_substitute_attrs_rewrites_a_shared_subexpression_once(self):
        out = substitute_attrs(_deep_reenacted_value(DEEP), {"a": Attr("x")})
        for _ in range(DEEP):
            assert out.if_true.left is out.if_false
            out = out.if_false
        assert out == Attr("x")
