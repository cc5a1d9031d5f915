import random
import zlib

import pytest

from helpers import bags_equal, count_attr_refs, eval_expr
from randgen import random_instance, random_query

from provopt.algebra import (
    Agg, Arith, Attr, Cmp, Cond, Const, Cross, DupElim, Join, Node, Project,
    Relation, Select, Union, Window, all_nodes, identity_targets,
    schema_of, structurally_equal,
)
from provopt.executor import BagRelation, evaluate
from provopt.instrument import UpdateStmt, instrument_query, reenact
from provopt.rewrites import (
    RewriteConfig, apply_pats, factor_attributes,
    factor_expression, merge_projections, merge_selections,
    project_to_icols, pull_up_prov_projection, remove_dupelim_by_key,
    remove_dupelim_by_set, remove_redundant_projection, selection_move_around,
    remove_window, total_expression_size, _landings, _place,
)


def bag(schema, rows):
    return BagRelation.from_rows(schema, rows)


RULES = {
    "factor_attributes": lambda q: factor_attributes(q),
    "merge_projections": lambda q: merge_projections(q),
    "merge_selections": lambda q: merge_selections(q),
    "selection_move_around": lambda q: selection_move_around(q),
    "pull_up_prov_projection": lambda q: pull_up_prov_projection(q),
    "project_to_icols": lambda q: project_to_icols(q),
    "remove_window": lambda q: remove_window(q),
    "remove_dupelim_by_key": lambda q: remove_dupelim_by_key(q),
    "remove_dupelim_by_set": lambda q: remove_dupelim_by_set(q),
    "remove_redundant_projection": lambda q: remove_redundant_projection(q),
}


class TestFactorAttributes:
    def test_worked_example(self):
        e = Cond(Cmp("=", Attr("b"), Const(2)),
                 Arith("+", Attr("a"), Const(2)), Attr("a"))
        got = factor_expression(e)
        assert got == Arith("+", Attr("a"),
                            Cond(Cmp("=", Attr("b"), Const(2)), Const(2), Const(0)))

    def test_multiplication_uses_neutral_one(self):
        e = Cond(Cmp("=", Attr("b"), Const(2)),
                 Arith("*", Attr("a"), Const(3)), Attr("a"))
        got = factor_expression(e)
        assert got == Arith("*", Attr("a"),
                            Cond(Cmp("=", Attr("b"), Const(2)), Const(3), Const(1)))

    def test_no_pattern_unchanged(self):
        e = Cond(Cmp("=", Attr("b"), Const(2)), Attr("a"), Attr("b"))
        assert factor_expression(e) == e

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_value_equality_on_small_domain(self, op):
        raw = Cond(Cmp("=", Attr("b"), Const(2)),
                   Arith(op, Attr("a"), Const(2)), Attr("a"))
        factored = factor_expression(raw)
        assert factored != raw
        for a in range(-2, 3):
            for b in range(-2, 3):
                env = {"a": a, "b": b}
                assert eval_expr(raw, env) == eval_expr(factored, env)

    def test_nested_reenactment_expressions_factor_fully(self):
        # two stacked conditional updates over distinct condition attribute
        inner = Cond(Cmp("=", Attr("b"), Const(2)),
                     Arith("-", Attr("a"), Const(5)), Attr("a"))
        outer = Cond(Cmp("=", Attr("b"), Const(1)),
                     Arith("+", inner, Const(1)), inner)
        got = factor_expression(outer)
        assert count_attr_refs(got, "a") == 1


class TestMergeProjections:
    def test_worked_example(self):
        r = Relation("R", ("a", "d", "e"))
        inner = Project(((Attr("a"), "a"),
                         (Arith("+", Attr("d"), Attr("e")), "b")), r)
        outer = Project(((Arith("+", Attr("a"), Attr("b")), "c"),), inner)
        merged = merge_projections(outer)
        assert isinstance(merged, Project) and merged.child is r
        assert merged.targets == ((Arith("+", Attr("a"),
                                         Arith("+", Attr("d"), Attr("e"))), "c"),)

    def test_self_doubling_stack_left_unmerged_and_flagged(self):
        r = Relation("R", ("a",))
        node: Node = r
        double = (Arith("+", Attr("a"), Attr("a")), "a")
        for _ in range(12):
            node = Project((double,), node)
        merged = merge_projections(node)
        fenced = [n for n in all_nodes(merged)
                  if isinstance(n, Project) and n.materialize]
        assert fenced, "unsafe merges must leave materialization fences"
        assert total_expression_size(merged) <= 12 * 4

    def test_naive_merge_blows_up(self):
        r = Relation("R", ("a",))
        node: Node = r
        for _ in range(12):
            node = Project(((Arith("+", Attr("a"), Attr("a")), "a"),), node)
        merged = merge_projections(node, RewriteConfig(unsafe_naive_merge=True))
        assert isinstance(merged, Project) and merged.child is r
        assert count_attr_refs(merged.targets[0][0], "a") == 2 ** 12

    def test_shared_inner_projection_not_merged(self):
        r = Relation("R", ("a",))
        inner = Project(((Arith("+", Attr("a"), Const(1)), "a"),), r)
        left = Project(((Attr("a"), "a"),), inner)
        root = Union(left, inner)
        merged = merge_projections(root)
        assert isinstance(merged, Union)
        assert merged.right is inner


class TestSimpleRules:
    def test_merge_selections_worked_example(self):
        r = Relation("R", ("a", "b"))
        q = Select(Cmp("=", Attr("a"), Const(5)),
                   Select(Cmp("<", Attr("b"), Const(6)), r))
        merged = merge_selections(q)
        assert isinstance(merged, Select) and merged.child is r
        assert merged.cond.args == (Cmp("=", Attr("a"), Const(5)),
                                    Cmp("<", Attr("b"), Const(6)))

    def test_remove_redundant_projection(self):
        r = Relation("R", ("a", "b"))
        q = Project(identity_targets(("a", "b")), r)
        assert remove_redundant_projection(q) is r

    def test_rename_blocks_removal(self):
        r = Relation("R", ("a", "b"))
        q = Project(((Attr("a"), "x"), (Attr("b"), "b")), r)
        assert remove_redundant_projection(q) is q

    def test_remove_dupelim_by_key_on_aggregation(self):
        agg = Agg(("b",), (("sum", "a", "s"),), Relation("R", ("a", "b")))
        assert remove_dupelim_by_key(DupElim(agg)) is agg

    def test_union_keeps_dupelim(self):
        q = DupElim(Union(Relation("R", ("a",)), Relation("S", ("b",))))
        assert remove_dupelim_by_key(q) is q

    def test_remove_dupelim_by_set_inner(self):
        r = Relation("R", ("a",))
        inner = DupElim(r)
        q = DupElim(Select(Cmp("<", Attr("a"), Const(9)), inner))
        got = remove_dupelim_by_set(q)
        assert not any(isinstance(n, DupElim) for n in all_nodes(got.child))

    def test_remove_dupelim_by_set_keeps_under_aggregation(self):
        r = Relation("R", ("a",))
        inner = DupElim(r)
        q = DupElim(Agg(("a",), (("count", "a", "c"),), inner))
        got = remove_dupelim_by_set(q)
        assert any(n is inner for n in all_nodes(got))

    def test_dupelim_set_choice_can_keep(self):
        r = Relation("R", ("a",))
        q = DupElim(Select(Cmp("<", Attr("a"), Const(9)), DupElim(r)))
        kept = remove_dupelim_by_set(q, choice=lambda n: 1)
        assert sum(isinstance(n, DupElim) for n in all_nodes(kept)) == 2

    def test_keep_decisions_hold_the_nodes(self):
        # a held node stays alive, so a later node cannot reuse its id and
        # silently inherit the decision
        inner = DupElim(Relation("R", ("a",)))
        q = DupElim(Select(Cmp("<", Attr("a"), Const(9)), inner))
        decided: set = set()
        assert remove_dupelim_by_set(q, lambda n: 1, decided) is q
        assert decided == {inner}

    def test_remove_window_when_output_unused(self):
        r = Relation("R", ("a", "b"))
        w = Window("sum", "b", "x", (), (), r)
        q = Project(((Attr("a"), "a"),), w)
        got = remove_window(q)
        assert not any(isinstance(n, Window) for n in all_nodes(got))

    def test_window_kept_when_output_used(self):
        r = Relation("R", ("a", "b"))
        w = Window("sum", "b", "x", (), (), r)
        q = Project(((Attr("x"), "x"),), w)
        assert remove_window(q) is q

    def test_project_to_icols_inserts_pruning_projection(self):
        r = Relation("R", ("a", "b", "c"))
        q = Agg(("a",), (("sum", "b", "s"),), r)
        got = project_to_icols(q)
        assert isinstance(got.child, Project)
        assert schema_of(got.child) == ("a", "b")

    def test_project_to_icols_noop_when_all_needed(self):
        r = Relation("R", ("a", "b"))
        q = DupElim(r)
        assert project_to_icols(q) is q

    def test_project_to_icols_keeps_needed_column_names(self):
        # y reads S.x, output as x' because R has an x; pruning R's unneeded
        # x would hand x' to S.x' and make y read that column instead
        q = Project(((Attr("x'"), "y"), (Attr("a"), "a")),
                    Join((("a", "b"),), Relation("R", ("a", "x")),
                         Relation("S", ("b", "x", "x'"))))
        db = {"R": bag(("a", "x"), [(1, 10)]), "S": bag(("b", "x", "x'"), [(1, 20, 30)])}
        assert evaluate(q, db).tuples == {(20, 1): 1}
        for rewrite in (project_to_icols, apply_pats):
            assert evaluate(rewrite(q), db).tuples == {(20, 1): 1}, rewrite.__name__
        # the join's right input is still pruned
        pruned = project_to_icols(q)
        assert schema_of(pruned.child.right) == ("b", "x")
        assert schema_of(pruned.child.left) == ("a", "x")


class TestPullUp:
    def test_worked_example(self):
        r = Relation("R", ("a", "b"))
        seed = Project(identity_targets(("a", "b"))
                       + ((Attr("a"), "pa"), (Attr("b"), "pb")), r)
        q = Select(Cmp("<", Attr("a"), Const(5)), seed)
        got = remove_redundant_projection(pull_up_prov_projection(q))
        assert isinstance(got, Project)
        assert got.targets == identity_targets(("a", "b")) + (
            (Attr("a"), "pa"), (Attr("b"), "pb"))
        assert isinstance(got.child, Select) and got.child.child is r

    def test_blocked_when_parent_uses_duplicate(self):
        r = Relation("R", ("a", "b"))
        seed = Project(identity_targets(("a", "b")) + ((Attr("a"), "pa"),), r)
        q = Select(Cmp("<", Attr("pa"), Const(5)), seed)
        assert pull_up_prov_projection(q) is q

    def test_climbs_through_join(self):
        r = Relation("R", ("a", "b"))
        s = Relation("S", ("c", "d"))
        seed = Project(identity_targets(("a", "b")) + ((Attr("a"), "pa"),), r)
        q = Join((("a", "c"),), seed, s)
        got = pull_up_prov_projection(q)
        assert isinstance(got, Project)
        assert got.targets[-1] == (Attr("a"), "pa")


class TestSelectionMoveAround:
    def test_condition_transfers_across_join(self):
        items = Relation("items", ("id", "price"))
        sales = Relation("sales", ("itemId", "qty"))
        q = Join((("id", "itemId"),),
                 Select(Cmp(">", Attr("id"), Const(1)), items), sales)
        got = selection_move_around(q)
        new_selects = [n for n in all_nodes(got)
                       if isinstance(n, Select)
                       and n.cond == Cmp(">", Attr("itemId"), Const(1))]
        assert len(new_selects) == 1
        assert new_selects[0].child is sales

    def test_no_shared_classes_unchanged(self):
        q = Cross(Relation("R", ("a",)), Relation("S", ("b",)))
        assert selection_move_around(q) is q

    def test_pushed_condition_enters_every_union_input(self):
        r, s = Relation("R", ("a", "b")), Relation("S", ("c", "d"))
        union = Union(r, s)
        spots = _landings(Cmp("=", Attr("b"), Const(2)), union)
        assert spots
        assert structurally_equal(_place(union, [spots]), Union(Select(Cmp("=", Attr("b"), Const(2)), r),
                                                Select(Cmp("=", Attr("d"), Const(2)), s)))


class TestRuleEquivalence:
    """Every rule preserves bag equivalence on a random corpus."""

    CASES = 120

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_rule_is_equivalence_preserving(self, rule):
        rng = random.Random(zlib.crc32(rule.encode()) % 100000)
        fn = RULES[rule]
        for _ in range(self.CASES):
            q, state = random_query(rng)
            db = random_instance(state, rng)
            expected = evaluate(q, db)
            got = evaluate(fn(q), db)
            assert bags_equal(expected, got, by_name=True), rule


class TestApplyPats:
    def test_equivalence_on_random_corpus(self):
        rng = random.Random(4242)
        for _ in range(200):
            q, state = random_query(rng)
            db = random_instance(state, rng, unique_first=True)
            base_keys = {name: [(attrs[0],)] for name, attrs in state.relations.items()}
            cfg = RewriteConfig(base_keys=base_keys)
            expected = evaluate(q, db)
            got = evaluate(apply_pats(q, cfg), db)
            assert got.schema == expected.schema
            assert got.tuples == expected.tuples

    def test_idempotent(self):
        rng = random.Random(77)
        for _ in range(60):
            q, state = random_query(rng)
            cfg = RewriteConfig()
            once = apply_pats(q, cfg)
            twice = apply_pats(once, cfg)
            assert structurally_equal(once, twice)

    def test_idempotent_on_deep_graphs(self):
        # deeper graphs exercise cross-round interactions: pruning
        # projections created after the merge pass, root-order restoration
        rng = random.Random(777)
        for _ in range(80):
            q, state = random_query(rng, max_ops=8)
            base_keys = {n: [(a[0],)] for n, a in state.relations.items()}
            cfg = RewriteConfig(base_keys=base_keys)
            once = apply_pats(q, cfg)
            twice = apply_pats(once, cfg)
            assert structurally_equal(once, twice)

    def test_union_diamond_chain(self):
        # every level reads the one below through both union inputs: the
        # graph has 3 nodes per level but 2**depth paths
        def chain(depth):
            node = Relation("R", ("a", "b"))
            for i in range(depth):
                node = Union(Select(Cmp("<", Attr("a"), Const(i + 2)), node),
                             Select(Cmp(">", Attr("b"), Const(i % 3)), node))
            return node

        q = chain(40)
        assert structurally_equal(q, chain(40))
        db = {"R": bag(("a", "b"), [(1, 2), (3, 1), (0, 5), (2, 2)])}
        assert bags_equal(evaluate(q, db), evaluate(apply_pats(q), db), by_name=True)

    def test_instrumented_shop_query_still_exact(self, shop_query, shop_db,
                                                 shop_provenance_rows):
        inst = instrument_query(shop_query)
        optimized = apply_pats(inst, RewriteConfig())
        assert evaluate(optimized, shop_db).tuples == shop_provenance_rows

    def test_equivalence_on_instrumented_random_queries(self):
        # instrumented graphs are the shapes the pull-up and merge rules were
        # built for: seeding projections, pass-through chains, IC joins
        from randgen import random_agg_query, random_spju_query
        rng = random.Random(888)
        for i in range(120):
            if i % 2:
                q, state = random_spju_query(rng)
            else:
                q, state = random_agg_query(rng, rng.randint(1, 2))
            db = random_instance(state, rng, 5)
            method = rng.choice(("join", "window"))
            inst = instrument_query(q, agg_method=method)
            expected = evaluate(inst, db)
            optimized = apply_pats(inst, RewriteConfig())
            got = evaluate(optimized, db)
            assert got.schema == expected.schema
            assert got.tuples == expected.tuples

    def test_equivalence_on_shared_name_queries(self):
        # base relations draw their columns from one small pool, so products
        # prime them (k'); a rule must read a column under the name it has
        # where the rule puts the reading, before and after instrumentation
        from randgen import random_agg_query, random_spju_query
        pool = ("a", "b", "c", "d")
        instrumentable = ("select", "project", "join", "cross", "union", "agg", "dupelim")
        rng = random.Random(2)
        for i in range(240):
            if i % 3 == 0:
                q, state = random_agg_query(rng, rng.randint(1, 2), pool=pool)
            elif i % 3 == 1:
                q, state = random_spju_query(rng, pool=pool)
            else:
                q, state = random_query(rng, ops=instrumentable, pool=pool)
            db = random_instance(state, rng, 5)
            assert bags_equal(evaluate(q, db), evaluate(apply_pats(q), db), by_name=True), i
            inst = instrument_query(q, agg_method=rng.choice(("join", "window")))
            got = evaluate(apply_pats(inst, RewriteConfig()), db)
            assert bags_equal(evaluate(inst, db), got, by_name=True), i

    def test_idempotent_on_instrumented_queries(self):
        # the corpus above; five of its queries once never reached a
        # fixpoint, because a constant equality lost at a renaming
        # projection was re-inserted by selection move-around every round
        from randgen import random_agg_query, random_spju_query
        rng = random.Random(888)
        for i in range(120):
            if i % 2:
                q, state = random_spju_query(rng)
            else:
                q, state = random_agg_query(rng, rng.randint(1, 2))
            random_instance(state, rng, 5)
            inst = instrument_query(q, agg_method=rng.choice(("join", "window")))
            once = apply_pats(inst, RewriteConfig())
            assert apply_pats(once, RewriteConfig()) is once, i

    def test_reenactment_merges_to_single_projection(self):
        # one update per attribute, conditions on a shared column: after
        # factoring, the merge collapses the stack and every base attribute
        # is referenced at most twice per output expression
        n = 12
        attrs = tuple(f"a{i}" for i in range(1, n + 1)) + ("b",)
        ups = [UpdateStmt("R",
                          ((f"a{i}", Arith("+", Attr(f"a{i}"), Const(i))),),
                          Cmp("=", Attr("b"), Const(i)))
               for i in range(1, n + 1)]
        root = reenact(ups, schema=attrs)
        out = apply_pats(root, RewriteConfig())
        projections = [x for x in all_nodes(out) if isinstance(x, Project)]
        assert len(projections) == 1
        for e, _ in projections[0].targets:
            for a in attrs:
                assert count_attr_refs(e, a) <= 2

    def test_blowup_contained_for_self_referencing_updates(self):
        n = 12
        ups = [UpdateStmt("R", (("a", Arith("+", Attr("a"), Const(1))),),
                          Cmp(">", Attr("a"), Const(i)))
               for i in range(n)]
        root = reenact(ups, schema=("a", "b"))
        single = reenact(ups[:1], schema=("a", "b"))
        optimized = apply_pats(root, RewriteConfig())
        assert (total_expression_size(optimized)
                <= 50 * total_expression_size(single))

    def test_dupelim_choice_spans_a_two_plan_space(self):
        from provopt.executor import TableStats, cost
        from provopt.optimizer import optimize

        r = Relation("R", ("a", "b"))
        # the projection drops the key, so only the set rule can remove the
        # inner duplicate elimination, and that removal is a choice point
        q = DupElim(Project(((Attr("a"), "a"),),
                            Select(Cmp("<", Attr("a"), Const(9)), DupElim(r))))
        stats = {"R": TableStats(100, {"a": 50, "b": 5})}

        def pipeline(choose):
            return apply_pats(q, RewriteConfig(dupelim_set_choice=choose))

        res = optimize(pipeline, lambda g: cost(g, stats).total)
        counts = {p.path: sum(isinstance(n, DupElim) for n in all_nodes(p.graph))
                  for p in res.trace}
        assert counts == {(0,): 1, (1,): 2}
        assert res.best.path == (0,)

    def test_size_bounded_relative_to_input(self):
        rng = random.Random(9)
        for _ in range(50):
            q, state = random_query(rng)
            before = max(total_expression_size(q), 1)
            after = total_expression_size(apply_pats(q, RewriteConfig()))
            assert after <= 8 * before + 64

    def test_equivalence_on_shared_subexpression_graphs(self):
        from randgen import share_subtree
        rng = random.Random(31337)
        for _ in range(100):
            q, state = random_query(rng, max_ops=4)
            dag = share_subtree(rng, q)
            db = random_instance(state, rng, 6, unique_first=True)
            base_keys = {name: [(attrs[0],)]
                         for name, attrs in state.relations.items()}
            expected = evaluate(dag, db)
            got = evaluate(apply_pats(dag, RewriteConfig(base_keys=base_keys)), db)
            assert got.schema == expected.schema
            assert got.tuples == expected.tuples
