import random

import pytest

from randgen import random_instance, random_query

from provopt.algebra import (
    Agg, Arith, Attr, BoolOp, Cmp, Const, Cross, Diff, DupElim, Intersect, Join,
    Node, Project, Relation, SchemaError, Select, Union, Window,
    all_nodes, identity_targets, schema_of, substitute,
)
from provopt.executor import evaluate
from provopt.properties import (
    ec_closure, equality_classes_from_condition, filter_map,
    infer_ec, infer_icols, infer_keys, infer_set,
)


def classes(*groups):
    return frozenset(frozenset(g) for g in groups)


class TestEcClosure:
    def test_merges_overlapping(self):
        got = ec_closure(classes(("a", "b"), ("b", "c"), ("d",)))
        assert got == classes(("a", "b", "c"), ("d",))

    def test_disjoint_unchanged(self):
        inp = classes(("a", "b"), ("c",))
        assert ec_closure(inp) == inp

    def test_idempotent(self):
        inp = classes(("a", "b"), ("b", "c"), ("c", "d"), ("x", "y"))
        once = ec_closure(inp)
        assert ec_closure(once) == once

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_union_find_components(self, seed):
        rng = random.Random(seed)
        universe = [f"v{i}" for i in range(8)]
        sets = [frozenset(rng.sample(universe, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 8))]
        got = ec_closure(sets)

        # union-find oracle over the overlap graph
        parent = {v: v for v in universe}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for s in sets:
            items = sorted(s)
            for other in items[1:]:
                parent[find(other)] = find(items[0])
        components = {}
        for s in sets:
            for v in s:
                components.setdefault(find(v), set()).add(v)
        assert got == frozenset(frozenset(c) for c in components.values())


# ---------------------------------------------------------------------------
# the CNF-based harvest, kept as the reference for the equality walk


def _old_cnf_conjuncts(e, cap=64):
    def cnf(x, budget):
        budget[0] -= 1
        if budget[0] < 0:
            return None
        if isinstance(x, BoolOp) and x.op == "and":
            out = []
            for a in x.args:
                sub = cnf(a, budget)
                if sub is None:
                    return None
                out.extend(sub)
            return out
        if isinstance(x, BoolOp) and x.op == "or":
            parts = []
            for a in x.args:
                sub = cnf(a, budget)
                if sub is None:
                    return None
                parts.append(sub)
            out = [[]]
            for sub in parts:
                nxt = []
                for clause in out:
                    for other in sub:
                        nxt.append(clause + other)
                        if len(nxt) > cap:
                            return None
                out = nxt
            return out
        return [[x]]

    clauses = cnf(e, [cap * 4])
    if clauses is None:
        return None
    return [c[0] if len(c) == 1 else BoolOp("or", tuple(c)) for c in clauses]


def _old_equality_classes(e):
    parts = _old_cnf_conjuncts(e)
    out = []
    for part in parts or ():
        if isinstance(part, Cmp) and part.op == "=":
            left, right = part.left, part.right
            if isinstance(left, Attr) and isinstance(right, Attr):
                out.append(frozenset((left.name, right.name)))
            elif isinstance(left, Attr) and isinstance(right, Const):
                out.append(frozenset((left.name, Const(right.value))))
            elif isinstance(left, Const) and isinstance(right, Attr):
                out.append(frozenset((right.name, Const(left.value))))
    return frozenset(out)


def _random_boolean(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        left = Attr(rng.choice("abcd"))
        right = Attr(rng.choice("abcd")) if rng.random() < 0.5 else Const(rng.randrange(3))
        if rng.random() < 0.3:
            left, right = right, left
        return Cmp(rng.choice(("=", "=", "<")), left, right)
    op = rng.choice(("and", "and", "or", "not"))
    count = 1 if op == "not" else rng.randint(1, 3)
    return BoolOp(op, tuple(_random_boolean(rng, depth - 1) for _ in range(count)))


class TestCnf:
    def test_harvest_matches_the_cnf_reference(self):
        rng = random.Random(7)
        compared = 0
        for _ in range(3000):
            e = _random_boolean(rng, rng.randint(1, 5))
            if _old_cnf_conjuncts(e) is None:
                continue
            assert equality_classes_from_condition(e) == _old_equality_classes(e), e
            compared += 1
        assert compared > 2500

    def test_harvest_reads_past_the_old_cnf_cap(self):
        e = BoolOp("and", tuple(Cmp("=", Attr(f"a{i}"), Const(i)) for i in range(300)))
        assert _old_cnf_conjuncts(e) is None
        assert equality_classes_from_condition(e) == frozenset(
            frozenset((f"a{i}", Const(i))) for i in range(300))

    def test_equality_with_constant(self):
        got = equality_classes_from_condition(Cmp("=", Attr("a"), Const(5)))
        assert got == frozenset((frozenset(("a", Const(5))),))


class TestEcWorkedExamples:
    def test_selection_adds_constant(self):
        # child classes {{a,b},{c}} seeded by an equality selection
        base = Select(Cmp("=", Attr("a"), Attr("b")), Relation("R", ("a", "b", "c")))
        q = Select(BoolOp("and", (Cmp("=", Attr("a"), Const(5)),
                                  Cmp("<", Attr("c"), Const(9)))), base)
        assert infer_ec(q)[q] == classes(("a", "b", Const(5)), ("c",))

    def test_join_merges_across_inputs(self):
        left = Select(Cmp("=", Attr("a"), Attr("b")), Relation("R", ("a", "b", "c")))
        right = Select(Cmp("=", Attr("e"), Attr("f")), Relation("S", ("d", "e", "f")))
        q = Join((("a", "d"),), left, right)
        assert infer_ec(q)[q] == classes(("a", "b", "d"), ("c",), ("e", "f"))

    def test_union_intersects_classes(self):
        left = Relation("R", ("a", "b"))
        right = Select(Cmp("=", Attr("c"), Attr("d")), Relation("S", ("c", "d")))
        q = Union(left, right)
        assert infer_ec(q)[q] == classes(("a",), ("b",))

    def test_top_down_reaches_join_input(self):
        # the equality enforced by the join is visible inside each input
        items = Relation("items", ("id", "price"))
        sales = Relation("sales", ("itemId", "qty"))
        q = Join((("id", "itemId"),), Select(Cmp(">", Attr("id"), Const(1)), items), sales)
        down = infer_ec(q)
        assert down[q] == classes(("id", "itemId"), ("price",), ("qty",))
        # inputs keep only their own attributes (the table subtracts the
        # sibling schema), so no cross-side class remains below the join
        assert down[sales] == classes(("itemId",), ("qty",))

    def test_projection_keeps_constant(self):
        # a column equated to a constant below a renaming projection is
        # still equated to it above
        q = Project(((Attr("a"), "b"),),
                    Select(Cmp("=", Attr("a"), Const(1)), Relation("R", ("a", "c"))))
        assert frozenset(("b", Const(1))) in infer_ec(q)[q]

    def test_constant_from_above_crosses_projection(self):
        proj = Project(((Attr("a"), "b"), (Attr("c"), "c")), Relation("R", ("a", "c")))
        q = Select(Cmp("=", Attr("b"), Const(1)), proj)
        assert infer_ec(q)[proj.child] == classes(("a", Const(1)), ("c",))


class TestFilterMap:
    def test_inputs_a_filter_crosses_into(self):
        r, s = Relation("R", ("a", "b")), Relation("S", ("c", "d"))
        assert filter_map(Intersect(r, s), 0) == {"a": "a", "b": "b"}
        assert filter_map(Intersect(r, s), 1) == {"a": "c", "b": "d"}
        assert filter_map(Diff(r, s), 1) is None
        assert filter_map(Join((("a", "c"),), r, s), 1) == {"c": "c", "d": "d"}
        assert filter_map(Agg(("b",), (("sum", "a", "s"),), r), 0) == {"b": "b"}
        assert filter_map(Project(((Attr("a"), "x"), (Arith("+", Attr("a"), Attr("b")), "y")),
                                  r), 0) == {"x": "a"}

    def test_unknown_operator_raises(self):
        class Opaque(Node):
            pass

        with pytest.raises(TypeError, match="Opaque"):
            filter_map(Opaque(), 0)


class TestKeys:
    def test_projection_drops_key(self):
        q = Project(((Attr("b"), "b"), (Attr("c"), "c")), Relation("R", ("a", "b", "c")))
        keys = infer_keys(q, {"R": [("a",)]})
        assert keys[q] == frozenset()

    def test_groupby_becomes_key(self):
        q = Agg(("b",), (("sum", "a", "s"),), Relation("R", ("a", "b")))
        assert infer_keys(q)[q] == frozenset((frozenset(("b",)),))

    def test_groupby_keeps_contained_keys(self):
        q = Agg(("a", "b"), (("sum", "c", "s"),), Relation("R", ("a", "b", "c")))
        keys = infer_keys(q, {"R": [("a",)]})
        assert keys[q] == frozenset((frozenset(("a",)),))

    def test_union_has_no_keys(self):
        q = Union(Relation("R", ("a",)), Relation("S", ("b",)))
        assert infer_keys(q, {"R": [("a",)], "S": [("b",)]})[q] == frozenset()

    def test_join_substitutes_key_attributes(self):
        q = Join((("a", "c"),), Relation("R", ("a", "b")), Relation("S", ("c", "d")))
        keys = infer_keys(q, {"R": [("a",)], "S": [("c",)]})
        assert frozenset(("a",)) in keys[q] or frozenset(("c",)) in keys[q]
        for k in keys[q]:
            assert not any(other < k for other in keys[q])

    def test_min_reduction(self):
        q = Cross(Relation("R", ("a",)), Relation("S", ("b", "c")))
        keys = infer_keys(q, {"R": [("a",)], "S": [("b",), ("b", "c")]})
        for k in keys[q]:
            assert not any(other < k for other in keys[q])


class TestIcols:
    def test_projection_chain_drops_computed_column(self):
        r = Relation("R", ("a", "b", "c"))
        inner = Project(((Attr("a"), "a"), (Arith("+", Attr("b"), Attr("c")), "d")), r)
        outer = Project(((Attr("a"), "a"),), inner)
        icols = infer_icols(outer)
        assert icols[inner] == frozenset(("a",))
        assert icols[r] == frozenset(("a",))

    def test_dupelim_needs_full_schema(self):
        r = Relation("R", ("a", "b"))
        q = Project(((Attr("a"), "a"),), DupElim(r))
        assert infer_icols(q)[r] == frozenset(("a", "b"))

    def test_window_needs_inputs_not_output(self):
        r = Relation("R", ("a", "b"))
        w = Window("sum", "b", "x", ("a",), (), r)
        q = Project(((Attr("a"), "a"),), w)
        assert infer_icols(q)[r] == frozenset(("a", "b"))

    def test_shared_node_unions_parent_demands(self):
        r = Relation("R", ("a", "b", "c"))
        left = Project(((Attr("a"), "a"),), r)
        right = Project(((Attr("b"), "x"),), r)
        q = Cross(left, right)
        assert infer_icols(q)[r] == frozenset(("a", "b"))


class TestSet:
    def test_dupelim_chain_true(self):
        r = Relation("R", ("a",))
        inner = DupElim(r)
        q = DupElim(Select(Cmp("<", Attr("a"), Const(9)), inner))
        assert infer_set(q)[inner] is True

    def test_agg_blocks(self):
        r = Relation("R", ("a",))
        inner = DupElim(r)
        q = DupElim(Agg(("a",), (("count", "a", "c"),), inner))
        assert infer_set(q)[inner] is False

    def test_diff_blocks(self):
        # bag difference subtracts multiplicities: {a:2} - {a:1} keeps a,
        # but with either input deduplicated the result differs
        left = DupElim(Relation("R", ("a",)))
        right = DupElim(Relation("S", ("a",)))
        q = DupElim(Diff(left, right))
        got = infer_set(q)
        assert got[left] is False
        assert got[right] is False

    def test_root_false(self):
        r = Relation("R", ("a",))
        assert infer_set(r)[r] is False

    def test_shared_node_needs_all_paths(self):
        r = Relation("R", ("a",))
        inner = DupElim(r)
        guarded = DupElim(Select(Cmp("<", Attr("a"), Const(9)), inner))
        unguarded = Select(Cmp(">", Attr("a"), Const(0)), inner)
        q = Union(guarded, unguarded)
        assert infer_set(q)[inner] is False


class TestSoundness:
    """Random-corpus checks of the property definitions."""

    CASES = 250

    def _corpus(self):
        rng = random.Random(1234)
        for _ in range(self.CASES):
            q, state = random_query(rng)
            db = random_instance(state, rng, unique_first=True)
            base_keys = {name: [(attrs[0],)] for name, attrs in state.relations.items()}
            yield q, db, base_keys

    def test_keys_are_unique_in_output(self):
        for q, db, base_keys in self._corpus():
            keys = infer_keys(q, base_keys)
            for node in all_nodes(q):
                out = evaluate(node, db)
                for key in keys[node]:
                    idx = [schema_of(node).index(a) for a in key]
                    seen = set()
                    for t, m in out.rows():
                        assert m == 1, "keyed output must be duplicate-free"
                        kv = tuple(t[i] for i in idx)
                        assert kv not in seen, "inferred key not unique"
                        seen.add(kv)

    def test_ec_pairs_enforceable(self):
        for q, db, base_keys in self._corpus():
            ecs = infer_ec(q)
            expected = evaluate(q, db)
            for node in all_nodes(q):
                for cls in ecs[node]:
                    members = sorted(cls, key=lambda m: (isinstance(m, Const), repr(m)))
                    if len(members) < 2:
                        continue
                    first = members[0]
                    for other in members[1:]:
                        left = first if isinstance(first, Const) else Attr(first)
                        right = other if isinstance(other, Const) else Attr(other)
                        enforced = substitute(q, node, Select(Cmp("=", left, right), node),
                                              check_schema=False)
                        assert evaluate(enforced, db).tuples == expected.tuples

    def test_icols_projection_preserves_result(self):
        for q, db, base_keys in self._corpus():
            icols = infer_icols(q)
            expected = evaluate(q, db)
            for node in all_nodes(q):
                if node is q:
                    continue
                sch = schema_of(node)
                keep = tuple(a for a in sch if a in icols[node])
                if keep == sch:
                    continue
                try:
                    narrowed = substitute(q, node, Project(identity_targets(keep), node),
                                          check_schema=False)
                    got = evaluate(narrowed, db)
                except SchemaError:
                    continue  # positional ancestors cannot absorb the narrowing
                assert got.tuples == expected.tuples

    def test_set_nodes_tolerate_forced_dedup(self):
        for q, db, base_keys in self._corpus():
            dup = infer_set(q)
            expected = evaluate(q, db)
            for node in all_nodes(q):
                if not dup[node] or node is q:
                    continue
                forced = substitute(q, node, DupElim(node), check_schema=False)
                assert evaluate(forced, db).tuples == expected.tuples

    def test_ec_and_set_sound_on_shared_subexpression_graphs(self):
        from randgen import share_subtree
        rng = random.Random(5150)
        for _ in range(80):
            q, state = random_query(rng, max_ops=4)
            dag = share_subtree(rng, q)
            db = random_instance(state, rng, 6, unique_first=True)
            expected = evaluate(dag, db)
            ecs = infer_ec(dag)
            dup = infer_set(dag)
            for node in all_nodes(dag):
                for cls in ecs[node]:
                    members = sorted(cls, key=lambda m: (isinstance(m, Const), repr(m)))
                    for other in members[1:]:
                        first = members[0]
                        lhs = first if isinstance(first, Const) else Attr(first)
                        rhs = other if isinstance(other, Const) else Attr(other)
                        enforced = substitute(dag, node, Select(Cmp("=", lhs, rhs), node),
                                              check_schema=False)
                        assert evaluate(enforced, db).tuples == expected.tuples
                if dup[node] and node is not dag:
                    forced = substitute(dag, node, DupElim(node), check_schema=False)
                    assert evaluate(forced, db).tuples == expected.tuples
