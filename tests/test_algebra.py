import pytest

from helpers import expr_size, node_count

from provopt.algebra import (
    Agg, Arith, Attr, Cmp, Const, Cross, DupElim, GraphError,
    Join, Project, Relation, SchemaError, Select, Union, Window,
    all_nodes, expr_attrs, fresh_name,
    parent_map, replace_children, right_output_names, schema_of,
    structurally_equal, substitute, substitute_attrs,
)


def rel(name="R", attrs=("a", "b")):
    return Relation(name, tuple(attrs))


class TestSchemaOf:
    def test_join_concatenates(self):
        q = Join((("a", "c"),), rel("R", ("a", "b")), rel("S", ("c", "d")))
        assert schema_of(q) == ("a", "b", "c", "d")

    def test_select_copies_child(self):
        q = Select(Cmp("<", Attr("a"), Const(5)), rel())
        assert schema_of(q) == ("a", "b")

    def test_window_appends_output(self):
        q = Window("sum", "b", "x", (), (), rel())
        assert schema_of(q) == ("a", "b", "x")

    def test_instrumented_projection_has_seven_attrs(self, shop_query):
        from provopt.instrument import instrument_query
        assert len(schema_of(instrument_query(shop_query))) == 7

    def test_agg_schema(self):
        q = Agg(("b",), (("sum", "a", "s"), ("count", "a", "c")), rel())
        assert schema_of(q) == ("b", "s", "c")

    def test_join_collision_qualified_with_primes(self):
        q = Cross(rel("R", ("a", "b")), rel("S", ("b", "c")))
        assert schema_of(q) == ("a", "b", "b'", "c")
        assert right_output_names(q) == ("b'", "c")

    def test_unresolved_attribute_raises(self):
        q = Select(Cmp("=", Attr("zz"), Const(1)), rel())
        with pytest.raises(SchemaError):
            schema_of(q)

    def test_duplicate_projection_output_raises(self):
        q = Project(((Attr("a"), "x"), (Attr("b"), "x")), rel())
        with pytest.raises(SchemaError):
            schema_of(q)

    def test_union_arity_mismatch_raises(self):
        q = Union(rel("R", ("a", "b")), rel("S", ("c",)))
        with pytest.raises(SchemaError):
            schema_of(q)

    def test_duplicate_group_by_column_raises(self):
        q = Agg(("a", "a"), (("count", "b", "n"),), rel())
        with pytest.raises(SchemaError, match="^duplicate output name 'a' in aggregation$"):
            schema_of(q)

    @pytest.mark.parametrize("node, message", [
        # each operator reports the first of its errors, target by target
        (Project(((Attr("zz"), "x"), (Attr("a"), "x")), rel()),
         "projection target x: unresolved attribute(s) ['zz'] in schema ['a', 'b']"),
        (Project(((Attr("a"), "x"), (Attr("a"), "x"), (Attr("zz"), "y")), rel()),
         "duplicate output name 'x' in projection"),
        (Join((("a", "c"), ("zz", "c")), rel(), rel("S", ("c",))),
         "join condition (left): unresolved attribute(s) ['zz'] in schema ['a', 'b']"),
        (Join((("a", "zz"), ("zz", "c")), rel(), rel("S", ("c",))),
         "join condition (right): unresolved attribute(s) ['zz'] in schema ['c']"),
        (Agg(("zz", "a", "a"), (), rel()),
         "group-by: unresolved attribute(s) ['zz'] in schema ['a', 'b']"),
        (Agg(("a",), (("sum", "zz", "s"), ("median", "b", "m")), rel()),
         "aggregation sum(zz): unresolved attribute(s) ['zz'] in schema ['a', 'b']"),
        (Agg(("a",), (("median", "zz", "m"),), rel()), "unknown aggregation function 'median'"),
        (Agg(("a",), (("sum", "b", "a"), ("sum", "zz", "s")), rel()),
         "duplicate output name 'a' in aggregation"),
    ])
    def test_the_first_error_is_reported(self, node, message):
        with pytest.raises(SchemaError) as raised:
            schema_of(node)
        assert str(raised.value) == message


class TestSubstitute:
    def test_wrap_shared_subgraph_once(self):
        shared = rel()
        left = Select(Cmp("<", Attr("a"), Const(3)), shared)
        root = Union(left, Select(Cmp(">", Attr("a"), Const(0)), shared))
        wrapped = Select(Cmp("=", Attr("a"), Attr("b")), shared)
        new_root = substitute(root, shared, wrapped)
        leaves = [n for n in all_nodes(new_root) if isinstance(n, Relation)]
        assert len(leaves) == 1  # still shared, not duplicated
        selects = [n for n in all_nodes(new_root)
                   if isinstance(n, Select) and n.cond == Cmp("=", Attr("a"), Attr("b"))]
        assert len(selects) == 1
        assert len(parent_map(new_root)[selects[0]]) == 2

    def test_identity_substitution(self):
        q = Select(Cmp("<", Attr("a"), Const(3)), rel())
        assert substitute(q, q, q) is q

    def test_diamond_rebinds_both_paths(self):
        leaf = rel()
        l = Select(Cmp("<", Attr("a"), Const(3)), leaf)
        r = Select(Cmp(">", Attr("a"), Const(0)), leaf)
        root = Union(l, r)
        replacement = rel("R2", ("a", "b"))
        new_root = substitute(root, leaf, replacement)
        names = {n.name for n in all_nodes(new_root) if isinstance(n, Relation)}
        assert names == {"R2"}

    def test_node_count_bounded(self):
        leaf = rel()
        root = Union(Select(Cmp("<", Attr("a"), Const(3)), leaf), DupElim(leaf))
        before = node_count(root)
        wrapped = Select(Cmp("=", Attr("a"), Attr("b")), leaf)
        after = node_count(substitute(root, leaf, wrapped))
        assert after <= before + node_count(wrapped)

    def test_target_not_in_graph(self):
        with pytest.raises(GraphError):
            substitute(rel(), rel("S"), rel("T"))

    def test_replace_children_keeps_own_fields_and_checks_arity(self):
        w = Window("sum", "b", "x", ("a",), (), rel(), "partition")
        got = replace_children(w, (rel("S"),))
        assert got.children[0].name == "S"
        assert (got.fn, got.arg, got.out, got.partition_by, got.frame) == (
            "sum", "b", "x", ("a",), "partition")
        with pytest.raises(GraphError):
            replace_children(w, (rel(), rel()))
        with pytest.raises(GraphError):
            replace_children(rel(), (rel(),))

    def test_schema_mismatch_checked(self):
        q = DupElim(rel())
        with pytest.raises(SchemaError):
            substitute(q, q.child, rel("S", ("x",)))


class TestExprHelpers:
    def test_expr_size_attr(self):
        assert expr_size(Attr("a")) == 1

    def test_expr_size_nested(self):
        e = Arith("+", Attr("a"), Arith("+", Attr("d"), Attr("e")))
        assert expr_size(e) == 5

    def test_self_doubling_growth_detectable(self):
        # substituting b := a+a doubles references per level
        e = Arith("+", Attr("a"), Attr("a"))
        for _ in range(9):
            e = substitute_attrs(Arith("+", Attr("b"), Attr("b")), {"b": e})
        assert expr_size(e) >= 2 ** 10

    def test_expr_attrs(self):
        e = Cmp("=", Attr("a"), Arith("+", Attr("b"), Const(1)))
        assert expr_attrs(e) == {"a", "b"}

    def test_fresh_name_primes(self):
        assert fresh_name("b", ("a", "b", "b'")) == "b''"

    def test_fresh_name_only_tests_membership(self):
        # one lookup per name tried, never a copy: a set of any size costs the same
        class Taken:
            def __contains__(self, name):
                return name in {"b", "b'", "c"}

        assert fresh_name("b", Taken()) == "b''"


def test_structural_equality_ignores_identity():
    q1 = Select(Cmp("<", Attr("a"), Const(3)), rel())
    q2 = Select(Cmp("<", Attr("a"), Const(3)), rel())
    assert q1 is not q2
    assert structurally_equal(q1, q2)
    q3 = Select(Cmp("<", Attr("a"), Const(4)), rel())
    assert not structurally_equal(q1, q3)


def _merged_selection(n, changed_at=None):
    """One selection of n conjuncts nested one level each, as merging an
    n-level selection chain builds it; conjunct ``changed_at`` compares
    with -1 instead of its index."""
    from provopt.rewrites import merge_selections
    q = rel()
    for i in range(n):
        q = Select(Cmp("<>", Attr("a"), Const(-1 if i == changed_at else i)), q)
    return merge_selections(q)


def test_structural_equality_of_deep_conditions():
    # the expressions are compared with a work list, not the dataclasses'
    # recursive ==, which gives up at about 300 levels
    plan = _merged_selection(5000)
    assert isinstance(plan, Select) and isinstance(plan.child, Relation)
    assert structurally_equal(plan, _merged_selection(5000))
    assert not structurally_equal(plan, _merged_selection(5000, changed_at=2500))
    assert not structurally_equal(_merged_selection(5000, changed_at=2500), plan)


def test_structural_equality_compares_fields_as_eq_does():
    # values that are not nodes, expressions among them, compare with ==
    assert not structurally_equal(Select(Cmp("=", Attr("a"), Const(1)), rel()),
                                  Select(Cmp("=", Attr("a"), Const(1.0)), rel()))
    assert not structurally_equal(Select(Cmp("=", Attr("a"), Const(1)), rel()),
                                  Select(Cmp("=", Attr("a"), Const("1")), rel()))
    assert not structurally_equal(Select(Cmp("=", Attr("a"), Attr("b")), rel()),
                                  Select(Cmp("=", Attr("a"), Const("b")), rel()))
    assert not structurally_equal(Project(((Attr("a"), "a"),), rel()),
                                  Project(((Attr("a"), "a"), (Attr("b"), "b")), rel()))
    assert not structurally_equal(Project(((Attr("a"), "a"),), rel()),
                                  Project(((Attr("a"), "a"),), rel(), materialize=True))
    # shared subexpressions are compared once per pair: 24 levels, each
    # using the one below twice, is a tree of 2**25 - 1 nodes
    e1 = e2 = Attr("a")
    for _ in range(24):
        e1, e2 = Arith("+", e1, e1), Arith("+", e2, e2)
    assert structurally_equal(Project(((e1, "x"),), rel()), Project(((e2, "x"),), rel()))


def test_structural_equality_tells_constants_of_another_type_apart():
    for c1, c2 in ((1, 1.0), (0.0, -0.0)):
        assert not structurally_equal(Select(Cmp("=", Attr("a"), Const(c1)), rel()),
                                      Select(Cmp("=", Attr("a"), Const(c2)), rel()))
        assert not structurally_equal(Project(((Const(c1), "x"),), rel()),
                                      Project(((Const(c2), "x"),), rel()))


class TestCachedStructure:
    def test_all_nodes_returns_a_fresh_list_each_call(self):
        r = rel()
        q = Select(Cmp("<", Attr("a"), Const(5)), Union(r, r))
        first = all_nodes(q)
        assert first == [r, q.child, q]
        first.clear()
        assert all_nodes(q) == [r, q.child, q]

    def test_cached_order_leaves_no_reference_cycle(self):
        # a graph whose order is cached is freed by reference counting alone
        import gc
        import weakref
        q = Project(((Attr("a"), "a"),), Select(Cmp("<", Attr("a"), Const(5)), rel()))
        all_nodes(q)
        alive = weakref.ref(q)
        gc.disable()
        try:
            del q
            assert alive() is None
        finally:
            gc.enable()

    def test_right_output_names_reads_the_join_schema(self):
        q = Join((("a", "a"),), rel("R", ("a", "b")), rel("S", ("a", "b")))
        assert schema_of(q) == ("a", "b", "a'", "b'")
        assert right_output_names(q) == ("a'", "b'")
        # the names are derived from the inputs alone, even for a join
        # whose condition does not resolve
        bad = Cross(rel("R", ("a",)), rel("S", ("a",)))
        assert right_output_names(Join((("x", "a"),), bad.left, bad.right)) == ("a'",)
