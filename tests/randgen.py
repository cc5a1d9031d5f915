"""Seeded random query/instance generators for the property suites."""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from provopt.algebra import (
    Agg, Arith, Attr, BoolOp, Cmp, Const, Cross, Diff, DupElim, Expr,
    FRAME_PARTITION, FRAME_RUNNING, Intersect, Join, Node, Project, Relation,
    Select, Union, Window, schema_of,
)
from provopt.executor import BagRelation

CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")


@dataclass
class GenState:
    rng: random.Random
    relations: dict[str, tuple[str, ...]] = field(default_factory=dict)
    counter: int = 0
    #: names base relations draw their attributes from, shared between
    #: relations, so products prime them; empty: globally unique names
    pool: tuple[str, ...] = ()

    def fresh_attr(self) -> str:
        self.counter += 1
        return f"c{self.counter}"

    def fresh_relation(self, arity: int) -> Relation:
        name = f"rel{len(self.relations)}"
        shared = self.rng.sample(self.pool, min(arity, len(self.pool))) if self.pool else []
        attrs = tuple(shared) + tuple(self.fresh_attr() for _ in range(arity - len(shared)))
        self.relations[name] = attrs
        return Relation(name, attrs)


def random_condition(rng: random.Random, attrs, *, equality_bias=0.4) -> Expr:
    def atom() -> Expr:
        a = rng.choice(attrs)
        if rng.random() < equality_bias:
            op = "="
        else:
            op = rng.choice(CMP_OPS)
        if rng.random() < 0.5 and len(attrs) > 1:
            b = rng.choice([x for x in attrs if x != a])
            return Cmp(op, Attr(a), Attr(b))
        return Cmp(op, Attr(a), Const(rng.randrange(5)))

    parts = [atom() for _ in range(rng.randint(1, 2))]
    return parts[0] if len(parts) == 1 else BoolOp("and", tuple(parts))


def random_query(rng: random.Random, max_ops: int = 5,
                 ops=("select", "project", "join", "cross", "union",
                      "intersect", "diff", "agg", "dupelim", "window"),
                 *, pool: tuple[str, ...] = ()) -> tuple[Node, GenState]:
    """A random query of at most max_ops non-leaf operators; every base
    relation has globally unique attribute names, or names drawn from
    ``pool``, and a unique first-column key can be imposed on its
    instances."""
    state = GenState(rng, pool=pool)
    budget = [max_ops]

    def leaf() -> Node:
        return state.fresh_relation(rng.randint(2, 3))

    def build() -> Node:
        if budget[0] <= 0:
            return leaf()
        budget[0] -= 1
        kind = rng.choice(ops)
        if kind == "select":
            child = build()
            return Select(random_condition(rng, schema_of(child)), child)
        if kind == "project":
            child = build()
            sch = schema_of(child)
            kept = rng.sample(sch, rng.randint(1, len(sch)))
            targets = []
            for a in kept:
                if rng.random() < 0.3:
                    targets.append((Attr(a), state.fresh_attr()))
                else:
                    targets.append((Attr(a), a))
            if rng.random() < 0.3 and len(sch) >= 2:
                x, y = rng.sample(sch, 2)
                targets.append((Arith(rng.choice("+-"), Attr(x), Attr(y)),
                                state.fresh_attr()))
            if rng.random() < 0.25:
                # seeding-style duplication: export one column twice
                targets.append((Attr(rng.choice(kept)), state.fresh_attr()))
            return Project(tuple(targets), child)
        if kind in ("join", "cross"):
            left = build()
            right = leaf()
            if kind == "cross":
                return Cross(left, right)
            a = rng.choice(schema_of(left))
            b = rng.choice(schema_of(right))
            return Join(((a, b),), left, right)
        if kind in ("union", "intersect", "diff"):
            left = build()
            right = state.fresh_relation(len(schema_of(left)))
            cls = {"union": Union, "intersect": Intersect, "diff": Diff}[kind]
            return cls(left, right)
        if kind == "agg":
            child = build()
            sch = schema_of(child)
            group = tuple(rng.sample(sch, rng.randint(0, min(2, len(sch)))))
            arg = rng.choice(sch)
            fn = rng.choice(("sum", "count", "min", "max"))
            return Agg(group, ((fn, arg, state.fresh_attr()),), child)
        if kind == "dupelim":
            return DupElim(build())
        if kind == "window":
            child = build()
            sch = schema_of(child)
            part = tuple(rng.sample(sch, rng.randint(0, min(2, len(sch)))))
            order = tuple(rng.sample(sch, rng.randint(0, 1)))
            frame = rng.choice((FRAME_RUNNING, FRAME_PARTITION))
            return Window(rng.choice(("sum", "count", "min", "max")),
                          rng.choice(sch), state.fresh_attr(), part, order,
                          child, frame)
        raise AssertionError(kind)

    return build(), state


def random_instance(state: GenState, rng: random.Random, max_tuples: int = 8,
                    *, unique_first: bool = False) -> dict[str, BagRelation]:
    db = {}
    for name, attrs in state.relations.items():
        n = rng.randint(0, max_tuples)
        bag = BagRelation(attrs)
        firsts = rng.sample(range(50), n) if unique_first else None
        for i in range(n):
            row = tuple(rng.randrange(5) for _ in attrs)
            if unique_first:
                row = (firsts[i],) + row[1:]
            bag.add(row, 1 if unique_first else rng.randint(1, 3))
        db[name] = bag
    return db


def random_spju_query(rng: random.Random, max_ops: int = 4, *,
                      pool: tuple[str, ...] = ()) -> tuple[Node, GenState]:
    """Random query from the provenance-instrumentable fragment (no
    duplicate elimination, aggregation handled separately)."""
    return random_query(rng, max_ops, ops=("select", "project", "join", "cross", "union"),
                        pool=pool)


def share_subtree(rng: random.Random, q: Node) -> Node:
    """Turn a tree into a DAG: one random node feeds two union branches."""
    shared = rng.choice(list(schema_of_nodes(q)))
    sch = schema_of(shared)
    a = rng.choice(sch)
    left = Select(Cmp("<", Attr(a), Const(rng.randrange(5))), shared)
    right = Select(Cmp(">=", Attr(a), Const(rng.randrange(5))), shared)
    return Union(left, right)


def schema_of_nodes(q: Node):
    from provopt.algebra import all_nodes
    return all_nodes(q)


def random_agg_query(rng: random.Random, num_aggs: int, *,
                     pool: tuple[str, ...] = ()) -> tuple[Node, GenState]:
    """1-3 aggregations over SPJ subtrees, combined without nesting one
    aggregation inside another's subtree; base names as in :func:`random_query`."""
    state = GenState(rng, pool=pool)

    def spj(budget: int) -> Node:
        node: Node = state.fresh_relation(rng.randint(2, 3))
        for _ in range(budget):
            roll = rng.random()
            sch = schema_of(node)
            if roll < 0.4:
                node = Select(random_condition(rng, sch), node)
            elif roll < 0.7:
                right = state.fresh_relation(2)
                node = Join(((rng.choice(sch), rng.choice(schema_of(right))),),
                            node, right)
            else:
                kept = rng.sample(sch, rng.randint(1, len(sch)))
                node = Project(tuple((Attr(a), a) for a in kept), node)
        return node

    def agg_block() -> Node:
        child = spj(rng.randint(0, 2))
        sch = schema_of(child)
        group = tuple(rng.sample(sch, rng.randint(0, min(2, len(sch) - 1))))
        fn = rng.choice(("sum", "count", "min", "max"))
        return Agg(group, ((fn, rng.choice(sch), state.fresh_attr()),), child)

    node = agg_block()
    for _ in range(num_aggs - 1):
        other = agg_block()
        sch_l, sch_r = schema_of(node), schema_of(other)
        if rng.random() < 0.5:
            node = Join(((rng.choice(sch_l), rng.choice(sch_r)),), node, other)
        else:
            node = Cross(node, other)
    if rng.random() < 0.5:
        node = Select(random_condition(rng, schema_of(node)), node)
    return node, state
