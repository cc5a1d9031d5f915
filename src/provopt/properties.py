"""Operator property inference: keys, equivalence classes, needed columns,
and duplicate insensitivity.

All four inferences are sound but deliberately incomplete: a missing key or
equivalence only costs a rewrite opportunity, never correctness. The rules
are written for trees and extended to DAGs conservatively: a shared node
takes the union of its parents' column demands, the conjunction of its
parents' duplicate-insensitivity, and accumulates equivalence information
from every parent.

Equivalence classes are frozensets whose members are attribute names (str)
or the interned ``Const`` expressions themselves (``1``, ``1.0`` and ``True``
are three members); a class holds at most one constant in practice but
nothing breaks if contradictory selections put two there (the corresponding
instances are empty). The passes the rewrites read
(:func:`infer_ec_bottom_up`, :func:`ec_top_down`, :func:`ec_transfer_down`)
are sparse: they keep only classes of two or more members, and a column in
no class is alone in its class. Each step intersects, renames or merges
classes, which turns no one-member class into a larger one, so dropping
them loses nothing; the one step that makes a class of a lone column, a
projection exporting it under two names, groups those names itself.
:func:`infer_ec`, and through it :func:`infer_all` and
``explain-properties``, still reports every output column, adding a
one-member class for each column in no larger class.

Each operator declares its column lineage (``Node.lineage``): which output
columns pass which input columns through unchanged. Each operator's keys,
bottom-up classes and the input columns it reads itself are its steps in
three tables (:class:`~provopt.algebra.PassTable`), :data:`KEYS`,
:data:`EC_UP` and :data:`READS`: keys and classes mostly come from the
inputs whose rows the output holds, renamed through the lineage, and needed
columns map down through it plus what the operator reads. Where a table
would add nothing the pass is one expression: :func:`filter_map` is the
lineage narrowed to the columns a filter may cross (top-down equivalence
classes, selection push-down and the test whether an ancestor selection
already guards a node read it), and :func:`infer_set` names the operators
that read multiplicities.

Keys and bottom-up equivalence classes depend only on a node's subgraph (and,
for keys, on the declared base keys), so :func:`infer_keys`, :func:`keys_of`,
:func:`infer_ec_bottom_up` and :func:`ec_up_of` take a node -> value
``memo`` that holds the values computed before and receives the new ones: a
rule computes them only for the nodes it rebuilt, and the runs of one
pipeline or optimization (:func:`provopt.algebra.sharing_subplans`) share
the memo. It is not kept on the nodes, which kept plans would carry, and a
keys memo is valid for one ``base_keys`` only. Downward classes, needed columns and duplicate
insensitivity are top-down (they depend on a node's ancestors): each is one
:func:`provopt.algebra.fold_down`, whose step maps a parent's value into one
input, and a rule reads them once, on its input.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from .algebra import (
    Agg, Attr, BoolOp, Cmp, Const, Diff, DupElim, Expr, Intersect,
    Node, PassTable, Product, Project, Relation, Select, Union, Window,
    all_nodes, expr_attrs, fold_down, schema_of, uncached_nodes,
)


EcClass = frozenset
KeySet = frozenset


@dataclass
class PropertyStore:
    """Per-node inferred properties for one graph."""

    keys: dict[Node, frozenset[KeySet]] = field(default_factory=dict)
    ecs: dict[Node, frozenset[EcClass]] = field(default_factory=dict)
    icols: dict[Node, frozenset[str]] = field(default_factory=dict)
    dup_insensitive: dict[Node, bool] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# equivalence-class machinery


def ec_closure(classes: Iterable[frozenset]) -> frozenset[EcClass]:
    """Merge overlapping classes to a fixpoint (transitivity of equality).
    Disjoint classes, the common case, come back as they are. Else each
    member maps to the merged class holding it, and where a class meets
    two merged ones the smaller joins the larger, so a member moves a
    logarithmic number of times at most."""
    classes = classes if isinstance(classes, frozenset) else frozenset(map(frozenset, classes))
    if len(classes) < 2 or len(frozenset().union(*classes)) == sum(map(len, classes)):
        return classes - {frozenset()} if frozenset() in classes else classes
    holder: dict = {}  # member -> the merged class holding it
    for c in classes:
        into = None
        for m in c:
            other = holder.get(m)
            if other is None or other is into:
                continue
            if into is None:
                into = other
                continue
            if len(other) > len(into):
                into, other = other, into
            into |= other
            for x in other:
                holder[x] = into
        if into is None:
            into = set()
        into |= c
        for m in c:
            holder[m] = into
    return frozenset(map(frozenset, {id(s): s for s in holder.values()}.values()))


def singletons(attrs: Iterable[str]) -> frozenset[EcClass]:
    return frozenset(frozenset((a,)) for a in attrs)


# ---------------------------------------------------------------------------
# equality harvesting


def equality_classes_from_condition(e: Expr) -> frozenset[EcClass]:
    """{a,b} and {a,const} classes implied by a selection condition.

    Reads the equalities the condition asserts on its own: those reached
    through ``and`` and single-argument ``or``. An equality inside an ``or``
    of two or more arguments holds only on some rows and is skipped."""
    out = []
    stack = [e]
    while stack:
        part = stack.pop()
        if isinstance(part, BoolOp) and part.op in ("and", "or"):
            if part.op == "and" or len(part.args) == 1:
                stack.extend(part.args)
        elif isinstance(part, Cmp) and part.op == "=":
            left, right = part.left, part.right
            if isinstance(left, Attr) and isinstance(right, Attr):
                out.append(frozenset((left.name, right.name)))
            elif isinstance(left, Attr) and isinstance(right, Const):
                out.append(frozenset((left.name, right)))
            elif isinstance(left, Const) and isinstance(right, Attr):
                out.append(frozenset((right.name, left)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# keys (bottom-up)


def source_names(lineage: Mapping[str, str]) -> dict[str, str]:
    """Input column -> output column, for a lineage dict; a column exported
    under several names maps to the first."""
    out: dict[str, str] = {}
    for name, src in lineage.items():
        out.setdefault(src, name)
    return out


def _min_keys(keys: Iterable[frozenset]) -> frozenset[KeySet]:
    ks = set(keys)
    return frozenset(k for k in ks if not any(o < k for o in ks))


def infer_keys(root: Node, base_keys: Optional[Mapping[str, Iterable[Iterable[str]]]] = None,
               memo: Optional[dict[Node, frozenset[KeySet]]] = None) -> dict[Node, frozenset[KeySet]]:
    """Candidate keys per operator; sound, MIN-reduced, possibly incomplete.

    ``memo`` holds keys computed earlier under the same ``base_keys`` and
    receives the new ones; the result has exactly the graph's nodes."""
    memo = {} if memo is None else memo
    keys_of(root, base_keys, memo)
    return {n: memo[n] for n in all_nodes(root)}


def keys_of(node: Node, base_keys: Optional[Mapping[str, Iterable[Iterable[str]]]],
            memo: dict[Node, frozenset[KeySet]]) -> frozenset[KeySet]:
    """:func:`infer_keys` of one node, computing only what ``memo`` lacks."""
    for n in uncached_nodes(node, memo.__contains__):
        memo[n] = _min_keys(_keys_of(n, memo, base_keys or {}))
    return memo[node]


def _keys_through(n: Node, idx: int, keys) -> frozenset[KeySet]:
    """The keys of input ``idx`` whose columns all pass, in output names."""
    lineage = n.lineage[idx]
    child = keys[n.children[idx]]
    if lineage is None:
        return child
    names = source_names(lineage)
    return frozenset(frozenset(names[a] for a in k) for k in child if all(a in names for a in k))


def _every_input(through: Callable) -> Callable:
    """The step giving the union of ``through(n, idx, memo)`` over every
    input of a node, whose output row is one row of each input."""
    def step(n: Node, memo, *_) -> frozenset:
        if len(n.children) == 1:
            return through(n, 0, memo)
        return frozenset().union(*[through(n, idx, memo) for idx in range(len(n.children))])
    return step


def _relation_keys(n: Relation, out, base_keys) -> frozenset[KeySet]:
    sch = set(n.attrs)
    return frozenset(k for k in map(frozenset, base_keys.get(n.name, ())) if k and k <= sch)


def _product_keys(n: Product, out, base_keys) -> frozenset[KeySet]:
    rb = frozenset(source_names(n.lineage[1])[b] for _, b in n.pairs)
    la = frozenset(a for a, _ in n.pairs)
    right_keys = _keys_through(n, 1, out)
    keys = []
    for k1 in out[n.left]:
        for k2 in right_keys:
            keys.append((k1 | la) | (k2 - rb))
            keys.append((k2 | rb) | (k1 - la))
    return frozenset(keys)


def _agg_keys(n: Agg, out, base_keys) -> frozenset[KeySet]:
    if not n.group_by:
        return frozenset(frozenset((name,)) for _, _, name in n.aggs)
    group = frozenset(n.group_by)
    return frozenset([k for k in out[n.child] if k <= group] or (group,))


_passed_keys = _every_input(_keys_through)
#: each operator's candidate keys, ``step(node, keys memo, base keys)``;
#: sound and possibly incomplete
KEYS = PassTable("keys", {
    **dict.fromkeys((Select, Project, Intersect, Window), _passed_keys),
    Relation: _relation_keys,
    Product: _product_keys,
    Union: lambda n, out, base_keys: frozenset(),
    Diff: lambda n, out, base_keys: _keys_through(n, 0, out),  # its rows are the left input's
    Agg: _agg_keys,
    DupElim: lambda n, out, base_keys: (_passed_keys(n, out)
                                        or frozenset((frozenset(schema_of(n)),))),
})
_keys_of = KEYS  # the per-node step :func:`keys_of` calls, through this module global


# ---------------------------------------------------------------------------
# equivalence classes (bottom-up, then top-down)


def filter_map(node: Node, child_idx: int) -> Optional[Mapping[str, str]]:
    """Output attribute -> attribute of input ``child_idx``, for the columns
    across which a filter on the node's output can move into that input
    without changing the result; None when no filter can.

    This is the node's lineage, with two exceptions. A window keeps its
    partition attributes only: they play the group-by's role, while order
    attributes are not safe (a running frame aggregates over rows a filter
    removes). A difference's right input takes no filter: removing
    subtrahend rows would add result rows. A filter on a union's output
    must move into every input; for every other operator one input that
    takes it suffices.
    """
    if isinstance(node, Window):
        return {a: a for a in node.partition_by}
    if child_idx == 1 and isinstance(node, Diff):
        return None
    lineage = node.lineage[child_idx]
    return {a: a for a in schema_of(node.children[child_idx])} if lineage is None else lineage


def infer_ec(root: Node) -> dict[Node, frozenset[EcClass]]:
    """Equivalence classes per operator, every output column in one class.

    Bottom-up pass seeds classes from conditions and merges across
    operators; the top-down pass then pushes ancestor-derived classes back
    into the inputs. Both are sparse; a column in no class of two or more
    members is reported alone in its class. A constant alone in its class,
    which says nothing about any column, is not reported.
    """
    out = {}
    for n, classes in ec_top_down(root, infer_ec_bottom_up(root)).items():
        covered = {m for c in classes for m in c}
        out[n] = classes | singletons(a for a in schema_of(n) if a not in covered)
    return out


def ec_top_down(root: Node, up: Mapping[Node, frozenset[EcClass]]) -> dict[Node, frozenset[EcClass]]:
    """The top-down pass of :func:`infer_ec` over the bottom-up classes
    ``up``, one :func:`provopt.algebra.fold_down`; sparse, like ``up``. A
    node with several parents only keeps what every parent path supports
    (pairwise intersection of the contributions), so the combination stays
    sound on DAGs."""
    return fold_down(root, up[root], ec_transfer_down, _intersect_class_sets,
                     lambda n, met: ec_closure(up[n] | met))


def _intersect_class_sets(a: Iterable[EcClass], b: Iterable[EcClass]) -> frozenset[EcClass]:
    """The pairwise intersections of two or more members."""
    out = []
    for c1 in a:
        for c2 in b:
            inter = c1 & c2
            if len(inter) > 1:
                out.append(inter)
    return frozenset(out)


def ec_transfer_down(parent: Node, child_idx: int,
                     classes: frozenset) -> frozenset[EcClass]:
    """Map equivalence classes from a parent's output into one child's
    naming through :func:`filter_map`. A class keeps its constants when one
    of its attributes crosses; a mapped class of one member is dropped."""
    fmap = filter_map(parent, child_idx)
    if fmap is None:
        return frozenset()
    out = []
    for c in classes:
        named = {fmap[m] for m in c if isinstance(m, str) and m in fmap}
        if named:
            mapped = frozenset(named).union(m for m in c if not isinstance(m, str))
            if len(mapped) > 1:
                out.append(mapped)
    return frozenset(out)


def infer_ec_bottom_up(root: Node, memo: Optional[dict[Node, frozenset[EcClass]]] = None
                       ) -> dict[Node, frozenset[EcClass]]:
    """Equivalence classes from the bottom-up pass only (intrinsic to each
    operator's output, independent of where it sits in the query); sparse.

    ``memo`` holds classes computed earlier and receives the new ones; the
    result has exactly the graph's nodes, children before parents."""
    memo = {} if memo is None else memo
    ec_up_of(root, memo)
    return {n: memo[n] for n in all_nodes(root)}


def ec_up_of(node: Node, memo: dict[Node, frozenset[EcClass]]) -> frozenset[EcClass]:
    """:func:`infer_ec_bottom_up` of one node, computing only what ``memo`` lacks."""
    for n in uncached_nodes(node, memo.__contains__):
        # a selection `a = a`, or an aggregation or projection keeping
        # one member of a class, leaves a class of one member
        memo[n] = frozenset(c for c in ec_closure(_ec_up(n, memo)) if len(c) > 1)
    return memo[node]


def _classes_through(n: Node, idx: int, up) -> frozenset[EcClass]:
    """The classes of input ``idx`` renamed into output names. Output names
    passing members of one input class form a class, together with that
    class's constants; names passing one column in no class group alone. A
    class left with one member is dropped."""
    lineage = n.lineage[idx]
    child = up[n.children[idx]]
    if lineage is None:
        return child
    class_of_attr = {m: c for c in child for m in c if isinstance(m, str)}
    grouped: dict = {}  # input class, or a column in none -> output names
    for name, src in lineage.items():
        grouped.setdefault(class_of_attr.get(src, src), []).append(name)
    out = []
    for c, names in grouped.items():
        consts = () if isinstance(c, str) else [m for m in c if not isinstance(m, str)]
        if len(names) + len(consts) > 1:
            out.append(frozenset(names).union(consts))
    return frozenset(out)


def _product_classes(n: Product, up) -> frozenset[EcClass]:
    right = source_names(n.lineage[1])
    return _passed_classes(n, up) | frozenset(frozenset((a, right[b])) for a, b in n.pairs)


_passed_classes = _every_input(_classes_through)
#: each operator's upward equivalence classes, ``step(node, classes memo)``,
#: before :func:`ec_up_of` closes them and drops those of one member
EC_UP = PassTable("upward classes", {
    **dict.fromkeys((Project, Intersect, DupElim, Window), _passed_classes),
    Relation: lambda n, up: frozenset(),
    Select: lambda n, up: _passed_classes(n, up) | equality_classes_from_condition(n.cond),
    Product: _product_classes,
    Union: lambda n, up: _intersect_class_sets(up[n.left], _classes_through(n, 1, up)),
    Diff: lambda n, up: _classes_through(n, 0, up),  # its rows are the left input's
    Agg: lambda n, up: frozenset(map(frozenset(n.group_by).intersection, up[n.child])),
})
_ec_up = EC_UP  # the per-node step :func:`ec_up_of` calls, through this module global


# ---------------------------------------------------------------------------
# needed columns (top-down)


def infer_icols(root: Node) -> dict[Node, frozenset[str]]:
    """Minimal output attributes each operator must produce for its
    ancestors, one :func:`provopt.algebra.fold_down`. The virtual root
    demands the full output schema; shared nodes take the union of all
    parents' demands."""
    return fold_down(root, frozenset(schema_of(root)), icols_down, frozenset.union)


def icols_down(n: Node, child_idx: int, need: frozenset[str]) -> frozenset[str]:
    """The needed columns mapped down through the lineage, plus the input
    columns the operator itself reads (:data:`READS`)."""
    lineage = n.lineage[child_idx]
    child = schema_of(n.children[child_idx])
    if lineage is None:  # a product's or a window's output has columns the input lacks
        down = need if len(child) == len(schema_of(n)) else need.intersection(child)
    else:
        down = frozenset(lineage[a] for a in need if a in lineage)
    reads = READS(n, child_idx, need)
    return down | reads if reads else down


#: the columns of input ``child_idx`` an operator reads itself to give the
#: output columns ``need``: ``step(node, child_idx, need)``
READS = PassTable("reads", {
    # a relation has no input; a union passes its inputs' columns as they are
    **dict.fromkeys((Relation, Union), lambda n, child_idx, need: frozenset()),
    # each compares whole rows
    **dict.fromkeys((Intersect, Diff, DupElim),
                    lambda n, child_idx, need: set(schema_of(n.children[child_idx]))),
    Select: lambda n, child_idx, need: expr_attrs(n.cond),
    Project: lambda n, child_idx, need: frozenset().union(
        *[expr_attrs(e) for e, name in n.targets if name in need and not isinstance(e, Attr)]),
    Product: lambda n, child_idx, need: {pair[child_idx] for pair in n.pairs},
    Agg: lambda n, child_idx, need: {*n.group_by, *[arg for _, arg, _ in n.aggs]},
    Window: lambda n, child_idx, need: {n.arg, *n.partition_by, *n.order_by},
})


# ---------------------------------------------------------------------------
# duplicate insensitivity (top-down)


def infer_set(root: Node) -> dict[Node, bool]:
    """True when a duplicate elimination downstream on every path makes the
    operator's multiplicities irrelevant (no aggregation, window or bag
    difference in between: each reads its inputs' multiplicities); one
    :func:`provopt.algebra.fold_down`."""
    return fold_down(root, False, lambda n, idx, dup: isinstance(n, DupElim) or (
        dup and not isinstance(n, (Agg, Window, Diff))), lambda a, b: a and b)


def infer_all(root: Node, base_keys: Optional[Mapping[str, Iterable[Iterable[str]]]] = None) -> PropertyStore:
    return PropertyStore(
        keys=infer_keys(root, base_keys),
        ecs=infer_ec(root),
        icols=infer_icols(root),
        dup_insensitive=infer_set(root),
    )


def format_class(c: EcClass) -> str:
    names = sorted(m if isinstance(m, str) else repr(m.value) for m in c)
    return "{" + ",".join(names) + "}"


def format_properties(store: PropertyStore, node: Node) -> str:
    keys = sorted("{" + ",".join(sorted(k)) + "}" for k in store.keys.get(node, ()))
    ecs = sorted(format_class(c) for c in store.ecs.get(node, ()) if len(c) > 1)
    icols = sorted(store.icols.get(node, ()))
    return (f"keys={{{','.join(keys)}}} ec={{{','.join(ecs)}}} "
            f"icols={{{','.join(icols)}}} set={str(store.dup_insensitive.get(node, False)).lower()}")
