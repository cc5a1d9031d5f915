"""Operator property inference: keys, equivalence classes, needed columns,
and duplicate insensitivity.

All four inferences are sound but deliberately incomplete: a missing key or
equivalence only costs a rewrite opportunity, never correctness. The rules
are written for trees and extended to DAGs conservatively: a shared node
takes the union of its parents' column demands, the conjunction of its
parents' duplicate-insensitivity, and accumulates equivalence information
from every parent.

Equivalence classes are frozensets whose members are attribute names (str)
or ``EcConst`` wrappers; a class holds at most one constant in practice but
nothing breaks if contradictory selections put two there (the corresponding
instances are empty).

:func:`filter_map` is the one place that says how a filter crosses an
operator: which output columns of a node are which columns of one input.
Top-down equivalence classes, selection push-down and the test whether an
ancestor selection already guards a node all read it.

Keys and bottom-up equivalence classes depend only on a node's subgraph (and,
for keys, on the declared base keys), so :func:`infer_keys` and
:func:`infer_ec_bottom_up` take an optional ``memo``: a node -> value dict
that already holds the values of nodes computed before and receives the new
ones. A rewrite returns its unchanged subgraphs as the same objects, so the
rewrite pipeline keeps one memo per property for one run
(:func:`provopt.rewrites.apply_pats`), and a rescan computes only the rebuilt
ancestors. The memo lives for that run, not on the nodes: plans the
optimizer keeps would otherwise carry every property they ever had, and a
keys memo is valid for one ``base_keys`` only. Needed columns and
duplicate insensitivity are top-down (they depend on a node's ancestors) and
are recomputed per call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .algebra import (
    Agg, Attr, BoolOp, Cmp, Const, Diff, DupElim, Expr,
    Intersect, Node, Product, Project, Relation, Select, SetOp, Union, Window,
    all_nodes, expr_attrs, right_output_names, schema_of,
)


@dataclass(frozen=True)
class EcConst:
    """Constant member of an equivalence class."""

    value: object


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
    """Merge overlapping classes to a fixpoint (transitivity of equality)."""
    pending = [set(c) for c in classes if c]
    merged: list[set] = []
    while pending:
        cur = pending.pop()
        changed = True
        while changed:
            changed = False
            for other in merged:
                if cur & other:
                    merged.remove(other)
                    cur |= other
                    changed = True
                    break
        merged.append(cur)
    return frozenset(frozenset(c) for c in merged)


def singletons(attrs: Iterable[str]) -> frozenset[EcClass]:
    return frozenset(frozenset((a,)) for a in attrs)


def _rename_classes(classes: Iterable[EcClass], mapping: Mapping[str, str]) -> frozenset[EcClass]:
    out = []
    for c in classes:
        out.append(frozenset(mapping.get(m, m) if isinstance(m, str) else m for m in c))
    return frozenset(out)


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
                out.append(frozenset((left.name, EcConst(right.value))))
            elif isinstance(left, Const) and isinstance(right, Attr):
                out.append(frozenset((right.name, EcConst(left.value))))
    return frozenset(out)


# ---------------------------------------------------------------------------
# traversal helpers


def _positional_rename(src: tuple[str, ...], dst: tuple[str, ...]) -> dict[str, str]:
    return dict(zip(src, dst))


def _pure_renames(node: Project) -> dict[str, str]:
    """output name -> source attr, for plain attribute targets only."""
    return {name: e.name for e, name in node.targets if isinstance(e, Attr)}


# ---------------------------------------------------------------------------
# keys (bottom-up)


def _min_keys(keys: Iterable[frozenset]) -> frozenset[KeySet]:
    ks = set(keys)
    return frozenset(k for k in ks if not any(o < k for o in ks))


def infer_keys(root: Node, base_keys: Optional[Mapping[str, Iterable[Iterable[str]]]] = None,
               memo: Optional[dict[Node, frozenset[KeySet]]] = None) -> dict[Node, frozenset[KeySet]]:
    """Candidate keys per operator; sound, MIN-reduced, possibly incomplete.

    ``memo`` holds keys computed earlier under the same ``base_keys`` and
    receives the new ones; the result has exactly the graph's nodes."""
    base_keys = base_keys or {}
    memo = {} if memo is None else memo
    order = all_nodes(root)
    for n in order:
        if n not in memo:
            memo[n] = _min_keys(_keys_of(n, memo, base_keys))
    return {n: memo[n] for n in order}


def _keys_of(n: Node, out, base_keys) -> frozenset[KeySet]:
    if isinstance(n, Relation):
        declared = base_keys.get(n.name, ())
        sch = set(n.attrs)
        keys = []
        for k in declared:
            k = frozenset(k)
            if k and k <= sch:
                keys.append(k)
        return frozenset(keys)
    if isinstance(n, Select):
        return out[n.child]
    if isinstance(n, Project):
        renames = _pure_renames(n)
        # a source attr may be exported under several names; any one works
        by_source: dict[str, str] = {}
        for name, src in renames.items():
            by_source.setdefault(src, name)
        keys = []
        for k in out[n.child]:
            if all(a in by_source for a in k):
                keys.append(frozenset(by_source[a] for a in k))
        return frozenset(keys)
    if isinstance(n, Product):
        left_keys, right_keys = out[n.left], out[n.right]
        right_map = dict(zip(schema_of(n.right), right_output_names(n)))
        la = frozenset(a for a, _ in n.pairs)
        rb = frozenset(right_map[b] for _, b in n.pairs)
        keys = []
        for k1 in left_keys:
            for k2 in right_keys:
                k2m = frozenset(right_map[a] for a in k2)
                keys.append((k1 | la) | (k2m - rb))
                keys.append((k2m | rb) | (k1 - la))
        return frozenset(keys)
    if isinstance(n, Agg):
        outs = frozenset(name for _, _, name in n.aggs)
        if not n.group_by:
            return frozenset(frozenset((o,)) for o in outs)
        group = frozenset(n.group_by)
        contained = [k for k in out[n.child] if k <= group]
        if contained:
            return frozenset(contained)
        return frozenset((group,))
    if isinstance(n, DupElim):
        child = out[n.child]
        if child:
            return child
        return frozenset((frozenset(schema_of(n)),))
    if isinstance(n, Union):
        return frozenset()
    if isinstance(n, Intersect):
        rename = _positional_rename(schema_of(n.right), schema_of(n.left))
        renamed = frozenset(frozenset(rename[a] for a in k) for k in out[n.right])
        return out[n.left] | renamed
    if isinstance(n, Diff):
        return out[n.left]
    if isinstance(n, Window):
        return out[n.child]
    raise TypeError(f"unknown operator {type(n).__name__}")


# ---------------------------------------------------------------------------
# equivalence classes (bottom-up, then top-down)


def filter_map(node: Node, child_idx: int) -> Optional[dict[str, str]]:
    """Output attribute -> attribute of input ``child_idx``, for the columns
    across which a filter on the node's output can move into that input
    without changing the result; None when no filter can.

    A filter on a union's output must move into every input; for every
    other operator one input that takes it suffices.
    """
    if isinstance(node, (Select, DupElim)) or (
            child_idx == 0 and isinstance(node, (Product, SetOp))):
        return {a: a for a in schema_of(node.children[child_idx])}
    if isinstance(node, Project):
        return _pure_renames(node)
    if isinstance(node, Product):
        return dict(zip(right_output_names(node), schema_of(node.right)))
    if isinstance(node, Agg):
        # filtering other child columns would change the groups' aggregates
        return {a: a for a in node.group_by}
    if isinstance(node, Window):
        # partition attributes play the group-by's role; order attributes
        # are not safe: a running frame aggregates over rows a filter removes
        return {a: a for a in node.partition_by}
    if isinstance(node, (Union, Intersect)):
        return _positional_rename(schema_of(node.left), schema_of(node.right))
    if isinstance(node, Diff):
        return None  # removing subtrahend rows would add result rows
    raise TypeError(f"unknown operator {type(node).__name__}")


def infer_ec(root: Node) -> dict[Node, frozenset[EcClass]]:
    """Equivalence classes per operator.

    Bottom-up pass seeds classes from conditions and merges across
    operators; the top-down pass then pushes ancestor-derived classes back
    into the inputs.
    """
    return ec_top_down(root, infer_ec_bottom_up(root))


def ec_top_down(root: Node, up: Mapping[Node, frozenset[EcClass]]) -> dict[Node, frozenset[EcClass]]:
    """The top-down pass of :func:`infer_ec` over the bottom-up classes
    ``up`` (keyed children before parents, as :func:`infer_ec_bottom_up`
    returns them). A node with several parents only keeps what every parent
    path supports (pairwise intersection of the contributions), so the
    combination stays sound on DAGs."""
    order = list(up)
    slots: dict[Node, list[tuple[Node, int]]] = {n: [] for n in order}
    for n in order:
        for idx, child in enumerate(n.children):
            slots[child].append((n, idx))

    down: dict[Node, frozenset[EcClass]] = {root: up[root]}
    for n in reversed(order):  # every parent is finalized before its child
        if n is root:
            continue
        combined: Optional[frozenset[EcClass]] = None
        for parent, idx in slots[n]:
            contrib = ec_transfer_down(parent, idx, down[parent])
            combined = contrib if combined is None else _intersect_class_sets(combined, contrib)
        down[n] = ec_closure(up[n] | (combined or frozenset()))
    return down


def _intersect_class_sets(a: Iterable[EcClass], b: Iterable[EcClass]) -> frozenset[EcClass]:
    out = []
    for c1 in a:
        for c2 in b:
            inter = c1 & c2
            if inter:
                out.append(inter)
    return frozenset(out)


def ec_transfer_down(parent: Node, child_idx: int,
                     classes: frozenset) -> frozenset[EcClass]:
    """Map equivalence classes from a parent's output into one child's
    naming through :func:`filter_map`. A class keeps its constants when one
    of its attributes crosses; empty when nothing crosses."""
    fmap = filter_map(parent, child_idx)
    if fmap is None:
        return frozenset()
    out = []
    for c in classes:
        named = {fmap[m] for m in c if isinstance(m, str) and m in fmap}
        if named:
            out.append(frozenset(named).union(m for m in c if not isinstance(m, str)))
    return frozenset(out)


def infer_ec_bottom_up(root: Node, memo: Optional[dict[Node, frozenset[EcClass]]] = None
                       ) -> dict[Node, frozenset[EcClass]]:
    """Equivalence classes from the bottom-up pass only (intrinsic to each
    operator's output, independent of where it sits in the query).

    ``memo`` holds classes computed earlier and receives the new ones; the
    result has exactly the graph's nodes, children before parents."""
    memo = {} if memo is None else memo
    order = all_nodes(root)
    for n in order:
        if n not in memo:
            memo[n] = ec_closure(_ec_up(n, memo) | singletons(schema_of(n)))
    return {n: memo[n] for n in order}


def _ec_up(n: Node, up) -> frozenset[EcClass]:
    if isinstance(n, Relation):
        return singletons(n.attrs)
    if isinstance(n, Select):
        return up[n.child] | equality_classes_from_condition(n.cond)
    if isinstance(n, Project):
        # output names renaming members of one child class form a class,
        # together with that class's constants
        class_of_attr = {m: c for c in up[n.child] for m in c if isinstance(m, str)}
        grouped: dict[EcClass, list[str]] = {}
        for name, src in _pure_renames(n).items():
            grouped.setdefault(class_of_attr[src], []).append(name)
        return frozenset(frozenset(names).union(m for m in c if not isinstance(m, str))
                         for c, names in grouped.items())
    if isinstance(n, Product):
        right_map = dict(zip(schema_of(n.right), right_output_names(n)))
        right = _rename_classes(up[n.right], right_map)
        pairs = frozenset(frozenset((a, right_map[b])) for a, b in n.pairs)
        return up[n.left] | right | pairs
    if isinstance(n, Agg):
        group = frozenset(n.group_by)
        kept = frozenset(c & group for c in up[n.child] if c & group)
        return kept | singletons(name for _, _, name in n.aggs)
    if isinstance(n, DupElim):
        return up[n.child]
    if isinstance(n, Union):
        rename = _positional_rename(schema_of(n.right), schema_of(n.left))
        right = _rename_classes(up[n.right], rename)
        return _intersect_class_sets(up[n.left], right)
    if isinstance(n, Intersect):
        rename = _positional_rename(schema_of(n.right), schema_of(n.left))
        return up[n.left] | _rename_classes(up[n.right], rename)
    if isinstance(n, Diff):
        return up[n.left]
    if isinstance(n, Window):
        return up[n.child] | frozenset((frozenset((n.out,)),))
    raise TypeError(f"unknown operator {type(n).__name__}")


# ---------------------------------------------------------------------------
# needed columns (top-down)


def infer_icols(root: Node) -> dict[Node, frozenset[str]]:
    """Minimal output attributes each operator must produce for its ancestors.

    The virtual root demands the full output schema; shared nodes take the
    union of all parents' demands.
    """
    order = all_nodes(root)
    icols: dict[Node, set[str]] = {n: set() for n in order}
    icols[root] = set(schema_of(root))
    for n in reversed(order):  # parents processed before their children
        need = frozenset(icols[n])
        for child_idx, child in enumerate(n.children):
            icols[child] |= _icols_down(n, child_idx, need)
    return {n: frozenset(cols) for n, cols in icols.items()}


def _icols_down(n: Node, child_idx: int, need: frozenset[str]) -> set[str]:
    if isinstance(n, Select):
        return set(need) | set(expr_attrs(n.cond))
    if isinstance(n, Project):
        cols: set[str] = set()
        for e, name in n.targets:
            if name in need:
                cols |= set(expr_attrs(e))
        return cols
    if isinstance(n, Product):
        left_schema = schema_of(n.left)
        right_schema = schema_of(n.right)
        right_names = right_output_names(n)
        right_map = dict(zip(right_schema, right_names))
        demanded = set(need)
        for a, b in n.pairs:
            demanded.add(a)
            demanded.add(right_map[b])
        if child_idx == 0:
            return demanded & set(left_schema)
        back = dict(zip(right_names, right_schema))
        return {back[a] for a in demanded if a in back}
    if isinstance(n, Agg):
        return set(n.group_by) | {arg for _, arg, _ in n.aggs}
    if isinstance(n, DupElim):
        return set(schema_of(n.child))
    if isinstance(n, Union):
        if child_idx == 0:
            return set(need)
        rename = _positional_rename(schema_of(n.left), schema_of(n.right))
        return {rename[a] for a in need}
    if isinstance(n, (Intersect, Diff)):
        return set(schema_of(n.children[child_idx]))
    if isinstance(n, Window):
        return ((set(need) - {n.out}) | {n.arg}
                | set(n.partition_by) | set(n.order_by))
    raise TypeError(f"unknown operator {type(n).__name__}")


# ---------------------------------------------------------------------------
# duplicate insensitivity (top-down)


def infer_set(root: Node) -> dict[Node, bool]:
    """True when a duplicate elimination downstream on every path makes the
    operator's multiplicities irrelevant (no aggregation, window or bag
    difference in between: each reads its inputs' multiplicities)."""
    order = all_nodes(root)
    value: dict[Node, Optional[bool]] = {n: None for n in order}
    value[root] = False
    for n in reversed(order):
        own = value[n]
        for child in n.children:
            if isinstance(n, DupElim):
                contrib = True
            elif isinstance(n, (Agg, Window, Diff)):
                contrib = False
            else:
                contrib = bool(own)
            prev = value[child]
            value[child] = contrib if prev is None else (prev and contrib)
    return {n: bool(v) for n, v in value.items()}


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
