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
columns pass which input columns through unchanged. Keys and bottom-up
classes come from the inputs whose rows the output holds, renamed through
it, and needed columns map down through it plus what the operator reads.
:func:`filter_map` is the lineage narrowed to the columns a filter may
cross; top-down equivalence classes, selection push-down and the test
whether an ancestor selection already guards a node read it.

Keys and bottom-up equivalence classes depend only on a node's subgraph (and,
for keys, on the declared base keys), so :func:`infer_keys` and
:func:`infer_ec_bottom_up` take an optional ``memo``: a node -> value dict
that already holds the values of nodes computed before and receives the new
ones. A rewrite returns its unchanged subgraphs as the same objects, so the
rewrite pipeline keeps one memo per property for one run
(:func:`provopt.rewrites.apply_pats`), and a rescan computes only the rebuilt
ancestors; the runs of one optimization share it
(:func:`provopt.algebra.sharing_subplans`). The memo lives for that run or
optimization, not on the nodes: plans the optimizer keeps would otherwise
carry every property they ever had, and a keys memo is valid for one
``base_keys`` only. Needed columns and
duplicate insensitivity are top-down (they depend on a node's ancestors) and
are recomputed per call; the pipeline keeps the needed columns of the last
root it scanned for them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .algebra import (
    Agg, Attr, BoolOp, Cmp, Const, Diff, DupElim, Expr,
    Node, Product, Project, Relation, Select, Union, Window,
    all_nodes, expr_attrs, schema_of,
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
    base_keys = base_keys or {}
    memo = {} if memo is None else memo
    order = all_nodes(root)
    for n in order:
        if n not in memo:
            memo[n] = _min_keys(_keys_of(n, memo, base_keys))
    return {n: memo[n] for n in order}


def _from_row_inputs(through, n: Node, values) -> frozenset:
    """The union of ``through(n, idx, values)`` over the inputs whose rows
    the output rows hold: every input but a difference's right one."""
    if isinstance(n, Diff) or len(n.children) == 1:
        return through(n, 0, values)
    return frozenset().union(*[through(n, idx, values) for idx in range(len(n.children))])


def _keys_through(n: Node, idx: int, keys) -> frozenset[KeySet]:
    """The keys of input ``idx`` whose columns all pass, in output names."""
    lineage = n.lineage[idx]
    child = keys[n.children[idx]]
    if lineage is None:
        return child
    names = source_names(lineage)
    return frozenset(frozenset(names[a] for a in k) for k in child if all(a in names for a in k))


def _keys_of(n: Node, out, base_keys) -> frozenset[KeySet]:
    if isinstance(n, Relation):
        sch = set(n.attrs)
        return frozenset(k for k in map(frozenset, base_keys.get(n.name, ())) if k and k <= sch)
    if isinstance(n, Product):
        rb = frozenset(source_names(n.lineage[1])[b] for _, b in n.pairs)
        la = frozenset(a for a, _ in n.pairs)
        right_keys = _keys_through(n, 1, out)
        keys = []
        for k1 in out[n.left]:
            for k2 in right_keys:
                keys.append((k1 | la) | (k2 - rb))
                keys.append((k2 | rb) | (k1 - la))
        return frozenset(keys)
    if isinstance(n, Agg):
        if not n.group_by:
            return frozenset(frozenset((name,)) for _, _, name in n.aggs)
        group = frozenset(n.group_by)
        return frozenset([k for k in out[n.child] if k <= group] or (group,))
    if isinstance(n, Union):
        return frozenset()
    keys = _from_row_inputs(_keys_through, n, out)
    if isinstance(n, DupElim) and not keys:
        return frozenset((frozenset(schema_of(n)),))
    return keys


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
    ``up`` (keyed children before parents, as :func:`infer_ec_bottom_up`
    returns them); sparse, like ``up``. A node with several parents only
    keeps what every parent path supports (pairwise intersection of the
    contributions), so the combination stays sound on DAGs."""
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
    order = all_nodes(root)
    for n in order:
        if n not in memo:
            # a selection `a = a`, or an aggregation or projection keeping
            # one member of a class, leaves a class of one member
            memo[n] = frozenset(c for c in ec_closure(_ec_up(n, memo)) if len(c) > 1)
    return {n: memo[n] for n in order}


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


def _ec_up(n: Node, up) -> frozenset[EcClass]:
    if isinstance(n, Agg):
        group = frozenset(n.group_by)
        return frozenset(c & group for c in up[n.child])
    if isinstance(n, Union):
        return _intersect_class_sets(up[n.left], _classes_through(n, 1, up))
    classes = _from_row_inputs(_classes_through, n, up)
    if isinstance(n, Select):
        classes |= equality_classes_from_condition(n.cond)
    elif isinstance(n, Product):
        right = source_names(n.lineage[1])
        classes |= frozenset(frozenset((a, right[b])) for a, b in n.pairs)
    return classes


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
    """The needed columns mapped down through the lineage, plus the input
    columns the operator itself reads."""
    lineage = n.lineage[child_idx]
    child = schema_of(n.children[child_idx])
    if lineage is None:  # a product's or a window's output has columns the input lacks
        down = set(need) if len(child) == len(schema_of(n)) else set(child).intersection(need)
    else:
        down = {lineage[a] for a in need if a in lineage}
    if isinstance(n, Select):
        return down | expr_attrs(n.cond)
    if isinstance(n, Project):
        for e, name in n.targets:
            if name in need and not isinstance(e, Attr):
                down |= expr_attrs(e)
        return down
    if isinstance(n, Product):
        return down | {pair[child_idx] for pair in n.pairs}
    if isinstance(n, Agg):
        return down | set(n.group_by) | {arg for _, arg, _ in n.aggs}
    if isinstance(n, Window):
        return down | {n.arg} | set(n.partition_by) | set(n.order_by)
    if isinstance(n, Union):
        return down
    return down | set(child)  # compares whole rows


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
        if isinstance(n, DupElim):
            contrib = True
        elif isinstance(n, (Agg, Window, Diff)):
            contrib = False
        else:
            contrib = bool(value[n])
        for child in n.children:
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
