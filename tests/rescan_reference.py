"""The property-driven rewrite rules as they ran before each became one
children-first pass: a generator of (target, replacement) candidates run
by :func:`_rewrite`, which applies the first candidate the graph absorbs,
rebuilds every ancestor and rescans the whole graph until a scan applies
none. Kept verbatim as the reference that each one-pass rule must match:
the same plan, structurally, and for :func:`remove_dupelim_by_set` the same
choices in the same order.
"""
from __future__ import annotations

from operator import is_
from typing import Callable, Iterable, Mapping, Optional

from provopt.algebra import (
    Attr, Cmp, Diff, DupElim, Expr, GraphError, Intersect, Join, Node, Product,
    Project, Select, Union, Window, all_nodes, conjuncts, expr_attrs,
    identity_targets, parent_map, rebuild_bottom_up, replace_children, schema_of,
    shared_table, substitute_attrs, SchemaError,
)
from provopt.properties import (
    EcConst, ec_top_down, filter_map, infer_ec_bottom_up, infer_icols, infer_keys, infer_set,
    source_names,
)
from provopt.rewrites import (
    _PULL_THROUGH, _chain_conjuncts, _class_sort_key, _licensed_below, _member_expr,
    _member_sort_key, _pair_guarded_above, _same_up_class,
)

ChoiceFn = Callable[[int], int]
#: (target node, replacement node) proposed by a rule
Candidates = Iterable[tuple[Node, Node]]


def substitute(root: Node, target: Node, replacement: Node, *, check_schema: bool = True,
               copies: Optional[dict[Node, Node]] = None) -> Node:
    """Return the graph with one node replaced, preserving sharing.

    Every parent of the target ends up referencing the replacement; nodes not
    on a path to the target are reused as-is. The replacement may itself
    contain the target (wrapping a subgraph is the common case). ``copies``
    receives what takes each changed node's place: the replacement for the
    target, and for each of its ancestors the copy over the new children.
    """
    if target not in set(all_nodes(root)):
        raise GraphError("substitution target is not part of the graph")
    if check_schema and schema_of(target) != schema_of(replacement):
        raise SchemaError("replacement schema differs from target schema "
                          f"({list(schema_of(replacement))} vs {list(schema_of(target))})")
    copies = {} if copies is None else copies

    def step(n: Node, rebuilt: Node) -> Node:
        out = replacement if n is target else rebuilt
        if out is not n:
            copies[n] = out
        return out

    return rebuild_bottom_up(root, step)


#: the name the rules below call it by
graph_substitute = substitute


def _absorb(root: Node, target: Node, replacement: Node,
            copies: Optional[dict[Node, Node]] = None) -> Optional[Node]:
    """Substitute; None when the replacement or its ancestors are malformed.
    ``copies`` receives the substitution's copies (see
    :func:`substitute`).

    Only a replacement with a different schema can break an ancestor, so
    only then is the rebuilt graph validated."""
    try:
        new_root = graph_substitute(root, target, replacement, check_schema=False,
                                    copies=copies)
        if schema_of(replacement) != schema_of(target):
            schema_of(new_root)
        return new_root
    except SchemaError:
        return None


def _rewrite(root: Node, candidates: Callable[[Node], Candidates],
             accept: Optional[Callable[[Node, Node, Node, dict], bool]] = None) -> Node:
    """Apply the first candidate the graph absorbs and rescan, until a scan
    applies none; returns the input object when nothing applied. A rule
    may pass ``accept(root, target, new_root, copies)``, called once the
    graph absorbed a candidate (``copies`` as :func:`_absorb` fills it);
    False skips the candidate."""
    while True:
        for target, replacement in candidates(root):
            copies: dict[Node, Node] = {}
            new_root = _absorb(root, target, replacement, copies)
            if new_root is not None and (accept is None
                                         or accept(root, target, new_root, copies)):
                root = new_root
                break
        else:
            return root


def remove_dupelim_by_key(root: Node, base_keys=None, memo: Optional[dict] = None) -> Node:
    """Drop duplicate eliminations over an input with a key; ``memo`` is an
    :func:`infer_keys` memo for the same ``base_keys``."""
    def candidates(root: Node) -> Candidates:
        keys = infer_keys(root, base_keys, memo=memo)
        for n in all_nodes(root):
            if isinstance(n, DupElim) and keys[n.child]:
                yield n, n.child

    return _rewrite(root, candidates)


def remove_dupelim_by_set(root: Node, choice: Optional[ChoiceFn] = None,
                          decided_keep: Optional[set] = None) -> Node:
    """Drop duplicate eliminations whose effect is absorbed downstream.

    With a choice callback, each removable operator becomes a cost-based
    decision (0 removes, 1 keeps); ``decided_keep`` holds the kept
    ``DupElim`` nodes across pipeline rounds so one operator is decided
    once. It holds the nodes, not their ids: a node it holds stays alive,
    so its id cannot be reused by a node built later.

    A run that returns its input unchanged has kept every candidate it saw,
    and recorded each in ``decided_keep``: a yielded candidate is always
    absorbed, because a ``DupElim``'s child has the ``DupElim``'s schema.
    A second run on the same root therefore calls ``choice`` zero times,
    which is what lets :func:`apply_pats` skip it.
    """
    decided_keep = set() if decided_keep is None else decided_keep

    def candidates(root: Node) -> Candidates:
        dup = infer_set(root)
        for n in all_nodes(root):
            if isinstance(n, DupElim) and dup[n] and n not in decided_keep:
                if choice is not None and choice(2) == 1:
                    decided_keep.add(n)
                else:
                    yield n, n.child

    return _rewrite(root, candidates)


def _positional_descendants(root: Node) -> set[Node]:
    """Nodes below a positional set operator (column order matters there)."""
    out: set[Node] = set()
    for n in all_nodes(root):
        if isinstance(n, (Union, Intersect, Diff)):
            stack = list(n.children)
            while stack:
                cur = stack.pop()
                if cur in out:
                    continue
                out.add(cur)
                stack.extend(cur.children)
    return out


def _needed_columns(root: Node, memo: dict) -> dict[Node, frozenset[str]]:
    """:func:`infer_icols` of a root. ``memo`` holds the value for the last
    root it was asked about, and receives this one's: needed columns are
    top-down, so a value is good for the one root it was computed on."""
    if root not in memo:
        memo.clear()
        memo[root] = infer_icols(root)
    return memo[root]


def project_to_icols(root: Node, icols_memo: Optional[dict] = None) -> Node:
    """Insert pruning projections above operators producing unneeded columns.
    ``icols_memo`` is a :func:`_needed_columns` memo.

    Pruning one input of a join can rename the other input's columns: a
    primed name loses its prime once the column it collided with is gone.
    A pruning that renames a needed column is skipped, since a reference to
    the old name would read another column. One that renames no column
    changes no node's needed columns, so they carry over to the new root,
    each copied ancestor's from the node it copies, and the rescan does not
    compute them again."""
    memo = {} if icols_memo is None else icols_memo
    pruned = shared_table("pruned")  # (node, kept columns) -> the projection

    def accept(root: Node, target: Node, new_root: Node, copies: dict) -> bool:
        icols = memo[root]  # the scan that proposed the pruning computed them
        renamed = list(_renamed_columns(copies))
        if any(name in icols[product] for product, name in renamed):
            return False
        if not renamed:
            carried = {copies.get(n, n): cols for n, cols in icols.items()}
            carried[target] = icols[target]
            memo.clear()
            memo[new_root] = carried
        return True

    def candidates(root: Node) -> Candidates:
        icols = _needed_columns(root, memo)
        parents = parent_map(root)
        for n in all_nodes(root):
            if n is root:
                continue
            need = icols[n]
            sch = schema_of(n)
            if set(sch) == set(need):
                continue
            if parents[n] and all(isinstance(p, Project) for p in parents[n]):
                continue  # demand is already expressed by projections
            keep = tuple(a for a in sch if a in need)
            if keep:
                if (n, keep) not in pruned:
                    pruned[n, keep] = Project(identity_targets(keep), n)
                yield n, pruned[n, keep]

    return _rewrite(root, candidates, accept)


def _renamed_columns(copies: Mapping[Node, Node]) -> Iterable[tuple[Node, str]]:
    """(product, output name) for each right-input column of a product that
    a substitution copied, when the copy gives the column another name.
    Products are the one operator naming columns after its inputs' names."""
    for node, copy in copies.items():
        if isinstance(node, Product) and isinstance(copy, Product):
            before = source_names(node.lineage[1])
            for name, a in copy.lineage[1].items():
                if before.get(a) != name:
                    yield node, before.get(a)


def remove_window(root: Node, icols_memo: Optional[dict] = None) -> Node:
    """Drop windows whose output no ancestor needs. ``icols_memo`` is a
    :func:`_needed_columns` memo."""
    memo = {} if icols_memo is None else icols_memo

    def candidates(root: Node) -> Candidates:
        icols = _needed_columns(root, memo)
        for n in all_nodes(root):
            if isinstance(n, Window) and n.out not in icols[n]:
                yield n, n.child

    return _rewrite(root, candidates)


def pull_up_prov_projection(root: Node) -> Node:
    """Move pure attribute duplications above operators that neither use nor
    drop them, so intermediate results stay narrow.

    Applies to a projection whose parent passes all child columns through;
    the duplicated column is re-created by a new projection above the
    parent. Repeats until no more duplications can climb.
    """
    def candidates(root: Node) -> Candidates:
        parents = parent_map(root)
        positional = _positional_descendants(root)
        for proj in all_nodes(root):
            if not isinstance(proj, Project) or proj.materialize:
                continue
            if len(parents[proj]) != 1:
                continue
            parent = parents[proj][0]
            if not isinstance(parent, _PULL_THROUGH):
                continue
            if parent in positional or proj in positional:
                continue
            used = _own_used_attrs(parent)
            renames = proj.lineage[0]
            # copies of a column the projection also passes under its own name
            pulled = {name: src for name, src in renames.items()
                      if name != src and name not in used and renames.get(src) == src}
            kept = tuple(t for t in proj.targets if t[1] not in pulled)
            if not pulled or not kept:
                continue
            reduced = Project(kept, proj.child, proj.materialize)
            new_parent = replace_children(
                parent, tuple(reduced if c is proj else c for c in parent.children))
            try:
                parent_schema = schema_of(new_parent)
            except SchemaError:
                continue
            # a source column may pass the parent under another name, such as a product's k'
            lineage = new_parent.lineage[parent.children.index(proj)]
            up = source_names(lineage) if lineage is not None else {}
            pulled = {name: up.get(src, src) for name, src in pulled.items()}
            if any(src not in parent_schema for src in pulled.values()):
                continue
            yield parent, Project(identity_targets(parent_schema)
                                  + tuple((Attr(src), name) for name, src in pulled.items()),
                                  new_parent)

    return _rewrite(root, candidates)


def _own_used_attrs(n: Node) -> frozenset[str]:
    """Attributes a :data:`_PULL_THROUGH` operator itself consumes from its
    inputs; none for a duplicate elimination, which a pulled duplicate
    column crosses unchanged."""
    if isinstance(n, Select):
        return expr_attrs(n.cond)
    if isinstance(n, Product):
        return frozenset(a for pair in n.pairs for a in pair)
    return frozenset()


def selection_move_around(root: Node, ec_memo: Optional[dict] = None) -> Node:
    """Derive new selections from equivalence classes and push them toward
    the leaves: conditions guarding one join input transfer to the other
    input when the join pairs the attributes they mention, and attribute
    pairs equated by ancestors are enforced early. ``ec_memo`` is an
    :func:`infer_ec_bottom_up` memo."""
    return _enforce_ancestor_equalities(_transfer_join_conditions(root), ec_memo)


def _transfer_join_conditions(root: Node) -> Node:
    def candidates(root: Node) -> Candidates:
        for j in all_nodes(root):
            if isinstance(j, Join):
                moved = _transfer_at(j)
                if moved is not j:
                    yield j, moved

    return _rewrite(root, candidates)


def _transfer_at(j: Join) -> Join:
    """The join with conditions guarding one input placed in the other,
    where the join pairs carry every attribute they read and no identical
    conjunct guards the path yet; the join itself when there are none.

    The rule places one condition per rescan of the whole graph: the first
    one, left input's chain before the right's. When the pairs are
    injective and the receiving input holds no join, a rescan would find
    the next candidate at this join again, so all of one input's
    conditions are placed at once, with the same result: placing them
    changes no other join, and a condition carried back through injective
    pairs is the one it came from. Otherwise only the first is placed."""
    injective = len(dict(j.pairs)) == len({b for _, b in j.pairs}) == len(j.pairs)
    kids = list(j.children)
    for src_idx, mapping in ((0, dict(j.pairs)), (1, {b: a for a, b in j.pairs})):
        dst_idx = 1 - src_idx
        existing = _chain_conjuncts(kids[dst_idx])
        landed = []
        for cond in _chain_conjuncts(kids[src_idx]):
            attrs = expr_attrs(cond)
            if not attrs or not attrs <= mapping.keys():
                continue
            transferred = substitute_attrs(cond, {a: Attr(mapping[a]) for a in attrs})
            if any(transferred == e for e in existing):
                continue
            placed, inserted = _place_pushed(transferred, kids[dst_idx])
            if inserted:
                if not landed:
                    takes_all = injective and not any(
                        isinstance(n, Join) for n in all_nodes(kids[dst_idx]))
                landed.append(placed)
                if not takes_all:
                    break
        if landed:
            kids[dst_idx] = _merge_placements(kids[dst_idx], landed)
            if not takes_all:
                break
    return j if all(map(is_, kids, j.children)) else replace_children(j, tuple(kids))


def _merge_placements(node: Node, placed: list[Node]) -> Node:
    """``node`` with the selections of several :func:`_place_pushed`
    results, each computed on ``node`` itself, as placing the conditions one
    after another would leave it.

    A selection placed earlier lets every later condition through, so each
    condition lands where it would alone: below those landed at the same
    spot before it, and not at all when an identical one landed there
    first. The walk goes down the paths the results rebuilt, as a list of
    visits (a node and its copies that differ from it), and the rebuild
    runs over it backwards, so any depth runs at any recursion limit."""
    if len(placed) == 1:
        return placed[0]
    visits = [(node, placed)]
    #: per visit, the (child index, visit) pairs below it
    below: list[list[tuple[int, int]]] = []
    for n, copies in visits:  # grows as the walk goes
        rebuilt = [c for c in copies if not (isinstance(c, Select) and c.child is n)]
        into = []
        for idx, child in enumerate(n.children):
            changed = [c.children[idx] for c in rebuilt if c.children[idx] is not child]
            if changed:
                into.append((idx, len(visits)))
                visits.append((child, changed))
        below.append(into)
    out: list[Node] = [None] * len(visits)
    for v in reversed(range(len(visits))):  # children after their parent in visits
        n, copies = visits[v]
        kids = list(n.children)
        for idx, w in below[v]:
            kids[idx] = out[w]
        merged = replace_children(n, tuple(kids)) if below[v] else n
        wrapping: list[Expr] = []
        for c in copies:
            if isinstance(c, Select) and c.child is n and not any(c.cond == w for w in wrapping):
                wrapping.append(c.cond)
        for cond in reversed(wrapping):
            merged = Select(cond, merged)
        out[v] = merged
    return out[0]


def _place_pushed(cond: Expr, node: Node) -> tuple[Node, bool]:
    """Insert a selection as deep as it can legally travel.

    Returns the rewritten subtree and False when an identical conjunct
    already guards the path (nothing to do). The descent is a list of
    visits, each a node and the condition renamed into its columns, and
    the rebuild runs over it backwards, so any depth runs at any
    recursion limit."""
    visits = [(node, cond)]
    #: per visit, the (child index, visit) pairs it moves into; None when guarded
    moves: list[Optional[list[tuple[int, int]]]] = []
    for n, c in visits:  # grows as the descent goes
        if isinstance(n, Select) and any(c == x for x in conjuncts(n.cond)):
            moves.append(None)
            continue
        attrs = expr_attrs(c)
        into = []
        for idx, child in enumerate(n.children):
            fmap = filter_map(n, idx)
            if fmap is None or not attrs <= fmap.keys():
                continue
            into.append((idx, len(visits)))
            visits.append((child, substitute_attrs(c, {a: Attr(fmap[a]) for a in attrs})))
            if not isinstance(n, Union):  # a filter over a union reaches every input
                break
        moves.append(into)
    placed: list[tuple[Node, bool]] = [None] * len(visits)
    for v in reversed(range(len(visits))):  # children after their parent in visits
        n, c = visits[v]
        if moves[v] is None:
            placed[v] = n, False
        elif not moves[v]:
            placed[v] = Select(c, n), True
        else:
            kids = list(n.children)
            inserted = False
            for idx, w in moves[v]:
                kids[idx], below = placed[w]
                inserted = inserted or below
            placed[v] = (replace_children(n, tuple(kids)), True) if inserted else (n, False)
    return placed[0]


def _enforce_ancestor_equalities(root: Node, ec_memo: Optional[dict] = None) -> Node:
    def candidates(root: Node) -> Candidates:
        up = infer_ec_bottom_up(root, memo=ec_memo)
        down = ec_top_down(root, up)
        parents = parent_map(root)
        for n in all_nodes(root):
            if n is root:
                continue
            cond = _new_equality(n, down, up[n], parents)
            if cond is not None:
                yield n, Select(cond, n)

    return _rewrite(root, candidates)


def _new_equality(n: Node, down, up_classes, parents) -> Optional[Expr]:
    """First equality licensed by ancestors at this node that is neither
    intrinsic here, nor enforceable deeper down, nor already filtered by an
    ancestor selection the new filter would merely duplicate."""
    for cls in sorted(down[n], key=_class_sort_key):
        members = sorted(cls, key=_member_sort_key)
        for i, m1 in enumerate(members):
            for m2 in members[i + 1:]:
                if isinstance(m1, EcConst) and isinstance(m2, EcConst):
                    continue
                if _same_up_class(up_classes, m1, m2):
                    continue
                if _licensed_below(n, down, m1, m2):
                    continue
                if _pair_guarded_above(n, parents, m1, m2):
                    continue
                return Cmp("=", _member_expr(m1), _member_expr(m2))
    return None

