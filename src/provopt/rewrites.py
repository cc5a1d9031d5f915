"""Equivalence-preserving rewrite rules and the fixed-order pipeline.

Every rule maps a graph to an equivalent graph; preconditions come from the
property inference in :mod:`provopt.properties`. The local rules (attribute
factoring, projection and selection merging, redundant projection removal)
look only at a node and its child; each is one children-first pass,
:func:`provopt.algebra.rebuild_bottom_up`. The property-driven rules read
whole-graph properties (keys, icols, equivalence classes, set-insensitivity,
parents); each is a generator of (target, replacement) candidates run by
:func:`_rewrite`, which applies the first candidate the graph absorbs and
rescans until none applies. A replacement whose schema differs from its
target's is validated against the ancestors and skipped when they would
break (for example, a column drop under one input of a positional set
operator). A rule that changes nothing returns its input object, so the
pipeline detects its fixpoint by identity.

A rule is a deterministic function of its input graph, so :func:`apply_pats`
does not run a rule again on a root it left unchanged. The one rule with
state, :func:`remove_dupelim_by_set`, would ask for no choice on such a re-run:
a run that returns its root unchanged has kept, and recorded, every candidate
it saw. One pipeline run also keeps the bottom-up properties
(keys, bottom-up equivalence classes) of every node it has seen in a
:class:`PipelineMemo`, so a rescan after a rewrite computes them only for the
rebuilt ancestors, and the needed columns of the last root the pruning rules
scanned, so a rule that scans the root another left unchanged reuses them.

The projection-merge safety check is what keeps reenactment stacks from
exploding: merging is rejected when a non-trivial inner definition is
referenced more than once by the outer projection (each such merge can
double the reference count, so chains of them grow exponentially), or when
the merged expressions outgrow the inputs by more than a constant factor.
A rejected pair marks the inner projection as a materialization fence for
SQL generation.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from operator import is_
from typing import Callable, Iterable, Mapping, Optional

from .algebra import (
    Arith, Attr, Cmp, Cond, Const, Diff, DupElim, Expr,
    Intersect, Join, Node, Product, Project, Select, Union, Window,
    all_nodes, conjuncts, conjunction, expr_attrs, expr_nodes,
    expr_size, expr_with_children, fold_expr,
    identity_targets, parent_map, rebuild_bottom_up, replace_children,
    schema_of, substitute as graph_substitute, substitute_attrs, SchemaError,
)
from .properties import (
    EcConst, ec_top_down, ec_transfer_down, filter_map, infer_ec_bottom_up,
    infer_icols, infer_keys, infer_set, source_names,
)

ChoiceFn = Callable[[int], int]
#: (target node, replacement node) proposed by a rule
Candidates = Iterable[tuple[Node, Node]]


#: reject a merge when the result exceeds this multiple of the input sizes
MERGE_GROWTH_FACTOR = 4.0
#: inner definitions larger than one node may be referenced at most this often
MERGE_REF_LIMIT = 1


@dataclass
class RewriteConfig:
    #: rule names to run; None enables the full pipeline
    enabled: Optional[frozenset] = None
    #: per-candidate callback for the set-based duplicate elimination removal
    #: (0 removes, 1 keeps); None always removes
    dupelim_set_choice: Optional[ChoiceFn] = None
    #: declared candidate keys of base relations
    base_keys: Mapping[str, Iterable[Iterable[str]]] = field(default_factory=dict)
    #: test-only: disable the merge safety check
    unsafe_naive_merge: bool = False

    def __post_init__(self):
        unknown = sorted(set(self.enabled or ()) - set(RULES))
        if unknown:
            raise ValueError(f"unknown rule(s) {', '.join(map(repr, unknown))}; "
                             f"valid rules: {', '.join(RULES)}")

    def rule_enabled(self, name: str) -> bool:
        return self.enabled is None or name in self.enabled


def _absorb(root: Node, target: Node, replacement: Node,
            copies: Optional[dict[Node, Node]] = None) -> Optional[Node]:
    """Substitute; None when the replacement or its ancestors are malformed.
    ``copies`` receives the substitution's copies (see
    :func:`provopt.algebra.substitute`).

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


def total_expression_size(root: Node) -> int:
    """Summed size of all projection/selection expressions in a graph."""
    total = 0
    for n in all_nodes(root):
        if isinstance(n, Project):
            total += sum(expr_size(e) for e, _ in n.targets)
        elif isinstance(n, Select):
            total += expr_size(n.cond)
    return total


# ---------------------------------------------------------------------------
# attribute factoring


_NEUTRAL = {"+": Const(0), "-": Const(0), "*": Const(1), "/": Const(1)}
_COMMUTES = ("+", "*")


def factor_expression(e: Expr) -> Expr:
    """Rewrite ``if p then A(+)c else A`` into ``A (+) (if p then c else e)``
    where e is the neutral element, children first; the reverse branch order
    is factored symmetrically. Returns the input itself when nothing
    factors."""
    if isinstance(e, (Attr, Const)):
        return e

    def step(x: Expr, kids: tuple[Expr, ...]) -> Expr:
        if isinstance(x, Cond):
            pred, then, other = kids
            factored = _factor_cond(pred, then, other, negate=False)
            if factored is None:
                factored = _factor_cond(pred, other, then, negate=True)
            if factored is not None:
                return factored
        return expr_with_children(x, kids)

    return fold_expr((e,), step)[0]


def _factor_cond(pred: Expr, bigger: Expr, base: Expr, *, negate: bool) -> Optional[Expr]:
    if not isinstance(bigger, Arith):
        return None
    op = bigger.op
    candidates = []
    if bigger.left == base:
        candidates.append(bigger.right)
    if op in _COMMUTES and bigger.right == base:
        candidates.append(bigger.left)
    for delta in candidates:
        neutral = _NEUTRAL[op]
        branch = Cond(pred, neutral, delta) if negate else Cond(pred, delta, neutral)
        return Arith(op, base, branch)
    return None


def factor_attributes(root: Node) -> Node:
    """Apply expression factoring inside every projection."""
    def step(n: Node, node: Node) -> Node:
        if isinstance(node, Project):
            targets = tuple((factor_expression(e), name) for e, name in node.targets)
            if targets != node.targets:
                return Project(targets, node.child, node.materialize)
        return node

    return rebuild_bottom_up(root, step)


# ---------------------------------------------------------------------------
# merging adjacent projections / selections. Merging and fencing never change
# a surviving node's parent count, so parents are counted once, when needed.


def _merge_safe(outer: Project, inner: Project, merged: Project, cfg: RewriteConfig,
                sizes: dict[Project, tuple[int, ...]]) -> bool:
    """Whether merging is safe. ``sizes`` memoizes target sizes by node, not
    by expression (expressions hash structurally, which is exponential on
    shared conditions); a merged node's follow from its inputs' without
    walking its expressions and serve the next merge up the stack."""
    if cfg.unsafe_naive_merge:
        return True
    if inner not in sizes:
        sizes[inner] = tuple(expr_size(e) for e, _ in inner.targets)
    inner_size = {name: s for (_, name), s in zip(inner.targets, sizes[inner])}
    refs = Counter(x.name for e, _ in outer.targets for x in expr_nodes(e) if isinstance(x, Attr))
    if any(s > 1 and refs[name] > MERGE_REF_LIMIT for name, s in inner_size.items()):
        return False
    # an inner reference counts at the size of the definition replacing it
    merged_sizes = tuple(sum(inner_size.get(x.name, 1) if isinstance(x, Attr) else 1
                             for x in expr_nodes(e)) for e, _ in outer.targets)
    outer_size = sum(expr_size(e) for e, _ in outer.targets)
    if sum(merged_sizes) > MERGE_GROWTH_FACTOR * (outer_size + sum(sizes[inner])):
        return False
    sizes[merged] = merged_sizes
    return True


def merge_projections(root: Node, cfg: Optional[RewriteConfig] = None) -> Node:
    """Collapse adjacent projections, substituting inner definitions.

    Pairs failing the safety check stay separate and the inner projection is
    flagged as a materialization fence.
    """
    cfg = cfg or RewriteConfig()
    parents = cache(lambda: parent_map(root))
    sizes: dict[Project, tuple[int, ...]] = {}

    def step(n: Node, outer: Node) -> Node:
        if not (isinstance(outer, Project) and isinstance(outer.child, Project)
                and not outer.child.materialize and len(parents()[n.child]) == 1):
            return outer
        inner = outer.child
        defs = {name: e for e, name in inner.targets}
        merged = Project(tuple((substitute_attrs(e, defs), name) for e, name in outer.targets),
                         inner.child, outer.materialize)
        if _merge_safe(outer, inner, merged, cfg, sizes):
            return merged
        return replace_children(outer, (Project(inner.targets, inner.child, materialize=True),))

    return rebuild_bottom_up(root, step)


def merge_selections(root: Node) -> Node:
    parents = cache(lambda: parent_map(root))

    def step(n: Node, outer: Node) -> Node:
        if (isinstance(outer, Select) and isinstance(outer.child, Select)
                and len(parents()[n.child]) == 1):
            return Select(conjunction([outer.cond, outer.child.cond]), outer.child.child)
        return outer

    return rebuild_bottom_up(root, step)


def remove_redundant_projection(root: Node) -> Node:
    def step(n: Node, node: Node) -> Node:
        if isinstance(node, Project) and not node.materialize:
            child_schema = schema_of(node.child)
            if (len(node.targets) == len(child_schema)
                    and all(isinstance(e, Attr) and e.name == a and name == a
                            for (e, name), a in zip(node.targets, child_schema))):
                return node.child
        return node

    return rebuild_bottom_up(root, step)


# ---------------------------------------------------------------------------
# duplicate elimination removal


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


# ---------------------------------------------------------------------------
# column pruning


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
                yield n, Project(identity_targets(keep), n)

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


# ---------------------------------------------------------------------------
# provenance projection pull-up


_PULL_THROUGH = (Select, Product, DupElim)


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


# ---------------------------------------------------------------------------
# selection move-around


def selection_move_around(root: Node, ec_memo: Optional[dict] = None) -> Node:
    """Derive new selections from equivalence classes and push them toward
    the leaves: conditions guarding one join input transfer to the other
    input when the join pairs the attributes they mention, and attribute
    pairs equated by ancestors are enforced early. ``ec_memo`` is an
    :func:`infer_ec_bottom_up` memo."""
    return _enforce_ancestor_equalities(_transfer_join_conditions(root), ec_memo)


def _chain_conjuncts(node: Node) -> list[Expr]:
    """Conjuncts guaranteed on every tuple flowing out of a sigma/delta chain."""
    out: list[Expr] = []
    cur = node
    while isinstance(cur, (Select, DupElim)):
        if isinstance(cur, Select):
            out.extend(conjuncts(cur.cond))
        cur = cur.child
    return out


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


def _licensed_below(n: Node, down, m1, m2) -> bool:
    """True when the equality can be enforced at one of the node's inputs
    instead (insertion happens at the deepest licensed position only)."""
    for idx, child in enumerate(n.children):
        for cls in ec_transfer_down(n, idx, frozenset((frozenset((m1, m2)),))):
            for dcls in down[child]:
                if cls <= dcls:
                    return True
    return False


def _pair_guarded_above(n: Node, parents, m1, m2) -> bool:
    """True when every path to the root already filters on this equality
    through operators the filter commutes with, making a new selection at
    this node a no-op. The paths are walked up with a work list of (node,
    members in its columns), each pair once, so any depth runs at any
    recursion limit."""
    todo = [(n, m1, m2)]
    seen = set(todo)
    while todo:
        n, m1, m2 = todo.pop()
        if not parents.get(n):
            return False  # the root, reached unguarded
        for p in parents[n]:
            mapped = _map_members_up(p, n, (m1, m2))
            if mapped is None:
                return False
            pm1, pm2 = mapped
            if isinstance(p, Select) and any(
                    c == Cmp("=", _member_expr(pm1), _member_expr(pm2))
                    or c == Cmp("=", _member_expr(pm2), _member_expr(pm1))
                    for c in conjuncts(p.cond)):
                continue
            if (p, pm1, pm2) not in seen:
                seen.add((p, pm1, pm2))
                todo.append((p, pm1, pm2))
    return True


def _map_members_up(parent: Node, child: Node, members):
    """Map equality members from a child's output names into the parent's
    through :func:`filter_map` (the first output name of each attribute);
    None when the filter cannot travel (so a selection above cannot guard
    the child)."""
    fmap = filter_map(parent, next(i for i, c in enumerate(parent.children) if c is child))
    if fmap is None:
        return None
    up = source_names(fmap)
    out = tuple(m if isinstance(m, EcConst) else up.get(m) for m in members)
    return None if None in out else out


def _member_expr(m) -> Expr:
    return Const(m.value) if isinstance(m, EcConst) else Attr(m)


def _member_sort_key(m):
    return (0, m) if isinstance(m, str) else (1, repr(m.value))


def _class_sort_key(cls):
    return tuple(sorted(_member_sort_key(m) for m in cls))


def _same_up_class(up_classes, m1, m2) -> bool:
    for cls in up_classes:
        if m1 in cls and m2 in cls:
            return True
    return False


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class PipelineMemo:
    """What one run of the pipeline carries from rule to rule, for one
    :class:`RewriteConfig` (keys depend on its ``base_keys``)."""

    #: the duplicate eliminations kept by choice, so each is decided once
    kept_dupelims: set = field(default_factory=set)
    #: :func:`infer_keys` and :func:`infer_ec_bottom_up` values per node
    keys: dict = field(default_factory=dict)
    ecs: dict = field(default_factory=dict)
    #: :func:`infer_icols` of the last root a pruning rule scanned
    icols: dict = field(default_factory=dict)


#: The pipeline in order: rule name -> call on (root, config, the memo of
#: the run). Each entry looks its rule up as a module global when called, so
#: a wrapper installed on ``rewrites.<rule>`` sees the pipeline's calls.
RULES: dict[str, Callable[[Node, RewriteConfig, PipelineMemo], Node]] = {
    "factor_attributes": lambda root, cfg, memo: factor_attributes(root),
    "merge_projections": lambda root, cfg, memo: merge_projections(root, cfg),
    "merge_selections": lambda root, cfg, memo: merge_selections(root),
    "selection_move_around": lambda root, cfg, memo: selection_move_around(root, memo.ecs),
    "pull_up_prov_projection": lambda root, cfg, memo: pull_up_prov_projection(root),
    "project_to_icols": lambda root, cfg, memo: project_to_icols(root, memo.icols),
    "remove_window": lambda root, cfg, memo: remove_window(root, memo.icols),
    "remove_dupelim_by_key":
        lambda root, cfg, memo: remove_dupelim_by_key(root, cfg.base_keys, memo.keys),
    "remove_dupelim_by_set":
        lambda root, cfg, memo: remove_dupelim_by_set(root, cfg.dupelim_set_choice,
                                                      memo.kept_dupelims),
    "remove_redundant_projection": lambda root, cfg, memo: remove_redundant_projection(root),
}
RULE_ORDER = tuple(RULES)


def apply_pats(root: Node, cfg: Optional[RewriteConfig] = None) -> Node:
    """Run the fixed-order rewrite pipeline, then restore the original root
    schema (rules may reorder columns).

    Rounds repeat until one in which no rule fired, so a rewritten plan is
    a fixpoint and a second application is a no-op. A rule that fires
    returns a new root object and one that does not returns its input, so
    "no rule fired" is ``root is before``. There is no round cap: a rule
    pair that undid each other's work would loop, and is a defect of the
    rules. A late-created opportunity (say, a pruning projection inserted
    after the merge pass ran) is picked up by the next round.

    A rule is not run again on a root it returned unchanged: rules are
    deterministic functions of their input graph, and the stateful
    :func:`remove_dupelim_by_set` would ask for no choice on that root
    again. The run's :class:`PipelineMemo` keeps keys and bottom-up
    equivalence classes of the nodes seen so far, and the needed columns of
    the last root scanned for them.
    """
    cfg = cfg or RewriteConfig()
    original_schema = schema_of(root)
    memo = PipelineMemo()
    at_fixpoint: dict[str, Node] = {}  # rule -> the last root it left unchanged
    before = None
    while root is not before:
        before = root
        for name, rule in RULES.items():
            if cfg.rule_enabled(name) and at_fixpoint.get(name) is not root:
                new_root = rule(root, cfg, memo)
                if new_root is root:
                    at_fixpoint[name] = root
                root = new_root
    if schema_of(root) != original_schema:
        # rules may have reordered columns; restore and fold the fix-up
        # projection so reapplying the pipeline starts from a fixpoint
        root = Project(identity_targets(original_schema), root)
        if cfg.rule_enabled("merge_projections"):
            root = merge_projections(root, cfg)
        if cfg.rule_enabled("remove_redundant_projection"):
            root = remove_redundant_projection(root)
    return root
