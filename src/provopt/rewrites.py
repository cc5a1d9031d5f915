"""Equivalence-preserving rewrite rules and the fixed-order pipeline.

Every rule maps a graph to an equivalent graph; preconditions come from the
property inference in :mod:`provopt.properties`. Each rule is one
children-first pass, :func:`provopt.algebra.rebuild_bottom_up`, whose step
gets a node and its copy over the rebuilt inputs. The local rules read only
that copy and its input. The property-driven rules read top-down properties
(needed columns, set-insensitivity, downward classes, the guards of
ancestor selections), each one :func:`provopt.algebra.fold_down`, once, on
the rule's input, keyed by the original node, and bottom-up ones (keys,
upward classes) from the copy; each builds what rewriting one candidate at
a time and rescanning the graph would. A rewrite that changes a node's schema
is made only when the ancestors built so far still read it (:func:`_reshape`).
A rule that changes nothing returns its input object, so the pipeline
detects its fixpoint by identity. Within a
:func:`provopt.algebra.sharing_subplans` scope (one per optimization) the
runs share keys, classes, projection merges and pruning projections.

The projection-merge safety check is what keeps reenactment stacks from
exploding: merging is rejected when a non-trivial inner definition is
referenced more than once by the outer projection (each such merge can
double the reference count, so chains of them grow exponentially), or when
the merged expressions outgrow the inputs by more than a constant factor.
A rejected pair marks the inner projection as a materialization fence for
SQL generation. A merge step folds each computed outer target once (an
attribute target is one lookup) and reads sizes off the expressions, so it
costs the outer projection, not the inner definitions it substitutes.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import ChainMap, Counter
from dataclasses import dataclass, field
from functools import cache
from heapq import heappop, heappush
from operator import is_
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .algebra import (
    Arith, Attr, Cmp, Cond, Const, Diff, DupElim, Expr,
    Intersect, Join, Node, Product, Project, Select, Union, Window,
    all_nodes, conjuncts, conjunction, drive, expr_attrs,
    expr_with_children, fold_down, fold_expr, identity_targets, over_schemas,
    parent_map, rebuild_bottom_up, replace_children, schema_of, shared_table,
    substitute_attrs, SchemaError,
)
from .properties import (
    READS, ec_top_down, ec_up_of, filter_map, icols_down,
    infer_ec_bottom_up, infer_icols, infer_set, keys_of, source_names,
)

ChoiceFn = Callable[[int], int]


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


def total_expression_size(root: Node) -> int:
    """Summed size of all projection/selection expressions in a graph."""
    return sum(n.cond.size if isinstance(n, Select) else sum(e.size for e, _ in n.targets)
               for n in all_nodes(root) if isinstance(n, (Select, Project)))


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
        if not kids:
            return x
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
    if bigger.left is base:
        delta = bigger.right
    elif bigger.op in _COMMUTES and bigger.right is base:
        delta = bigger.left
    else:
        return None
    neutral = _NEUTRAL[bigger.op]
    return Arith(bigger.op, base, Cond(pred, neutral, delta) if negate else Cond(pred, delta, neutral))


def factor_attributes(root: Node) -> Node:
    """Apply expression factoring inside every projection."""
    def step(n: Node, node: Node) -> Node:
        if isinstance(node, Project):
            exprs = [e if isinstance(e, Attr) else factor_expression(e) for e, _ in node.targets]
            if not all(map(is_, exprs, (e for e, _ in node.targets))):
                return Project(tuple((e, name) for e, (_, name) in zip(exprs, node.targets)),
                               node.child, node.materialize)
        return node

    return rebuild_bottom_up(root, step)


# ---------------------------------------------------------------------------
# merging adjacent projections / selections. Merging and fencing never change
# a surviving node's parent count, so parents are counted once, when needed.


def _merge_walk(e: Expr, leaves: Mapping[str, tuple]) -> tuple:
    """One outer target's walk: (``e`` with the inner definitions substituted,
    its references to definitions over one node as nested tuples), per
    reference. ``leaves`` holds the same per inner column."""
    def step(x: Expr, kids: tuple[tuple, ...]) -> tuple:
        if not kids:
            return (leaves.get(x.name) if isinstance(x, Attr) else None) or (x, ())
        refs = [r for _, r in kids if r]
        return (expr_with_children(x, [k[0] for k in kids]),
                refs[0] if len(refs) == 1 else tuple(refs))

    return fold_expr((e,), step)[0]


def _most_refs(refs: tuple) -> int:
    """The most references to one name in :func:`_merge_walk`'s nested names."""
    names, todo = [], [r for r in refs if r]
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            names.append(x)
        else:
            todo.extend(x)
    return max(Counter(names).values(), default=0)


def merge_projections(root: Node, cfg: Optional[RewriteConfig] = None) -> Node:
    """Collapse adjacent projections, substituting inner definitions.

    Pairs failing the safety check stay separate and the inner projection is
    flagged as a materialization fence. The check reads the expressions'
    sizes and walks each outer target once (:func:`_merge_walk`).
    """
    cfg = cfg or RewriteConfig()
    parents = cache(lambda: parent_map(root))
    results = shared_table("merges", cfg.unsafe_naive_merge)

    def step(n: Node, outer: Node) -> Node:
        if not (isinstance(outer, Project) and isinstance(outer.child, Project)
                and not outer.child.materialize and len(parents()[n.child]) == 1):
            return outer
        if outer not in results:
            inner = outer.child
            leaves = {name: (e, name if e.size > 1 else ()) for e, name in inner.targets}
            walks = [isinstance(e, Attr) and leaves.get(e.name) or _merge_walk(e, leaves)
                     for e, _ in outer.targets]
            subs, refs = zip(*walks) if walks else ((), ())
            # a definition over one node referenced too often, or growth, compounds up a stack
            if cfg.unsafe_naive_merge or not (
                    _most_refs(refs) > MERGE_REF_LIMIT
                    or sum(e.size for e in subs) > MERGE_GROWTH_FACTOR * sum(
                        e.size for t in (outer.targets, inner.targets) for e, _ in t)):
                results[outer] = Project(tuple(zip(subs, (name for _, name in outer.targets))),
                                         inner.child, outer.materialize)
            else:
                results[outer] = replace_children(
                    outer, (Project(inner.targets, inner.child, materialize=True),))
        return results[outer]

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
# the ancestors' schemas, when a rule changes a node's output


def _reshape(n: Node, before: tuple[str, ...], after: tuple[str, ...], parents, order,
             current: Callable[[Node], Node], gone=frozenset(), wrapped=frozenset(),
             refused: Optional[set] = None):
    """The precondition of changing ``n``'s output from ``before`` to
    ``after`` in the graph a pass has built so far (``current`` gives what
    stands in a node's place, a node in ``gone`` passes its input's columns,
    one in ``wrapped`` has projections pulled above it, which keep its output):
    each ancestor whose schema changes is re-derived over leaves of its
    inputs' schemas. None when one is malformed (a union over inputs of
    different arity, a projection reading a column that is gone); else
    (product, old name) per right-input column a product renames.
    ``refused`` holds the (ancestor, inputs' shapes) of refused walks up one
    path while no stand-in changes; one arriving there so is refused at once."""
    shapes = {n: (before, after)}
    todo, renamed = [], []  # (order, ancestor) to re-derive; (product, old name)
    path = [] if refused is not None else None  # the walk's keys while it is one path
    node = n
    while True:
        old, new = shapes[node]
        if old != new and node not in wrapped:  # a projection pulled above it keeps its output
            for p in parents[node]:
                if all(p is not q for _, q in todo):
                    heappush(todo, (order[p], p))
        if not todo:
            return renamed
        node = heappop(todo)[1]
        if node in gone:
            shapes[node] = shapes[node.children[0]]
            continue
        kids = tuple(shapes.get(c) or (schema_of(current(c)),) * 2 for c in node.children)
        if todo:
            path = None  # the walk has forked
        elif path is not None:
            path.append((node, kids))
        try:
            if path and path[-1] in refused:
                raise SchemaError("refused by an earlier walk")
            was, will = (over_schemas(node, [k[i] for k in kids]) for i in (0, 1))
            shapes[node] = was.schema, will.schema
        except SchemaError:
            if path:
                refused.update(path)
            return None
        if isinstance(node, Product):
            names = source_names(was.lineage[1])
            renamed += [(node, names[a]) for name, a in will.lineage[1].items() if names[a] != name]


# ---------------------------------------------------------------------------
# duplicate elimination removal


def remove_dupelim_by_key(root: Node, base_keys=None, memo: Optional[dict] = None) -> Node:
    """Drop duplicate eliminations over an input with a key; ``memo`` is a
    :func:`keys_of` memo for the same ``base_keys``, by default the
    :func:`provopt.algebra.sharing_subplans` scope's. Only the inputs of
    duplicate eliminations have their keys read."""
    memo = shared_table("keys", base_keys or None) if memo is None else memo

    def step(n: Node, node: Node) -> Node:
        if isinstance(node, DupElim) and keys_of(node.child, base_keys, memo):
            return node.child
        return node

    return rebuild_bottom_up(root, step)


def remove_dupelim_by_set(root: Node, choice: Optional[ChoiceFn] = None,
                          decided_keep: Optional[set] = None) -> Node:
    """Drop duplicate eliminations whose effect is absorbed downstream.

    With a choice callback, each removable operator is a cost-based decision
    (0 removes, 1 keeps), asked children first; ``decided_keep`` holds the
    kept ``DupElim`` nodes (alive, so no later node reuses an id) across
    rounds, so one is decided once. Removing one leaves every other's
    set-insensitivity as it was, so that is read once. A run that returns
    its input kept every candidate, so a rerun asks nothing."""
    decided_keep = set() if decided_keep is None else decided_keep
    if not any(isinstance(n, DupElim) for n in all_nodes(root)):
        return root
    dup = infer_set(root)

    def step(n: Node, node: Node) -> Node:
        if isinstance(node, DupElim) and dup[n] and node not in decided_keep:
            if choice is None or choice(2) == 0:
                return node.child
            decided_keep.add(node)
        return node

    return rebuild_bottom_up(root, step)


# ---------------------------------------------------------------------------
# column pruning


def _needed_columns(root: Node, memo: dict) -> dict[Node, frozenset[str]]:
    """:func:`infer_icols` of a root. ``memo`` holds the value for the last
    root asked about, or carried to (needed columns are top-down)."""
    if root not in memo:
        memo.clear()
        memo[root] = infer_icols(root)
    return memo[root]


def project_to_icols(root: Node, icols_memo: Optional[dict] = None) -> Node:
    """Insert pruning projections above operators producing unneeded columns.
    ``icols_memo`` is a :func:`_needed_columns` memo. A pruning is skipped
    when the ancestors built so far cannot read its output (:func:`_reshape`)
    or when it renames a needed column, which a reference would then miss.
    Pruning changes no node's needed columns, so they are read once, and
    carried to the output for the next rule when no column was renamed."""
    memo = {} if icols_memo is None else icols_memo
    icols = _needed_columns(root, memo)
    parents = parent_map(root)
    order = cache(lambda: {n: i for i, n in enumerate(parents)})
    pruned = shared_table("pruned")  # (node, kept columns) -> the projection
    done: dict[Node, Node] = {}  # what stands in each changed node's place
    under: dict[Node, frozenset[str]] = {}  # each node pruned, and its needed columns
    renames, refused = [], set()  # refused: _reshape's, while nothing stands in anew

    def step(n: Node, node: Node) -> Node:
        need = icols[n]
        sch = schema_of(node)
        # a node read by projections only has its demand expressed already
        if (n is not root and set(sch) != need
                and not (parents[n] and all(isinstance(p, Project) for p in parents[n]))
                and (keep := tuple(a for a in sch if a in need))):
            renamed = _reshape(n, sch, keep, parents, order(), lambda c: done.get(c, c),
                               refused=refused)
            if renamed is not None and not any(name in icols[p] for p, name in renamed):
                renames.extend(renamed)
                under[node] = need
                if (node, keep) not in pruned:
                    pruned[node, keep] = Project(identity_targets(keep), node)
                node = pruned[node, keep]
        if node is not n:
            done[n] = node
            refused.clear()
        return node

    new_root = rebuild_bottom_up(root, step)
    if new_root is not root:
        memo.clear()
        if not renames:
            memo[new_root] = under | {done.get(n, n): need for n, need in icols.items()}
    return new_root


def remove_window(root: Node, icols_memo: Optional[dict] = None) -> Node:
    """Drop windows whose output no ancestor needs. ``icols_memo`` is a
    :func:`_needed_columns` memo. Dropping one lowers the demand below it, so
    windows are decided parents first, in the needed-columns fold, over what
    the dropped ones leave; one whose removal the ancestors cannot read
    (:func:`_reshape`) stays."""
    icols = _needed_columns(root, icols_memo if icols_memo is not None else {})
    if not any(isinstance(n, Window) and n.out not in need for n, need in icols.items()):
        return root
    parents = parent_map(root)
    order = {n: i for i, n in enumerate(parents)}
    gone: set[Node] = set()

    def through(n: Node, idx: int, need: frozenset[str]) -> frozenset[str]:
        if (isinstance(n, Window) and n.out not in need
                and _reshape(n, schema_of(n), schema_of(n.child), parents, order,
                             lambda c: c, gone) is not None):
            gone.add(n)  # dropped: its input is asked what the window was
            return need.intersection(schema_of(n.child))
        return icols_down(n, idx, need)

    fold_down(root, frozenset(schema_of(root)), through, frozenset.union)
    return rebuild_bottom_up(root, lambda n, node: node.child if n in gone else node)


# ---------------------------------------------------------------------------
# provenance projection pull-up


_PULL_THROUGH = (Select, Product, DupElim)


def pull_up_prov_projection(root: Node) -> Node:
    """Move pure attribute duplications above operators that neither use nor
    drop them, so intermediate results stay narrow: a projection whose
    parent passes all child columns through loses the duplicates, and a new
    projection above the parent, which can climb again, re-creates them. It
    is pulled when the pass reaches it, into the parent as it stands then,
    its later inputs not yet visited; a later projection pulled into one
    parent goes directly above it, below the earlier ones."""
    parents = parent_map(root)
    # below a positional set operator, where column order matters
    positional = fold_down(root, False, lambda n, idx, below: below or isinstance(
        n, (Union, Intersect, Diff)), lambda a, b: a or b)

    def pulled(n: Node, node: Node) -> dict[str, str]:
        """What the projection ``node`` at ``n``'s place can pull above its parent:
        copies of columns it also passes as themselves, unread by the parent."""
        parent = parents[n][0] if len(parents[n]) == 1 else None
        if (not isinstance(node, Project) or node.materialize or positional[n]
                or not isinstance(parent, _PULL_THROUGH) or positional[parent]):
            return {}
        # a selection or product reads the same columns whatever its output
        # needs; a pulled column is a copy, so a DupElim, reading whole rows, passes it
        used = () if isinstance(parent, DupElim) else frozenset().union(
            *[READS(parent, idx, frozenset()) for idx in range(len(parent.children))])
        renames = node.lineage[0]
        out = {name: src for name, src in renames.items()
               if name != src and name not in used and renames.get(src) == src}
        return out if len(out) < len(node.targets) else {}

    if not any(pulled(n, n) for n in parents):
        return root
    order = cache(lambda: {n: i for i, n in enumerate(parents)})
    done: dict[Node, Node] = {}  # what stands in each changed node's place
    wrapped: dict[Node, list] = {}  # parent -> targets of the projections pulled above it

    def step(n: Node, node: Node) -> Node:
        for targets in wrapped.get(n, ()):
            node = Project(targets, node)
        if node is not n:
            done[n] = node
        pull = pulled(n, node)
        if not pull:
            return node
        parent = parents[n][0]
        kept = tuple(t for t in node.targets if t[1] not in pull)
        reduced = Project(kept, node.child, node.materialize)
        inputs = [schema_of(done.get(c, c)) for c in parent.children]
        was = over_schemas(parent, inputs).schema
        over = over_schemas(parent, [schema_of(reduced) if c is n else s
                                     for c, s in zip(parent.children, inputs)])
        now = over.schema
        if any(name in now for name in pull):
            return node
        # a source column may pass the parent under another name, such as a product's k'
        lineage = over.lineage[parent.children.index(n)]
        up = source_names(lineage) if lineage is not None else {}
        targets = identity_targets(now) + tuple((Attr(up.get(src, src)), name)
                                                for name, src in pull.items())
        # an ancestor product that renames a column would read another column under its name
        if _reshape(parent, was, tuple(t[1] for t in targets), parents, order(),
                    lambda c: done.get(c, c), wrapped=wrapped) != []:
            return node
        wrapped.setdefault(parent, []).insert(0, targets)
        done[n] = reduced
        return reduced

    return rebuild_bottom_up(root, step)


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
    while isinstance(node, (Select, DupElim)):
        if isinstance(node, Select):
            out.extend(conjuncts(node.cond))
        node = node.child
    return out


def _transfer_join_conditions(root: Node) -> Node:
    """Place the conditions across every join, children first, in the order
    that placing the first candidate and rescanning the graph would: a
    placement gives a condition only to the joins its descent crossed, which
    are settled again first. A condition looked at stays settled (chains only
    grow at their end, guards only multiply), so a join goes on from how many
    of each input's chain conditions it, or the join it copies, looked at."""
    looked: dict[Node, list[int]] = {}
    return rebuild_bottom_up(root, lambda n, node: drive(_settle(node, looked))
                             if isinstance(node, Join) else node)


def _settle(j: Join, looked: dict[Node, list[int]], copied: Optional[Join] = None) -> Iterator:
    """The join with every condition guarding one input placed in the other,
    where the pairs carry every attribute it reads and no identical conjunct
    guards the path yet, left input's chain first; ``looked`` holds each
    join's counts. When this join's pairs and those of every join in the
    receiving input are injective, the next conditions over the same
    attributes (all, when it holds no join) are placed at once, as one after
    another would be: they take one path, a crossed join passes each to its
    other input, and carried back through injective pairs each is itself.
    Each condition is one descent (:func:`_landings`), each batch one
    rebuild (:func:`_place`), yielded to :func:`~provopt.algebra.drive`."""
    seen = list(looked.get(j if copied is None else copied, (0, 0)))
    chains = [_chain_conjuncts(kid) for kid in j.children]
    guarded = [set(chain) for chain in chains]
    while True:
        kids = list(j.children)
        for src_idx, mapping in ((0, dict(j.pairs)), (1, {b: a for a, b in j.pairs})):
            dst_idx = 1 - src_idx
            landed: list[list] = []  # per condition placed, its landings
            for cond in chains[src_idx][seen[src_idx]:]:
                attrs = expr_attrs(cond)
                if attrs and attrs <= mapping.keys():
                    transferred = substitute_attrs(cond, {a: Attr(mapping[a]) for a in attrs})
                    if transferred not in guarded[dst_idx]:
                        spots = _landings(transferred, kids[dst_idx])
                        if spots and not landed:
                            joins = [n for n in all_nodes(kids[dst_idx]) if isinstance(n, Join)]
                            takes_all = all(len(dict(x.pairs)) == len({b for _, b in x.pairs})
                                            == len(x.pairs) for x in (j, *joins))
                            along = attrs
                        elif spots and joins and attrs != along:
                            takes_all = False  # another path: placed after these, first
                            break
                        if spots:
                            landed.append(spots)
                seen[src_idx] += 1
                if landed and not takes_all:
                    break
            if landed:
                # the joins the placements crossed can take their conditions
                kids[dst_idx] = yield _place(kids[dst_idx], landed, looked)
                chains[dst_idx] = _chain_conjuncts(kids[dst_idx])
                guarded[dst_idx] = set(chains[dst_idx])
                if not takes_all:
                    break
        if all(map(is_, kids, j.children)):
            looked[j] = seen
            return j
        j = replace_children(j, tuple(kids))


def _landings(cond: Expr, node: Node) -> list[tuple[tuple[int, ...], Expr]]:
    """Where a selection on ``node`` lands when pushed as deep as it can
    legally travel: per spot, the child indexes down to it and the condition
    in its columns. Empty when an identical conjunct guards every path. The
    descent is a list of visits, each a node, the condition renamed into its
    columns and where it was entered from, so any depth runs at any
    recursion limit."""
    visits = [(node, cond, expr_attrs(cond), None)]
    spots = []
    for v, (n, c, attrs, _) in enumerate(visits):  # grows as the descent goes
        if isinstance(n, Select) and c in conjuncts(n.cond):
            continue
        entered = False
        for idx, child in enumerate(n.children):
            fmap = filter_map(n, idx)
            if fmap is None or not attrs <= fmap.keys():
                continue
            renamed = {a: Attr(fmap[a]) for a in attrs if fmap[a] != a}
            visits.append((child, substitute_attrs(c, renamed) if renamed else c,
                           frozenset(fmap[a] for a in attrs), (v, idx)))
            entered = True
            if not isinstance(n, Union):  # a filter over a union reaches every input
                break
        if not entered:
            path, came = [], visits[v][3]
            while came is not None:
                path.append(came[1])
                came = visits[came[0]][3]
            spots.append((tuple(reversed(path)), c))
    return spots


def _place(node: Node, landed: list[list[tuple[tuple[int, ...], Expr]]],
           looked: Optional[dict[Node, list[int]]] = None) -> Iterator:
    """``node`` with each condition's :func:`_landings` on it selected, as
    placing the conditions one after another would leave it: a condition
    lands below those landed at the same spot before it, and not at all when
    an identical one landed there first. With ``looked``, each join whose
    inputs changed is settled (:func:`_settle`), children first, by yielding
    it to :func:`~provopt.algebra.drive`. The spots' paths make one list of
    visits, and the rebuild runs over it backwards."""
    visits = [node]
    below: list[dict[int, int]] = [{}]  # per visit, child index -> the visit below
    over: list[dict[Expr, None]] = [{}]  # per visit, the conditions landed there, outermost first
    for spots in landed:
        for path, cond in spots:
            v = 0
            for idx in path:
                if idx not in below[v]:
                    below[v][idx] = len(visits)
                    visits.append(visits[v].children[idx])
                    below.append({})
                    over.append({})
                v = below[v][idx]
            over[v].setdefault(cond)
    out: list[Node] = [None] * len(visits)
    for v in reversed(range(len(visits))):  # children after their parent in visits
        n = visits[v]
        if below[v]:
            kids = list(n.children)
            for idx, w in below[v].items():
                kids[idx] = out[w]
            n = replace_children(n, tuple(kids))
            if looked is not None and isinstance(n, Join):
                n = yield _settle(n, looked, visits[v])
        for cond in reversed(over[v]):
            n = Select(cond, n)
        out[v] = n
    return out[0]


def _enforce_ancestor_equalities(root: Node, ec_memo: Optional[dict] = None) -> Node:
    """Put a selection above each node for each equality its ancestors
    license there (:func:`_new_equalities`), the first found outermost.
    Enforcing an equality changes no top-down fact, so those are read once,
    the guards of :func:`_ancestor_guards` only when a pair gets that far;
    the bottom-up classes are the rebuilt node's (:func:`ec_up_of`), kept
    apart from ``ec_memo``, which holds :func:`infer_ec_bottom_up`'s alone,
    by default the :func:`provopt.algebra.sharing_subplans` scope's."""
    ecs = shared_table("ecs") if ec_memo is None else ec_memo
    up = infer_ec_bottom_up(root, memo=ecs)
    down = ec_top_down(root, up)
    guards = cache(lambda: _ancestor_guards(root))
    built = ChainMap({}, ecs)  # new nodes' classes go to the first map

    def step(n: Node, node: Node) -> Node:
        if n is root or not down[n]:
            return node
        classes = up[n] if node is n else ec_up_of(node, built)
        for pair in reversed(_new_equalities(n, down, classes, guards)):
            node = Select(Cmp("=", *map(_member_expr, pair)), node)
        return node

    return rebuild_bottom_up(root, step)


def _new_equalities(n: Node, down, up_classes, guards: Callable[[], dict]) -> list[tuple]:
    """The member pairs of the node's downward classes, in one ordered scan,
    that are neither intrinsic here (in one of ``up_classes``, closed and so
    disjoint), nor enforceable deeper down, nor already filtered by the
    ancestors (in ``guards()[n]``). A class inside one upward class holds
    intrinsic pairs only and is not scanned; in the others a member is
    paired with the later members of the other upward classes only, so the
    scan costs the class and the pairs it tests."""
    class_of = {m: c for c in up_classes for m in c}
    crossing = [c for c in down[n] if not c <= class_of.get(next(iter(c)), frozenset())]
    if not crossing:
        return []
    licensed_below = _licensed_below(n, down)
    pairs = []
    for cls in sorted(crossing, key=lambda c: sorted(map(_member_sort_key, c))):
        members = sorted(cls, key=_member_sort_key)
        group = [class_of.get(m, m) for m in members]  # its upward class, or the member alone
        later_others: dict = {}  # group -> the positions of the other groups' members, in order
        for i, m1 in enumerate(members):
            if isinstance(m1, Const):  # so are the members after it: constants sort last
                break
            if group[i] not in later_others:
                later_others[group[i]] = [j for j, g in enumerate(group) if g is not group[i]]
            others = later_others[group[i]]
            for j in others[bisect_right(others, i):]:
                m2 = members[j]
                if not (licensed_below(m1, m2)
                        or frozenset(map(_member_expr, (m1, m2))) in guards()[n]):
                    pairs.append((m1, m2))
    return pairs


def _licensed_below(n: Node, down) -> Callable[[str, object], bool]:
    """The test whether the equality of an attribute and a later member of
    the node's downward class can be enforced at one of its inputs instead
    (insertion happens at the deepest licensed position only): both cross
    into the input through :func:`filter_map` (a constant as it is) as two
    members of one of its downward classes. Each input's filter map and
    member -> class map are built on the first test."""
    inputs = cache(lambda idx: (filter_map(n, idx),
                                {m: c for c in down[n.children[idx]] for m in c}))

    def licensed(m1: str, m2) -> bool:
        for idx in range(len(n.children)):
            fmap, class_of = inputs(idx)
            if fmap is not None and m1 in fmap:
                m2_below = m2 if isinstance(m2, Const) else fmap.get(m2)
                if m2_below not in (None, fmap[m1]) and m2_below in class_of.get(fmap[m1], ()):
                    return True
        return False

    return licensed


def _ancestor_guards(root: Node) -> dict[Node, frozenset[frozenset[Expr]]]:
    """Per node, the equalities a selection on it would merely repeat, each
    the set of its two sides (attributes or constants): every path to the
    root crosses a selection filtering on it, through operators the filter
    commutes with. One :func:`provopt.algebra.fold_down`: the root guards
    none, and a parent's guards and, for a selection, its ``=`` conjuncts
    map down through :func:`filter_map` of the node's first slot in it, a
    column only from the first output name of its source."""
    def through(p: Node, idx: int, guarded: frozenset) -> frozenset:
        if isinstance(p, Select):
            guarded |= {frozenset((c.left, c.right)) for c in conjuncts(p.cond)
                        if isinstance(c, Cmp) and c.op == "="}
        fmap = filter_map(p, p.children.index(p.children[idx]))
        if fmap is None or not guarded:
            return frozenset()
        down = {Attr(name): Attr(src) for src, name in source_names(fmap).items()}
        return frozenset(frozenset(down.get(x, x) for x in pair) for pair in guarded
                         if all(x in down or isinstance(x, Const) for x in pair))

    return fold_down(root, frozenset(), through, frozenset.intersection)


def _member_expr(m) -> Expr:
    return m if isinstance(m, Const) else Attr(m)


def _member_sort_key(m):
    return (0, m) if isinstance(m, str) else (1, repr(m.value))


# ---------------------------------------------------------------------------
# pipeline


#: The pipeline in order: rule name -> call on (root, config, the run's state,
#: see :func:`rewrite_steps`). Each entry looks its rule up as a module global
#: when called, so a wrapper installed on ``rewrites.<rule>`` sees the calls.
RULES: dict[str, Callable[[Node, RewriteConfig, SimpleNamespace], Node]] = {
    "factor_attributes": lambda root, cfg, run: factor_attributes(root),
    "merge_projections": lambda root, cfg, run: merge_projections(root, cfg),
    "merge_selections": lambda root, cfg, run: merge_selections(root),
    "selection_move_around": lambda root, cfg, run: selection_move_around(root, run.ecs),
    "pull_up_prov_projection": lambda root, cfg, run: pull_up_prov_projection(root),
    "project_to_icols": lambda root, cfg, run: project_to_icols(root, run.icols),
    "remove_window": lambda root, cfg, run: remove_window(root, run.icols),
    "remove_dupelim_by_key":
        lambda root, cfg, run: remove_dupelim_by_key(root, cfg.base_keys, run.keys),
    "remove_dupelim_by_set":
        lambda root, cfg, run: remove_dupelim_by_set(root, cfg.dupelim_set_choice, run.kept),
    "remove_redundant_projection": lambda root, cfg, run: remove_redundant_projection(root),
}
RULE_ORDER = tuple(RULES)


def rewrite_steps(root: Node, cfg: RewriteConfig) -> Iterator[tuple[str, Node]]:
    """The pipeline round after round, without end: (rule name, its output)
    per enabled rule. A rule is not run again on a root it returned
    unchanged: rules are deterministic, and :func:`remove_dupelim_by_set`
    would ask nothing. The run keeps the eliminations kept by choice, the
    needed columns of the last root read, and keys and bottom-up classes."""
    run = SimpleNamespace(kept=set(), icols={}, ecs=shared_table("ecs"),
                          keys=shared_table("keys", cfg.base_keys or None))  # {} keys none
    at_fixpoint: dict[str, Node] = {}  # rule -> the last root it left unchanged
    while True:
        for name in filter(cfg.rule_enabled, RULES):
            if at_fixpoint.get(name) is not root:
                new_root = RULES[name](root, cfg, run)
                if new_root is root:
                    at_fixpoint[name] = root
                root = new_root
            yield name, root


def apply_pats(root: Node, cfg: Optional[RewriteConfig] = None) -> Node:
    """Run the fixed-order rewrite pipeline (:func:`rewrite_steps`), then
    restore the original root schema (rules may reorder columns).

    Rounds repeat until one in which no rule fired (``root is before``), so
    a rewritten plan is a fixpoint and a second application is a no-op; a
    late-created opportunity is picked up by the next round. There is no
    round cap: rules that undid each other's work would loop, a defect.
    """
    cfg = cfg or RewriteConfig()
    original_schema = schema_of(root)
    steps = rewrite_steps(root, cfg)
    enabled = sum(map(cfg.rule_enabled, RULES))
    before = None
    while root is not before:
        before = root
        for _ in range(enabled):
            _, root = next(steps)
    if schema_of(root) != original_schema:
        # rules may have reordered columns; restore and fold the fix-up
        # projection so reapplying the pipeline starts from a fixpoint
        root = Project(identity_targets(original_schema), root)
        if cfg.rule_enabled("merge_projections"):
            root = merge_projections(root, cfg)
        if cfg.rule_enabled("remove_redundant_projection"):
            root = remove_redundant_projection(root)
    return root
