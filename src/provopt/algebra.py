"""Relational algebra intermediate representation.

Operators form an immutable rooted DAG: a query graph is identified by its
root operator, and a node may be referenced by several parents (shared
subexpression). Expressions are immutable trees with structural equality;
operator nodes deliberately compare by identity so that two structurally
identical subtrees can still be distinct (unshared) parts of one graph.
Every walk that computes one value per subexpression (rewriting, compiling,
printing, costing) is a :func:`fold_expr` step, so a subexpression shared
within a DAG is visited once and any depth is walked at any recursion limit.

A cross product is a join on no attribute pairs: both are :class:`Product`
nodes, and a pass handles them as one operator that reads ``pairs``.

Schemas are ordered tuples of attribute names, unique within one schema.
Name collisions that would arise when concatenating the inputs of a product
are resolved by suffixing the right-hand attribute with primes
(``b`` collides -> ``b'``); the mapping is derivable from the child schemas
alone. Each node computes its schema from its children's on first use and
caches it, so :func:`schema_of` is a field read after the first call.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cache, cached_property
from operator import attrgetter, is_
from typing import Callable, Iterable, Iterator, Mapping, Optional, TypeVar, Union


class AlgebraError(Exception):
    """Base error for malformed expressions or graphs."""


class SchemaError(AlgebraError):
    """Unresolvable attribute, duplicate output name, or arity mismatch."""


class GraphError(AlgebraError):
    """Structural problem: node not in graph, incompatible substitution."""


Value = Union[int, float, str, bool, None]

ARITH_OPS = ("+", "-", "*", "/")
CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")
BOOL_OPS = ("and", "or", "not")
AGG_FNS = ("sum", "count", "min", "max", "avg")

#: window frame covering rows up to the current row in the partition order
FRAME_RUNNING = "running"
#: window frame covering the whole partition
FRAME_PARTITION = "partition"


# ---------------------------------------------------------------------------
# expressions


@dataclass(frozen=True)
class Attr:
    name: str


@dataclass(frozen=True)
class Const:
    value: Value


@dataclass(frozen=True)
class Arith:
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        if self.op not in ARITH_OPS:
            raise AlgebraError(f"unknown arithmetic operator {self.op!r}")


@dataclass(frozen=True)
class Cmp:
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise AlgebraError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class BoolOp:
    op: str
    args: tuple["Expr", ...]

    def __post_init__(self):
        if self.op not in BOOL_OPS:
            raise AlgebraError(f"unknown boolean operator {self.op!r}")
        if self.op == "not" and len(self.args) != 1:
            raise AlgebraError("'not' takes exactly one operand")
        if self.op in ("and", "or") and len(self.args) < 1:
            raise AlgebraError(f"'{self.op}' needs at least one operand")


@dataclass(frozen=True)
class Cond:
    """CASE-style conditional: evaluates to if_true when pred holds."""

    pred: "Expr"
    if_true: "Expr"
    if_false: "Expr"


Expr = Union[Attr, Const, Arith, Cmp, BoolOp, Cond]
T = TypeVar("T")


#: each expression type's children, in a fixed order, read by one lookup
_EXPR_CHILDREN: dict[type, Callable[[Expr], tuple]] = {
    Attr: lambda e: (), Const: lambda e: (),
    Arith: attrgetter("left", "right"), Cmp: attrgetter("left", "right"),
    BoolOp: attrgetter("args"), Cond: attrgetter("pred", "if_true", "if_false"),
}


def _not_an_expression(e) -> tuple:
    raise AlgebraError(f"not an expression: {e!r}")


def expr_children(e: Expr) -> tuple[Expr, ...]:
    return _EXPR_CHILDREN.get(type(e), _not_an_expression)(e)


def expr_with_children(e: Expr, kids: Iterable[Expr]) -> Expr:
    """Copy an expression with new children, in :func:`expr_children` order;
    the expression itself when no child changed."""
    kids = tuple(kids)
    if all(map(is_, kids, expr_children(e))):
        return e
    if isinstance(e, (Arith, Cmp)):
        return type(e)(e.op, *kids)
    if isinstance(e, BoolOp):
        return BoolOp(e.op, kids)
    return Cond(*kids)


def expr_nodes(e: Expr) -> Iterator[Expr]:
    """Every node of an expression tree, a shared subexpression once per
    reference. Iterative, so any depth is walked at any recursion limit."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(expr_children(x))


def expr_size(e: Expr) -> int:
    """Node count of an expression tree."""
    return sum(1 for _ in expr_nodes(e))


def expr_attrs(e: Expr) -> frozenset[str]:
    """All attribute names referenced by an expression. Iterative, and a
    shared subexpression is read once (keyed by id; the expression holds
    every subexpression alive, so an id cannot be reused during the walk),
    so a DAG costs its size, not its tree size."""
    if isinstance(e, Attr):
        return frozenset((e.name,))
    names = set()
    seen = {id(e)}
    stack = [e]
    children = _EXPR_CHILDREN.get  # expr_children, inlined
    while stack:
        x = stack.pop()
        if isinstance(x, Attr):
            names.add(x.name)
        for c in children(type(x), _not_an_expression)(x):
            if id(c) not in seen:
                seen.add(id(c))
                stack.append(c)
    return frozenset(names)


def fold_expr(roots: Iterable[Expr], step: Callable[[Expr, tuple], T]) -> list[T]:
    """Fold expressions children first: ``step(x, kid_values)`` gets a
    subexpression and the values of its :func:`expr_children`, in that
    order, and returns the subexpression's value; one value per root comes
    back. A subexpression shared within or across the roots is folded once
    (memoized by identity; the roots hold every subexpression alive, so an
    id cannot be reused during the call). Iterative, so any depth is folded
    at any recursion limit."""
    roots = tuple(roots)
    done: dict[int, T] = {}
    children = _EXPR_CHILDREN.get  # expr_children, inlined
    for root in roots:
        if id(root) in done:
            continue
        path = [(root, expr_children(root))]  # (subexpression, its children) from the root down
        while path:
            x, kids = path[-1]
            for c in kids:
                if id(c) not in done:
                    grandkids = children(type(c), _not_an_expression)(c)
                    if grandkids:
                        path.append((c, grandkids))
                        break
                    done[id(c)] = step(c, ())  # a leaf folds in place
            else:
                path.pop()
                done[id(x)] = step(x, tuple([done[id(c)] for c in kids]))
    return [done[id(r)] for r in roots]


def substitute_attrs(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace attribute references by expressions, bottom-up; the input
    itself when no reference is replaced."""
    if isinstance(e, Attr):
        return mapping.get(e.name, e)
    return fold_expr((e,), lambda x, kids: mapping.get(x.name, x) if isinstance(x, Attr)
                     else expr_with_children(x, kids))[0]


def conjuncts(e: Expr) -> list[Expr]:
    """Flatten nested conjunctions into a list of conjuncts, left to right."""
    out: list[Expr] = []
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, BoolOp) and x.op == "and":
            stack += reversed(x.args)
        else:
            out.append(x)
    return out


def conjunction(parts: Iterable[Expr]) -> Expr:
    parts = list(parts)
    if not parts:
        return Const(True)
    if len(parts) == 1:
        return parts[0]
    return BoolOp("and", tuple(parts))


def disjunction(parts: Iterable[Expr]) -> Expr:
    parts = list(parts)
    if not parts:
        return Const(False)
    if len(parts) == 1:
        return parts[0]
    return BoolOp("or", tuple(parts))


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """Derive an unused attribute name by priming the base name."""
    taken = set(taken)
    name = base
    while name in taken:
        name += "'"
    return name


# ---------------------------------------------------------------------------
# operators
#
# eq=False keeps identity semantics: nodes hash by object identity, which is
# what dictionaries keyed by graph node need. Structure comes from the
# dataclass fields: the fields annotated ``Node`` are the children, in
# declaration order, and every other field is the operator's own data.
# ``children``, ``schema`` and ``lineage`` are cached on first use (or
# declared on the class), which immutability makes sound. A malformed node
# builds; its SchemaError surfaces when its schema is first read.


def _need(attrs: Iterable[str], sch: tuple[str, ...], what: str) -> None:
    missing = set(attrs) - set(sch)
    if missing:
        raise SchemaError(f"{what}: unresolved attribute(s) {sorted(missing)} in schema {list(sch)}")


def concat_qualified(left: tuple[str, ...], right: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Concatenate two schemas, priming right-side names that collide.

    Returns (output schema, output names of the right side aligned with its
    own attribute order).
    """
    out = list(left)
    right_out = []
    for a in right:
        name = fresh_name(a, out)
        out.append(name)
        right_out.append(name)
    return tuple(out), tuple(right_out)


@cache
def _field_names(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(child field names, own field names) of an operator class."""
    kids: list[str] = []
    own: list[str] = []
    for f in fields(cls):
        (kids if f.type == "Node" else own).append(f.name)
    return tuple(kids), tuple(own)


@dataclass(frozen=True, eq=False)
class Node:
    """Base class for algebra operators."""

    @cached_property
    def children(self) -> tuple["Node", ...]:
        return tuple(getattr(self, name) for name in _field_names(type(self))[0])

    @cached_property
    def descendants(self) -> tuple["Node", ...]:
        """Every node reachable from this one except itself, children before
        parents; iterative, so a graph of any depth is walked at any
        recursion limit. Read it through :func:`all_nodes`. The node itself
        is left out so that the cached tuple makes no reference cycle, which
        only the cyclic garbage collector could free."""
        seen: dict[Node, None] = {}
        nodes, kids = [self], [iter(self.children)]
        while nodes:
            for c in kids[-1]:
                if c not in seen:
                    nodes.append(c)
                    kids.append(iter(c.children))
                    break
            else:
                kids.pop()
                seen[nodes.pop()] = None
        return tuple(seen)[:-1]  # the node itself finishes last

    @property
    def schema(self) -> tuple[str, ...]:
        """Output schema; each operator computes it from its children's."""
        raise SchemaError(f"unknown operator {type(self).__name__}")

    @property
    def lineage(self) -> tuple[Optional[dict[str, str]], ...]:
        """Column lineage, per input: the output columns passing its columns
        through unchanged. None is all of them under their own names, else
        a dict maps output column to input column (shared: do not change)."""
        raise TypeError(f"operator {type(self).__name__} declares no column lineage")


@dataclass(frozen=True, eq=False)
class Relation(Node):
    name: str
    attrs: tuple[str, ...]
    lineage = ()  # a class attribute, not a field

    @cached_property
    def schema(self):
        if len(set(self.attrs)) != len(self.attrs):
            raise SchemaError(f"relation {self.name}: duplicate attribute names")
        return self.attrs


@dataclass(frozen=True, eq=False)
class Select(Node):
    cond: Expr
    child: Node
    lineage = (None,)  # a class attribute, not a field

    @cached_property
    def schema(self):
        sch = self.child.schema
        _need(expr_attrs(self.cond), sch, "selection condition")
        return sch


@dataclass(frozen=True, eq=False)
class Project(Node):
    #: (expression, output name) pairs, in output order
    targets: tuple[tuple[Expr, str], ...]
    child: Node
    #: sqlgen fence: emit this node as a non-mergeable subquery
    materialize: bool = False

    @cached_property
    def schema(self):
        sch = self.child.schema
        out = []
        for expr, name in self.targets:
            _need(expr_attrs(expr), sch, f"projection target {name}")
            if name in out:
                raise SchemaError(f"duplicate output name {name!r} in projection")
            out.append(name)
        return tuple(out)

    @cached_property
    def lineage(self):
        return ({name: e.name for e, name in self.targets if isinstance(e, Attr)},)


@dataclass(frozen=True, eq=False)
class Product(Node):
    """Equi-join on pairwise equal attributes ``pairs`` (left attr, right
    attr); on no pairs, the cross product. Subclasses declare the fields."""

    @cached_property
    def qualified(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """:func:`concat_qualified` of the input schemas."""
        return concat_qualified(schema_of(self.left), schema_of(self.right))

    @cached_property
    def schema(self):
        ls, rs = self.left.schema, self.right.schema
        for a, b in self.pairs:
            _need((a,), ls, "join condition (left)")
            _need((b,), rs, "join condition (right)")
        return self.qualified[0]

    @cached_property
    def lineage(self):
        # the right input's columns, primed where they collide
        return None, dict(zip(self.qualified[1], self.right.schema))


@dataclass(frozen=True, eq=False)
class Join(Product):
    pairs: tuple[tuple[str, str], ...]
    left: Node
    right: Node


@dataclass(frozen=True, eq=False)
class Cross(Product):
    """Cross product: a join on no pairs."""

    pairs = ()  # a class attribute, not a field
    left: Node
    right: Node


@dataclass(frozen=True, eq=False)
class SetOp(Node):
    """Positional set operator: inputs of equal arity, left input's names."""

    left: Node
    right: Node

    @cached_property
    def schema(self):
        ls, rs = self.left.schema, self.right.schema
        if len(ls) != len(rs):
            raise SchemaError(f"{type(self).__name__.lower()}: inputs have different arity "
                              f"({len(ls)} vs {len(rs)})")
        return ls

    @cached_property
    def lineage(self):
        # positional: the right input's columns under the left input's names
        return None, dict(zip(schema_of(self.left), schema_of(self.right)))


@dataclass(frozen=True, eq=False)
class Union(SetOp):
    pass


@dataclass(frozen=True, eq=False)
class Intersect(SetOp):
    pass


@dataclass(frozen=True, eq=False)
class Diff(SetOp):
    pass


@dataclass(frozen=True, eq=False)
class Agg(Node):
    group_by: tuple[str, ...]
    #: (function, input attr, output attr) triples
    aggs: tuple[tuple[str, str, str], ...]
    child: Node

    @cached_property
    def schema(self):
        sch = self.child.schema
        _need(self.group_by, sch, "group-by")
        out = list(self.group_by)
        for fn, arg, name in self.aggs:
            if fn not in AGG_FNS:
                raise SchemaError(f"unknown aggregation function {fn!r}")
            _need((arg,), sch, f"aggregation {fn}({arg})")
            if name in out:
                raise SchemaError(f"duplicate output name {name!r} in aggregation")
            out.append(name)
        return tuple(out)

    @cached_property
    def lineage(self):
        return ({a: a for a in self.group_by},)


@dataclass(frozen=True, eq=False)
class DupElim(Node):
    child: Node
    lineage = (None,)  # a class attribute, not a field

    @cached_property
    def schema(self):
        return self.child.schema


@dataclass(frozen=True, eq=False)
class Window(Node):
    fn: str
    arg: str
    out: str
    partition_by: tuple[str, ...]
    order_by: tuple[str, ...]
    child: Node
    frame: str = FRAME_RUNNING
    lineage = (None,)  # a class attribute, not a field

    @cached_property
    def schema(self):
        sch = self.child.schema
        if self.fn not in AGG_FNS:
            raise SchemaError(f"unknown window function {self.fn!r}")
        _need((self.arg,), sch, "window argument")
        _need(self.partition_by, sch, "partition-by")
        _need(self.order_by, sch, "order-by")
        if self.out in sch:
            raise SchemaError(f"window output {self.out!r} duplicates an input attribute")
        if self.frame not in (FRAME_RUNNING, FRAME_PARTITION):
            raise SchemaError(f"unknown window frame {self.frame!r}")
        return sch + (self.out,)


def replace_children(node: Node, kids: tuple[Node, ...]) -> Node:
    """Copy a node with new children, preserving every other field. Within
    a :func:`sharing_subplans` scope one node over the same children is
    copied once, so plans rebuilt alike share the copy."""
    names = _field_names(type(node))[0]
    if len(kids) != len(names):
        raise GraphError(f"{type(node).__name__.lower()} takes {len(names)} "
                         f"child(ren), got {len(kids)}")
    tables = _SHARED.get()
    if tables is None:
        return replace(node, **dict(zip(names, kids)))
    key = (node, kids)
    copy = tables["copies"].get(key)
    if copy is None:
        copy = tables["copies"][key] = replace(node, **dict(zip(names, kids)))
    return copy


def over_schemas(node: Node, schemas: Iterable[tuple[str, ...]]) -> Node:
    """A copy of an operator over leaves of these schemas, to read its schema and lineage."""
    return replace(node, **dict(zip(_field_names(type(node))[0], (Relation("", s) for s in schemas))))


def schema_of(node: Node) -> tuple[str, ...]:
    """Output schema of an operator, cached on the node.

    On a first read the uncached descendants are computed children first,
    so a graph of any depth is read at any recursion limit. Raises
    SchemaError on unresolved attribute references or duplicate output
    names.
    """
    if "schema" not in node.__dict__:
        for n in uncached_nodes(node, lambda n: "schema" in n.__dict__):
            n.schema
    return node.schema


def uncached_nodes(node: Node, cached: Callable[[Node], bool]) -> Iterator[Node]:
    """The nodes of a graph not ``cached``, children first: the walk of
    :func:`all_nodes`, pruned at cached nodes, which the caller caches as
    they come; iterative, so any depth is walked at any recursion limit."""
    path = [] if cached(node) else [(node, iter(node.children))]
    while path:
        kid = next((c for c in path[-1][1] if not cached(c)), None)
        if kid is None:
            yield path.pop()[0]
        else:
            path.append((kid, iter(kid.children)))


def right_output_names(node: Node) -> tuple[str, ...]:
    """Output names of a product's right input, aligned with its schema."""
    if not isinstance(node, Product):
        raise GraphError("right_output_names applies to join/cross only")
    return node.qualified[1]


# ---------------------------------------------------------------------------
# the memo that plans built one after another share


#: the tables of the innermost :func:`sharing_subplans` scope, or None
_SHARED: ContextVar[Optional[dict]] = ContextVar("provopt_shared_subplans", default=None)


@contextmanager
def sharing_subplans() -> Iterator[None]:
    """A scope in which the plans built one after another share what they
    have in common. Node copies, instrumented subtrees, nodes the rewrite
    rules build over an existing node and bottom-up facts (keys,
    equivalence classes, cost estimates) are kept in its tables, so a plan
    that differs from an earlier one in one choice rebuilds and recomputes
    only what that choice changed.

    Every table is keyed by the identity of nodes it holds alive, never by
    structure: two equal but distinct subtrees stay two nodes, so no plan's
    DAG changes. The tables are dropped when the scope ends, also when it
    raises; a nested scope starts empty and the outer one resumes after
    it. :func:`provopt.optimizer.optimize` opens one per call."""
    token = _SHARED.set({"copies": {}})  # replace_children's, read on every copy
    try:
        yield
    finally:
        _SHARED.reset(token)


def shared_table(kind: str, owner: object = None) -> dict:
    """The innermost :func:`sharing_subplans` scope's table ``kind`` for
    ``owner``, created on first use; outside any scope, a fresh dict that
    only its caller sees. The owner is told apart by identity and held
    alive with its table; it is what the table's values depend on besides
    the nodes that key them (the declared keys, the statistics)."""
    tables = _SHARED.get()
    if tables is None:
        return {}
    entry = tables.get((kind, id(owner)))
    if entry is None:
        entry = tables[(kind, id(owner))] = (owner, {})
    return entry[1]


# ---------------------------------------------------------------------------
# graph utilities


def all_nodes(root: Node) -> list[Node]:
    """All nodes reachable from the root, children before parents. The order
    is computed once per root and cached on it, like ``schema``; each call
    returns a fresh list, which the caller may change."""
    return [*root.descendants, root]


def parent_map(root: Node) -> dict[Node, list[Node]]:
    """Parents of each node; a parent appears once per child slot."""
    parents: dict[Node, list[Node]] = {n: [] for n in all_nodes(root)}
    for n in parents:
        for c in n.children:
            parents[c].append(n)
    return parents


def rebuild_bottom_up(root: Node, step: Callable[[Node, Node], Node]) -> Node:
    """Rebuild a graph children first, in :func:`all_nodes` order, preserving
    sharing: ``step(original, rebuilt)`` gets each node and its copy over the
    rebuilt children (the node itself when none changed) and returns what
    takes its place. Returns the root itself when no step changed anything."""
    new: dict[Node, Node] = {}  # the nodes that changed
    for n in all_nodes(root):
        kids = tuple([new.get(c, c) for c in n.children]) if new else None  # none changed yet
        out = step(n, n if kids is None or all(map(is_, kids, n.children))
                   else replace_children(n, kids))
        if out is not n:
            new[n] = out
    return new.get(root, root)


def substitute(root: Node, target: Node, replacement: Node, *, check_schema: bool = True) -> Node:
    """Return the graph with one node replaced, preserving sharing.

    Every parent of the target ends up referencing the replacement; nodes not
    on a path to the target are reused as-is. The replacement may itself
    contain the target (wrapping a subgraph is the common case).
    """
    if target not in set(all_nodes(root)):
        raise GraphError("substitution target is not part of the graph")
    if check_schema and schema_of(target) != schema_of(replacement):
        raise SchemaError("replacement schema differs from target schema "
                          f"({list(schema_of(replacement))} vs {list(schema_of(target))})")
    return rebuild_bottom_up(root, lambda n, rebuilt: replacement if n is target else rebuilt)


def identity_targets(attrs: Iterable[str]) -> tuple[tuple[Expr, str], ...]:
    """Projection targets that pass attributes through unchanged."""
    return tuple((Attr(a), a) for a in attrs)


def structurally_equal(a: Node, b: Node) -> bool:
    """Compare two graphs by shape and fields, ignoring node identity.

    One work list holds pairs of nodes, of expressions and of the tuples
    and values in their fields, and each pair is compared once, so shared
    subgraphs and subexpressions cost linear time; iterative, so graphs
    and expressions of any depth compare at any recursion limit. Values
    that are neither compare with ``==``, as the dataclasses' own ``==``
    does.
    """
    compared: set[tuple[int, int]] = set()  # both graphs hold every pair alive
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        if x is y or (id(x), id(y)) in compared:
            continue
        compared.add((id(x), id(y)))
        if is_dataclass(x):  # a node or an expression
            if type(x) is not type(y):
                return False
            pairs.extend(zip(_field_values(x), _field_values(y)))
        elif isinstance(x, tuple) and isinstance(y, tuple):
            if len(x) != len(y):
                return False
            pairs.extend(zip(x, y))
        elif x != y:
            return False
    return True


def _field_values(x) -> tuple:
    """Every dataclass field of a node or expression, children first."""
    return tuple(getattr(x, name) for part in _field_names(type(x)) for name in part)
