"""Relational algebra intermediate representation.

Operators form an immutable rooted DAG: a query graph is identified by its
root operator, and a node may be referenced by several parents (shared
subexpression). Expressions are hash-consed: equal ones are one object,
compared and hashed by identity. Operator nodes compare by identity but are
not hash-consed, so equal subtrees can be distinct parts of one graph.
Every walk that computes one value per subexpression (rewriting, compiling,
printing, costing) is a :func:`fold_expr` step, so a subexpression is
visited once and any depth is walked at any recursion limit. A pass whose
parts need parts of their own done first (reading a plan, settling joins)
is a generator run by :func:`drive`, for the same reason.

A cross product is a join on no attribute pairs: both are :class:`Product`
nodes, and a pass handles them as one operator that reads ``pairs``. Each
pass over operators keeps, in its own module, one :class:`PassTable` from
operator class to its step, looked up along the class's MRO, so ``Join``
and ``Cross`` share ``Product``'s step; this module imports no pass.

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
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property, partial
from operator import attrgetter, is_
from typing import Callable, Container, Generator, Iterable, Iterator, Mapping, Optional, TypeVar, Union
from weakref import ref


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


#: (class, fields) -> a weak reference to the expression, dropped when it dies
_INTERNED: dict[tuple, ref] = {}


class _HashConsed(type):
    """The expression classes' type, which hash-conses them (Filliâtre and
    Conchon, 2006): a call returns the live expression of its class and
    fields, a subexpression keyed by identity and a constant by its type
    and ``repr`` (``1``, ``1.0`` and ``True`` are three, ``0.0`` and
    ``-0.0`` two), else builds it with ``size``, its tree's node count, and
    ``attrs``, the attribute names it references, from its children's."""

    def __call__(cls, *fields):
        key = (cls, *fields) if cls is not Const else (cls, type(fields[0]), repr(fields[0]))
        e = (known := _INTERNED.get(key)) and known()
        if e is None:
            e = super().__call__(*fields)
            # a child that is not an expression is reported by the walks and expr_attrs
            kids = expr_children(e)
            object.__setattr__(e, "size", 1 + sum(getattr(c, "size", 1) for c in kids))
            attrs = [_attrs(c) for c in kids]
            object.__setattr__(e, "attrs", frozenset((e.name,)) if cls is Attr
                               else None if None in attrs else frozenset().union(*attrs))
            _INTERNED[key] = ref(e, partial(_INTERNED.pop, key))
        return e


@dataclass(frozen=True, eq=False)
class Attr(metaclass=_HashConsed):
    name: str


@dataclass(frozen=True, eq=False)
class Const(metaclass=_HashConsed):
    value: Value


@dataclass(frozen=True, eq=False)
class Arith(metaclass=_HashConsed):
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        if self.op not in ARITH_OPS:
            raise AlgebraError(f"unknown arithmetic operator {self.op!r}")


@dataclass(frozen=True, eq=False)
class Cmp(metaclass=_HashConsed):
    op: str
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise AlgebraError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True, eq=False)
class BoolOp(metaclass=_HashConsed):
    op: str
    args: tuple["Expr", ...]

    def __post_init__(self):
        if self.op not in BOOL_OPS:
            raise AlgebraError(f"unknown boolean operator {self.op!r}")
        if self.op == "not" and len(self.args) != 1:
            raise AlgebraError("'not' takes exactly one operand")
        if self.op in ("and", "or") and len(self.args) < 1:
            raise AlgebraError(f"'{self.op}' needs at least one operand")


@dataclass(frozen=True, eq=False)
class Cond(metaclass=_HashConsed):
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


def _attrs(x) -> Optional[frozenset[str]]:
    """An expression's ``attrs``; None for a value that is not an
    expression, or an expression with such a part."""
    return x.attrs if type(x) in _EXPR_CHILDREN else None


def expr_attrs(e: Expr) -> frozenset[str]:
    """All attribute names referenced by an expression, kept on it; raises
    AlgebraError naming a part that is not an expression."""
    while _attrs(e) is None:
        e = next(c for c in expr_children(e) if _attrs(c) is None)
    return e.attrs


def fold_expr(roots: Iterable[Expr], step: Callable[[Expr, tuple], T]) -> list[T]:
    """Fold expressions children first: ``step(x, kid_values)`` gets a
    subexpression and the values of its :func:`expr_children`, in that
    order, and returns the subexpression's value; one value per root comes
    back. A subexpression met again within or across the roots is folded
    once. Iterative, so any depth is folded at any recursion limit."""
    roots = tuple(roots)
    done: dict[Expr, T] = {}
    children = _EXPR_CHILDREN.get  # expr_children, inlined
    for root in roots:
        if root in done:
            continue
        path = [(root, expr_children(root))]  # (subexpression, its children) from the root down
        while path:
            x, kids = path[-1]
            for c in kids:
                if c not in done:
                    grandkids = children(type(c), _not_an_expression)(c)
                    if grandkids:
                        path.append((c, grandkids))
                        break
                    done[c] = step(c, ())  # a leaf folds in place
            else:
                path.pop()
                done[x] = step(x, tuple([done[c] for c in kids]))
    return [done[r] for r in roots]


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


def fresh_name(base: str, taken: Container[str]) -> str:
    """Derive an unused attribute name by priming the base name. ``taken``
    is only tested for membership, never copied: a caller naming several
    columns keeps one set and adds each name it takes."""
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
    taken = set(left)
    right_out = []
    for a in right:
        name = fresh_name(a, taken)
        taken.add(name)
        right_out.append(name)
    return tuple(left) + tuple(right_out), tuple(right_out)


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
        have, out = set(sch), {}
        for expr, name in self.targets:
            if not have.issuperset(expr_attrs(expr)):
                _need(expr_attrs(expr), sch, f"projection target {name}")
            if name in out:
                raise SchemaError(f"duplicate output name {name!r} in projection")
            out[name] = None
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
        have_left, have_right = set(ls), set(rs)
        for a, b in self.pairs:
            if a not in have_left:
                _need((a,), ls, "join condition (left)")
            if b not in have_right:
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
        have, out = set(sch), {}
        if not have.issuperset(self.group_by):
            _need(self.group_by, sch, "group-by")
        for name in self.group_by:
            if name in out:
                raise SchemaError(f"duplicate output name {name!r} in aggregation")
            out[name] = None
        for fn, arg, name in self.aggs:
            if fn not in AGG_FNS:
                raise SchemaError(f"unknown aggregation function {fn!r}")
            if arg not in have:
                _need((arg,), sch, f"aggregation {fn}({arg})")
            if name in out:
                raise SchemaError(f"duplicate output name {name!r} in aggregation")
            out[name] = None
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


class PassTable(dict):
    """One pass's step per operator class. ``table[cls]`` is the step of
    ``cls``'s nearest base in the table along its MRO, so ``Join`` and
    ``Cross`` share ``Product``'s, kept under ``cls`` once found; calling the
    table runs the node's step. A class in ``unsupported``, or with no step,
    raises ``error(cls)``, the error the pass gives an operator it does not
    handle (by default a TypeError naming the pass)."""

    def __init__(self, name: str, steps: Mapping[type, Callable],
                 unsupported: Iterable[type] = (),
                 error: Optional[Callable[[type], Exception]] = None):
        super().__init__(steps)
        self.name, self.unsupported = name, frozenset(unsupported)
        self.error = error or (lambda cls: TypeError(f"no {name} step for operator {cls.__name__}"))

    def __missing__(self, cls: type) -> Callable:
        for base in cls.__mro__:
            if base in self.unsupported:
                break
            if base in self:
                step = self[cls] = self[base]
                return step
        raise self.error(cls)

    def __call__(self, node: Node, *args):
        return self[type(node)](node, *args)


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


def drive(walk: Generator) -> object:
    """Run a generator to its result. A walk yields the walk of each part
    it needs done and is sent back that part's result, so this one loop
    runs every level and any depth runs at any recursion limit."""
    stack, result = [walk], None
    while stack:
        try:
            part = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(part)
            result = None
    return result


def fold_down(root: Node, top: T, through: Callable[[Node, int, T], T], meet: Callable[[T, T], T],
              finish: Optional[Callable[[Node, T], T]] = None) -> dict[Node, T]:
    """Fold a graph parents first, in reverse :func:`all_nodes` order: the
    root's value is ``top``; every other node's is ``meet`` over its parent
    slots of ``through(parent, child index, the parent's value)``, passed
    through ``finish(node, met)`` when given. A parent's value is final
    before its children's are met. Returns the values, the root's first."""
    value: dict[Node, T] = {}
    met = {root: top}
    for n in reversed(all_nodes(root)):
        value[n] = met[n] if finish is None or n is root else finish(n, met[n])
        for idx, child in enumerate(n.children):
            v = through(n, idx, value[n])
            met[child] = meet(met[child], v) if child in met else v
    return value


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

    One work list holds pairs of nodes and of the tuples and values in
    their fields, and each pair is compared once, so shared subgraphs cost
    linear time; iterative, so graphs of any depth compare at any recursion
    limit. Values that are not nodes, expressions among them, compare with
    ``==``, which for an expression is ``is``: ``Const(1)`` and
    ``Const(1.0)`` differ.
    """
    compared: set[tuple[int, int]] = set()  # both graphs hold every pair alive
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        if x is y or (id(x), id(y)) in compared:
            continue
        compared.add((id(x), id(y)))
        if isinstance(x, Node):
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


def _field_values(x: Node) -> tuple:
    """Every dataclass field of a node, children first."""
    return tuple(getattr(x, name) for part in _field_names(type(x)) for name in part)
