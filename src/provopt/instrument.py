"""Provenance instrumentation and update reenactment.

``instrument_query`` rewrites a query so that evaluating the rewritten
query yields the relational provenance encoding: the original columns
followed by one block of duplicated witness columns per base-relation
occurrence. Aggregations can be instrumented two equivalent ways (joining
the aggregate back to the witness rows, or recomputing it as a window over
them); the choice goes through a callback so a cost-based optimizer can
drive it. Operators are rewritten children first, in one loop over
:func:`~provopt.algebra.all_nodes`, which is the order of the choices, each
by its step in one table, :data:`INSTRUMENT`; every step is looked up
first, so an operator outside the fragment is rejected before the first
choice. Within a :func:`~provopt.algebra.sharing_subplans` scope an
operator rewritten over the same instrumented inputs, with the same
occurrence number or method, is the same node, so the plans of one
optimization share their unchanged subtrees.

``reenact`` compiles a sequence of updates against one relation into a
stack of conditional projections over the pre-state, and
``scope_to_updated`` narrows a reenactment to the tuples the transaction
actually touched, either by filtering on the disjunction of the updates'
conditions or by joining against the post-commit version from a
:class:`VersionedStore`; either narrowed input takes the base's place
through :func:`~provopt.algebra.substitute`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Callable, Iterable, Optional

from .algebra import (
    Agg, Arith, Attr, BoolOp, Cmp, Cond, Const, Cross, Diff, DupElim, Expr, Intersect, Join,
    Node, PassTable, Product, Project, Relation, Select, Union, Window,
    FRAME_PARTITION, all_nodes, disjunction, expr_attrs, fresh_name, identity_targets,
    replace_children, schema_of, shared_table, substitute, substitute_attrs,
)
from .executor import BagRelation, EvalError, columns_getter, updated_rows


class InstrumentError(Exception):
    """Unsupported operator or schema problem during instrumentation."""


AGG_WINDOW = 0
AGG_JOIN = 1

ChoiceFn = Callable[[int], int]


def prov_attr_name(rel: str, occurrence: int, attr: str) -> str:
    """SQL-safe name for a duplicated provenance column."""
    return f"prov_{rel}_{occurrence}_{attr}"


@dataclass
class _Instrumented:
    node: Node
    prov_attrs: tuple[str, ...]  # provenance columns, in leaf order


def instrument_query(root: Node, choice: Optional[ChoiceFn] = None,
                     agg_method: Optional[str] = None) -> Node:
    """Rewrite a query to produce its relational provenance encoding.

    The output schema is the original schema followed by the provenance
    columns. ``choice`` is consulted once per aggregation (0 selects the
    window method, 1 the join method); ``agg_method`` forces one method for
    every aggregation and bypasses the callback.
    """
    if agg_method not in (None, "window", "join", "cbo"):
        raise InstrumentError(f"unknown aggregation method {agg_method!r}")
    if agg_method == "window":
        decide: ChoiceFn = lambda n: AGG_WINDOW
    elif agg_method == "join":
        decide = lambda n: AGG_JOIN
    else:
        decide = choice if choice is not None else (lambda n: AGG_WINDOW)

    nodes = all_nodes(root)
    steps = [INSTRUMENT[type(n)] for n in nodes]  # an unsupported operator raises before any choice
    occurrences: dict[str, int] = {}
    memo: dict[Node, _Instrumented] = {}

    # an operator's instrumentation is a function of the operator, its
    # instrumented inputs and its argument, so plans alike share it
    shared = shared_table("instrumented")
    for n, step in zip(nodes, steps):
        if isinstance(n, Relation):
            arg = occurrences.get(n.name, 0)
            occurrences[n.name] = arg + 1
        else:
            arg = decide(2) if isinstance(n, Agg) else None
        inputs = [memo[c] for c in n.children]
        key = (n, arg, *[i.node for i in inputs])
        inst = shared.get(key)
        if inst is None:
            inst = shared[key] = step(n, arg, inputs)
        memo[n] = inst
    inst = memo[root]
    want = schema_of(root) + inst.prov_attrs
    if schema_of(inst.node) == want:
        return inst.node
    # joins interleave the left input's provenance columns with the right
    # input's original ones; normalize to originals-then-provenance
    normalized = shared_table("instrumented_roots")
    key = (root, inst.node)
    if key not in normalized:
        normalized[key] = Project(identity_targets(want), inst.node)
    return normalized[key]


def _relation_witness(n: Relation, occurrence: int, inputs: list) -> _Instrumented:
    prov = tuple(prov_attr_name(n.name, occurrence, a) for a in n.attrs)
    targets = identity_targets(n.attrs) + tuple((Attr(a), p) for a, p in zip(n.attrs, prov))
    return _Instrumented(Project(targets, n), prov)


def _both_witnesses(n: Node, left: _Instrumented, right: _Instrumented) -> tuple[str, ...]:
    """The provenance columns of a binary operator's inputs, left's first."""
    overlap = set(left.prov_attrs) & set(right.prov_attrs)
    if overlap:
        raise InstrumentError(
            f"provenance columns collide across {type(n).__name__.lower()} inputs: "
            f"{sorted(overlap)}; a relation read by both inputs must be two "
            "distinct relation occurrences")
    return left.prov_attrs + right.prov_attrs


def _union_witness(n: Union, arg, inputs: list) -> _Instrumented:
    """Each input's rows, padded with nulls for the other input's witness."""
    left, right = inputs
    prov = _both_witnesses(n, left, right)
    lt = identity_targets(schema_of(n.left) + left.prov_attrs) + tuple(
        (Const(None), p) for p in right.prov_attrs)
    rt = (tuple((Attr(b), a) for a, b in n.lineage[1].items())
          + tuple((Const(None), p) for p in left.prov_attrs)
          + identity_targets(right.prov_attrs))
    return _Instrumented(Union(Project(lt, left.node), Project(rt, right.node)), prov)


#: each operator's rewrite, ``step(node, arg, its inputs' rewrites)``, where
#: ``arg`` is a relation's occurrence or an aggregation's method; an operator
#: outside the instrumentable fragment raises
INSTRUMENT = PassTable("instrument", {
    Relation: _relation_witness,
    Select: lambda n, arg, inputs: _Instrumented(Select(n.cond, inputs[0].node),
                                                 inputs[0].prov_attrs),
    Project: lambda n, arg, inputs: _Instrumented(
        Project(n.targets + identity_targets(inputs[0].prov_attrs), inputs[0].node),
        inputs[0].prov_attrs),
    Product: lambda n, arg, inputs: _Instrumented(  # the inputs' witnesses are checked first
        prov_attrs=_both_witnesses(n, *inputs),
        node=replace_children(n, (inputs[0].node, inputs[1].node))),
    Union: _union_witness,
    Agg: lambda n, method, inputs: _Instrumented(
        (instrument_agg_window if method == AGG_WINDOW else instrument_agg_join)(
            n, inputs[0].node, inputs[0].prov_attrs), inputs[0].prov_attrs),
    # provenance rows are per-witness; eliminating duplicates would collapse
    # distinct witnesses, so the operator is dropped
    DupElim: lambda n, arg, inputs: inputs[0],
}, unsupported=(Intersect, Diff, Window), error=lambda cls: InstrumentError(
    f"operator {cls.__name__} is outside the instrumentable fragment"))


def instrument_agg_join(agg: Agg, instrumented_child: Node,
                        prov_attrs: tuple[str, ...]) -> Node:
    """Join method: compute the original aggregate, then attach witness rows
    by joining on the group-by attributes (renamed on the witness side).

    Without group-by attributes the join degenerates into a cross product
    with the single aggregate row.
    """
    out_schema = schema_of(agg)
    taken = set(out_schema) | set(prov_attrs)
    if agg.group_by:
        fresh = []
        for g in agg.group_by:
            name = fresh_name(g, taken)
            taken.add(name)
            fresh.append(name)
        witness = Project(
            tuple((Attr(g), f) for g, f in zip(agg.group_by, fresh))
            + identity_targets(prov_attrs),
            instrumented_child)
        joined: Node = Join(tuple(zip(agg.group_by, fresh)), agg, witness)
    else:
        witness = Project(identity_targets(prov_attrs), instrumented_child)
        joined = Cross(agg, witness)
    return Project(identity_targets(out_schema) + identity_targets(prov_attrs), joined)


def instrument_agg_window(agg: Agg, instrumented_child: Node,
                          prov_attrs: tuple[str, ...]) -> Node:
    """Window method: recompute each aggregate over the witness rows with a
    whole-partition window partitioned by the group-by attributes. An output
    that reuses an input column's name is computed under a fresh name, which
    the projection renames."""
    node: Node = instrumented_child
    names: dict[str, str] = {}
    for fn, arg, out in agg.aggs:
        names[out] = fresh_name(out, schema_of(node))
        node = Window(fn, arg, names[out], agg.group_by, (), node, FRAME_PARTITION)
    return Project(tuple((Attr(names.get(a, a)), a) for a in schema_of(agg))
                   + identity_targets(prov_attrs), node)


# ---------------------------------------------------------------------------
# update reenactment


@dataclass(frozen=True)
class UpdateStmt:
    """UPDATE <relation> SET attr = expr, ... WHERE cond."""

    relation: str
    set_clauses: tuple[tuple[str, Expr], ...]
    where: Expr


def reenact(updates: list[UpdateStmt], base: Optional[Node] = None,
            schema: Optional[Iterable[str]] = None) -> Node:
    """Compile updates over one relation into stacked conditional projections.

    The innermost projection reenacts the first update; an empty update list
    yields the base relation itself. Evaluating the result over the
    pre-transaction state produces the post-transaction state.
    """
    if base is None:
        if not updates or schema is None:
            raise InstrumentError("reenact needs a base node or a relation schema")
        base = Relation(updates[0].relation, tuple(schema))
    if not updates:
        return base
    rel = updates[0].relation
    if any(u.relation != rel for u in updates):
        raise InstrumentError("all updates of one reenactment must target the same relation")
    node = base
    base_schema = schema_of(base)
    for u in updates:
        node = Project(update_targets(u, base_schema), node)
    return node


def update_targets(u: UpdateStmt, schema: tuple[str, ...]) -> tuple[tuple[Expr, str], ...]:
    """Projection targets expressing one update as conditional assignments."""
    assigned = dict(u.set_clauses)
    unknown = set(assigned) - set(schema)
    if unknown:
        raise InstrumentError(f"update assigns unknown attribute(s) {sorted(unknown)}")
    unknown = set(expr_attrs(u.where)) - set(schema)
    for _, e in u.set_clauses:
        unknown |= set(expr_attrs(e)) - set(schema)
    if unknown:
        raise InstrumentError(f"update references unknown attribute(s) {sorted(unknown)}")
    targets = []
    for a in schema:
        if a in assigned:
            targets.append((Cond(u.where, assigned[a], Attr(a)), a))
        else:
            targets.append((Attr(a), a))
    return tuple(targets)


def replay(updates: list[UpdateStmt], state: BagRelation,
           on_match: Optional[Callable[[dict], None]] = None) -> BagRelation:
    """Imperative update application; oracle for the reenactment compiler.

    ``on_match`` is called with the attribute -> value environment of every
    tuple an update's condition matches, in scan order, before the update
    changes it.

    ``state`` is copied once and left unchanged. Each update evaluates its
    condition over the whole copy as one batch, then the expressions it
    assigns to attributes of the schema over the matched rows as another
    (:func:`~provopt.executor.updated_rows`), the last one for an attribute
    assigned twice; an assignment to an attribute outside the schema is
    never evaluated. An error is the one a row-at-a-time scan would raise
    first, each row's condition before its new values. Then it removes the
    matched rows and adds each one rebuilt around its new values, so only
    those rows are rewritten. The types each column may hold are scanned
    once and grown by the values assigned to it, so no condition scans the
    column it reads."""
    schema = state.schema
    width = len(schema)
    # an unassigned attribute keeps the value an expression reading it sees,
    # its name's last column, which a repeated name's earlier columns take
    # too, so their types start as the last column's as well
    index = {a: i for i, a in enumerate(schema)}
    kept = [index[a] for a in schema]
    tuples = dict(state.tuples)
    types = [frozenset(map(type, column)) for column in zip(*tuples)] or [frozenset()] * width
    types = [types[i] | types[j] for i, j in enumerate(kept)]
    for u in updates:
        assigned = dict(u.set_clauses)
        targets = [i for i, a in enumerate(schema) if a in assigned]
        # a matched row followed by its new values -> the row rebuilt around them
        picks = list(kept)
        for k, i in enumerate(targets):
            picks[i] = width + k
        rebuilt = columns_getter(picks)
        matched, new = updated_rows(u.where, [assigned[schema[i]] for i in targets],
                                    schema, list(tuples), types)
        if on_match is not None:
            for t in matched:
                on_match(dict(zip(schema, t)))
        counts = [tuples.pop(t) for t in matched]
        for row, m in zip(map(rebuilt, map(add, matched, new)), counts):
            tuples[row] = tuples.get(row, 0) + m
        for i, values in zip(targets, zip(*new)):
            types[i] = types[i].union(map(type, values))
    return BagRelation(schema, tuples)


def conditions_over_prestate(updates: list[UpdateStmt], schema: tuple[str, ...]) -> list[Expr]:
    """Each update's condition rewritten in terms of pre-transaction values.

    Update i sees the state after updates 1..i-1, so its condition is
    composed with the earlier updates' conditional assignments.
    """
    env: dict[str, Expr] = {a: Attr(a) for a in schema}
    out = []
    for u in updates:
        out.append(substitute_attrs(u.where, env))
        env = {**env, **{a: Cond(out[-1], substitute_attrs(e, env), env[a])
                         for a, e in u.set_clauses}}
    return out


# ---------------------------------------------------------------------------
# transaction scoping


FILTER_UPDATED = "filter"
HIST_JOIN = "histjoin"


@dataclass
class VersionedStore:
    """In-memory snapshot store with per-tuple last-updater tracking.

    Tuples are identified by a declared key, which updates must not assign;
    the store records, per key value, the last transaction whose condition
    matched the tuple.
    """

    snapshots: dict[str, dict[int, BagRelation]] = field(default_factory=dict)
    keys: dict[str, tuple[str, ...]] = field(default_factory=dict)
    last_updater: dict[str, dict[tuple, int]] = field(default_factory=dict)

    def load(self, name: str, rel: BagRelation, key: Optional[Iterable[str]] = None) -> None:
        self.snapshots[name] = {0: rel}
        if key:
            self.keys[name] = tuple(key)
        self.last_updater.setdefault(name, {})

    def apply_transaction(self, txn_id: int, updates: list[UpdateStmt]) -> None:
        """Run the updates sequentially, snapshot the commit state, and mark
        the tuples some update matched."""
        if not updates:
            raise InstrumentError("empty transaction")
        name = updates[0].relation
        if name not in self.snapshots:
            raise EvalError(f"relation {name!r} not loaded")
        key = self.keys.get(name)
        if key:
            for u in updates:
                overlap = {a for a, _ in u.set_clauses} & set(key)
                if overlap:
                    raise InstrumentError(
                        f"update assigns key attribute(s) {sorted(overlap)}; "
                        "tracked relations need immutable keys")
        start = max(self.snapshots[name])
        touched: set[tuple] = set()
        on_match = (lambda env: touched.add(tuple(env[k] for k in key))) if key else None
        self.snapshots[name][start + 1] = replay(updates, self.snapshots[name][start], on_match)
        if key:
            marks = self.last_updater.setdefault(name, {})
            for kv in touched:
                marks[kv] = txn_id

    def updated_keys(self, txn_id: int, name: str) -> BagRelation:
        """Key values of tuples whose last updater is the transaction."""
        if name not in self.keys:
            raise InstrumentError(f"relation {name!r} has no declared key; "
                                  "the history join needs one")
        key = self.keys[name]
        out = BagRelation(key)
        for kv, txn in self.last_updater.get(name, {}).items():
            if txn == txn_id:
                out.add(kv, 1)
        return out


def scope_to_updated(reenact_root: Node, updates: list[UpdateStmt],
                     store: Optional[VersionedStore], method: str,
                     txn_id: Optional[int] = None
                     ) -> tuple[Node, dict[str, BagRelation]]:
    """Restrict a reenactment to tuples the transaction modified.

    Returns the rewritten graph plus extra relations that must be bound when
    evaluating it (the history join materializes the updated key set from
    the store).
    """
    base = reenact_root
    while isinstance(base, Project):
        base = base.child
    schema = schema_of(base)
    if method == FILTER_UPDATED:
        cond = disjunction(conditions_over_prestate(updates, schema))
        return substitute(reenact_root, base, Select(cond, base)), {}
    if method == HIST_JOIN:
        if store is None or txn_id is None:
            raise InstrumentError("history join needs a store and transaction id")
        name = updates[0].relation
        keys = store.updated_keys(txn_id, name)
        key = store.keys[name]
        taken = set(schema)
        fresh = []
        for k in key:
            nk = fresh_name(k, taken)
            taken.add(nk)
            fresh.append(nk)
        keys_rel_name = f"updated_{name}_{txn_id}"
        keys_node = Project(
            tuple((Attr(a), f) for a, f in zip(key, fresh)),
            Relation(keys_rel_name, tuple(key)))
        joined = Join(tuple(zip(key, fresh)), base, keys_node)
        narrowed = Project(identity_targets(schema), joined)
        return substitute(reenact_root, base, narrowed), {keys_rel_name: keys}
    raise InstrumentError(f"unknown scoping method {method!r}")


# ---------------------------------------------------------------------------
# UPDATE micro-grammar


class UpdateSyntaxError(Exception):
    pass


#: a token (group 1), a character no token starts with (group 2) or the end
#: of the text, after any blanks and ``--`` comments; a string is matched
#: whole, so it may hold ``;`` and ``--``
_UPD_TOKEN = re.compile(
    r"(?:\s+|--[^\r\n]*)*(?:(<=|>=|<>|[-+*/=<>(),;]|'(?:[^']|'')*'|[A-Za-z_][A-Za-z0-9_]*"
    r"|\d+\.\d+|\d+)|(\S)|\Z)")


def parse_updates(text: str) -> list[UpdateStmt]:
    """Parse semicolon-terminated UPDATE statements.

        UPDATE R SET a = a + 2, b = 0 WHERE a = 1 AND b < 5;

    Expressions support comparisons, + - * /, AND/OR/NOT, parentheses,
    numbers, single-quoted strings, and TRUE/FALSE/NULL. ``--`` starts a
    line comment; a missing WHERE clause means every tuple matches. The
    text is read once, in order: a statement ends at a ``;`` token, so a
    string may hold ``;`` and ``--``. Operators bind by one precedence table,
    :data:`_LEVEL`; a SET value is read at the level of ``+ -``.
    """
    statements, toks = [], []
    for m in _UPD_TOKEN.finditer(text):
        t = m.group(1)
        if t is None:
            if m.group(2) is None:
                break
            raise UpdateSyntaxError(f"cannot read input at {text[m.start(2):m.start(2) + 20]!r}")
        if t != ";":
            toks.append(t)
        elif toks:
            statements.append(_parse_update(toks))
            toks = []
    if toks:
        statements.append(_parse_update(toks))
    return statements


#: each binary operator's precedence level; a higher level binds tighter. An
#: unparenthesized chain of AND or of OR is one BoolOp, a comparison takes
#: no comparison as its left operand, and arithmetic folds left
_LEVEL = {"OR": 1, "AND": 2, **dict.fromkeys(("=", "<>", "<", "<=", ">", ">="), 4),
          "+": 5, "-": 5, "*": 6, "/": 6}
_NOT, _CMP, _ATOM = 3, 4, 7
#: each prefix's level: NOT is a prefix only where a condition may start (a
#: floor of at most its level), a minus binds tighter than every binary
#: operator, and a parenthesis (0) holds a whole condition
_PREFIX = {"(": 0, "NOT": _NOT, "-": _ATOM}
_WORDS = {"TRUE": True, "FALSE": False, "NULL": None}
#: what an open operator builds, by level, from its operands and operators
#: in order (a prefix first); a minus folds into a number, not into a bool
_BUILD = {1: lambda p: BoolOp("or", tuple(p[::2])), 2: lambda p: BoolOp("and", tuple(p[::2])),
          _NOT: lambda p: BoolOp("not", (p[1],)), _CMP: lambda p: Cmp(p[1], p[0], p[2]),
          **dict.fromkeys((5, 6), lambda p: reduce(
              lambda e, i: Arith(p[i], e, p[i + 1]), range(1, len(p), 2), p[0])),
          _ATOM: lambda p: Const(-p[1].value) if isinstance(p[1], Const)
          and type(p[1].value) in (int, float) else Arith("-", Const(0), p[1])}


def _operand(t: str) -> Expr:
    """The constant or attribute a token is, told by its first character."""
    if t[0] == "'":
        return Const(t[1:-1].replace("''", "'"))
    if t[0].isdecimal():
        return Const(float(t) if "." in t else int(t))
    if t[0].isalpha() or t[0] == "_":
        up = t.upper()
        return Const(_WORDS[up]) if up in _WORDS else Attr(t)
    raise UpdateSyntaxError(f"cannot read expression at {t!r}")


def _next(toks: list[str]) -> str:
    """The next of a statement's tokens, which are kept last first."""
    if not toks:
        raise UpdateSyntaxError("unexpected end of statement")
    return toks.pop()


def _expect(toks: list[str], kw: str) -> None:
    t = _next(toks)
    if t.upper() != kw:
        raise UpdateSyntaxError(f"expected {kw}, found {t!r}")


def _expr(toks: list[str], floor: int) -> Expr:
    """The expression next whose operators have level ``floor`` or more
    (:data:`_LEVEL`), in one loop: each operator still open waits on a list
    with its level, its operands and operators so far and the floor outside
    it, so any nesting reads at any recursion limit."""
    opened: list[tuple[int, list, int]] = []
    while True:
        t = _next(toks)
        up = t.upper()
        if up in _PREFIX and (up != "NOT" or floor <= _NOT):
            opened.append((_PREFIX[up], [t], floor))
            floor = _PREFIX[up] or 1
            continue
        e, level = _operand(t), _ATOM
        while True:  # close operators until one takes e or the expression ends
            op = _LEVEL.get(toks[-1].upper()) if toks else None
            if opened and op == opened[-1][0] != _CMP:  # the open chain goes on
                opened[-1][1].extend((e, toks.pop()))
                break
            if op is not None and floor <= op < level:  # e is its left operand
                opened.append((op, [e, toks.pop()], floor))
                floor = op + 1
                break
            if not opened:
                return e
            level, parts, floor = opened.pop()
            if level:
                parts.append(e)
                e = _BUILD[level](parts)
            else:
                _expect(toks, ")")
                level = _ATOM


def _parse_update(toks: list[str]) -> UpdateStmt:
    toks.reverse()  # read by popping
    _expect(toks, "UPDATE")
    rel = _next(toks)
    _expect(toks, "SET")
    clauses = []
    while True:
        attr = _next(toks)
        _expect(toks, "=")
        clauses.append((attr, _expr(toks, _LEVEL["+"])))
        if not toks or toks[-1] != ",":
            break
        toks.pop()
    where: Expr = Const(True)
    if toks and toks[-1].upper() == "WHERE":
        toks.pop()
        where = _expr(toks, _LEVEL["OR"])
    if toks:
        raise UpdateSyntaxError(f"trailing input {toks[-1]!r}")
    return UpdateStmt(rel, tuple(clauses), where)
