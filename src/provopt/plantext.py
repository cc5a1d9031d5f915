"""Parenthesized prefix text format for algebra graphs.

Grammar (s-expressions; see README for the full reference)::

    node   := (rel NAME [(attrs NAME*)])
            | (select EXPR node)
            | (project TARGET+ node)          TARGET := (EXPR -> NAME)
            | (join COND node node)           COND   := (= NAME NAME) | (and (= NAME NAME)+)
            | (cross node node) | (union node node)
            | (intersect node node) | (diff node node)
            | (agg (groupby NAME*) (aggs (FN NAME -> NAME)+) node)
            | (dupelim node)
            | (window FN NAME -> NAME (partition NAME*) (order NAME*) [(frame running|partition)] node)

    EXPR   := NAME | NUMBER | "string" | true | false | null
            | (attr NAME) | (const LITERAL)
            | (OP EXPR EXPR) for OP in + - * / = <> < <= > >=
            | (and EXPR+) | (or EXPR+) | (not EXPR) | (if EXPR EXPR EXPR)

A bare name in expression position is an attribute reference. ``(rel NAME)``
without an inline attribute list requires a catalog mapping the relation name
to its schema. Printing always emits the inline attribute list, so a printed
plan parses back without a catalog and round-trips losslessly.
"""
from __future__ import annotations

import re
from collections import Counter
from typing import Mapping, Optional

from .algebra import (
    AGG_FNS, FRAME_PARTITION, FRAME_RUNNING,
    Agg, Arith, Attr, BoolOp, Cmp, Cond, Const, Cross, Diff, DupElim, Expr,
    Intersect, Join, Node, Product, Project, Relation, Select, SetOp, Union as UnionOp,
    Window, all_nodes, fold_expr,
)

#: the binary operators written ``(NAME node node)``, by name and by class
_BINARY = {"cross": Cross, "union": UnionOp, "intersect": Intersect, "diff": Diff}
_BINARY_NAME = {cls: name for name, cls in _BINARY.items()}


class PlanSyntaxError(Exception):
    """Parse failure with a 1-based line/column position."""

    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN = re.compile(r"""\(|\)|"(?:[^"\\]|\\.)*"|[^\s()";]+""")
_NUMBER = re.compile(r"^-?\d+(\.\d+)?$")
_BARE = re.compile(r"^[A-Za-z_][A-Za-z0-9_#'.]*$")


class _Tok:
    __slots__ = ("text", "line", "col")

    def __init__(self, text, line, col):
        self.text, self.line, self.col = text, line, col


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split(";", 1)[0]  # ; starts a comment
        for m in _TOKEN.finditer(body):
            toks.append(_Tok(m.group(0), lineno, m.start() + 1))
    return toks


def _read(toks: list[_Tok], pos: int):
    """Read one s-expression; returns (tree, next position)."""
    if pos >= len(toks):
        last = toks[-1] if toks else _Tok("", 1, 1)
        raise PlanSyntaxError("unexpected end of input", last.line, last.col)
    t = toks[pos]
    if t.text == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(toks):
                raise PlanSyntaxError("missing closing parenthesis", t.line, t.col)
            if toks[pos].text == ")":
                return (t, items), pos + 1
            item, pos = _read(toks, pos)
            items.append(item)
    if t.text == ")":
        raise PlanSyntaxError("unexpected ')'", t.line, t.col)
    return t, pos + 1


def _is_atom(x) -> bool:
    return isinstance(x, _Tok)


def _err(x, msg: str):
    tok = x if _is_atom(x) else x[0]
    raise PlanSyntaxError(msg, tok.line, tok.col)


def _atom_text(x, what: str) -> str:
    if not _is_atom(x):
        _err(x, f"expected {what}")
    return x.text


def _name_text(x, what: str) -> str:
    """Attribute/relation name; quoted when not a bare identifier."""
    text = _atom_text(x, what)
    if text.startswith('"'):
        return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    return text


def _parse_literal(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "null":
        return None
    if text.startswith('"'):
        return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if _NUMBER.match(text):
        return float(text) if "." in text else int(text)
    return None if text == "null" else text


_EXPR_OPS = {"+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">="}


def parse_expr(x) -> Expr:
    if _is_atom(x):
        text = x.text
        if text.startswith('"') or _NUMBER.match(text) or text in ("true", "false", "null"):
            return Const(_parse_literal(text))
        if _BARE.match(text):
            return Attr(text)
        _err(x, f"cannot read expression atom {text!r}")
    head_tok, items = x
    if not items:
        _err(x, "empty expression")
    op = _atom_text(items[0], "operator")
    args = items[1:]
    if op == "attr":
        return Attr(_name_text(args[0], "attribute name"))
    if op == "const":
        return Const(_parse_literal(_atom_text(args[0], "literal")))
    if op in ("+", "-", "*", "/"):
        if len(args) != 2:
            _err(x, f"'{op}' takes two operands")
        return Arith(op, parse_expr(args[0]), parse_expr(args[1]))
    if op in ("=", "<>", "<", "<=", ">", ">="):
        if len(args) != 2:
            _err(x, f"'{op}' takes two operands")
        return Cmp(op, parse_expr(args[0]), parse_expr(args[1]))
    if op in ("and", "or"):
        return BoolOp(op, tuple(parse_expr(a) for a in args))
    if op == "not":
        return BoolOp("not", (parse_expr(args[0]),))
    if op == "if":
        if len(args) != 3:
            _err(x, "'if' takes condition, then, else")
        return Cond(parse_expr(args[0]), parse_expr(args[1]), parse_expr(args[2]))
    _err(x, f"unknown expression operator {op!r}")


def _parse_target(x) -> tuple[Expr, str]:
    if _is_atom(x) or len(x[1]) != 3 or _atom_text(x[1][1], "'->'") != "->":
        _err(x, "projection target must look like (EXPR -> NAME)")
    expr = parse_expr(x[1][0])
    name = _name_text(x[1][2], "output name")
    return expr, name


def _parse_name_list(x, head: str) -> tuple[str, ...]:
    if _is_atom(x):
        _err(x, f"expected ({head} ...)")
    _, items = x
    if not items or _atom_text(items[0], head) != head:
        _err(x, f"expected ({head} ...)")
    return tuple(_name_text(a, "name") for a in items[1:])


def _parse_join_cond(x) -> tuple[tuple[str, str], ...]:
    if _is_atom(x):
        _err(x, "join condition must be (= a b) or (and (= a b) ...)")
    _, items = x
    head = _atom_text(items[0], "join condition")
    if head == "=":
        if len(items) != 3:
            _err(x, "'=' takes two attribute names")
        return ((_name_text(items[1], "attribute"), _name_text(items[2], "attribute")),)
    if head == "and":
        if len(items) < 2:
            _err(x, "'and' needs at least one (= a b)")
        pairs = []
        for sub in items[1:]:
            pairs.extend(_parse_join_cond(sub))
        return tuple(pairs)
    _err(x, "join condition must be (= a b) or (and (= a b) ...)")


def parse_node(x, catalog: Optional[Mapping[str, tuple[str, ...]]]) -> Node:
    if _is_atom(x):
        _err(x, "expected an operator list")
    head_tok, items = x
    if not items:
        _err(x, "empty operator")
    kind = _atom_text(items[0], "operator name")
    args = items[1:]

    def node_arg(a):
        return parse_node(a, catalog)

    if kind == "rel":
        if not args:
            _err(x, "(rel ...) needs a relation name")
        name = _name_text(args[0], "relation name")
        if len(args) > 1:
            attrs = _parse_name_list(args[1], "attrs")
            return Relation(name, attrs)
        if catalog is None or name not in catalog:
            _err(x, f"relation {name!r} has no inline attributes and no catalog entry")
        return Relation(name, tuple(catalog[name]))
    if kind == "select":
        if len(args) != 2:
            _err(x, "(select EXPR node)")
        return Select(parse_expr(args[0]), node_arg(args[1]))
    if kind == "project":
        if len(args) < 2:
            _err(x, "(project TARGET+ node)")
        targets = tuple(_parse_target(a) for a in args[:-1])
        return Project(targets, node_arg(args[-1]))
    if kind == "join":
        if len(args) != 3:
            _err(x, "(join COND node node)")
        return Join(_parse_join_cond(args[0]), node_arg(args[1]), node_arg(args[2]))
    if kind in _BINARY:
        if len(args) != 2:
            _err(x, f"({kind} node node)")
        return _BINARY[kind](node_arg(args[0]), node_arg(args[1]))
    if kind == "agg":
        if len(args) != 3:
            _err(x, "(agg (groupby ...) (aggs ...) node)")
        group_by = _parse_name_list(args[0], "groupby")
        if _is_atom(args[1]):
            _err(args[1], "expected (aggs ...)")
        agg_items = args[1][1]
        if not agg_items or _atom_text(agg_items[0], "aggs") != "aggs":
            _err(args[1], "expected (aggs ...)")
        aggs = []
        for spec in agg_items[1:]:
            if _is_atom(spec) or len(spec[1]) != 4 or _atom_text(spec[1][2], "'->'") != "->":
                _err(spec, "aggregate must look like (FN attr -> out)")
            fn = _atom_text(spec[1][0], "aggregation function")
            if fn not in AGG_FNS:
                _err(spec, f"unknown aggregation function {fn!r}")
            aggs.append((fn, _name_text(spec[1][1], "attribute"), _name_text(spec[1][3], "output name")))
        return Agg(group_by, tuple(aggs), node_arg(args[2]))
    if kind == "dupelim":
        if len(args) != 1:
            _err(x, "(dupelim node)")
        return DupElim(node_arg(args[0]))
    if kind == "window":
        # (window FN attr -> out (partition ...) (order ...) [(frame ...)] node)
        if len(args) < 6:
            _err(x, "(window FN attr -> out (partition ...) (order ...) [(frame F)] node)")
        fn = _atom_text(args[0], "window function")
        arg_attr = _name_text(args[1], "attribute")
        if _atom_text(args[2], "'->'") != "->":
            _err(x, "window spec needs '->' before the output name")
        out = _name_text(args[3], "output name")
        partition = _parse_name_list(args[4], "partition")
        order = _parse_name_list(args[5], "order")
        frame = FRAME_RUNNING
        rest = args[6:]
        if len(rest) == 2:
            frame_items = _parse_name_list(rest[0], "frame")
            if len(frame_items) != 1 or frame_items[0] not in (FRAME_RUNNING, FRAME_PARTITION):
                _err(rest[0], "frame must be running or partition")
            frame = frame_items[0]
            rest = rest[1:]
        if len(rest) != 1:
            _err(x, "window takes exactly one input")
        return Window(fn, arg_attr, out, partition, order, node_arg(rest[0]), frame)
    _err(x, f"unknown operator {kind!r}")


def parse_plan(text: str, catalog: Optional[Mapping[str, tuple[str, ...]]] = None) -> Node:
    """Parse one plan; raises PlanSyntaxError with position info."""
    toks = _tokenize(text)
    if not toks:
        raise PlanSyntaxError("empty plan", 1, 1)
    tree, pos = _read(toks, 0)
    if pos != len(toks):
        t = toks[pos]
        raise PlanSyntaxError(f"trailing input {t.text!r}", t.line, t.col)
    return parse_node(tree, catalog)


# ---------------------------------------------------------------------------
# printing


def _format_literal(v) -> str:
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return repr(v)


def format_name(name: str) -> str:
    if _BARE.match(name) and name not in ("true", "false", "null", "->"):
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _format_step(x: Expr, kids: tuple[str, ...]) -> str:
    if isinstance(x, Attr):
        if _BARE.match(x.name) and x.name not in ("true", "false", "null"):
            return x.name
        return f"(attr {format_name(x.name)})"
    if isinstance(x, Const):
        return _format_literal(x.value)
    head = "if" if isinstance(x, Cond) else x.op
    return "(" + head + "".join(" " + k for k in kids) + ")"


def format_expr(e: Expr) -> str:
    return fold_expr((e,), _format_step)[0]


def format_plan(node: Node, *, indent: bool = False) -> str:
    """Render a graph in the plan text format (shared nodes are inlined)."""
    nodes = all_nodes(node)
    uses = Counter(c for n in nodes for c in n.children)
    text: dict[Node, str] = {}

    def names(seq) -> str:
        return " ".join(format_name(a) for a in seq)

    def fmt(n: Node) -> str:
        # a child's text is dropped after its last use, so a deep chain
        # holds one partial text at a time
        uses[n] -= 1
        return text[n] if uses[n] else text.pop(n)

    def render(n: Node) -> str:
        if isinstance(n, Relation):
            return f"(rel {format_name(n.name)} (attrs {names(n.attrs)}))"
        if isinstance(n, Select):
            return f"(select {format_expr(n.cond)} {fmt(n.child)})"
        if isinstance(n, Project):
            texts = fold_expr((e for e, _ in n.targets), _format_step)
            targets = " ".join(f"({t} -> {format_name(name)})"
                               for t, (_, name) in zip(texts, n.targets))
            return f"(project {targets} {fmt(n.child)})"
        if isinstance(n, Product) and n.pairs:
            eqs = [f"(= {format_name(a)} {format_name(b)})" for a, b in n.pairs]
            cond = eqs[0] if len(eqs) == 1 else "(and " + " ".join(eqs) + ")"
            return f"(join {cond} {fmt(n.left)} {fmt(n.right)})"
        if isinstance(n, (Product, SetOp)):
            # a join on no pairs prints as the cross product it is
            kind = "cross" if isinstance(n, Product) else _BINARY_NAME[type(n)]
            return f"({kind} {fmt(n.left)} {fmt(n.right)})"
        if isinstance(n, Agg):
            aggs = " ".join(f"({fn} {format_name(arg)} -> {format_name(out)})"
                            for fn, arg, out in n.aggs)
            return f"(agg (groupby {names(n.group_by)}) (aggs {aggs}) {fmt(n.child)})"
        if isinstance(n, DupElim):
            return f"(dupelim {fmt(n.child)})"
        if isinstance(n, Window):
            frame = "" if n.frame == FRAME_RUNNING else f" (frame {n.frame})"
            return (f"(window {n.fn} {format_name(n.arg)} -> {format_name(n.out)}"
                    f" (partition {names(n.partition_by)})"
                    f" (order {names(n.order_by)}){frame} {fmt(n.child)})")
        raise TypeError(f"unknown operator {type(n).__name__}")

    for n in nodes:
        text[n] = render(n)
    return _indent_sexpr(text[node]) if indent else text[node]


def _indent_sexpr(text: str) -> str:
    out = []
    depth = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            if out and out[-1] != "\n":
                out.append("\n" + "  " * depth)
            out.append(ch)
            depth += 1
        elif ch == ")":
            depth -= 1
            out.append(ch)
        else:
            out.append(ch)
        i += 1
    return "".join(out).lstrip("\n")
