"""Parenthesized prefix text format for algebra graphs.

Grammar (s-expressions; see README for the full reference)::

    node   := (rel NAME [(attrs NAME*)])
            | (select EXPR node)
            | (project TARGET+ node)          TARGET := (EXPR -> NAME)
            | (fence TARGET+ node)            a projection materialized as written
            | (join COND node node)           COND   := (= NAME NAME) | (and COND+)
            | (cross node node) | (union node node)
            | (intersect node node) | (diff node node)
            | (agg (groupby NAME*) (aggs (FN NAME -> NAME)*) node)
            | (dupelim node)
            | (window FN NAME -> NAME (partition NAME*) (order NAME*) [(frame running|partition)] node)

    EXPR   := NAME | NUMBER | "string" | true | false | null
            | (attr NAME) | (const LITERAL)
            | (OP EXPR EXPR) for OP in + - * / = <> < <= > >=
            | (and EXPR+) | (or EXPR+) | (not EXPR) | (if EXPR EXPR EXPR)

A bare name in expression position is an attribute reference. ``(rel NAME)``
without an inline attribute list requires a catalog mapping the relation name
to its schema. Printing always emits the inline attribute list, so a printed
plan parses back without a catalog and round-trips losslessly. One table of
forms drives the reader and the printer; a malformed plan is a
:class:`PlanSyntaxError`, which gives a form of the wrong length its usage line.
"""
from __future__ import annotations

import re
from collections import Counter, namedtuple
from types import GeneratorType
from typing import Iterator, Mapping, Optional

from .algebra import (
    AGG_FNS, ARITH_OPS, CMP_OPS, FRAME_PARTITION, FRAME_RUNNING,
    Agg, Arith, Attr, BoolOp, Cmp, Cond, Const, Cross, Diff, DupElim, Expr,
    Intersect, Join, Node, Product, Project, Relation, Select, Union as UnionOp,
    Window, all_nodes, drive, fold_expr,
)


class PlanSyntaxError(Exception):
    """Parse failure with a 1-based line/column position."""

    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{msg} (line {line}, column {col})")
        self.line = line
        self.col = col


#: a token, a ``;`` comment to the end of its line (group 1) or a quote that
#: no closing quote ends (group 2); a string is matched whole first, so it
#: may hold ``;`` and line breaks
_TOKEN = re.compile(r"""(;[^\r\n]*)|\(|\)|"(?:[^"\\]|\\.)*"|[^\s()";]+|(")""", re.DOTALL)
_NUMBER = re.compile(r"^-?\d+(\.\d+)?$")
_BARE = re.compile(r"^[A-Za-z_][A-Za-z0-9_#'.]*\Z")
_LITERALS = {"true": True, "false": False, "null": None}


class _Tok:
    __slots__ = ("text", "line", "col")

    def __init__(self, text, line, col):
        self.text, self.line, self.col = text, line, col


def _tokenize(text: str) -> list[_Tok]:
    """The tokens of ``text`` in one pass, each with the line and column at
    which it starts."""
    toks = []
    line, line_start, seen = 1, 0, 0  # the line breaks before ``seen`` are counted
    for m in _TOKEN.finditer(text):
        start = m.start()
        breaks = text.count("\n", seen, start)
        if breaks:
            line += breaks
            line_start = text.rfind("\n", seen, start) + 1
        seen = start
        if m.group(2) is not None:
            raise PlanSyntaxError("unterminated string", line, start - line_start + 1)
        if m.group(1) is None:
            toks.append(_Tok(m.group(0), line, start - line_start + 1))
    return toks


def _read(toks: list[_Tok], pos: int):
    """Read one s-expression starting at ``pos``, which must hold a token;
    returns (tree, next position). A list is (opening token, items); the
    lists still open are a stack, so any depth is read at any recursion
    limit."""
    open_lists: list[tuple[_Tok, list]] = []
    while True:
        t = toks[pos]
        pos += 1
        if t.text == "(":
            open_lists.append((t, []))
        elif t.text == ")" and not open_lists:
            raise PlanSyntaxError("unexpected ')'", t.line, t.col)
        else:
            tree = open_lists.pop() if t.text == ")" else t
            if not open_lists:
                return tree, pos
            open_lists[-1][1].append(tree)
        if pos >= len(toks):
            opened = open_lists[-1][0]
            raise PlanSyntaxError("missing closing parenthesis", opened.line, opened.col)


def _err(x, msg: str):
    tok = x if isinstance(x, _Tok) else x[0]
    raise PlanSyntaxError(msg, tok.line, tok.col)


def _atom_text(x, what: str) -> str:
    if not isinstance(x, _Tok):
        _err(x, f"expected {what}")
    return x.text


def _name_text(x) -> str:
    """Attribute/relation name; quoted when not a bare identifier."""
    text = _atom_text(x, "NAME")
    if text.startswith('"'):
        return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    return text


def _parse_literal(x, what: str = "LITERAL"):
    text = _atom_text(x, what)
    if text.startswith('"') or text in _LITERALS:
        return _LITERALS[text] if text in _LITERALS else _name_text(x)
    if not _NUMBER.match(text):
        _err(x, f"expected {what}, not {text!r}")
    try:
        return float(text) if "." in text else int(text)
    except ValueError:  # more digits than an int may be read from
        _err(x, f"number of {len(text)} characters is too long")


def _split(x, usage: str) -> tuple[str, list]:
    """The head word of a list ``(WORD item*)`` and its other items."""
    if isinstance(x, _Tok) or not x[1] or not isinstance(x[1][0], _Tok):
        _err(x, f"expected {usage}")
    return x[1][0].text, x[1][1:]


def _parse_target(x, _) -> Iterator:
    if isinstance(x, _Tok) or len(x[1]) != 3 or _atom_text(x[1][1], "'->'") != "->":
        _err(x, "projection target must look like (EXPR -> NAME)")
    return (yield parse_expr(x[1][0])), _name_text(x[1][2])


def _parse_join_cond(x, _) -> tuple[tuple[str, str], ...]:
    usage = "(= NAME NAME) or (and COND+)"
    pairs, todo = [], [x]  # nested ``and`` lists are a stack
    while todo:
        cond = todo.pop()
        head, args = _split(cond, usage)
        if head == "=" and len(args) == 2:
            pairs.append((_name_text(args[0]), _name_text(args[1])))
        elif head == "and" and args:
            todo.extend(reversed(args))
        elif head == "and":
            _err(cond, "'and' needs at least one (= a b)")
        else:
            _err(cond, f"expected {usage}")
    return tuple(pairs)


def _parse_fn(x, _) -> str:
    if _atom_text(x, "FN") not in AGG_FNS:
        _err(x, f"unknown aggregation function {x.text!r}")
    return x.text


def _parse_arrow(x, _) -> None:
    if _atom_text(x, "'->'") != "->":
        _err(x, "expected '->'")


def _parse_agg(x) -> tuple[str, str, str]:
    if isinstance(x, _Tok) or len(x[1]) != 4:
        _err(x, "aggregate must look like (FN NAME -> NAME)")
    _parse_arrow(x[1][2], None)
    return _parse_fn(x[1][0], None), _name_text(x[1][1]), _name_text(x[1][3])


def _parse_frame(x, _) -> str:
    word, items = _split(x, "(frame running|partition)")
    frame = tuple(map(_name_text, items))
    if word != "frame" or frame not in ((FRAME_RUNNING,), (FRAME_PARTITION,)):
        _err(x, "expected (frame running|partition)")
    return frame[0]


def _catalog_attrs(x, fields: dict, catalog) -> tuple[str, ...]:
    if catalog is None or fields["name"] not in catalog:
        _err(x, f"relation {fields['name']!r} has no inline attributes and no catalog entry")
    return tuple(catalog[fields["name"]])


def _format_literal(v) -> str:
    if v is None or isinstance(v, bool):
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return repr(v)


def format_name(name: str) -> str:
    return name if _BARE.match(name) and name not in _LITERALS else _format_literal(name)


def _format_step(x: Expr, kids: tuple[str, ...]) -> str:
    if isinstance(x, Attr):  # a name that is not bare is quoted in (attr ...)
        name = format_name(x.name)
        return name if name == x.name else f"(attr {name})"
    if isinstance(x, Const):
        return _format_literal(x.value)
    head = "if" if isinstance(x, Cond) else x.op
    return "(" + head + "".join(" " + k for k in kids) + ")"


def format_expr(e: Expr) -> str:
    return fold_expr((e,), _format_step)[0]


def _format_join_cond(pairs) -> str:
    eqs = [f"(= {format_name(a)} {format_name(b)})" for a, b in pairs]
    return eqs[0] if len(eqs) == 1 else "(and " + " ".join(eqs) + ")"


#: one way of writing a part: its grammar symbol, which repeats when it ends
#: in ``+``; ``read(s-expression, catalog)``, giving the value or its parser
#: (run by :func:`~provopt.algebra.drive`); ``show(value)``, giving its
#: text, empty for an optional part's default; and an optional part's
#: ``absent(form, fields, catalog)``, the value of a form written without it
_Way = namedtuple("_Way", "symbol read show absent", defaults=(None,))


def _list(head: str, item: str, read=_name_text, show=format_name) -> _Way:
    """The way of writing ``(head ITEM*)``, whose value is a tuple."""
    symbol = f"({head} {item}*)"

    def read_list(x, _):
        word, items = _split(x, symbol)
        if word != head:
            _err(x, f"expected {symbol}")
        return tuple(map(read, items))
    return _Way(symbol, read_list, lambda v: f"({head} {' '.join(map(show, v))})")


_NAME = _Way("NAME", lambda x, _: _name_text(x), format_name)
_EXPR = _Way("EXPR", lambda x, _: parse_expr(x), format_expr)
_NODE = _Way("node", lambda x, catalog: parse_node(x, catalog), None)  # printed as its text
_BINARY = (("left", _NODE), ("right", _NODE))
_TARGETS = (("targets", _Way("TARGET+", _parse_target,
                             lambda t: f"({format_expr(t[0])} -> {format_name(t[1])})")),
            ("child", _NODE))

#: an operator's form: its class; its parts after the keyword, each the field it
#: fills (None for none) and its way, at most one repeating or optional; and the
#: fields its keyword fixes
_Form = namedtuple("_Form", "cls parts fixed", defaults=((),))

#: every operator's form, by keyword
_FORMS = {
    "rel": _Form(Relation, (("name", _NAME), ("attrs", _list("attrs", "NAME")._replace(
        symbol="[(attrs NAME*)]", absent=_catalog_attrs)))),
    "select": _Form(Select, (("cond", _EXPR), ("child", _NODE))),
    "project": _Form(Project, _TARGETS),
    "fence": _Form(Project, _TARGETS, (("materialize", True),)),
    "join": _Form(Join, (("pairs", _Way("COND", _parse_join_cond, _format_join_cond)), *_BINARY)),
    "cross": _Form(Cross, _BINARY),
    "union": _Form(UnionOp, _BINARY),
    "intersect": _Form(Intersect, _BINARY),
    "diff": _Form(Diff, _BINARY),
    "agg": _Form(Agg, (
        ("group_by", _list("groupby", "NAME")),
        ("aggs", _list("aggs", "(FN NAME -> NAME)", _parse_agg,
                       lambda a: f"({a[0]} {format_name(a[1])} -> {format_name(a[2])})")),
        ("child", _NODE))),
    "dupelim": _Form(DupElim, (("child", _NODE),)),
    "window": _Form(Window, (
        ("fn", _Way("FN", _parse_fn, str)), ("arg", _NAME),
        (None, _Way("->", _parse_arrow, lambda _: "->")), ("out", _NAME),
        ("partition_by", _list("partition", "NAME")), ("order_by", _list("order", "NAME")),
        ("frame", _Way("[(frame running|partition)]", _parse_frame,
                       lambda f: "" if f == FRAME_RUNNING else f"(frame {f})",
                       lambda *_: FRAME_RUNNING)),
        ("child", _NODE))),
}
#: the keyword each class prints under, but a fence's and a join's on no pairs
_KEYWORD = {form.cls: kind for kind, form in _FORMS.items() if not form.fixed}

#: every expression head: how its operands are written, how many it takes
#: (0: one or more), and the expression the head and the operands build
_EXPR_HEADS = {
    "attr": (_NAME, 1, lambda op, args: Attr(*args)),
    "const": (_Way("LITERAL", lambda x, _: _parse_literal(x), _format_literal), 1,
              lambda op, args: Const(*args)),
    **dict.fromkeys(ARITH_OPS, (_EXPR, 2, lambda op, args: Arith(op, *args))),
    **dict.fromkeys(CMP_OPS, (_EXPR, 2, lambda op, args: Cmp(op, *args))),
    **dict.fromkeys(("and", "or"), (_EXPR, 0, lambda op, args: BoolOp(op, tuple(args)))),
    "not": (_EXPR, 1, lambda op, args: BoolOp(op, tuple(args))),
    "if": (_EXPR, 3, lambda op, args: Cond(*args)),
}


def _parse_items(way: _Way, items: list, catalog) -> Iterator:
    """The parser of the values of items all written one way, in order."""
    values = []
    for item in items:
        value = way.read(item, catalog)
        values.append((yield value) if isinstance(value, GeneratorType) else value)
    return values


def parse_expr(x) -> Iterator:
    """The expression parser of an s-expression (see :func:`~provopt.algebra.drive`)."""
    if isinstance(x, _Tok):  # a bare name that is no literal is an attribute
        if _BARE.match(x.text) and x.text not in _LITERALS:
            return Attr(x.text)
        return Const(_parse_literal(x, "EXPR"))
    op, args = _split(x, "(operator ...)")
    if op not in _EXPR_HEADS:
        _err(x, f"unknown expression operator {op!r}")
    way, count, build = _EXPR_HEADS[op]
    if len(args) != count if count else not args:
        _err(x, f"usage: ({op} {' '.join([way.symbol] * count) or way.symbol + '+'})")
    return build(op, (yield from _parse_items(way, args, None)))


def parse_node(x, catalog: Optional[Mapping[str, tuple[str, ...]]]) -> Iterator:
    """The operator parser of an s-expression (see :func:`~provopt.algebra.drive`)."""
    kind, args = _split(x, "(operator ...)")
    if kind not in _FORMS:
        _err(x, f"unknown operator {kind!r}")
    cls, parts, fixed = _FORMS[kind]
    # the part that repeats or is optional takes the items the others leave
    extra = len(args) - len(parts)
    spare = next((way for _, way in parts if way.symbol.endswith("+") or way.absent), None)
    if extra and not (spare and (extra == -1 if spare.absent else extra > 0)):
        _err(x, f"usage: ({kind} {' '.join(way.symbol for _, way in parts)})")
    fields = dict(fixed)
    for field, way in parts:
        n = 1 + extra if way is spare else 1
        values = yield from _parse_items(way, args[:n], catalog)
        args = args[n:]
        if way.symbol.endswith("+"):
            values = [tuple(values)]
        if field:
            fields[field] = values[0] if values else way.absent(x, fields, catalog)
    return cls(**fields)


def parse_plan(text: str, catalog: Optional[Mapping[str, tuple[str, ...]]] = None) -> Node:
    """Parse one plan; raises PlanSyntaxError with position info."""
    toks = _tokenize(text)
    if not toks:
        raise PlanSyntaxError("empty plan", 1, 1)
    tree, pos = _read(toks, 0)
    if pos != len(toks):
        _err(toks[pos], f"trailing input {toks[pos].text!r}")
    return drive(parse_node(tree, catalog))


def format_plan(node: Node) -> str:
    """Render a graph in the plan text format (shared nodes are inlined)."""
    nodes = all_nodes(node)
    uses = Counter(c for n in nodes for c in n.children)
    text: dict[Node, str] = {}

    def fmt(n: Node) -> str:
        # a child's text is dropped after its last use, so a deep chain
        # holds one partial text at a time
        uses[n] -= 1
        return text[n] if uses[n] else text.pop(n)

    for n in nodes:
        # a materialized projection is a fence, a join on no pairs the cross product it is
        kind = ("fence" if isinstance(n, Project) and n.materialize else "cross"
                if isinstance(n, Product) and not n.pairs else _KEYWORD[type(n)])
        out = [kind]
        for field, way in _FORMS[kind].parts:
            show = fmt if way is _NODE else way.show
            value = getattr(n, field) if field else None
            part = " ".join(map(show, value)) if way.symbol.endswith("+") else show(value)
            if part:  # an optional part's default is left out
                out.append(part)
        text[n] = "(" + " ".join(out) + ")"
    return text[node]
