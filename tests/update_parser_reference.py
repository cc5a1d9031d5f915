"""The UPDATE reader as it ran before it became one precedence-table loop:
recursive descent, one method per precedence level, so it recurses once per
parenthesis, ``NOT`` or unary minus. Kept verbatim as the reference that
:func:`provopt.instrument.parse_updates` must match statement for
statement: the same trees and the same error messages. Both read the same
tokens (:data:`provopt.instrument._UPD_TOKEN`).
"""
from __future__ import annotations

import re
from typing import Optional

from provopt.algebra import Arith, Attr, BoolOp, Cmp, Const, Expr
from provopt.instrument import _UPD_TOKEN, UpdateStmt, UpdateSyntaxError


def parse_updates(text: str) -> list[UpdateStmt]:
    """:func:`provopt.instrument.parse_updates` over the reference reader."""
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


class _UpdParser:
    def __init__(self, toks: list[str]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        if self.pos >= len(self.toks):
            raise UpdateSyntaxError("unexpected end of statement")
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kw: str) -> None:
        t = self.next()
        if t.upper() != kw:
            raise UpdateSyntaxError(f"expected {kw}, found {t!r}")

    def disjunction(self) -> Expr:
        parts = [self.conjunction()]
        while (self.peek() or "").upper() == "OR":
            self.next()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else BoolOp("or", tuple(parts))

    def conjunction(self) -> Expr:
        parts = [self.negation()]
        while (self.peek() or "").upper() == "AND":
            self.next()
            parts.append(self.negation())
        return parts[0] if len(parts) == 1 else BoolOp("and", tuple(parts))

    def negation(self) -> Expr:
        if (self.peek() or "").upper() == "NOT":
            self.next()
            return BoolOp("not", (self.negation(),))
        return self.comparison()

    def comparison(self) -> Expr:
        left = self.additive()
        if self.peek() in ("=", "<>", "<", "<=", ">", ">="):
            op = self.next()
            return Cmp(op, left, self.additive())
        return left

    def additive(self) -> Expr:
        e = self.multiplicative()
        while self.peek() in ("+", "-"):
            op = self.next()
            e = Arith(op, e, self.multiplicative())
        return e

    def multiplicative(self) -> Expr:
        e = self.atom()
        while self.peek() in ("*", "/"):
            op = self.next()
            e = Arith(op, e, self.atom())
        return e

    def atom(self) -> Expr:
        t = self.next()
        if t == "(":
            e = self.disjunction()
            self.expect(")")
            return e
        if t.startswith("'"):
            return Const(t[1:-1].replace("''", "'"))
        if re.fullmatch(r"\d+\.\d+", t):
            return Const(float(t))
        if re.fullmatch(r"\d+", t):
            return Const(int(t))
        if t == "-":
            inner = self.atom()
            if isinstance(inner, Const) and type(inner.value) in (int, float):  # not a bool
                return Const(-inner.value)
            return Arith("-", Const(0), inner)
        up = t.upper()
        if up == "TRUE":
            return Const(True)
        if up == "FALSE":
            return Const(False)
        if up == "NULL":
            return Const(None)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", t):
            return Attr(t)
        raise UpdateSyntaxError(f"cannot read expression at {t!r}")


def _parse_update(toks: list[str]) -> UpdateStmt:
    p = _UpdParser(toks)
    p.expect("UPDATE")
    rel = p.next()
    p.expect("SET")
    clauses = []
    while True:
        attr = p.next()
        p.expect("=")
        clauses.append((attr, p.additive()))
        if p.peek() == ",":
            p.next()
            continue
        break
    where: Expr = Const(True)
    if (p.peek() or "").upper() == "WHERE":
        p.next()
        where = p.disjunction()
    if p.peek() is not None:
        raise UpdateSyntaxError(f"trailing input {p.peek()!r}")
    return UpdateStmt(rel, tuple(clauses), where)
