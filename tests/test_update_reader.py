"""The UPDATE reader is one loop over a precedence table: it reads what the
recursive-descent reader it replaced read (kept in
``update_parser_reference.py``), statement for statement and message for
message, and any nesting at any recursion limit."""
import random
from pathlib import Path

import pytest

import update_parser_reference as reference
from provopt import cli
from provopt.algebra import Arith, Attr, BoolOp, Cmp, Const
from provopt.instrument import UpdateSyntaxError, parse_updates

FIXTURES_TXN = Path(__file__).resolve().parent.parent / "fixtures_txn"

_OPERANDS = ["a", "b", "qty", "_x1", "0", "7", "12", "2.5", "0.25", "'s'", "'o''k'",
             "TRUE", "false", "Null"]
#: what the inserted token is drawn from: every token kind, the keywords in
#: any case, a comment, a statement end and a character no token starts with
_INSERTED = [*_OPERANDS, "(", ")", "-", "+", "*", "/", "=", "<>", "<", "<=", ">", ">=",
             ",", ";", "--", "?", "NOT", "not", "AND", "and", "OR", "Or", "UPDATE", "SET",
             "where", "R"]


def _word(rng, w: str) -> str:
    return rng.choice((w, w.lower(), w.title()))


def _expression(rng, depth: int, condition: bool) -> list[str]:
    """The tokens of an expression: a condition may use comparisons, NOT,
    AND and OR, a value (an arithmetic operand or a SET value) only
    arithmetic and parentheses."""
    if depth == 0 or rng.random() < 0.3:
        return [rng.choice(_OPERANDS)]
    kind = rng.randrange(6 if condition else 3)
    if kind == 0:
        return ["-", *_expression(rng, depth - 1, False)]
    if kind == 1:
        return [*_expression(rng, depth - 1, False), rng.choice("+-*/"),
                *_expression(rng, depth - 1, False)]
    if kind == 2:
        return ["(", *_expression(rng, depth - 1, rng.random() < 0.5), ")"]
    if kind == 3:
        return [*_expression(rng, depth - 1, False), rng.choice(("=", "<>", "<", "<=", ">", ">=")),
                *_expression(rng, depth - 1, False)]
    if kind == 4:
        return [_word(rng, "NOT"), *_expression(rng, depth - 1, True)]
    op = _word(rng, rng.choice(("AND", "OR")))
    out = _expression(rng, depth - 1, True)
    for _ in range(rng.randint(1, 3)):
        out += [op, *_expression(rng, depth - 1, True)]
    return out


def _statement(rng) -> list[str]:
    toks = [_word(rng, "UPDATE"), rng.choice(("R", "s")), _word(rng, "SET")]
    for i in range(rng.randint(1, 3)):
        toks += [","] * bool(i) + [rng.choice(("a", "b")), "=",
                                    *_expression(rng, 3, rng.random() < 0.2)]
    if rng.random() < 0.7:
        toks += [_word(rng, "WHERE"), *_expression(rng, 4, True)]
    return toks + [";"] * (rng.random() < 0.5)


def _read(parse, text: str):
    try:
        return parse(text), None
    except UpdateSyntaxError as exc:
        return None, str(exc)


def test_reads_every_statement_as_the_recursive_descent_reader_did():
    rng = random.Random(30)
    valid, kinds = 0, set()
    for _ in range(20_000):
        toks = _statement(rng)
        spoiled = list(toks)
        spoiled.insert(rng.randrange(len(toks) + 1), rng.choice(_INSERTED))
        for text in (" ".join(toks), " ".join(spoiled)):
            (got, got_error), (want, want_error) = _read(parse_updates, text), _read(
                reference.parse_updates, text)
            assert got_error == want_error, text
            if want_error is not None:
                kinds.add(want_error.split(" ")[0])
                continue
            valid += 1
            assert len(got) == len(want), text
            for g, w in zip(got, want):
                assert g.relation == w.relation and g.set_clauses == w.set_clauses, text
                assert g.where is w.where, text
    # most statements as built read, and every kind of error was met
    assert valid > 15_000
    assert kinds == {"unexpected", "expected", "trailing", "cannot"}


def test_the_precedence_table_cases():
    a, b, c = Attr("a"), Attr("b"), Attr("c")

    def where(text):
        return parse_updates(f"UPDATE R SET a = 1 WHERE {text}")[0].where

    def message(text):
        return _read(parse_updates, f"UPDATE R SET {text}")[1]

    # a parenthesized chain stays its own BoolOp
    assert where("(a OR b) OR c") is BoolOp("or", (BoolOp("or", (a, b)), c))
    assert where("a OR b and c OR NOT a") is BoolOp(
        "or", (a, BoolOp("and", (b, c)), BoolOp("not", (a,))))
    # a comparison does not chain
    assert message("a = 1 WHERE a = b = c") == "trailing input '='"
    assert message("a = 1 WHERE (a = b = c)") == "expected ), found '='"
    # a SET value is read at the level of + -
    assert message("a = b AND c") == "trailing input 'AND'"
    # NOT is a prefix only where a condition may start
    assert parse_updates("UPDATE R SET a = NOT")[0].set_clauses == (("a", Attr("NOT")),)
    assert where("a = NOT") is Cmp("=", a, Attr("NOT"))
    assert where("NOT a = b") is BoolOp("not", (Cmp("=", a, b),))
    # a minus binds tighter than *, and folds only into a number
    assert where("-a * b < -2.5") is Cmp(
        "<", Arith("*", Arith("-", Const(0), a), b), Const(-2.5))
    assert where("a - -(2) = -TRUE") is Cmp(
        "=", Arith("-", a, Const(-2)), Arith("-", Const(0), Const(True)))


#: each nested 5,000 deep, and a shallow script that updates the same way
NESTED = {
    "parentheses": ("UPDATE R SET A = " + "(" * 5000 + "A + 1" + ")" * 5000 + " WHERE B = 2;",
                    "UPDATE R SET A = A + 1 WHERE B = 2;"),
    "NOTs": ("UPDATE R SET A = A + 1 WHERE " + "NOT " * 5000 + "B = 2;",
             "UPDATE R SET A = A + 1 WHERE B = 2;"),
    "minuses": ("UPDATE R SET A = " + "- " * 5000 + "A WHERE B = 2;",
                "UPDATE R SET A = A WHERE B = 2;"),
}


@pytest.mark.parametrize("name", NESTED)
def test_any_nesting_reads_at_the_default_recursion_limit(name):
    [u] = parse_updates(NESTED[name][0])
    e = u.where if name == "NOTs" else u.set_clauses[0][1]
    depth = 0  # NOTs or negations around e
    while isinstance(e, BoolOp) and e.op == "not" or isinstance(e, Arith) and e.left is Const(0):
        e = e.args[0] if isinstance(e, BoolOp) else e.right
        depth += 1
    assert (depth, e) == {"parentheses": (0, Arith("+", Attr("A"), Const(1))),
                          "NOTs": (5000, Cmp("=", Attr("B"), Const(2))),
                          "minuses": (5000, Attr("A"))}[name]


@pytest.mark.parametrize("name", NESTED)
def test_run_reenacts_any_nesting(name, tmp_path, capsys):
    tables = []
    for i, script in enumerate(NESTED[name]):
        path = tmp_path / f"{i}.sql"
        path.write_text(script)
        for scope in ("none", "filter"):
            assert cli.main(["run", "--reenact", str(path), "--data", str(FIXTURES_TXN),
                             "--scope", scope]) == 0
            tables.append(capsys.readouterr().out.split("\n\n")[1])
    # the deep script updates the rows as the shallow one does
    assert tables[:2] == tables[2:]
