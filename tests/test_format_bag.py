"""``cli.format_bag`` against a verbatim copy of its original, row-by-row
implementation, byte for byte, on seeded random bags.

The fast path (one ``%`` format per row, all-int bags sorted by their text)
must print exactly what the reference prints: the same text per row and the
same ``repr`` order of the rows.
"""
import random

import pytest

from provopt.cli import format_bag
from provopt.executor import BagRelation


def reference_format_bag(bag: BagRelation) -> str:
    header = " | ".join(bag.schema)
    lines = [header, "-" * len(header)]
    for t in sorted(bag.tuples, key=repr):
        m = bag.tuples[t]
        row = " | ".join("null" if v is None else str(v) for v in t)
        lines.append(row if m == 1 else f"{row}  (x{m})")
    lines.append(f"({bag.total} row(s))")
    return "\n".join(lines)


def make_bag(width, rows, value, rng):
    bag = BagRelation(tuple(f"c{i}" for i in range(width)))
    for _ in range(rows):
        bag.add(tuple(value(rng, i) for i in range(width)), rng.choice((1, 1, 1, 2, 7)))
    return bag


def small_int(rng, _col):
    return rng.randint(-120, 120)


def any_int(rng, _col):
    """Ints of differing digit counts, both signs, zero and big ints."""
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return rng.randint(-10 ** rng.randint(1, 6), 10 ** rng.randint(1, 6))
    if kind == 3:
        return rng.choice((1, -1)) * rng.randint(10 ** 18, 10 ** 30)
    return rng.choice((1, 10, 100, 1000, -1, -10, -100, 19, 2, 20, 9, 99))


def mixed(rng, _col):
    return rng.choice((
        None, rng.randint(-20, 20), rng.choice(("a", "b", "a b", "", "null", "9")),
        rng.choice((0.5, -1.25, 2.0, 1e20, float("inf"))), rng.choice((True, False)),
    ))


def int_next_to_float(rng, col):
    return rng.randint(-15, 15) if col == 0 else rng.choice((0.5, -2.0, 10.0, 3.25))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("width", [0, 1, 5])
@pytest.mark.parametrize("value", [small_int, any_int, mixed])
def test_matches_reference(seed, width, value):
    rng = random.Random(seed * 31 + width)
    bag = make_bag(width, rng.randint(0, 60), value, rng)
    assert format_bag(bag) == reference_format_bag(bag)


@pytest.mark.parametrize("seed", range(8))
def test_int_column_next_to_float_column(seed):
    rng = random.Random(seed)
    bag = make_bag(2, 40, int_next_to_float, rng)
    assert format_bag(bag) == reference_format_bag(bag)


@pytest.mark.parametrize("rows", [
    [(None,), (1,), (-1,)],
    [("x", 1), ("x", None), (None, -3)],
    [(True, 1), (False, 1), (1, 1), (0, 0)],
    [(1.0,), (1,), (-0.5,), (10,)],
])
def test_non_int_values(rows):
    bag = BagRelation.from_rows(tuple(f"c{i}" for i in range(len(rows[0]))), rows)
    assert format_bag(bag) == reference_format_bag(bag)


def test_empty_bag():
    bag = BagRelation(("a", "b"))
    assert format_bag(bag) == "a | b\n-----\n(0 row(s))" == reference_format_bag(bag)


def test_int_rows_follow_repr_order_not_numeric_order():
    bag = BagRelation.from_rows(("a", "b"), [(9, 0), (10, 0), (-2, 2), (-1, 2), (-1, 2)])
    assert format_bag(bag) == "\n".join([
        "a | b",
        "-----",
        "-1 | 2  (x2)",
        "-2 | 2",
        "10 | 0",
        "9 | 0",
        "(5 row(s))",
    ])
    assert format_bag(bag) == reference_format_bag(bag)
