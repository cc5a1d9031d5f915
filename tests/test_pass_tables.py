"""Each pass over operators is one :class:`~provopt.algebra.PassTable`, from
operator class to the pass's step, and no table leaves an operator out:
every concrete operator class the package defines has a step in every table
or is named in the table's unsupported set, which raises the pass's error."""
import importlib
import pkgutil
from dataclasses import dataclass

import pytest

import provopt
from provopt.algebra import (
    Agg, Attr, Cmp, Const, Cross, Diff, DupElim, Intersect, Join, Node, PassTable, Product,
    Project, Relation, Select, Union, Window,
)
from provopt.executor import BagRelation, EvalError, TableStats, cost, evaluate
from provopt.instrument import InstrumentError, instrument_query
from provopt.sqlgen import SqlGenError, to_sql

MODULES = [importlib.import_module(f"provopt.{m.name}")
           for m in pkgutil.iter_modules(provopt.__path__)]
#: every table of every module, once each
TABLES = list({id(t): t for m in MODULES for t in vars(m).values()
               if isinstance(t, PassTable)}.values())


def operator_classes() -> list[type]:
    """The concrete operator classes: every Node subclass the package
    defines, walked from ``Node.__subclasses__()``, that no other class of
    the package subclasses."""
    ours = []
    todo = list(Node.__subclasses__())
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("provopt."):
            ours.append(cls)
    return [c for c in ours if not any(s in ours for s in c.__subclasses__())]


def _unsupported(table: PassTable, cls: type) -> bool:
    return any(base in table.unsupported for base in cls.__mro__)


def _has_step(table: PassTable, cls: type) -> bool:
    try:
        table[cls]
    except Exception:
        return False
    return True


def test_the_walk_finds_every_operator():
    assert set(operator_classes()) >= {Relation, Select, Project, Join, Cross, Union,
                                       Intersect, Diff, Agg, DupElim, Window}
    assert Product not in operator_classes()


def test_every_pass_has_a_table():
    assert sorted(t.name for t in TABLES) == sorted(
        ["evaluate", "estimate", "render", "instrument", "keys", "upward classes", "reads"])


@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.name)
def test_no_table_leaves_an_operator_out(table):
    missing = [cls.__name__ for cls in operator_classes()
               if not _has_step(table, cls) and not _unsupported(table, cls)]
    assert not missing, f"the {table.name} table has no step for {missing}"


@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.name)
def test_an_unsupported_operator_raises_the_pass_error(table):
    for cls in operator_classes():
        if _unsupported(table, cls):
            want = table.error(cls)
            with pytest.raises(type(want)) as raised:
                table[cls]
            assert str(raised.value) == str(want) and cls.__name__ in str(want)


@pytest.mark.parametrize("table", [t for t in TABLES if Product in t], ids=lambda t: t.name)
def test_join_and_cross_share_the_product_step(table):
    assert table[Join] is table[Product] and table[Cross] is table[Product]


@dataclass(frozen=True, eq=False)
class Foreign(Node):
    """An operator no pass knows."""

    child: Node

    @property
    def schema(self):
        return self.child.schema


R = Relation("R", ("a",))
DB = {"R": BagRelation.from_rows(("a",), [(1,)])}


@pytest.mark.parametrize("run, error, message", [
    (lambda q: evaluate(q, DB), EvalError, "unknown operator Foreign"),
    (lambda q: cost(q, {"R": TableStats(1, {"a": 1})}), EvalError, "unknown operator Foreign"),
    (to_sql, SqlGenError, "unknown operator Foreign"),
    (instrument_query, InstrumentError,
     "operator Foreign is outside the instrumentable fragment"),
], ids=["evaluate", "cost", "to_sql", "instrument_query"])
def test_an_operator_no_pass_knows_raises_the_pass_error(run, error, message):
    with pytest.raises(error) as raised:
        run(Select(Cmp("=", Attr("a"), Const(1)), Foreign(R)))
    assert str(raised.value) == message


def test_the_walk_skips_operators_defined_outside_the_package():
    assert Foreign not in operator_classes()
