"""Seeded benchmark inputs and the benchmark's own reference results.

Each workload writes its input files (CSV, ``.schema`` sidecar, plan or
UPDATE script) from the seed and lists the ``provopt run`` operations one
pass makes. Every operation carries the result it must produce, computed
here in plain Python from the generated rows. The reference never goes
through the program's instrumentation, annotated evaluator or update
replay; :func:`self_check` compares its original columns with the
program's plain ``evaluate`` of the uninstrumented query.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import product
from pathlib import Path

#: aggregated relations joined on their group column, rows per relation,
#: rows per group
AGG_SHAPES = {"agg_wide": (3, 320, 4), "agg_deep": (4, 40, 2)}
#: rows, int columns besides the key, UPDATE statements in the transaction
REENACT_SHAPE = (500, 8, 96)
#: the scopes timed on reenact_txn; ``filter`` does not finish on this
#: transaction and is only measured, untimed, for its condition size
SCOPES = ("none", "histjoin")
NAMES = tuple(AGG_SHAPES) + ("reenact_txn",)
#: seconds after which an operation is stopped, counted as failed and
#: charged this much. Far above any operation here (about a second), since
#: at some stack depths CPython 3.11 makes an operation about eight times
#: slower (see ``plans.at_stack_offset``); such a pass is slow, not failed.
DEADLINE_S = 60.0


@dataclass
class Operation:
    """One ``provopt run`` call and the bag it must return."""

    label: str
    argv: list[str]
    schema: tuple[str, ...]
    expected: Counter


@dataclass
class Workload:
    name: str
    operations: list[Operation]
    deadline_s: float
    #: base relations as generated: (name, attributes, rows)
    tables: list[tuple[str, tuple[str, ...], list[tuple]]]
    #: text of the uninstrumented query: a plan, or an UPDATE script
    query_text: str


def _write_table(data: Path, name: str, attrs, rows, key: str) -> None:
    lines = [",".join(attrs)] + [",".join(str(v) for v in r) for r in rows]
    (data / f"{name}.csv").write_text("\n".join(lines) + "\n")
    schema = [f"{a}:int" for a in attrs] + [f"key:{key}"]
    (data / f"{name}.schema").write_text("\n".join(schema) + "\n")


def prov_name(rel: str, attr: str) -> str:
    """Witness column of the first occurrence of a relation, as documented
    in the README's provenance encoding."""
    return f"prov_{rel}_0_{attr}"


# ---------------------------------------------------------------------------
# joined aggregations


def joined_aggs(name: str, seed: int, work: Path) -> Workload:
    """``k`` relations ``r_i(id_i, g_i, v_i)``, each summed per group and
    joined on the group column: one aggregation choice point per relation.

    Every relation has ``nrows`` rows in groups of exactly ``fanin`` and
    the values ``0 .. 99`` in turn, so the result size and the statistics
    the cost model reads do not depend on the seed; the seed shuffles the
    ids, which row gets which value and the row order.
    """
    k, nrows, fanin = AGG_SHAPES[name]
    rng = random.Random(f"{name}:{seed}")
    data = work / "data"
    data.mkdir(parents=True, exist_ok=True)
    tables = []
    for i in range(1, k + 1):
        attrs = (f"id{i}", f"g{i}", f"v{i}")
        ids = list(range(nrows))
        rng.shuffle(ids)
        vals = [p % 100 for p in range(nrows)]
        rng.shuffle(vals)
        rows = [(ids[p], p // fanin, vals[p]) for p in range(nrows)]
        rng.shuffle(rows)
        _write_table(data, f"r{i}", attrs, rows, attrs[0])
        tables.append((f"r{i}", attrs, rows))

    def agg(i: int) -> str:
        return f"(agg (groupby g{i}) (aggs (sum v{i} -> s{i})) (rel r{i}))"

    plan = agg(1)
    for i in range(2, k + 1):
        plan = f"(join (= g1 g{i})\n  {plan}\n  {agg(i)})"
    plan_path = work / "query.plan"
    plan_path.write_text(plan + "\n")

    schema = tuple(f"{c}{i}" for i in range(1, k + 1) for c in "gs") + tuple(
        prov_name(rel, a) for rel, attrs, _ in tables for a in attrs)
    op = Operation("cbo", ["--prov-of", str(plan_path), "--data", str(data),
                           "--agg-method", "cbo", "--out", str(work / "out.txt")],
                   schema, joined_provenance([rows for _, _, rows in tables]))
    return Workload(name, [op], DEADLINE_S, tables, plan)


def joined_provenance(tables: list[list[tuple]]) -> Counter:
    """The provenance of the joined group sums: one row per group present in
    every relation and per choice of one witness row from each relation,
    holding ``(g, sum)`` of each relation and then the witnesses."""
    members = []
    for rows in tables:
        by_group: dict[int, list[tuple]] = {}
        for r in rows:
            by_group.setdefault(r[1], []).append(r)
        members.append(by_group)
    out = Counter()
    for g in set(members[0]).intersection(*members[1:]):
        head = tuple(v for m in members for v in (g, sum(r[2] for r in m[g])))
        for witnesses in product(*(m[g] for m in members)):
            out[head + tuple(v for w in witnesses for v in w)] += 1
    return out


# ---------------------------------------------------------------------------
# reenactment


def reenact_txn(seed: int, work: Path) -> Workload:
    """One transaction of ``UPDATE r SET a_i = a_i + c WHERE a_j = v``.

    Which columns each statement assigns and reads is drawn once, the same
    for every seed, so the reenactment's expressions have the same shape
    on every seed; the seed draws the rows and the constants ``c`` and
    ``v``.
    """
    nrows, ncols, nupdates = REENACT_SHAPE
    rng = random.Random(f"reenact_txn:{seed}")
    shape = random.Random("reenact_txn")
    cols = tuple(f"a{i}" for i in range(1, ncols + 1))
    attrs = ("id",) + cols
    rows = [(k,) + tuple(rng.randrange(100) for _ in cols) for k in range(nrows)]
    updates = []
    for _ in range(nupdates):
        i, j = shape.randrange(ncols), shape.randrange(ncols)
        updates.append((i, rng.randrange(1, 10), j, rng.randrange(100)))
    script = "".join(f"UPDATE r SET {cols[i]} = {cols[i]} + {c} WHERE {cols[j]} = {v};\n"
                     for i, c, j, v in updates)

    data = work / "data"
    data.mkdir(parents=True, exist_ok=True)
    _write_table(data, "r", attrs, rows, "id")
    script_path = work / "txn.sql"
    script_path.write_text(script)

    post, touched = apply_updates(rows, updates)
    ops = []
    for scope in SCOPES:
        keep = post if scope == "none" else [r for r in post if r[0] in touched]
        ops.append(Operation(
            f"scope={scope}",
            ["--reenact", str(script_path), "--data", str(data), "--scope", scope,
             "--out", str(work / f"out_{scope}.txt")],
            attrs, Counter(keep)))
    return Workload("reenact_txn", ops, DEADLINE_S, [("r", attrs, rows)],
                    script)


def apply_updates(rows, updates):
    """Run ``UPDATE r SET a_i = a_i + c WHERE a_j = v`` statements in order
    over rows ``(id, a1, ..)``; returns the post-state and the ids some
    statement matched."""
    state = [list(r) for r in rows]
    touched = set()
    for i, c, j, v in updates:
        for r in state:
            if r[1 + j] == v:
                r[1 + i] += c
                touched.add(r[0])
    return [tuple(r) for r in state], touched


def filter_scoped(wl: Workload):
    """The reenactment of ``wl``'s transaction scoped with ``--scope
    filter``, as ``provopt run`` builds it. Scoping returns; rewriting and
    evaluating the result does not finish on this transaction, so the
    benchmark only measures its conditions."""
    from provopt import instrument

    updates = instrument.parse_updates(wl.query_text)
    reenacted = instrument.reenact(updates, schema=wl.tables[0][1])
    return instrument.scope_to_updated(reenacted, updates, None,
                                       instrument.FILTER_UPDATED, txn_id=1)[0]


def build(name: str, seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    if name in AGG_SHAPES:
        return joined_aggs(name, seed, work)
    if name == "reenact_txn":
        return reenact_txn(seed, work)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# checking


def result_matches(op: Operation, bag) -> bool:
    """Compare a result bag with the reference, matching columns by name."""
    if bag is None or sorted(bag.schema) != sorted(op.schema):
        return False
    idx = [bag.schema.index(a) for a in op.schema]
    got = Counter()
    for t, m in bag.tuples.items():
        got[tuple(t[i] for i in idx)] += m
    return got == op.expected


def self_check(wl: Workload) -> bool:
    """The reference's original columns must equal the program's plain
    evaluation of the uninstrumented query over the generated rows."""
    from provopt import instrument, plantext
    from provopt.executor import BagRelation, evaluate

    db = {name: BagRelation.from_rows(attrs, rows) for name, attrs, rows in wl.tables}
    if wl.name == "reenact_txn":
        query = instrument.reenact(instrument.parse_updates(wl.query_text),
                                   schema=wl.tables[0][1])
    else:
        query = plantext.parse_plan(wl.query_text,
                                    {name: attrs for name, attrs, _ in wl.tables})
    bag = evaluate(query, db)
    width = len(bag.schema)
    # scope none for reenactment, the only operation for aggregations
    op = wl.operations[0]
    return (op.schema[:width] == bag.schema
            and set(bag.tuples) == {t[:width] for t in op.expected})
