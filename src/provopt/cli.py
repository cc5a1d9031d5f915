"""Command-line front end.

Subcommands:

* ``run``: full pipeline (parse, instrument, rewrite, cost-based search,
  SQL generation) with evaluation of the winning plan,
* ``instrument``: print the instrumented plan for a provenance request or
  a reenacted transaction,
* ``optimize``: apply the heuristic rewrite pipeline to a plan,
* ``explain-properties``: dump inferred per-operator properties,
* ``sql``: translate a plan to SQL,
* ``bench``: synthetic workloads comparing instrumentation methods.

Inputs are plan files in the parenthesized text format, CSV data
directories with sidecar schema files, and UPDATE scripts in the
micro-grammar (see README). The environment variable PROVOPT_SEED
overrides ``--seed``.
"""
from __future__ import annotations

import argparse
import functools
import os
import random
import sys
import time
from itertools import chain
from pathlib import Path

from . import algebra, datafiles, instrument as instr, optimizer, plantext, rewrites, sqlgen
from .executor import BagRelation, EvalError, TableStats, cost, evaluate
from .properties import format_properties, infer_all


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except plantext.PlanSyntaxError as exc:
        print(f"plan syntax error: {exc}", file=sys.stderr)
        return 2
    except (algebra.AlgebraError, datafiles.DataError, EvalError, instr.InstrumentError,
            instr.UpdateSyntaxError, optimizer.EnumerationError,
            sqlgen.SqlGenError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
    p = argparse.ArgumentParser(prog="provopt",
                                description="provenance instrumentation and optimization")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, data_required=False):
        sp.add_argument("--data", type=Path, required=data_required,
                        help="directory with CSV files and .schema sidecars")
        sp.add_argument("--out", type=Path, help="write output to a file")
        sp.add_argument("--seed", type=int, default=0,
                        help="RNG seed (PROVOPT_SEED overrides)")

    run = sub.add_parser("run", help="full pipeline with cost-based search")
    add_common(run, data_required=True)
    run.add_argument("--prov-of", type=Path, help="plan file to compute provenance of")
    run.add_argument("--reenact", type=Path, help="UPDATE script to reenact")
    run.add_argument("--plan", type=Path, help="plan file to evaluate as-is")
    run.add_argument("--scope", choices=["filter", "histjoin", "none"], default="none")
    run.add_argument("--agg-method", choices=["join", "window", "cbo"], default="cbo")
    run.add_argument("--strategy", choices=["seq", "bin", "sa"], default="seq")
    run.add_argument("--stop", default="none",
                     help="none, adaptive, or max-iters=N")
    run.add_argument("--sa-temp", type=float, default=10.0)
    run.add_argument("--sa-cooling", type=float, default=0.8)
    run.add_argument("--no-heuristics", action="store_true",
                     help="skip the rewrite pipeline")
    run.add_argument("--trace-plans", type=Path,
                     help="write one line per iteration: path and cost")
    run.set_defaults(func=cmd_run)

    inst = sub.add_parser("instrument", help="print an instrumented plan")
    add_common(inst)
    inst.add_argument("--prov-of", type=Path)
    inst.add_argument("--reenact", type=Path)
    inst.add_argument("--agg-method", choices=["join", "window", "cbo"], default="window")
    inst.add_argument("--scope", choices=["filter", "histjoin", "none"], default="none")
    inst.set_defaults(func=cmd_instrument)

    opt = sub.add_parser("optimize", help="apply the heuristic rewrite pipeline")
    add_common(opt)
    opt.add_argument("--plan", type=Path, required=True)
    opt.add_argument("--rules", help="comma-separated rule names to enable")
    opt.add_argument("--rounds", type=int, default=2,
                     help="rounds that --dump-steps prints")
    opt.add_argument("--dump-steps", action="store_true",
                     help="print the plan after each rule pass")
    opt.set_defaults(func=cmd_optimize)

    props = sub.add_parser("explain-properties", help="dump inferred properties")
    add_common(props)
    props.add_argument("--plan", type=Path, required=True)
    props.set_defaults(func=cmd_explain)

    sql = sub.add_parser("sql", help="translate a plan to SQL")
    add_common(sql)
    sql.add_argument("--plan", type=Path, required=True)
    sql.set_defaults(func=cmd_sql)

    bench = sub.add_parser("bench", help="synthetic workload comparisons")
    bench.add_argument("--seed", type=int, default=0,
                       help="RNG seed (PROVOPT_SEED overrides)")
    bench.add_argument("--mode", choices=["agg", "reenact"], default="agg")
    bench.add_argument("--aggs", type=int, default=3, help="stacked aggregations")
    bench.add_argument("--rows", type=int, default=1000)
    bench.add_argument("--fanin", type=int, default=4, help="group fan-in per level")
    bench.add_argument("--updates", type=int, default=12, help="updates per transaction")
    bench.add_argument("--out", type=Path)
    bench.set_defaults(func=cmd_bench)
    return p


def _seed(args) -> int:
    env = os.environ.get("PROVOPT_SEED")
    return int(env) if env is not None else args.seed


def _load_data(args):
    """(db, declared keys per relation, catalog, statistics) of ``--data``;
    empty, with no catalog, when it is not given."""
    if not args.data:
        return {}, {}, None, {}
    db, base_keys = datafiles.load_directory(args.data)
    catalog = {name: rel.schema for name, rel in db.items()}
    stats = {name: TableStats(rel.total, _distincts(rel)) for name, rel in db.items()}
    return db, base_keys, catalog, stats


def _distincts(rel: BagRelation) -> dict[str, float]:
    """Each attribute's number of distinct values, its column read once
    through one transposition of the tuples."""
    columns = list(zip(*rel.tuples)) or [()] * len(rel.schema)
    return {attr: float(len(set(column))) for attr, column in zip(rel.schema, columns)}


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        args.out.write_text(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def format_bag(bag: BagRelation) -> str:
    """The result table: a header, one line per distinct row with its values
    separated by `` | `` (``null`` for a missing value) and ``  (xN)`` after
    a row that occurs N > 1 times, and a ``(N row(s))`` line. Rows come in
    the order of the ``repr`` of their tuples.

    When every value is an ``int`` (not a ``bool``), a row is one ``%``
    format of the whole tuple (``%s`` is ``str``), and the rows are sorted by
    their text, which gives the ``repr`` order without calling ``repr``; any
    other bag joins each row value by value and sorts by ``repr``. The text
    order is the ``repr`` order for ints because the first field in which
    two rows differ decides both orders, since the fields before it print
    alike in both. An int's text is its ``repr``, made of ``-`` and digits.
    If one of the two fields' texts is a proper prefix of the other's, the
    longer one goes on with a digit, while the shorter one is followed by
    ``,``, ``)``, `` `` or the end of the string, all of which sort below
    ``0``; otherwise the first character in which the texts differ decides,
    in both encodings alike.
    """
    header = " | ".join(bag.schema)
    counts = bag.tuples
    if set(map(type, chain.from_iterable(counts))) <= {int}:
        fmt = " | ".join(["%s"] * len(bag.schema))
        rows = sorted([(fmt % t, m) for t, m in counts.items()])
    else:
        rows = [(" | ".join("null" if v is None else str(v) for v in t), counts[t])
                for t in sorted(counts, key=repr)]
    lines = [header, "-" * len(header)]
    lines += [text if m == 1 else f"{text}  (x{m})" for text, m in rows]
    lines.append(f"({bag.total} row(s))")
    return "\n".join(lines)


def _parse_stop(spec: str):
    if spec == "none":
        return "none", None
    if spec == "adaptive":
        return "adaptive", None
    if spec.startswith("max-iters="):
        n = int(spec.split("=", 1)[1])
        if n < 1:
            raise ValueError(f"stop rule max-iters needs N >= 1, got {n}")
        return "none", n
    raise ValueError(f"unknown stop rule {spec!r} (use none, adaptive, or max-iters=N)")


def _check_counts(args, minimum: dict[str, int]) -> None:
    """Raise on the first count option, in ``minimum``'s order, below its minimum."""
    for option, low in minimum.items():
        n = getattr(args, option)
        if n < low:
            raise ValueError(f"--{option} needs N >= {low}, got {n}")


def cmd_run(args) -> int:
    db, base_keys, catalog, stats = _load_data(args)
    rng = random.Random(_seed(args))
    stop, max_iters = _parse_stop(args.stop)

    extra_rels: dict[str, BagRelation] = {}

    if args.reenact is not None:
        source, extra_rels = _reenactment(args, db, base_keys, catalog)
        instrument_step = False
    elif args.prov_of is not None:
        source = plantext.parse_plan(args.prov_of.read_text(), catalog)
        instrument_step = True
    elif args.plan is not None:
        source = plantext.parse_plan(args.plan.read_text(), catalog)
        instrument_step = False
    else:
        print("run needs one of --prov-of, --reenact, --plan", file=sys.stderr)
        return 2

    for name, rel in extra_rels.items():
        stats[name] = TableStats(rel.total, _distincts(rel))

    def pipeline(choose):
        graph = source
        if instrument_step:
            method = None if args.agg_method == "cbo" else args.agg_method
            graph = instr.instrument_query(graph, choice=choose, agg_method=method)
        if not args.no_heuristics:
            cfg = rewrites.RewriteConfig(base_keys=base_keys, dupelim_set_choice=choose)
            graph = rewrites.apply_pats(graph, cfg)
        return graph

    result = optimizer.optimize(
        pipeline, lambda g: cost(g, stats).total,
        strategy=args.strategy, stop=stop, max_iters=max_iters,
        rng=rng, sa_temp=args.sa_temp, sa_cooling=args.sa_cooling)

    if args.trace_plans:
        lines = [f"{list(p.path)}\t{p.cost}" for p in result.trace]
        args.trace_plans.write_text("\n".join(lines) + "\n")

    bag = evaluate(result.best.graph, {**db, **extra_rels})
    out = []
    out.append(f"seed: {_seed(args)}")
    out.append(f"iterations: {len(result.trace)}")
    for i, p in enumerate(result.trace):
        why = "" if p.error is None else f" ({type(p.error).__name__}: {p.error})"
        out.append(f"  iter {i}: path={list(p.path)} cost={p.cost:.6g}{why}")
    out.append(f"chosen path: {list(result.best.path)} cost={result.best.cost:.6g}")
    out.append("")
    out.append(format_bag(bag))
    out.append("")
    out.append("SQL:")
    out.append(sqlgen.to_sql(result.best.graph).text)
    _emit(args, "\n".join(out))
    return 0


def _reenactment(args, db, base_keys, catalog):
    """The ``--reenact`` script compiled to a plan and narrowed per
    ``--scope``, plus the extra relations its evaluation needs."""
    updates = instr.parse_updates(args.reenact.read_text())
    if not updates:
        raise instr.InstrumentError(f"{args.reenact} holds no UPDATE statement to reenact")
    name = updates[0].relation
    schema = catalog.get(name) if catalog else None
    if schema is None:
        raise instr.InstrumentError(
            f"relation {name!r} needs --data to supply its schema")
    reenacted = instr.reenact(updates, schema=schema)
    if args.scope == "none":
        return reenacted, {}
    store = None
    if args.scope == "histjoin":
        store = instr.VersionedStore()
        store.load(name, db[name], key=(base_keys.get(name) or [None])[0])
        store.apply_transaction(1, updates)
    method = instr.FILTER_UPDATED if args.scope == "filter" else instr.HIST_JOIN
    return instr.scope_to_updated(reenacted, updates, store, method, txn_id=1)


def cmd_instrument(args) -> int:
    db, base_keys, catalog, _ = _load_data(args)
    if args.reenact is not None:
        graph, _ = _reenactment(args, db, base_keys, catalog)
    elif args.prov_of is not None:
        plan = plantext.parse_plan(args.prov_of.read_text(), catalog)
        method = "window" if args.agg_method == "cbo" else args.agg_method
        graph = instr.instrument_query(plan, agg_method=method)
    else:
        raise instr.InstrumentError("instrument needs --prov-of or --reenact")
    _emit(args, plantext.format_plan(graph))
    return 0


def cmd_optimize(args) -> int:
    _check_counts(args, {"rounds": 1})
    _, base_keys, catalog, _ = _load_data(args)
    plan = plantext.parse_plan(args.plan.read_text(), catalog)
    enabled = frozenset(args.rules.split(",")) if args.rules else None
    cfg = rewrites.RewriteConfig(enabled=enabled, base_keys=base_keys)
    if args.dump_steps:
        lines = []
        steps = rewrites.rewrite_steps(plan, cfg)
        for rnd in range(args.rounds):
            for _ in filter(cfg.rule_enabled, rewrites.RULES):
                name, current = next(steps)
                lines.append(f"; round {rnd + 1}, after {name}")
                lines.append(plantext.format_plan(current))
        _emit(args, "\n".join(lines) + "\n")
        return 0
    _emit(args, plantext.format_plan(rewrites.apply_pats(plan, cfg)))
    return 0


def cmd_explain(args) -> int:
    _, base_keys, catalog, _ = _load_data(args)
    plan = plantext.parse_plan(args.plan.read_text(), catalog)
    store = infer_all(plan, base_keys)
    lines = []
    for i, node in enumerate(reversed(algebra.all_nodes(plan))):
        label = plantext.format_plan(node)
        if len(label) > 72:
            label = label[:69] + "..."
        lines.append(f"#{i} {label}")
        lines.append(f"    {format_properties(store, node)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_sql(args) -> int:
    _, _, catalog, _ = _load_data(args)
    plan = plantext.parse_plan(args.plan.read_text(), catalog)
    _emit(args, sqlgen.to_sql(plan).text)
    return 0


# ---------------------------------------------------------------------------
# benchmark harness


def stacked_agg_workload(levels: int, rows: int, fanin: int, rng: random.Random):
    """Base relation with one bucket column per level plus a value column,
    and a query stacking one aggregation per level with shrinking groups."""
    attrs = tuple(f"g{i}" for i in range(1, levels + 1)) + ("val",)
    bag = BagRelation(attrs)
    for key in range(rows):
        buckets = tuple(key // (fanin ** i) for i in range(1, levels + 1))
        bag.add(buckets + (rng.randrange(100),), 1)
    node: algebra.Node = algebra.Relation("base", attrs)
    arg = "val"
    for level in range(1, levels + 1):
        group = tuple(f"g{i}" for i in range(level, levels + 1))
        out = f"s{level}"
        node = algebra.Agg(group, ((("sum"), arg, out),), node)
        arg = out
    return {"base": bag}, node


def cmd_bench(args) -> int:
    _check_counts(args, {"aggs": 0, "rows": 0, "fanin": 1, "updates": 1})
    rng = random.Random(_seed(args))
    lines = []
    if args.mode == "agg":
        db, query = stacked_agg_workload(args.aggs, args.rows, args.fanin, rng)
        stats = {"base": TableStats(db["base"].total, _distincts(db["base"]))}
        lines.append("method,heuristics,plans,cost,eval_seconds")
        for method in ("join", "window", "cbo"):
            for heu in (True, False):
                def pipeline(choose, method=method, heu=heu):
                    m = None if method == "cbo" else method
                    g = instr.instrument_query(query, choice=choose, agg_method=m)
                    if heu:
                        g = rewrites.apply_pats(g, rewrites.RewriteConfig())
                    return g
                result = optimizer.optimize(pipeline, lambda g: cost(g, stats).total)
                started = time.perf_counter()
                evaluate(result.best.graph, db)
                elapsed = time.perf_counter() - started
                lines.append(f"{method},{'heu' if heu else 'noheu'},"
                             f"{len(result.trace)},{result.best.cost:.6g},{elapsed:.4f}")
    else:
        attrs = tuple(f"a{i}" for i in range(1, args.updates + 1)) + ("b",)
        updates = [
            instr.UpdateStmt("r", ((f"a{i}", algebra.Arith("+", algebra.Attr(f"a{i}"),
                                                           algebra.Const(i))),),
                             algebra.Cmp("=", algebra.Attr("b"), algebra.Const(i % 3)))
            for i in range(1, args.updates + 1)
        ]
        reenacted = instr.reenact(updates, schema=attrs)
        plain_size = rewrites.total_expression_size(reenacted)
        optimized = rewrites.apply_pats(reenacted, rewrites.RewriteConfig(base_keys={}))
        opt_size = rewrites.total_expression_size(optimized)
        naive = rewrites.merge_projections(
            rewrites.factor_attributes(reenacted),
            rewrites.RewriteConfig(unsafe_naive_merge=True))
        naive_size = rewrites.total_expression_size(naive)
        lines.append("variant,total_expression_size")
        lines.append(f"unoptimized,{plain_size}")
        lines.append(f"heuristic,{opt_size}")
        lines.append(f"naive_merge,{naive_size}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
