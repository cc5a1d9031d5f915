"""Benchmark of ``provopt run``, end to end and per layer.

    python3 perfbench/run.py --workload agg_wide --seed 1 --seconds 30 --trace 0

Run it from the repository root. It writes the workload's input files under
``.perfbench/`` from the seed, then calls ``provopt.cli.main(["run", ...])``
in this process, one pass of the workload's operations after another, while
another pass still fits in ``--seconds``; successive passes run at
different stack depths. Every result is checked against the benchmark's
own reference (``workloads.py``). After the timed passes an untimed pass
evaluates every plan the optimizer enumerated (``plans.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with times in
reference seconds (``calibrate.py``). ``--trace 1``
reports its per-layer metrics: passes with wrappers around the program's
public functions (``tracer.py``) alternate with untraced passes, and the
spans are written to ``.perfbench/`` at the end. The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    from provopt import cli
    from provopt.executor import cost
except ImportError as exc:
    sys.exit(f"perfbench: cannot import provopt from {ROOT / 'src'}: {exc}")
if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: provopt was imported from {cli.__file__}, not from {ROOT / 'src'}")

import calibrate  # noqa: E402
import plans  # noqa: E402
import workloads  # noqa: E402
from tracer import STAGES, Tracer, layer_targets, stage_targets  # noqa: E402

OUT = ROOT / ".perfbench"
STAGE_FIELDS = ("run_s", "setup_s", "optimize_s", "exec_s")


@dataclass
class OpRecord:
    label: str
    #: "ok", "wrong", "deadline", "exit N" or "error: ..."
    status: str
    #: wall time; the deadline when the operation raised or ran out of time
    run_s: float
    setup_s: float
    optimize_s: float
    exec_s: float
    emit_s: float
    #: reference seconds per wall second around the operation (``calibrate``)
    scale: float = 1.0


@dataclass
class Pass:
    traced: bool
    ops: list[OpRecord]
    #: tracer operation indices, aligned with ``ops``
    indices: list[int]

    def total(self, field: str) -> float:
        return sum(getattr(o, field) for o in self.ops)

    def ref(self, field: str) -> float:
        """``total`` in reference seconds."""
        return sum(getattr(o, field) * o.scale for o in self.ops)


def run_op(op: workloads.Operation, deadline_s: float, tracer: Tracer
           ) -> tuple[OpRecord, int]:
    index = len(tracer.captured)
    tracer.begin_op(index)
    first_span = len(tracer.spans)
    status = None
    start = time.perf_counter()
    try:
        with plans.deadline(deadline_s):
            rc = cli.main(["run", *op.argv])
        if rc != 0:
            status = f"exit {rc}"
    except plans.DeadlineExceeded:
        status = "deadline"
    except SystemExit as exc:
        status = f"exit {exc.code}"
    except Exception as exc:  # the program failed; record it and go on
        status = f"error: {type(exc).__name__}: {exc}"
    end = time.perf_counter()

    top = {s.name: s for s in tracer.spans[first_span:] if s.parent is None}
    opt, ev = top.get("optimizer.optimize"), top.get("executor.evaluate")
    setup = (opt.start if opt else end) - start
    optimize = opt.end - opt.start if opt else 0.0
    execute = ev.end - ev.start if ev else 0.0
    if status is None:
        bag = tracer.captured[index].get("executor.evaluate", (None, None, None))[2]
        status = "ok" if workloads.result_matches(op, bag) else "wrong"
    run_s = end - start if status in ("ok", "wrong") else deadline_s
    emit = (end - start) - setup - optimize - execute
    return OpRecord(op.label, status, run_s, setup, optimize, execute, emit), index


def run_pass(wl: workloads.Workload, tracer: Tracer, traced: bool, offset: int,
             kernel_s: float) -> tuple[Pass, float]:
    """One pass of the workload's operations, called at stack offset
    ``offset`` (see ``plans.at_stack_offset``). ``kernel_s`` is the latest
    calibration; the kernel is timed again after each operation, and the
    last time is returned with the pass."""
    gc.collect()
    records, indices = [], []
    tracer.install()
    try:
        for op in wl.operations:
            rec, index = plans.at_stack_offset(
                offset, lambda: run_op(op, wl.deadline_s, tracer))
            before, kernel_s = kernel_s, calibrate.measure()
            rec.scale = calibrate.REF_S / ((before + kernel_s) / 2)
            records.append(rec)
            indices.append(index)
    finally:
        tracer.uninstall()
    return Pass(traced, records, indices), kernel_s


def run_passes(wl, seconds: float, trace: bool):
    """Timed passes while another pass of the mean length still ends within
    ``seconds``; with ``trace``, every second pass is traced, and there is
    at least one pass of each kind. Only the first pass of each kind keeps
    what the wrappers captured."""
    stage = Tracer(stage_targets())
    layer = Tracer(layer_targets()) if trace else None
    kinds = {False, True} if trace else {False}
    passes: list[Pass] = []
    started = time.perf_counter()
    kernel_s = calibrate.measure()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = layer if traced else stage
        same_kind = sum(q.traced == traced for q in passes)
        p, kernel_s = run_pass(wl, tracer, traced, same_kind, kernel_s)
        if same_kind:
            for i in p.indices:
                tracer.captured[i] = {}
        passes.append(p)
        elapsed = time.perf_counter() - started
        if ({q.traced for q in passes} == kinds
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            return passes, stage, layer


# ---------------------------------------------------------------------------
# untimed analysis


@dataclass
class OpAnalysis:
    label: str
    runs: list[plans.PlanRun]
    # untraced only
    regret: float | None = None
    # traced only
    qerrors: list[float] | None = None
    rows_touched: int = 0
    expr_size_out: int = 0
    nodes_out: int = 0


def analyze(wl, first: Pass, tracer: Tracer, traced: bool) -> list[OpAnalysis]:
    """Evaluate the plans each operation of a pass enumerated. Untraced, this
    measures regret; traced, it evaluates every plan in full and profiles
    the chosen plan node by node."""
    out = []
    for op, index in zip(wl.operations, first.indices):
        cap = tracer.captured[index]
        if "optimizer.optimize" not in cap or "executor.evaluate" not in cap:
            continue
        result = cap["optimizer.optimize"][2]
        _graph, db = cap["executor.evaluate"][0]
        runs = plans.evaluate_plans(result, db, partial(workloads.result_matches, op),
                                    wl.deadline_s, prune=not traced)
        a = OpAnalysis(op.label, runs)
        if not traced:
            a.regret = plans.regret(result, runs, db, wl.deadline_s)
        else:
            chosen = result.best.graph
            stats = cap["executor.cost"][0][1]
            estimate = cost(chosen, stats).per_node
            actual = plans.node_rows(chosen, db)
            a.qerrors = [plans.qerror(estimate[n][0], rows) for n, rows in actual.items()]
            a.rows_touched = sum(actual.values())
            a.expr_size_out = plans.plan_expr_size(chosen)
            a.nodes_out = len(actual)
        out.append(a)
    return out


# ---------------------------------------------------------------------------
# metrics


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def timing_summary(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond
    it (none below 20 samples), with the sample count."""
    s = sorted(samples)
    out = {"n": len(s), "median": statistics.median(s)}
    if len(s) >= 20:
        out["tail_pct"] = round(100.0 * (len(s) - 10) / len(s), 1)
        out["tail"] = s[len(s) - 11]
    return out


def end_to_end(passes: list[Pass], analyses: list[OpAnalysis], rss_mb: float) -> dict:
    timed = [p for p in passes if not p.traced]
    values = {f: statistics.median(p.ref(f) for p in timed) for f in STAGE_FIELDS}
    regrets = [a.regret for a in analyses if a.regret is not None]
    values["regret"] = geomean(regrets) if regrets else 0.0
    values["peak_rss_mb"] = rss_mb
    return values


def span_values(p: Pass, tracer: Tracer) -> dict:
    """Per-span time and outermost calls of one traced pass, plus counters.

    Stage spans report their whole duration, all others their self time."""
    ops = set(p.indices)
    values: dict[str, float] = {}
    for t in tracer.targets:
        values[f"{t.span}_s"] = 0.0
        values[f"{t.span}_calls"] = 0
    for s in tracer.spans:
        if s.op in ops:
            values[f"{s.name}_s"] += (s.end - s.start) if s.name in STAGES else s.self_s
            values[f"{s.name}_calls"] += 1
    for i in p.indices:
        values.update({k: values.get(k, 0) + v for k, v in tracer.counts[i].items()})
    values["optimizer.self_s"] = values["optimizer.optimize_s"]
    values["rewrites.rounds"] = values["rewrites.factor_attributes_calls"]
    values["sqlgen.calls"] = values["sqlgen.to_sql_calls"]
    values["cli.emit_s"] = p.total("emit_s")
    return values


def per_layer(wl, passes: list[Pass], tracer: Tracer, analyses: list[OpAnalysis]) -> dict:
    traced = [p for p in passes if p.traced]
    samples = [span_values(p, tracer) for p in traced]
    counters = ("datafiles.rows", "executor.rows_out", "sqlgen.sql_bytes", "sqlgen.ctes")
    values = {k: statistics.median(d.get(k, 0) for d in samples)
              for k in set(counters).union(*samples)}

    runs = [r for a in analyses for r in a.runs]
    values["optimizer.plans"] = len(runs)
    values["optimizer.plans_failed"] = sum(r.error is not None for r in runs)
    values["optimizer.plans_wrong"] = sum(r.correct is False for r in runs)
    values["optimizer.chosen_correct"] = sum(r.chosen and r.correct for r in runs)
    values["optimizer.chosen_rank"] = max((plans.chosen_rank(a.runs) for a in analyses), default=0)
    taus = []
    for a in analyses:
        good = [r for r in a.runs if r.correct]
        if len(good) >= 2:
            taus.append(plans.kendall_tau([r.cost for r in good], [r.seconds for r in good]))
    values["executor.cost_time_tau"] = statistics.fmean(taus) if taus else 0.0
    qerrors = [q for a in analyses for q in (a.qerrors or ())]
    values["executor.qerror_median"] = statistics.median(qerrors) if qerrors else 0.0
    values["executor.qerror_max"] = max(qerrors, default=0.0)
    values["executor.rows_touched"] = sum(a.rows_touched for a in analyses)
    values["rewrites.expr_size_out"] = sum(a.expr_size_out for a in analyses)
    values["rewrites.nodes_out"] = sum(a.nodes_out for a in analyses)

    tree = dag = 0
    if wl.name == "reenact_txn":
        tree, dag = plans.selection_sizes(workloads.filter_scoped(wl))
    values["instrument.scope_cond_tree_nodes"] = tree
    values["instrument.scope_cond_dag_nodes"] = dag

    ops = [o for p in passes for o in p.ops]
    values["fail_rate"] = sum(o.status != "ok" for o in ops) / len(ops)
    plain = statistics.median(p.ref("run_s") for p in passes if not p.traced)
    values["trace.overhead_frac"] = statistics.median(p.ref("run_s") for p in traced) / plain - 1
    return values


def select(values: dict, specs: list[dict]) -> dict:
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.pop("PROVOPT_SEED", None)  # it would override the operations' seeds

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, work)
        reference_ok = workloads.self_check(wl)
        passes, stage, layer = run_passes(wl, args.seconds, bool(args.trace))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        first = next(p for p in passes if p.traced == bool(args.trace))
        analyses = analyze(wl, first, layer if args.trace else stage, bool(args.trace))
        if args.trace:
            values = per_layer(wl, passes, layer, analyses)
            metrics = select(values, spec["per_layer"])
            layer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            values = end_to_end(passes, analyses, rss_mb)
            metrics = select(values, spec["end_to_end"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [o for p in passes for o in p.ops]
    failed = sum(o.status != "ok" for o in ops)
    correct = reference_ok and failed == 0
    plain = [p for p in passes if not p.traced]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "reference_self_check": reference_ok, "deadline_s": wl.deadline_s,
        "passes": {"untraced": len(plain), "traced": len(passes) - len(plain)},
        "pass_totals": [{"traced": p.traced, "scales": [o.scale for o in p.ops],
                         **{f: p.total(f) for f in STAGE_FIELDS}} for p in passes],
        "wall_timings": {f: timing_summary([p.total(f) for p in plain]) for f in STAGE_FIELDS},
        "timings": {f: timing_summary([p.ref(f) for p in plain]) for f in STAGE_FIELDS},
        "operations": sorted({(o.label, o.status) for o in ops}),
        "plans": [{"op": a.label, "regret": a.regret,
                   "runs": [asdict(r) for r in a.runs]} for a in analyses],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "metrics": metrics}, indent=1) + "\n")
    for label, status in detail["operations"]:
        print(f"{args.workload} {label}: {status}")
    for a in analyses:
        wrong = sum(r.correct is False for r in a.runs)
        cut = sum(r.error == "cut short" for r in a.runs)
        print(f"{args.workload} {a.label}: {len(a.runs)} plans, {wrong} wrong, "
              f"{cut} cut short, regret {a.regret}")
    if not reference_ok:
        print("perfbench: the reference failed its self-check", file=sys.stderr)
    traced_run_s = [p.total("run_s") for p in passes if p.traced]
    print(json.dumps({"timings": detail["timings"], "wall_timings": detail["wall_timings"],
                      "passes": detail["passes"],
                      "traced_run_s": timing_summary(traced_run_s) if traced_run_s else None}))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
