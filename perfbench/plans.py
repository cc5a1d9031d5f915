"""Untimed analysis of what one ``provopt run`` operation produced.

* :func:`evaluate_plans` evaluates every plan the optimizer enumerated
  once, timed, and marks each correct or wrong against the reference.
* :func:`regret` times the chosen plan against the fastest correct ones
  again, in rounds.
* :func:`node_rows` gives the actual row count of every node of a plan,
  evaluating one operator at a time over its children's results.
* The size counters walk expression DAGs with memoization, since the tree
  a scoped reenactment condition unfolds to is too large to visit.

:func:`deadline` bounds a call in the main thread with ``SIGALRM``, and
:func:`at_stack_offset` makes it at one of several stack depths.
"""
from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from provopt.algebra import (
    Node, Project, Relation, Select, all_nodes, expr_children, replace_children,
)
from provopt.executor import evaluate

#: regret compares the chosen plan with the NEAR_MAX fastest other correct
#: plans within NEAR_BEST of the fastest one, timed in alternation
NEAR_BEST = 1.5
NEAR_MAX = 2
#: alternation rounds: at least this many, then until the plans have run for
#: REGRET_MIN_S each on average, but at most REGRET_MAX_ROUNDS
REGRET_MIN_ROUNDS = 5
REGRET_MIN_S = 0.3
REGRET_MAX_ROUNDS = 15


#: timed calls rotate through this many stack depths ...
STACK_OFFSETS = 8
#: ... this many padding frames apart
OFFSET_FRAMES = 4


def at_stack_offset(i: int, fn):
    """Call ``fn`` at the ``i``-th of STACK_OFFSETS stack depths.

    CPython 3.11 keeps frames in 16 KiB chunks and frees a chunk when the
    frame at its start returns, so a hot call made just across a chunk
    boundary maps and unmaps a chunk each time. At one harness depth that
    made an operation ten times slower, with thirty times the page faults,
    on some seeds and not others. Rotating the depth, as one rotates link order for
    native code, keeps a single stack layout from deciding a median.
    """
    def deeper(frames: int):
        return fn() if frames == 0 else deeper(frames - 1)

    return deeper(i % STACK_OFFSETS * OFFSET_FRAMES)


class DeadlineExceeded(BaseException):
    """An operation ran past its deadline. A BaseException, so the
    optimizer's per-iteration ``except Exception`` cannot swallow it."""


@contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class PlanRun:
    path: tuple[int, ...]
    cost: float
    chosen: bool
    #: evaluate time; None when the plan failed or was cut short
    seconds: Optional[float]
    #: None when the plan failed or was cut short before its result was known
    correct: Optional[bool]
    error: Optional[str] = None


def _timed(graph, db, limit_s: float, offset: int):
    """Evaluate ``graph`` at stack offset ``offset``, after a full garbage
    collection so that each plan starts from the same heap."""
    def timed():
        gc.collect()
        with deadline(limit_s):
            start = time.perf_counter()
            bag = evaluate(graph, db)
            return bag, time.perf_counter() - start

    return at_stack_offset(offset, timed)


def evaluate_plans(result, db, matches, limit_s: float, *, prune: bool = False
                   ) -> list[PlanRun]:
    """Evaluate each plan of an ``OptimizeResult`` once over ``db``,
    aligned with ``result.trace``; ``matches`` checks a result bag against
    the reference.

    With ``prune``, a plan still running after twice the time of the
    fastest correct plan so far is stopped, since it cannot be the fastest;
    its correctness stays unknown.
    """
    runs = []
    best = math.inf
    for plan in result.trace:
        run = PlanRun(plan.path, plan.cost, plan is result.best, None, None)
        runs.append(run)
        if not isinstance(plan.graph, Node) or not math.isfinite(plan.cost):
            run.error = "not costed"
            continue
        limit = min(limit_s, 2 * best) if prune else limit_s
        try:
            bag, run.seconds = _timed(plan.graph, db, limit, 0)
            run.correct = matches(bag)
        except DeadlineExceeded:
            run.error = "cut short" if limit < limit_s else "deadline"
            continue
        except Exception as exc:  # a plan that cannot evaluate counts as failed
            run.error = f"{type(exc).__name__}: {exc}"
            continue
        if run.correct:
            best = min(best, run.seconds)
    return runs


def regret(result, runs: list[PlanRun], db, limit_s: float) -> Optional[float]:
    """Evaluate time of the chosen plan over that of the fastest correct plan.

    The chosen plan and the NEAR_MAX fastest other correct plans within
    NEAR_BEST of the fastest one are timed again, one after another, in
    rounds; odd and even rounds run them in opposite order. Each plan's
    share of its round's total time cancels a change in machine speed
    between rounds; the result is the chosen plan's median share over the
    smallest median share of the others. None when no correct plan
    evaluated.
    """
    timed = [(r.seconds, plan) for r, plan in zip(runs, result.trace)
             if r.correct and r.seconds is not None]
    if not timed:
        return None
    fastest = min(t for t, _ in timed)
    near = sorted((t, i, plan) for i, (t, plan) in enumerate(timed)
                  if t <= NEAR_BEST * fastest and plan is not result.best)
    near = [plan for _, _, plan in near[:NEAR_MAX]]
    if not near:
        return 1.0
    contenders = near + [result.best]
    shares: dict[int, list[float]] = {id(p): [] for p in contenders}
    spent = 0.0
    for rounds in range(1, REGRET_MAX_ROUNDS + 1):
        order = contenders if rounds % 2 else contenders[::-1]
        times = {id(p): _timed(p.graph, db, limit_s, rounds)[1] for p in order}
        total = sum(times.values())
        for key, t in times.items():
            shares[key].append(t / total)
        spent += total
        if rounds >= REGRET_MIN_ROUNDS and spent >= REGRET_MIN_S * len(contenders):
            break
    median = {key: statistics.median(v) for key, v in shares.items()}
    return median[id(result.best)] / min(median[id(p)] for p in near)


def chosen_rank(runs: list[PlanRun]) -> int:
    """1-based place of the chosen plan among the evaluated plans, fastest
    first; 0 when the chosen plan did not evaluate."""
    chosen = next((r for r in runs if r.chosen and r.seconds is not None), None)
    if chosen is None:
        return 0
    return 1 + sum(r.seconds < chosen.seconds for r in runs
                   if r.seconds is not None and not r.chosen)


def kendall_tau(xs, ys) -> float:
    """Kendall's tau-a; 0 with fewer than two points."""
    n = len(xs)
    if n < 2:
        return 0.0
    score = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = (xs[i] > xs[j]) - (xs[i] < xs[j])
            b = (ys[i] > ys[j]) - (ys[i] < ys[j])
            score += a * b
    return score / (n * (n - 1) / 2)


def node_rows(root: Node, db) -> dict[Node, int]:
    """Actual output rows of every node, each operator evaluated once over
    its children's results bound as base relations."""
    results = {}
    for node in all_nodes(root):
        kids = node.children
        if not kids:
            results[node] = evaluate(node, db)
            continue
        names = [f"perfbench_input_{i}" for i in range(len(kids))]
        leaves = tuple(Relation(name, results[k].schema) for name, k in zip(names, kids))
        inputs = {name: results[k] for name, k in zip(names, kids)}
        results[node] = evaluate(replace_children(node, leaves), inputs)
    return {node: bag.total for node, bag in results.items()}


def qerror(estimated: float, actual: float) -> float:
    est, act = max(estimated, 1.0), max(actual, 1.0)
    return max(est / act, act / est)


def expr_tree_size(e, memo: dict) -> int:
    """Node count of the tree an expression DAG unfolds to."""
    key = id(e)
    if key not in memo:
        memo[key] = 1 + sum(expr_tree_size(c, memo) for c in expr_children(e))
    return memo[key]


def expr_dag_size(e, seen: set) -> int:
    """Distinct expression objects reachable from ``e`` not yet in ``seen``."""
    if id(e) in seen:
        return 0
    seen.add(id(e))
    return 1 + sum(expr_dag_size(c, seen) for c in expr_children(e))


def plan_expr_size(root: Node) -> int:
    """Summed tree size of every projection and selection expression."""
    memo: dict = {}
    total = 0
    for n in all_nodes(root):
        if isinstance(n, Project):
            total += sum(expr_tree_size(e, memo) for e, _ in n.targets)
        elif isinstance(n, Select):
            total += expr_tree_size(n.cond, memo)
    return total


def selection_sizes(root: Node) -> tuple[int, int]:
    """(tree nodes, DAG nodes) summed over the selection conditions."""
    memo: dict = {}
    seen: set = set()
    tree = dag = 0
    for n in all_nodes(root):
        if isinstance(n, Select):
            tree += expr_tree_size(n.cond, memo)
            dag += expr_dag_size(n.cond, seen)
    return tree, dag
