"""Plan-space-agnostic cost-based optimization.

The optimizer treats the plan-generating pipeline as a black box that calls
back for every decision it faces: ``choose(num_options)`` returns the option
to take. Recording the taken path and the option count at every step is
enough to enumerate the whole plan space one leaf at a time while keeping
only O(depth) state: the next iteration replays a prefix of the previous
path with the latest possible choice bumped, and defaults to option 0 from
there on.

Strategies:

* sequential: exhaustive left-to-right leaf order (the default),
* binary: exhaustive, but bisecting the leaf order so early iterations
  sample distant plans,
* sa: simulated annealing over paths (randomized, not exhaustive).

An adaptive stopping rule halts any strategy once spending more time
optimizing can no longer pay for itself: stop when the best plan's expected
cost drops below the time already spent optimizing. With per-iteration cost
bounded by a constant this gives total (optimize + execute) cost within
twice the offline optimum.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

Pipeline = Callable[[Callable[[int], int]], object]
CostFn = Callable[[object], float]

#: placeholder plan for iterations whose pipeline raised
_FAILED = object()
#: annealing temperature below which acceptance is greedy
_FROZEN = 1e-12


class EnumerationError(Exception):
    """The pipeline's choice sequence diverged from the recorded plan space."""


@dataclass
class ChoiceLog:
    """Per-iteration record of choices taken and choices predetermined."""

    taken: list[int] = field(default_factory=list)
    pending: list[int] = field(default_factory=list)
    option_counts: list[int] = field(default_factory=list)
    max_state_len: int = 0
    _exhausted: bool = False

    def has_more_plans(self) -> bool:
        """True before the first iteration and until every choice point has
        run out of untried options."""
        return not self._exhausted

    def choose(self, num_options: int, *, clamp: bool = False,
               fallback: Optional[Callable[[int], int]] = None) -> int:
        """Take the next predetermined option, or ``fallback(num_options)``
        (the first option by default) once they run out, and record it.

        A predetermined option out of range raises, or with ``clamp`` (for
        strategies whose prefixes are approximate) becomes the last option.
        """
        if num_options < 1:
            raise EnumerationError("a choice point needs at least one option")
        if self.pending:
            pick = self.pending.pop(0)
            if pick >= num_options and clamp:
                pick = num_options - 1
        else:
            pick = fallback(num_options) if fallback is not None else 0
        if pick >= num_options:
            raise EnumerationError(
                f"predetermined option {pick} out of range for a choice point "
                f"with {num_options} options; the pipeline is not deterministic "
                "in its choice sequence")
        self.taken.append(pick)
        self.option_counts.append(num_options)
        self._track()
        return pick

    def finish_iteration(self) -> None:
        if self.pending:
            raise EnumerationError(
                "pipeline finished with predetermined choices left over; "
                "the previous iteration saw a longer path here")

    def plan_next_iteration(self) -> bool:
        """Set up the path for the next leaf; False when exhausted."""
        nxt = _successor(self.taken, self.option_counts) or []
        self.taken = []
        self.option_counts = []
        self.pending = nxt
        self._exhausted = not nxt
        self._track()
        return bool(nxt)

    def seed(self, prefix: Iterable[int]) -> None:
        self.taken = []
        self.option_counts = []
        self.pending = list(prefix)
        self._track()

    def _track(self) -> None:
        self.max_state_len = max(self.max_state_len, len(self.taken),
                                 len(self.pending), len(self.option_counts))


@dataclass
class CostedPlan:
    graph: object
    cost: float
    path: tuple[int, ...]


@dataclass
class OptimizerBudget:
    """Bookkeeping for the stopping rule; the clock is injectable so tests
    can run with simulated time."""

    clock: Callable[[], float] = time.monotonic
    time_optimizing: float = 0.0
    best_cost: float = math.inf
    iterations: int = 0


def continue_adaptive(budget: OptimizerBudget) -> bool:
    """Keep optimizing until the best plan is cheaper than the time spent."""
    return not budget.best_cost < budget.time_optimizing


@dataclass
class OptimizeResult:
    best: CostedPlan
    trace: list[CostedPlan]
    budget: OptimizerBudget
    log: ChoiceLog


#: runs the pipeline once with a choose callback; the plan, or ``_FAILED``
Attempt = Callable[[Callable[[int], int]], object]


def _run_lenient(attempt: Attempt, log: ChoiceLog, prefix: Iterable[int]):
    """Run the pipeline once with an approximate predetermined prefix:
    out-of-range options are clamped and leftovers ignored."""
    log.seed(prefix)
    plan = attempt(lambda n: log.choose(n, clamp=True))
    log.pending = []
    return plan


def optimize(pipeline: Pipeline, cost_fn: CostFn, *,
             strategy: str = "seq",
             stop: str = "none",
             max_iters: Optional[int] = None,
             clock: Optional[Callable[[], float]] = None,
             rng: Optional[random.Random] = None,
             sa_temp: float = 10.0,
             sa_cooling: float = 0.8) -> OptimizeResult:
    """Explore the plan space and return the cheapest plan found.

    ``stop`` is ``none`` (exhaust the strategy), ``adaptive`` (halt when the
    best cost undercuts the time spent), or ``max-iters`` combined with
    ``max_iters``. Simulated annealing, which never exhausts, ends without
    ``max_iters`` at its first step whose temperature is frozen (below
    ``1e-12``, where acceptance is already greedy), also under the adaptive
    rule, which never stops while no plan has a finite cost. Iterations whose
    pipeline or costing raises are recorded with infinite cost and skipped;
    when no plan is left, the error names the last such exception and
    chains it.
    """
    budget = OptimizerBudget(clock=clock or time.monotonic)
    log = ChoiceLog()
    trace: list[CostedPlan] = []
    best: Optional[CostedPlan] = None
    last_error: Optional[Exception] = None

    def attempt(choose):
        nonlocal last_error
        try:
            return pipeline(choose)
        except EnumerationError:
            raise
        except Exception as exc:
            last_error = exc
            return _FAILED  # recorded with infinite cost

    def should_continue() -> bool:
        if stop == "adaptive" and not continue_adaptive(budget):
            return False
        if max_iters is not None and budget.iterations >= max_iters:
            return False
        return True

    def consider(plan, path) -> CostedPlan:
        nonlocal best, last_error
        try:
            c = cost_fn(plan) if plan is not _FAILED else math.inf
        except Exception as exc:
            last_error = exc
            c = math.inf
        costed = CostedPlan(plan, c, tuple(path))
        trace.append(costed)
        budget.iterations += 1
        if c < budget.best_cost:
            budget.best_cost = c
            best = costed
        return costed

    if strategy == "seq":
        _search_sequential(attempt, log, budget, consider, should_continue)
    elif strategy == "bin":
        _search_binary(attempt, log, budget, consider, should_continue)
    elif strategy == "sa":
        if max_iters is None:
            max_iters = 1 + _frozen_step(sa_temp, sa_cooling)  # the first plan, then one per step
        _search_annealing(attempt, log, budget, consider, should_continue,
                          rng or random.Random(0), sa_temp, sa_cooling)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    if best is None:
        if last_error is None:
            raise EnumerationError("no plan could be generated")
        raise EnumerationError(f"no plan could be generated; last failure: "
                               f"{type(last_error).__name__}: {last_error}") from last_error
    return OptimizeResult(best, trace, budget, log)


def _search_sequential(attempt, log, budget, consider, should_continue):
    first = True
    while log.has_more_plans() and should_continue():
        started = budget.clock()
        if first:
            log.seed([])
            first = False
        plan = attempt(log.choose)
        if plan is not _FAILED:
            log.finish_iteration()
        path = list(log.taken)
        log.plan_next_iteration()
        consider(plan, path)
        budget.time_optimizing += budget.clock() - started


def _search_binary(attempt, log, budget, consider, should_continue):
    """Bisect the leaf order; exhaustive and duplicate-free.

    Intervals are pairs of realized paths; the midpoint prefix bumps the
    first differing choice to roughly the average and extends with first
    options.
    """
    realized: dict[tuple[int, ...], tuple[int, ...]] = {}

    def realize(prefix, *, maximal=False):
        started = budget.clock()
        if maximal:
            log.seed([])
            plan = attempt(lambda n: log.choose(n, fallback=lambda n: n - 1))
        else:
            plan = _run_lenient(attempt, log, prefix)
        path = tuple(log.taken)
        counts = tuple(log.option_counts)
        fresh = path not in realized
        realized[path] = counts
        if fresh:
            consider(plan, path)
        budget.time_optimizing += budget.clock() - started
        return path

    lo = realize([])
    if not should_continue():
        return
    hi = realize([], maximal=True)
    intervals = [(lo, hi)]
    while intervals and should_continue():
        lo, hi = intervals.pop(0)
        if lo == hi:
            continue
        mid = _bisect(lo, hi, realize, realized)
        if mid is None or mid == hi or mid == lo:
            continue
        intervals.append((lo, mid))
        intervals.append((mid, hi))


def _bisect(lo, hi, realize, realized):
    i = 0
    while i < min(len(lo), len(hi)) and lo[i] == hi[i]:
        i += 1
    if i >= min(len(lo), len(hi)):
        return None
    pick = max(lo[i] + 1, (lo[i] + hi[i]) // 2)
    mid = realize(list(lo[:i]) + [pick])
    if mid == hi or mid == lo:
        # subtree left of hi's branch is exhausted; fall back to lo's successor
        mid = _successor(lo, realized[lo])
        if mid is None:
            return None
        mid = realize(list(mid))
    return mid


def _successor(path, counts):
    """The path with its last choice that still has an untried option
    bumped and everything after it dropped; None when there is none."""
    nxt = list(path)
    cnt = list(counts)
    while nxt:
        c = nxt.pop()
        n = cnt.pop()
        if c + 1 < n:
            nxt.append(c + 1)
            return nxt
    return None


def annealing_temperature(temp0: float, cooling: float, step: int) -> float:
    """Temperature after a number of steps: temp0 * cooling**step."""
    return temp0 * cooling ** step


def _frozen_step(temp0: float, cooling: float) -> int:
    """The first annealing step whose temperature is below ``_FROZEN``."""
    if cooling >= 1 and temp0 >= _FROZEN:
        raise ValueError("simulated annealing without an iteration cap needs a "
                         f"cooling factor below 1, got {cooling}")
    step = 0
    while annealing_temperature(temp0, cooling, step) >= _FROZEN:
        step += 1
    return step


def _search_annealing(attempt, log, budget, consider, should_continue,
                      rng: random.Random, temp0: float, cooling: float):
    """Simulated annealing over choice paths.

    Each step rewrites one random position of the current path; the suffix
    is kept where the plan shape allows and re-extended with first options
    where it does not. Worse plans are accepted with probability
    exp(-cost increase / temperature) and the temperature follows
    :func:`annealing_temperature`.
    """
    started = budget.clock()
    log.seed([])
    plan = attempt(lambda n: log.choose(n, fallback=rng.randrange))
    cur_path = list(log.taken)
    cur_counts = list(log.option_counts)
    cur_cost = consider(plan, cur_path).cost
    budget.time_optimizing += budget.clock() - started

    step = 0
    while cur_path and should_continue():
        started = budget.clock()
        pos = rng.randrange(len(cur_path))
        proposal = list(cur_path)
        proposal[pos] = rng.randrange(cur_counts[pos])
        plan = _run_lenient(attempt, log, proposal)
        path = list(log.taken)
        counts = list(log.option_counts)
        costed = consider(plan, path)
        diff = costed.cost - cur_cost
        temp = annealing_temperature(temp0, cooling, step)
        accept = costed.cost < cur_cost
        if not accept and temp > _FROZEN and math.isfinite(diff):
            accept = rng.random() < math.exp(-diff / temp)
        if accept:
            cur_path, cur_counts, cur_cost = path, counts, costed.cost
        step += 1
        budget.time_optimizing += budget.clock() - started
