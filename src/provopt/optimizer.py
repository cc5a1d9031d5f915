"""Plan-space-agnostic cost-based optimization.

The optimizer treats the plan-generating pipeline as a black box that calls
back for every decision it faces: ``choose(num_options)`` returns the option
to take. Recording the taken path and the option count at every step is
enough to enumerate the whole plan space one leaf at a time while keeping
only O(depth) state: the next iteration replays a prefix of the previous
path with the latest possible choice bumped, and defaults to option 0 from
there on.

:func:`optimize` is the one search loop. Each turn it checks the stopping
rule, seeds the prefix the strategy proposes, runs the pipeline, reads back
the path and the option counts, costs the plan, sends the outcome to the
strategy and charges the time. A strategy is a generator that only proposes
the next prefix from the outcomes it is sent:

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
from typing import Callable, Generator, Iterable, Optional

from .algebra import sharing_subplans

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


#: What a strategy proposes for one run: the prefix to replay; ``exact``
#: (every option in range and none left over) or approximate (out-of-range
#: options clamped, leftovers dropped); ``fallback(num_options)`` for the
#: choices past the prefix (None: the first option); and ``once``, which
#: skips costing a path costed before.
Proposal = tuple[list[int], bool, Optional[Callable[[int], int]], bool]
#: What the strategy is sent back: the path taken, its option counts and its
#: costed plan, None when ``once`` skipped the costing.
Outcome = tuple[tuple[int, ...], tuple[int, ...], Optional[CostedPlan]]
Strategy = Generator[Proposal, Outcome, None]


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

    The search runs in one :func:`provopt.algebra.sharing_subplans` scope,
    so the pipeline and ``cost_fn`` of one iteration reuse the subplans and
    facts of earlier ones; it ends before this call returns or raises.
    """
    if strategy == "seq":
        proposals = _sequential()
    elif strategy == "bin":
        proposals = _binary()
    elif strategy == "sa":
        if max_iters is None:
            max_iters = 1 + _frozen_step(sa_temp, sa_cooling)  # the first plan, then one per step
        proposals = _annealing(rng or random.Random(0), sa_temp, sa_cooling)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    budget = OptimizerBudget(clock=clock or time.monotonic)
    log = ChoiceLog()
    trace: list[CostedPlan] = []
    costed_paths: set[tuple[int, ...]] = set()
    best: Optional[CostedPlan] = None
    last_error: Optional[Exception] = None

    with sharing_subplans():
        proposal: Optional[Proposal] = next(proposals)
        while proposal is not None:
            if (stop == "adaptive" and not continue_adaptive(budget)
                    or max_iters is not None and budget.iterations >= max_iters):
                break
            started = budget.clock()
            prefix, exact, fallback, once = proposal
            log.seed(prefix)
            try:
                plan = pipeline(lambda n: log.choose(n, clamp=not exact, fallback=fallback))
            except EnumerationError:
                raise
            except Exception as exc:
                plan, last_error = _FAILED, exc  # recorded with infinite cost
            if not exact:
                log.pending = []
            elif plan is not _FAILED:
                log.finish_iteration()
            path = tuple(log.taken)
            costed = None
            if not (once and path in costed_paths):
                try:
                    c = cost_fn(plan) if plan is not _FAILED else math.inf
                except Exception as exc:
                    c, last_error = math.inf, exc
                costed = CostedPlan(plan, c, path)
                trace.append(costed)
                costed_paths.add(path)
                budget.iterations += 1
                if c < budget.best_cost:
                    budget.best_cost, best = c, costed
            try:
                proposal = proposals.send((path, tuple(log.option_counts), costed))
            except StopIteration:
                proposal = None
            budget.time_optimizing += budget.clock() - started

    if best is None:
        if last_error is None:
            raise EnumerationError("no plan could be generated")
        raise EnumerationError(f"no plan could be generated; last failure: "
                               f"{type(last_error).__name__}: {last_error}") from last_error
    return OptimizeResult(best, trace, budget, log)


def _sequential() -> Strategy:
    """Every leaf once, left to right: each run replays the last path's successor."""
    prefix = []
    while prefix is not None:
        path, counts, _ = yield prefix, True, None, False
        prefix = _successor(path, counts)


def _binary() -> Strategy:
    """Bisect the leaf order; exhaustive and duplicate-free.

    Intervals are pairs of realized paths, the first and the last leaf to
    begin with; the midpoint prefix bumps the first differing choice to
    roughly the average and extends with first options. A midpoint that
    lands on an end means the subtree left of the upper end's branch is
    exhausted, and the lower end's successor is tried instead.
    """
    lo, lo_counts, _ = yield [], False, None, True
    hi, _, _ = yield [], False, lambda n: n - 1, True
    counts = {lo: lo_counts}
    intervals = [(lo, hi)]
    while intervals:
        lo, hi = intervals.pop(0)
        i = next((i for i, (a, b) in enumerate(zip(lo, hi)) if a != b), None)
        if i is None:  # equal, or one a prefix of the other
            continue
        mid, counts[mid], _ = yield [*lo[:i], max(lo[i] + 1, (lo[i] + hi[i]) // 2)], False, None, True
        if mid in (lo, hi):
            nxt = _successor(lo, counts[lo])
            if nxt is None:
                continue
            mid, counts[mid], _ = yield nxt, False, None, True
        if mid not in (lo, hi):
            intervals += [(lo, mid), (mid, hi)]


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


def _annealing(rng: random.Random, temp0: float, cooling: float) -> Strategy:
    """Simulated annealing over choice paths, from a random first path.

    Each step rewrites one random position of the current path; the suffix
    is kept where the plan shape allows and re-extended with first options
    where it does not. Worse plans are accepted with probability
    exp(-cost increase / temperature) and the temperature follows
    :func:`annealing_temperature`.
    """
    cur_path, cur_counts, cur = yield [], False, rng.randrange, False
    step = 0
    while cur_path:
        pos = rng.randrange(len(cur_path))
        proposal = list(cur_path)
        proposal[pos] = rng.randrange(cur_counts[pos])
        path, counts, costed = yield proposal, False, None, False
        diff = costed.cost - cur.cost
        temp = annealing_temperature(temp0, cooling, step)
        accept = costed.cost < cur.cost
        if not accept and temp > _FROZEN and math.isfinite(diff):
            accept = rng.random() < math.exp(-diff / temp)
        if accept:
            cur_path, cur_counts, cur = path, counts, costed
        step += 1
