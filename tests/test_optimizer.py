import itertools
import math
import random

import pytest

from provopt.algebra import SchemaError
from provopt.optimizer import (
    ChoiceLog, EnumerationError, OptimizerBudget, _successor, continue_adaptive, optimize,
)


# ---------------------------------------------------------------------------
# synthetic choice structures


def structure(seed: int):
    """Deterministic asymmetric plan space: the option count at a choice
    point depends only on the path prefix; depth <= 6, branching <= 3."""

    def counts(prefix: tuple[int, ...]):
        r = random.Random(f"{seed}:{prefix}")
        depth_limit = r.randint(1, 6)
        if len(prefix) >= depth_limit:
            return None
        return r.randint(1, 3)

    def pipeline(choose):
        path = []
        while True:
            c = counts(tuple(path))
            if c is None:
                return tuple(path)
            path.append(choose(c))

    def leaves():
        out = []

        def rec(prefix):
            c = counts(prefix)
            if c is None:
                out.append(prefix)
                return
            for i in range(c):
                rec(prefix + (i,))

        rec(())
        return out

    return pipeline, leaves


def fig_tree_pipeline(choose):
    """Aggregation-method choice followed by one reorder choice per join."""
    first = choose(2)
    if first == 0:
        choose(2)
    else:
        choose(2)
        choose(2)
    return None


class TestChoiceLog:
    def test_defaults_to_first_option(self):
        log = ChoiceLog()
        assert log.choose(3) == 0
        assert log.taken == [0] and log.option_counts == [3]

    def test_pops_predetermined_head(self):
        log = ChoiceLog(pending=[1, 0])
        assert log.choose(2) == 1
        assert log.pending == [0]

    def test_two_calls_record_counts(self):
        log = ChoiceLog()
        log.choose(2)
        log.choose(3)
        assert log.taken == [0, 0] and log.option_counts == [2, 3]

    def test_out_of_range_predetermined_raises(self):
        log = ChoiceLog(pending=[5])
        with pytest.raises(EnumerationError):
            log.choose(2)

    def test_out_of_range_predetermined_clamps_when_asked(self):
        log = ChoiceLog(pending=[5, 2])
        assert log.choose(2, clamp=True) == 1
        assert log.choose(3, clamp=True) == 2
        assert log.taken == [1, 2] and log.option_counts == [2, 3]

    def test_leftover_predetermined_raises(self):
        log = ChoiceLog(pending=[0, 1])
        log.choose(2)
        with pytest.raises(EnumerationError):
            log.finish_iteration()

    def test_next_iteration_bumps_latest_choice(self):
        assert _successor([0, 1], [2, 2]) == [1]

    def test_exhausted_when_all_last_options(self):
        assert _successor([1, 1, 1], [2, 2, 2]) is None

    @pytest.mark.parametrize("seed", range(30))
    def test_replay_reaches_lexicographic_successor(self, seed):
        pipeline, leaves = structure(seed)
        expected = leaves()
        log = ChoiceLog()
        visited = []
        prefix = []
        while prefix is not None:
            log.seed(prefix)
            path = pipeline(log.choose)
            log.finish_iteration()
            visited.append(path)
            prefix = _successor(log.taken, log.option_counts)
        assert visited == expected

    def test_successor_lifecycle(self):
        log = ChoiceLog()
        prefix = []
        count = 0
        while prefix is not None:
            log.seed(prefix)
            fig_tree_pipeline(log.choose)
            prefix = _successor(log.taken, log.option_counts)
            count += 1
        assert count == 6  # one iteration per leaf of the example tree
        assert _successor(log.taken, log.option_counts) is None

    @pytest.mark.parametrize("seed", range(15))
    def test_iterations_until_exhausted_equals_leaf_count(self, seed):
        pipeline, leaves = structure(seed)
        res = optimize(pipeline, lambda p: 1.0, strategy="seq")
        assert len(res.trace) == len(leaves())


class TestSequential:
    def test_fig_tree_visits_six_paths_in_order(self):
        res = optimize(fig_tree_pipeline, lambda p: 1.0)
        assert [list(p.path) for p in res.trace] == [
            [0, 0], [0, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]

    def test_zero_choice_points_single_iteration(self):
        res = optimize(lambda choose: "only", lambda p: 5.0)
        assert len(res.trace) == 1
        assert res.best.cost == 5.0 and res.best.path == ()

    def test_minimum_matches_bruteforce_over_cube(self):
        costs = {}

        def pipeline(choose):
            path = tuple(choose(2) for _ in range(3))
            return path

        def cost(path):
            return 1.0 + sum(i * c for i, c in enumerate(path, 1)) % 5

        res = optimize(pipeline, cost)
        brute = min(cost(p) for p in itertools.product((0, 1), repeat=3))
        assert res.best.cost == brute
        assert len(res.trace) == 8

    @pytest.mark.parametrize("strategy", ["seq", "bin", "sa"])
    def test_failed_iterations_are_skipped(self, strategy):
        def pipeline(choose):
            if choose(2) == 0:
                raise RuntimeError("bad branch")
            return "ok"

        res = optimize(pipeline, lambda p: 1.0, strategy=strategy,
                       max_iters=8, rng=random.Random(4))
        assert res.best.graph == "ok"
        assert any(math.isinf(p.cost) for p in res.trace)

    @pytest.mark.parametrize("strategy", ["seq", "bin", "sa"])
    def test_no_plan_error_names_the_pipeline_failure(self, strategy):
        def pipeline(choose):
            choose(2)
            raise ValueError("boom")

        with pytest.raises(EnumerationError, match="boom") as info:
            optimize(pipeline, lambda p: 1.0, strategy=strategy,
                     max_iters=4, rng=random.Random(4))
        assert isinstance(info.value.__cause__, ValueError)

    def test_a_failed_iteration_keeps_its_exception(self):
        def pipeline(choose):
            if choose(3) == 1:
                raise SchemaError("projection target x: unresolved attribute(s)")
            return "plan"

        def cost(plan):  # the failed iteration is not costed, so this is the third
            if costed:
                raise KeyError("no statistics for relation r")
            costed.append(plan)
            return 1.0

        costed = []
        ok, failed, uncosted = optimize(pipeline, cost).trace
        assert (ok.path, ok.cost, ok.error) == ((0,), 1.0, None)
        assert failed.path == (1,) and math.isinf(failed.cost)
        assert isinstance(failed.error, SchemaError) and "target x" in str(failed.error)
        assert uncosted.graph == "plan" and math.isinf(uncosted.cost)
        assert isinstance(uncosted.error, KeyError)

    def test_no_plan_error_names_the_costing_failure(self):
        def cost(plan):
            raise KeyError("no statistics for relation r")

        with pytest.raises(EnumerationError, match="no statistics for relation r"):
            optimize(fig_tree_pipeline, cost)


class TestBinary:
    def test_depth_one_visits_both_leaves(self):
        def pipeline(choose):
            return choose(2)

        res = optimize(pipeline, lambda p: 1.0, strategy="bin")
        assert sorted(p.path for p in res.trace) == [(0,), (1,)]

    def test_first_plans_are_farther_apart_than_sequential(self):
        def pipeline(choose):
            return tuple(choose(2) for _ in range(3))

        def tree_dist(a, b):
            common = 0
            for x, y in zip(a, b):
                if x != y:
                    break
                common += 1
            return (len(a) - common) + (len(b) - common)

        def spread(paths):
            return min(tree_dist(a, b) for a in paths for b in paths if a != b)

        seq = optimize(pipeline, lambda p: 1.0).trace[:3]
        binr = optimize(pipeline, lambda p: 1.0, strategy="bin").trace[:3]
        assert spread([p.path for p in binr]) > spread([p.path for p in seq])

    @pytest.mark.parametrize("seed", range(40))
    def test_full_coverage_no_repeats(self, seed):
        pipeline, leaves = structure(seed)
        res = optimize(pipeline, lambda p: 1.0, strategy="bin")
        visited = [p.path for p in res.trace]
        assert len(visited) == len(set(visited))
        assert set(visited) == set(leaves())


class TestSimulatedAnnealing:
    def _pipeline_and_cost(self):
        def pipeline(choose):
            return tuple(choose(2) for _ in range(6))

        def cost(path):
            # convex bowl over the 2^6 hypercube with a unique optimum
            target = (1, 0, 1, 1, 0, 1)
            return 1.0 + sum((a - b) ** 2 for a, b in zip(path, target))

        return pipeline, cost

    def test_deterministic_under_seed(self):
        pipeline, cost = self._pipeline_and_cost()
        a = optimize(pipeline, cost, strategy="sa", max_iters=40,
                     rng=random.Random(5))
        b = optimize(pipeline, cost, strategy="sa", max_iters=40,
                     rng=random.Random(5))
        assert [p.path for p in a.trace] == [p.path for p in b.trace]

    def test_a_shrinking_choice_point_clamps_the_kept_suffix(self, monkeypatch):
        # a proposal that sets the first choice to 1 keeps a second choice
        # of 1 or 2, out of range where that choice has one option
        clamped = []
        choose = ChoiceLog.choose

        def recording(log, n, **kw):
            clamped.append(bool(log.pending) and log.pending[0] >= n)
            return choose(log, n, **kw)

        monkeypatch.setattr(ChoiceLog, "choose", recording)

        def pipeline(choose):
            first = choose(2)
            return first, choose(3 if first == 0 else 1)

        res = optimize(pipeline, lambda path: 1.0 + path[1], strategy="sa", max_iters=40,
                       rng=random.Random(1))
        assert any(clamped)
        assert {p.path for p in res.trace} == {(0, 0), (0, 1), (0, 2), (1, 0)}

    def test_finds_near_optimum_in_most_runs(self):
        pipeline, cost = self._pipeline_and_cost()
        hits = 0
        for seed in range(100):
            res = optimize(pipeline, cost, strategy="sa", max_iters=60,
                           rng=random.Random(seed), sa_temp=4.0, sa_cooling=0.9)
            if res.best.cost <= 1.05:
                hits += 1
        assert hits >= 95

    def test_zero_cooling_is_greedy(self):
        pipeline, cost = self._pipeline_and_cost()
        res = optimize(pipeline, cost, strategy="sa", max_iters=30,
                       rng=random.Random(3), sa_temp=1e-13, sa_cooling=0.5)
        costs = [p.cost for p in res.trace]
        best_so_far = costs[0]
        # greedy never accepts a worse current plan, so the best only improves
        assert res.best.cost == min(costs)

    def test_ends_without_stop_rule(self):
        # 10 * 0.8**step first drops below 1e-12 at step 135: the walk is
        # the first plan and steps 0..134
        pipeline, cost = self._pipeline_and_cost()
        calls = itertools.count()

        def bounded(choose):
            if next(calls) > 10_000:
                raise EnumerationError("the walk did not end")
            return pipeline(choose)

        res = optimize(bounded, cost, strategy="sa", rng=random.Random(1))
        assert len(res.trace) == 136
        with pytest.raises(ValueError, match="cooling"):
            optimize(pipeline, cost, strategy="sa", sa_cooling=1.0)

    def test_adaptive_ends_when_every_plan_fails(self):
        # the adaptive rule alone never stops while the best cost is
        # infinite; the frozen-temperature cap ends the walk
        calls = itertools.count()

        def failing(choose):
            if next(calls) > 10_000:
                raise EnumerationError("the walk did not end")
            choose(2)
            raise RuntimeError("no plan here")

        with pytest.raises(EnumerationError,
                           match="no plan could be generated; last failure: "
                                 "RuntimeError: no plan here"):
            optimize(failing, lambda plan: 0.0, strategy="sa", stop="adaptive",
                     rng=random.Random(1))
        assert next(calls) == 136

    def test_temperature_sequence_is_geometric(self):
        from provopt.optimizer import annealing_temperature
        for step in range(10):
            assert annealing_temperature(8.0, 0.5, step) == 8.0 * 0.5 ** step


class TestAdaptiveStopping:
    def _simulate(self, costs, c=1.0):
        clock = [0.0]

        def fake_clock():
            return clock[0]

        def pipeline(choose):
            i = choose(len(costs))
            clock[0] += c
            return i

        res = optimize(pipeline, lambda i: float(costs[i]), stop="adaptive",
                       clock=fake_clock)
        return res

    def test_always_continue_while_best_infinite(self):
        budget = OptimizerBudget()
        budget.time_optimizing = 100.0
        assert continue_adaptive(budget) is True

    def test_stops_once_best_beats_time_spent(self):
        res = self._simulate([100, 50, 3, 2, 1])
        # after 4 iterations the best (2) undercuts the time spent (4)
        assert len(res.trace) == 4
        assert res.best.cost == 2

    def test_two_competitive_on_random_sequences(self):
        rng = random.Random(2024)
        worst = 0.0
        for _ in range(400):
            n = rng.randint(1, 100)
            costs = [rng.choice([0.5, 1, 2, 5, 10, 50, 100]) for _ in range(n)]
            res = self._simulate(costs)
            total = res.budget.time_optimizing + res.best.cost
            offline = min(min(costs[:k]) + k for k in range(1, n + 1))
            ratio = total / offline
            worst = max(worst, ratio)
        assert worst <= 2.05

    @pytest.mark.parametrize("costs", [
        [100] * 20,                      # constant, expensive
        list(range(100, 0, -5)),         # monotone decreasing
        [1000, 1000, 0.5] + [1000] * 17,  # spike then cheap plan
        [0.1],                           # immediately cheap
    ])
    def test_adversarial_sequences_competitive(self, costs):
        res = self._simulate(costs)
        total = res.budget.time_optimizing + res.best.cost
        offline = min(min(costs[:k]) + k for k in range(1, len(costs) + 1))
        assert total <= 2.05 * offline


class TestStateBounds:
    @pytest.mark.parametrize("seed", range(20))
    def test_enumerator_state_bounded_by_depth(self, seed):
        pipeline, leaves = structure(seed)
        res = optimize(pipeline, lambda p: 1.0)
        deepest = max(len(p.path) for p in res.trace)
        assert res.log.max_state_len <= deepest


class TestReplayDeterminism:
    def test_recorded_path_reproduces_the_plan(self):
        from provopt.algebra import Agg, Relation, structurally_equal
        from provopt.instrument import instrument_query
        from provopt.executor import TableStats, cost

        base = Relation("R", ("a", "b"))
        query = Agg(("b",), (("sum", "a", "s"),),
                    Agg(("a", "b"), (("sum", "a", "s0"),), base))
        stats = {"R": TableStats(100, {"a": 50, "b": 5})}

        def pipeline(choose):
            return instrument_query(query, choice=choose)

        res = optimize(pipeline, lambda g: cost(g, stats).total)
        log = ChoiceLog(pending=list(res.best.path))
        replayed = pipeline(log.choose)
        log.finish_iteration()
        assert tuple(log.taken) == res.best.path
        assert structurally_equal(replayed, res.best.graph)
