"""Each search strategy's visiting order, pinned: for ten ``structure(seed)``
plan spaces and four settings, the paths of the trace in order, their costs
and the choice log's ``max_state_len`` must equal
``tests/golden/strategy_traces.json``.

To regenerate the file after an intended change of order, run
``PYTHONPATH=src python tests/test_strategy_traces.py`` from the repository
root and review the diff.
"""
import json
import random
import sys
from pathlib import Path

import pytest

from test_optimizer import structure

from provopt.optimizer import optimize

GOLDEN = Path(__file__).resolve().parent / "golden" / "strategy_traces.json"

SETTINGS = {
    "seq": dict(strategy="seq"),
    "bin": dict(strategy="bin"),
    "sa_30": dict(strategy="sa", max_iters=30),
    "bin_3": dict(strategy="bin", max_iters=3),
}
SEEDS = range(10)


def cost(path) -> float:
    """Deterministic and uneven, so annealing accepts and rejects."""
    return 1.0 + sum((i + 2) * c for i, c in enumerate(path)) % 7


def record(seed: int, setting: str) -> dict:
    pipeline, _ = structure(seed)
    res = optimize(pipeline, cost, rng=random.Random(seed), **SETTINGS[setting])
    return {"paths": [list(p.path) for p in res.trace],
            "costs": [p.cost for p in res.trace],
            "max_state_len": res.log.max_state_len}


def record_all() -> dict:
    return {f"{seed}/{setting}": record(seed, setting) for seed in SEEDS for setting in SETTINGS}


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_trace_matches_pinned_order(seed, setting):
    pinned = json.loads(GOLDEN.read_text())[f"{seed}/{setting}"]
    assert record(seed, setting) == pinned


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_all(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(SEEDS) * len(SETTINGS)} traces to {GOLDEN}", file=sys.stderr)
