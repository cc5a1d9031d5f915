"""Byte identity of the command line: each command's exit code and stdout
against ``tests/golden/cli/<name>.out`` ("exit N" on the first line, then
stdout as printed).

The commands are deterministic: fixed seeds and no timing-dependent output
(``--stop adaptive`` and ``bench --mode agg`` are left out). Paths are
relative to the repository root. To regenerate the files after an intended
change of output, run ``PYTHONPATH=src python tests/test_cli_golden.py``
from the repository root and review the diff.
"""
import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from provopt.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli"
G = "tests/golden/cli"  # GOLDEN relative to ROOT, where the commands run

COMMANDS = {
    "run_seq": ("run", "--prov-of", "fixtures/pricey_shops.plan", "--data", "fixtures",
                "--strategy", "seq", "--stop", "none"),
    "run_bin": ("run", "--prov-of", "fixtures/sales_per_shop.plan", "--data", "fixtures",
                "--strategy", "bin"),
    "run_sa": ("run", "--prov-of", "fixtures/sales_per_shop.plan", "--data", "fixtures",
               "--strategy", "sa", "--stop", "max-iters=40"),
    "run_cbo": ("run", "--prov-of", "fixtures/sales_per_shop.plan", "--data", "fixtures",
                "--agg-method", "cbo"),
    "run_join": ("run", "--prov-of", "fixtures/sales_per_shop.plan", "--data", "fixtures",
                 "--agg-method", "join"),
    "run_window": ("run", "--prov-of", "fixtures/sales_per_shop.plan", "--data", "fixtures",
                   "--agg-method", "window"),
    "run_plan": ("run", "--plan", "fixtures/pricey_shops.plan", "--data", "fixtures"),
    "reenact_none": ("run", "--reenact", "fixtures_txn/t1.sql", "--data", "fixtures_txn"),
    "reenact_filter": ("run", "--reenact", "fixtures_txn/t1.sql", "--data", "fixtures_txn",
                       "--scope", "filter"),
    "reenact_histjoin": ("run", "--reenact", "fixtures_txn/t1.sql", "--data", f"{G}/txn_keyed",
                         "--scope", "histjoin"),
    "reenact_histjoin_no_key": ("run", "--reenact", "fixtures_txn/t1.sql",
                                "--data", "fixtures_txn", "--scope", "histjoin"),
    # 96 statements in the reenact_txn benchmark's shape: a stack of merges and fences
    "reenact96_none": ("run", "--reenact", f"{G}/txn96.sql", "--data", f"{G}/txn96",
                       "--scope", "none"),
    "reenact96_histjoin": ("run", "--reenact", f"{G}/txn96.sql", "--data", f"{G}/txn96",
                           "--scope", "histjoin"),
    "instrument_prov": ("instrument", "--prov-of", "fixtures/pricey_shops.plan",
                        "--data", "fixtures", "--agg-method", "window"),
    "instrument_reenact": ("instrument", "--reenact", "fixtures_txn/t1.sql",
                           "--data", f"{G}/txn_keyed", "--scope", "histjoin"),
    "optimize": ("optimize", "--plan", "fixtures/pricey_shops.plan", "--data", "fixtures"),
    "optimize_rules": ("optimize", "--plan", "fixtures/pricey_shops.plan", "--data", "fixtures",
                       "--rules", "merge_selections,merge_projections"),
    "optimize_dump_steps": ("optimize", "--plan", "fixtures/pricey_shops.plan",
                            "--data", "fixtures", "--dump-steps"),
    "explain_properties": ("explain-properties", "--plan", "fixtures/sales_per_shop.plan",
                           "--data", "fixtures"),
    "sql": ("sql", "--plan", "fixtures/pricey_shops.plan", "--data", "fixtures"),
    "bench_reenact": ("bench", "--mode", "reenact", "--updates", "12"),
    "txn_union_run_plan": ("run", "--plan", f"{G}/txn_union.plan", "--data", "fixtures_txn"),
    "txn_union_run": ("run", "--prov-of", f"{G}/txn_union.plan", "--data", "fixtures_txn"),
}
for _plan in ("cross_agg", "cross_dupelim"):
    _p = f"{G}/{_plan}.plan"
    COMMANDS.update({
        f"{_plan}_run": ("run", "--prov-of", _p, "--data", "fixtures"),
        f"{_plan}_run_join": ("run", "--prov-of", _p, "--data", "fixtures",
                              "--agg-method", "join"),
        f"{_plan}_run_sa": ("run", "--prov-of", _p, "--data", "fixtures",
                            "--strategy", "sa", "--stop", "max-iters=40"),
        f"{_plan}_run_plan": ("run", "--plan", _p, "--data", "fixtures"),
        f"{_plan}_instrument": ("instrument", "--prov-of", _p, "--data", "fixtures",
                                "--agg-method", "join"),
        f"{_plan}_optimize": ("optimize", "--plan", _p, "--data", "fixtures"),
        f"{_plan}_optimize_dump_steps": ("optimize", "--plan", _p, "--data", "fixtures",
                                         "--dump-steps"),
        f"{_plan}_explain_properties": ("explain-properties", "--plan", _p, "--data", "fixtures"),
        f"{_plan}_sql": ("sql", "--plan", _p, "--data", "fixtures"),
    })
# the agg_deep benchmark shape: 16 plans whose traces and costs are pinned
for _strategy, *_stop in (("seq",), ("bin",), ("sa", "--stop", "max-iters=40")):
    COMMANDS[f"agg4_run_cbo_{_strategy}"] = (
        "run", "--prov-of", f"{G}/agg4.plan", "--data", f"{G}/agg4", "--agg-method", "cbo",
        "--strategy", _strategy, *_stop)
# S(k, g) and T(k, h) share the column name k, which the join primes to k'
_shared = ("--data", f"{G}/shared_names")
COMMANDS.update({
    "shared_names_join_run": ("run", "--prov-of", f"{G}/shared_names_join.plan", *_shared),
    "shared_names_join_run_no_heuristics": ("run", "--prov-of", f"{G}/shared_names_join.plan",
                                            *_shared, "--no-heuristics"),
    "shared_names_agg_run_window": ("run", "--prov-of", f"{G}/shared_names_agg.plan", *_shared,
                                    "--agg-method", "window"),
    "shared_names_agg_run_cbo": ("run", "--prov-of", f"{G}/shared_names_agg.plan", *_shared,
                                 "--agg-method", "cbo"),
})
COMMANDS["self_join_agg_run_cbo"] = ("run", "--prov-of", f"{G}/self_join_agg.plan",
                                     "--data", "fixtures", "--agg-method", "cbo")


def run_command(name: str) -> bytes:
    """Exit code and stdout of one command, as stored in its golden file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(COMMANDS[name]))
    return f"exit {code}\n{out.getvalue()}".encode()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("PROVOPT_SEED", raising=False)
    assert run_command(name) == (GOLDEN / f"{name}.out").read_bytes()


def test_shared_names_join_has_the_unrewritten_plans_provenance(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("PROVOPT_SEED", raising=False)

    def table(name):
        out = run_command(name).decode()
        return out[out.index("\n\n"):out.index("SQL:")]

    assert table("shared_names_join_run") == table("shared_names_join_run_no_heuristics")


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ.pop("PROVOPT_SEED", None)
    for name in sorted(COMMANDS):
        (GOLDEN / f"{name}.out").write_bytes(run_command(name))
    print(f"wrote {len(COMMANDS)} files to {GOLDEN}", file=sys.stderr)
