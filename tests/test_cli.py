import gc
from pathlib import Path

import pytest

from provopt import instrument, sqlgen
from provopt.algebra import SchemaError
from provopt.cli import main
from provopt.rewrites import RULE_ORDER


EX1_PLAN = ("(project ((attr name) -> name)"
            " (join (= item id)"
            "  (join (= name shop) (rel shop) (rel sale))"
            "  (select (> price 20) (rel item))))")


@pytest.fixture
def fig_data(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "shop.csv").write_text("name,numEmpl\nWalmart,3\nCosco,14\n")
    (data / "shop.schema").write_text("name:str\nnumEmpl:int\nkey:name\n")
    (data / "sale.csv").write_text(
        "shop,item\nWalmart,Steak\nWalmart,Butter\nWalmart,Bread\n"
        "Cosco,Butter\nCosco,Bread\n")
    (data / "sale.schema").write_text("shop:str\nitem:str\n")
    (data / "item.csv").write_text("id,price\nSteak,100\nButter,10\nBread,25\n")
    (data / "item.schema").write_text("id:str\nprice:int\nkey:id\n")
    plan = tmp_path / "ex1.plan"
    plan.write_text(EX1_PLAN)
    return data, plan


@pytest.fixture
def txn_data(tmp_path):
    data = tmp_path / "txn"
    data.mkdir()
    (data / "R.csv").write_text("A,B\n2,1\n3,2\n4,2\n")
    (data / "R.schema").write_text("A:int\nB:int\n")
    txn = tmp_path / "t1.sql"
    txn.write_text("UPDATE R SET A = A - 5 WHERE B = 2;\n"
                   "UPDATE R SET A = A + 1 WHERE B = 1;\n")
    return data, txn


@pytest.fixture
def keyed_txn_data(tmp_path):
    data = tmp_path / "txnk"
    data.mkdir()
    (data / "R.csv").write_text("K,A,B\n1,2,1\n2,3,2\n3,4,2\n")
    (data / "R.schema").write_text("K:int\nA:int\nB:int\nkey:K\n")
    txn = tmp_path / "t1.sql"
    txn.write_text("UPDATE R SET A = A - 5 WHERE B = 2;\n"
                   "UPDATE R SET A = A + 1 WHERE B = 1;\n")
    return data, txn


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRun:
    def test_provenance_single_iteration(self, capsys, fig_data):
        data, plan = fig_data
        code, out, err = run_cli(capsys, "run", "--prov-of", str(plan),
                                 "--data", str(data), "--strategy", "seq",
                                 "--stop", "none")
        assert code == 0, err
        assert "iterations: 1" in out
        assert "Walmart | Walmart | 3 | Walmart | Steak | Steak | 100" in out
        assert out.count("Bread | Bread | 25") == 2
        assert "SQL:" in out

    def test_reenactment_after_state(self, capsys, txn_data):
        data, txn = txn_data
        code, out, err = run_cli(capsys, "run", "--reenact", str(txn),
                                 "--data", str(data))
        assert code == 0, err
        assert "3 | 1" in out and "-2 | 2" in out and "-1 | 2" in out

    def test_scoped_reenactment(self, capsys, keyed_txn_data):
        data, txn = keyed_txn_data
        for scope in ("filter", "histjoin"):
            code, out, err = run_cli(capsys, "run", "--reenact", str(txn),
                                     "--data", str(data), "--scope", scope)
            assert code == 0, err
            assert "(3 row(s))" in out

    def test_empty_plan_file_fails_with_nonzero_exit(self, capsys, fig_data, tmp_path):
        data, _ = fig_data
        empty = tmp_path / "empty.plan"
        empty.write_text("")
        code, out, err = run_cli(capsys, "run", "--prov-of", str(empty),
                                 "--data", str(data))
        assert code != 0
        assert "syntax" in err.lower()

    def test_trace_file(self, capsys, fig_data, tmp_path):
        data, plan = fig_data
        trace = tmp_path / "trace.txt"
        code, _, _ = run_cli(capsys, "run", "--prov-of", str(plan),
                             "--data", str(data), "--trace-plans", str(trace))
        assert code == 0
        assert trace.read_text().strip()

    def test_sql_rendered_once_for_the_chosen_plan(self, capsys, monkeypatch):
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        to_sql = sqlgen.to_sql
        rendered = []
        monkeypatch.setattr(sqlgen, "to_sql", lambda g: rendered.append(g) or to_sql(g))
        code, out, err = run_cli(capsys, "run", "--prov-of",
                                 str(fixtures / "sales_per_shop.plan"),
                                 "--data", str(fixtures))
        assert code == 0, err
        assert "iterations: 2" in out  # the aggregation method is a choice
        assert len(rendered) == 1
        assert out.endswith(to_sql(rendered[0]).text)


    def test_a_failed_plan_says_why(self, capsys, monkeypatch):
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        instrument_query = instrument.instrument_query

        def join_method_fails(graph, choice, **kw):
            picks = []
            out = instrument_query(graph, choice=lambda n: picks.append(choice(n)) or picks[-1],
                                   **kw)
            if picks == [1]:
                raise SchemaError("join method: unresolved attribute(s) ['g']")
            return out

        monkeypatch.setattr(instrument, "instrument_query", join_method_fails)
        code, out, err = run_cli(capsys, "run", "--prov-of",
                                 str(fixtures / "sales_per_shop.plan"), "--data", str(fixtures))
        assert code == 0, err
        lines = out.splitlines()
        assert lines[2] == "  iter 0: path=[0] cost=62.9248"
        assert lines[3] == ("  iter 1: path=[1] cost=inf "
                            "(SchemaError: join method: unresolved attribute(s) ['g'])")
        assert lines[4] == "chosen path: [0] cost=62.9248"


class TestOtherCommands:
    def test_instrument_prints_plan(self, capsys, fig_data):
        data, plan = fig_data
        code, out, err = run_cli(capsys, "instrument", "--prov-of", str(plan),
                                 "--data", str(data))
        assert code == 0, err
        assert "prov_shop_0_name" in out

    def test_sql_command(self, capsys, fig_data):
        data, plan = fig_data
        code, out, err = run_cli(capsys, "sql", "--plan", str(plan),
                                 "--data", str(data))
        assert code == 0, err
        assert "SELECT" in out and "price>20" in out

    def test_optimize_with_rule_subset(self, capsys, tmp_path):
        plan = tmp_path / "q.plan"
        plan.write_text("(select (= a 5) (select (< b 6) (rel R (attrs a b))))")
        code, out, err = run_cli(capsys, "optimize", "--plan", str(plan),
                                 "--rules", "merge_selections")
        assert code == 0, err
        assert out.count("select") == 1

    def test_optimize_unknown_rule_rejected(self, capsys, tmp_path):
        plan = tmp_path / "q.plan"
        plan.write_text("(select (= a 5) (select (< b 6) (rel R (attrs a b))))")
        code, out, err = run_cli(capsys, "optimize", "--plan", str(plan),
                                 "--rules", "merge_selections,bogus")
        assert code == 1 and not out
        assert "'bogus'" in err
        assert all(name in err for name in RULE_ORDER)

    def test_optimize_dump_steps(self, capsys, tmp_path):
        plan = tmp_path / "q.plan"
        plan.write_text("(select (= a 5) (select (< b 6) (rel R (attrs a b))))")
        code, out, err = run_cli(capsys, "optimize", "--plan", str(plan),
                                 "--dump-steps", "--rounds", "3")
        assert code == 0, err
        headers = [l for l in out.splitlines() if l.startswith(";")]
        assert headers == [f"; round {r}, after {name}"
                           for r in (1, 2, 3) for name in RULE_ORDER]
        code, out, err = run_cli(capsys, "optimize", "--plan", str(plan), "--dump-steps",
                                 "--rules", "remove_window,merge_selections")
        assert code == 0, err
        headers = [l for l in out.splitlines() if l.startswith(";")]
        assert headers == [f"; round {r}, after {name}" for r in (1, 2)
                           for name in ("merge_selections", "remove_window")]
        assert out.splitlines()[1] == "(select (and (= a 5) (< b 6)) (rel R (attrs a b)))"

    def test_optimize_filter_above_intersect_guards_both_inputs(self, capsys, tmp_path):
        # the selection above already filters the right input's rows too
        plan = tmp_path / "q.plan"
        plan.write_text("(select (= a 3) (intersect (rel R (attrs a b)) (rel S (attrs c d))))")
        code, out, err = run_cli(capsys, "optimize", "--plan", str(plan))
        assert code == 0, err
        assert out.strip() == ("(select (= a 3) (intersect (rel R (attrs a b)) "
                               "(rel S (attrs c d))))")

    def test_explain_properties(self, capsys, tmp_path):
        plan = tmp_path / "q.plan"
        plan.write_text("(dupelim (agg (groupby b) (aggs (sum a -> s)) (rel R (attrs a b))))")
        code, out, err = run_cli(capsys, "explain-properties", "--plan", str(plan))
        assert code == 0, err
        assert "keys={{b}}" in out
        assert "set=" in out and "icols=" in out

    def test_seed_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PROVOPT_SEED", "not-an-int")
        code, _, err = run_cli(capsys, "bench", "--mode", "reenact", "--updates", "2")
        assert code == 1 and "not-an-int" in err

    def test_bad_stop_rule_rejected(self, capsys, fig_data):
        data, plan = fig_data
        code, _, err = run_cli(capsys, "run", "--prov-of", str(plan),
                               "--data", str(data), "--stop", "sometimes")
        assert code == 1 and "stop rule" in err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_max_iters_below_one_rejected(self, capsys, fig_data, n):
        data, plan = fig_data
        code, out, err = run_cli(capsys, "run", "--prov-of", str(plan),
                                 "--data", str(data), "--stop", f"max-iters={n}")
        assert code == 1 and out == ""
        assert err == f"error: stop rule max-iters needs N >= 1, got {n}\n"

    @pytest.mark.parametrize("argv, message", [
        (("bench", "--mode", "agg", "--fanin", "0"), "--fanin needs N >= 1, got 0"),
        (("bench", "--mode", "reenact", "--updates", "0"), "--updates needs N >= 1, got 0"),
        (("bench", "--mode", "agg", "--rows", "-1"), "--rows needs N >= 0, got -1"),
        (("bench", "--mode", "agg", "--aggs", "-1"), "--aggs needs N >= 0, got -1"),
        (("optimize", "--plan", "ex1.plan", "--dump-steps", "--rounds", "-1"),
         "--rounds needs N >= 1, got -1"),
        (("optimize", "--plan", "ex1.plan", "--rounds", "0"), "--rounds needs N >= 1, got 0"),
    ])
    def test_counts_below_their_least_rejected(self, capsys, fig_data, argv, message):
        _, plan = fig_data
        argv = tuple(str(plan) if a == "ex1.plan" else a for a in argv)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_empty_counts_accepted(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--mode", "agg", "--aggs", "0", "--rows", "0")
        assert code == 0, err
        assert out.splitlines()[0] == "method,heuristics,plans,cost,eval_seconds"

    @pytest.mark.parametrize("expr, row", [("(/ a b)", "1,0"), ("(= a \"x\")", "1,2")])
    def test_evaluation_error_is_reported(self, capsys, tmp_path, expr, row):
        data = tmp_path / "data"
        data.mkdir()
        (data / "R.csv").write_text(f"a,b\n{row}\n")
        (data / "R.schema").write_text("a:int\nb:int\n")
        plan = tmp_path / "q.plan"
        plan.write_text(f"(project ({expr} -> c) (rel R))")
        code, out, err = run_cli(capsys, "run", "--plan", str(plan), "--data", str(data))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("division by zero" if "/" in expr else "cannot compare") in err

    def test_bench_agg_mode(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--mode", "agg", "--aggs", "2",
                                 "--rows", "50", "--fanin", "3")
        assert code == 0, err
        lines = [l for l in out.splitlines() if l]
        assert lines[0] == "method,heuristics,plans,cost,eval_seconds"
        assert len(lines) == 7
        cbo = [l for l in lines if l.startswith("cbo,")]
        assert all(",4," in l for l in cbo)  # 2 aggregations -> 4 plans

    def test_bench_reenact_mode(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--mode", "reenact",
                                 "--updates", "6")
        assert code == 0, err
        sizes = {}
        for line in out.splitlines()[1:]:
            name, size = line.split(",")
            sizes[name] = int(size)
        assert sizes["heuristic"] <= sizes["unoptimized"]
        assert sizes["naive_merge"] >= sizes["heuristic"]

    def test_bench_out_file_holds_what_stdout_shows(self, capsys, tmp_path):
        argv = ("bench", "--mode", "reenact", "--updates", "6")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        code, nothing, err = run_cli(capsys, *argv, "--out", str(tmp_path / "bench.csv"))
        assert code == 0 and nothing == "", err
        assert (tmp_path / "bench.csv").read_text() == out

    @pytest.mark.parametrize("line", ["key: Z", "Z:int"])
    def test_a_schema_naming_an_unknown_column_is_one_error_line(self, capsys, keyed_txn_data,
                                                                  line):
        data, txn = keyed_txn_data
        (data / "R.schema").write_text(f"K:int\nA:int\nB:int\n{line}\n")
        code, out, err = run_cli(capsys, "run", "--reenact", str(txn), "--data", str(data),
                                 "--scope", "histjoin")
        assert code == 1 and out == ""
        assert err == f"error: {data / 'R.schema'}:4: no column 'Z' in the CSV header\n"


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ("sql", "--plan", "nope.plan"),
    ("run", "--prov-of", "nope.plan", "--data", "fixtures"),
    ("run", "--reenact", "nope.sql", "--data", "fixtures_txn"),
])
def test_missing_input_file_is_one_error_line(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "No such file or directory" in err and "nope." in err


@pytest.mark.parametrize("command", ["run", "instrument"])
@pytest.mark.parametrize("script", ["", "-- nothing to do\n"])
def test_a_script_without_updates_is_one_error_line(capsys, monkeypatch, tmp_path, command, script):
    monkeypatch.chdir(ROOT)
    empty = tmp_path / "EMPTY.sql"
    empty.write_text(script)
    code, out, err = run_cli(capsys, command, "--reenact", str(empty), "--data", "fixtures_txn")
    assert code == 1 and out == ""
    assert err == f"error: {empty} holds no UPDATE statement to reenact\n"


@pytest.mark.parametrize("mode", ["--plan", "--prov-of"])
def test_a_duplicate_group_by_column_is_one_error_line(capsys, monkeypatch, tmp_path, mode):
    monkeypatch.chdir(ROOT)
    plan = tmp_path / "q.plan"
    plan.write_text("(agg (groupby shop shop) (aggs (count item -> n)) (rel sale))\n")
    code, out, err = run_cli(capsys, "run", mode, str(plan), "--data", "fixtures")
    assert code == 1 and "shop | shop" not in out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "duplicate output name 'shop' in aggregation" in err


def test_empty_join_condition_is_a_syntax_error(capsys, tmp_path):
    plan = tmp_path / "q.plan"
    plan.write_text("(join (and) (rel R (attrs a b)) (rel S (attrs c)))")
    code, out, err = run_cli(capsys, "sql", "--plan", str(plan))
    assert code == 2 and out == ""
    assert err.startswith("plan syntax error: ") and "(line 1, column 7)" in err


@pytest.mark.parametrize("cond", ["(not)", "(and)"])
def test_a_malformed_expression_is_one_syntax_error_line(capsys, tmp_path, cond):
    plan = tmp_path / "q.plan"
    plan.write_text(f"(select {cond} (rel R (attrs a)))")
    code, out, err = run_cli(capsys, "sql", "--plan", str(plan))
    assert code == 2 and out == ""
    assert err.startswith("plan syntax error: ") and err.count("\n") == 1
    assert err.endswith("(line 1, column 9)\n")


#: an int that no float can hold
HUGE = "9" * 400


@pytest.mark.parametrize("plan_text, message", [
    ("(project ((+ price 0.5) -> p) (rel item))", "arithmetic overflow"),
    ("(agg (groupby) (aggs (avg price -> p)) (rel item))", "avg overflow"),
])
def test_arithmetic_overflow_is_one_error_line(capsys, tmp_path, plan_text, message):
    data = tmp_path / "data"
    data.mkdir()
    (data / "item.csv").write_text(f"id,price\nSteak,{HUGE}\nBread,25\n")
    (data / "item.schema").write_text("id:str\nprice:int\n")
    plan = tmp_path / "q.plan"
    plan.write_text(plan_text)
    code, out, err = run_cli(capsys, "run", "--plan", str(plan), "--data", str(data))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("run", "--prov-of", "fixtures/sales_per_shop.plan", "--data", "fixtures"),
    ("run", "--reenact", "fixtures_txn/t1.sql", "--data", "fixtures_txn"),
])
def test_a_second_run_leaves_no_reference_cycles(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    assert run_cli(capsys, *argv)[0] == 0  # the first call builds the parser
    gc.collect()
    gc.disable()
    try:
        assert run_cli(capsys, *argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
