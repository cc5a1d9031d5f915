"""The provenance-polynomial oracle in ``annotated.py`` shares no code with
the evaluator it checks, so a defect in the evaluator shows against it."""
import ast
from pathlib import Path

import annotated
from annotated import annotate, encode_provenance, evaluate_annotated
from helpers import bags_equal

from provopt import executor
from provopt.executor import evaluate
from provopt.instrument import instrument_query

#: what the oracle may import from the package: module -> names (None: any)
ALLOWED = {"provopt.algebra": None, "provopt.executor": {"BagRelation", "EvalError"}}


def test_oracle_imports_only_the_algebra_and_two_types():
    tree = ast.parse(Path(annotated.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "provopt"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "provopt":
            names = {a.name for a in node.names}
            assert node.module in ALLOWED, node.module
            assert ALLOWED[node.module] is None or names <= ALLOWED[node.module], names


def test_a_join_defect_in_the_evaluator_shows_against_the_oracle(
        monkeypatch, shop_query, shop_db):
    real = executor._equi_matches

    def drop_last_match(left, right, li, ri):
        # keep a pair only when the next pair has the same left row
        pairs = list(real(left, right, li, ri))
        return [p for p, after in zip(pairs, pairs[1:]) if after[0] == p[0]]

    oracle = encode_provenance(evaluate_annotated(shop_query, annotate(shop_db)))
    assert bags_equal(evaluate(instrument_query(shop_query), shop_db), oracle, by_name=True)
    monkeypatch.setattr(executor, "_equi_matches", drop_last_match)
    broken = evaluate(instrument_query(shop_query), shop_db)
    assert not bags_equal(broken, oracle, by_name=True)
    assert encode_provenance(evaluate_annotated(shop_query, annotate(shop_db))).tuples == \
        oracle.tuples
