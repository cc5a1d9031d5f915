"""Loading CSV tables and their schema files, and the error each malformed
input gives: one ``DataError`` naming the file and line."""
import collections
import csv
import random

import pytest

from provopt.datafiles import _PARSERS, DataError, load_directory, load_table, parse_schema_file
from provopt.executor import BagRelation


def _load(tmp_path, csv_text, schema_text=None):
    (tmp_path / "R.csv").write_text(csv_text)
    if schema_text is not None:
        (tmp_path / "R.schema").write_text(schema_text)
    return load_table(tmp_path / "R.csv")


def test_schema_types_the_columns_and_declares_keys(tmp_path):
    bag, keys = _load(tmp_path, "a,b,c\n1,2.5,true\n1,2.5,True\n",
                      "a:int\nb:float\nc:bool\nkey:a\n")
    assert bag.schema == ("a", "b", "c") and bag.tuples == {(1, 2.5, True): 2}
    assert keys == [("a",)]


@pytest.mark.parametrize("csv_text, schema_text, where, message", [
    ("a,b\n1,2\n", "a int\n", "R.schema:1", "expected attr:type or key:attrs"),
    ("a,b\n1,2\n", "a:int\nb:integer\n", "R.schema:2", "unknown type 'integer'"),
    ("a,b\n1,2\n", "a:int\nkey: Z\n", "R.schema:2", "no column 'Z' in the CSV header"),
    ("a,b\n1,2\n", "a:int\nkey:a, Z\n", "R.schema:2", "no column 'Z' in the CSV header"),
    ("a,b\n1,2\n", "# a comment\nZ:int\n", "R.schema:2", "no column 'Z' in the CSV header"),
    ("", "a:int\n", "R.csv", "missing header row"),
    ("a,b\n1,2\n3\n", "a:int\n", "R.csv:3", "expected 2 fields"),
    ("a,b\nx,2\n", "a:int\n", "R.csv:2", "invalid literal for int() with base 10: 'x'"),
    ("a,b\nyes,2\n", "a:bool\n", "R.csv:2",
     "invalid literal for bool: 'yes' (expected true or false)"),
])
def test_a_malformed_input_is_one_data_error(tmp_path, csv_text, schema_text, where, message):
    with pytest.raises(DataError) as err:
        _load(tmp_path, csv_text, schema_text)
    assert str(err.value) == f"{tmp_path / where}: {message}"


def test_a_bad_line_before_one_the_csv_reader_rejects_is_reported_first(tmp_path):
    huge = "x" * (csv.field_size_limit() + 1)
    with pytest.raises(DataError) as err:
        _load(tmp_path, f"a,b\n1,2\nx,2\n3,{huge}\n", "a:int\n")
    assert str(err.value) == f"{tmp_path / 'R.csv'}:3: invalid literal for int() with base 10: 'x'"
    with pytest.raises(csv.Error, match="field larger than field limit"):
        _load(tmp_path, f"a,b\n1,2\n3,{huge}\n", "a:int\n")


def test_a_directory_without_csv_files_is_an_error(tmp_path):
    (tmp_path / "R.schema").write_text("a:int\n")
    with pytest.raises(DataError) as err:
        load_directory(tmp_path)
    assert str(err.value) == f"no .csv files in {tmp_path}"


def _reference_load(csv_path):
    """The loader one row at a time: each row's width checked and its
    fields converted as it is read, the first bad row raising."""
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        types, keys = parse_schema_file(csv_path.with_suffix(".schema"), header)
        parsers = [_PARSERS[types.get(attr, "str")] for attr in header]
        tuples = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{csv_path}:{lineno}: expected {len(header)} fields")
            try:
                values = tuple(p(v.strip()) for p, v in zip(parsers, row))
            except ValueError as exc:
                raise DataError(f"{csv_path}:{lineno}: {exc}") from exc
            tuples[values] = tuples.get(values, 0) + 1
    return BagRelation(tuple(header), tuples), keys


#: type -> (well-formed field texts, field texts its parser rejects)
_FIELDS = {
    "int": (["0", "3", "-2", "+7", "1_000", "12"], ["x", "1.5", "", "1 2"]),
    "float": (["0.5", "-0.0", "2", "1e3", "inf", "nan", ".25"], ["y", "1.2.3", "", "e"]),
    "bool": (["true", "False", "TRUE", "false"], ["yes", "1", "", "t"]),
    "str": (["x", "y z", "", "a,b", 'say "hi"', "3"], []),
}
_BLANKS = ["", "", " ", "  ", "\t", " ", "\x1c"]


def _field(text, rng):
    text = rng.choice(_BLANKS) + text + rng.choice(_BLANKS)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"') else text


def _random_table(rng, faults):
    """CSV text and its schema: a random width and column types, blanks
    around fields, blank and duplicate lines, and ``faults`` (each "width"
    or "literal") on random lines, in that order."""
    types = [rng.choice(list(_FIELDS)) for _ in range(rng.randint(1, 5))]
    names = [f"c{i}" for i in range(len(types))]
    rows = []
    for _ in range(rng.randint(0, 25)):
        if rows and rng.random() < 0.2:
            rows.append(rng.choice(rows))
        else:
            rows.append([rng.choice(_FIELDS[t][0]) for t in types])
    spots = sorted(rng.sample(range(len(rows) + len(faults)), len(faults)))
    for spot, fault in zip(spots, faults):
        row = [rng.choice(_FIELDS[t][0]) for t in types]
        bad = [i for i, t in enumerate(types) if _FIELDS[t][1]]
        if fault == "literal" and bad:
            i = rng.choice(bad)
            row[i] = rng.choice(_FIELDS[types[i]][1])
        else:
            row = row[:-1] if rng.random() < 0.7 else row + ["9"]
        rows.insert(spot, row)
    lines = [",".join(_field(h, rng) for h in names)]
    for row in rows:
        while rng.random() < 0.15:
            lines.append("")
        lines.append(",".join(_field(v, rng) for v in row))
    schema = "".join(f"{n}:{t}\n" for n, t in zip(names, types) if rng.random() < 0.9)
    if rng.random() < 0.5:
        schema += f"key:{rng.choice(names)}\n"
    return "\n".join(lines) + rng.choice(["", "\n"]), schema


def _outcome(load, path):
    try:
        bag, keys = load(path)
    except DataError as err:
        return ("error", str(err))
    typed = [(tuple((type(v), repr(v)) for v in t), m) for t, m in bag.tuples.items()]
    return ("bag", bag.schema, typed, keys)


def test_load_table_matches_the_row_by_row_reference_on_random_files(tmp_path):
    rng = random.Random(32)
    seen = collections.Counter()
    for n in range(400):
        faults = rng.choice([[], [], ["width"], ["literal"], ["width", "literal"],
                             ["literal", "width"]])
        csv_text, schema_text = _random_table(rng, faults)
        path = tmp_path / f"R{n}.csv"
        path.write_text(csv_text)
        path.with_suffix(".schema").write_text(schema_text)
        want = _outcome(_reference_load, path)
        assert _outcome(load_table, path) == want, csv_text
        seen[want[0] if want[0] == "bag" else want[1].split(": ", 1)[1].split(" ")[0]] += 1
    # sound files, and both kinds of error ("expected N fields", "invalid literal")
    assert seen["bag"] > 100 and seen["expected"] > 50 and seen["invalid"] > 50, seen
