"""Loading CSV tables and their schema files, and the error each malformed
input gives: one ``DataError`` naming the file and line."""
import pytest

from provopt.datafiles import DataError, load_directory, load_table


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


def test_a_directory_without_csv_files_is_an_error(tmp_path):
    (tmp_path / "R.schema").write_text("a:int\n")
    with pytest.raises(DataError) as err:
        load_directory(tmp_path)
    assert str(err.value) == f"no .csv files in {tmp_path}"
