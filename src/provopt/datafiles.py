"""CSV ingestion with sidecar schema files.

A relation ``sale`` is loaded from ``sale.csv`` (header row holds attribute
names) typed by ``sale.schema``, one ``attr:type`` line per attribute with
types int, float, str, or bool, naming CSV columns. ``key:a,b`` lines
declare candidate keys. Duplicate CSV rows accumulate multiplicity.
"""
from __future__ import annotations

import csv
from collections import Counter
from pathlib import Path
from typing import Optional

from .executor import BagRelation


class DataError(Exception):
    pass


def _parse_bool(s: str) -> bool:
    if s.lower() not in ("true", "false"):
        raise ValueError(f"invalid literal for bool: {s!r} (expected true or false)")
    return s.lower() == "true"


_PARSERS = {
    "int": int,
    "int64": int,
    "float": float,
    "float64": float,
    "str": str,
    "string": str,
    "bool": _parse_bool,
}


def parse_schema_file(path: Path, columns: list[str]) -> tuple[dict[str, str], list[tuple[str, ...]]]:
    """Returns (attr -> type name, declared keys); a line naming an attribute
    not in ``columns``, the CSV header, is an error."""
    types: dict[str, str] = {}
    keys: list[tuple[str, ...]] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise DataError(f"{path}:{lineno}: expected attr:type or key:attrs")
        head, rest = line.split(":", 1)
        head, rest = head.strip(), rest.strip()
        named = tuple(a.strip() for a in rest.split(",") if a.strip()) if head == "key" else (head,)
        for attr in named:
            if attr not in columns:
                raise DataError(f"{path}:{lineno}: no column {attr!r} in the CSV header")
        if head == "key":
            keys.append(named)
        elif rest not in _PARSERS:
            raise DataError(f"{path}:{lineno}: unknown type {rest!r}")
        else:
            types[head] = rest
    return types, keys


def load_table(csv_path: Path, schema_path: Optional[Path] = None
               ) -> tuple[BagRelation, list[tuple[str, ...]]]:
    """Load one relation; returns the bag and its declared keys.

    The rows are read first, then each column is converted by one ``map``
    of its type's parser over its stripped fields, and equal tuples are
    counted in one pass. When a row has the wrong number of fields or a
    field does not parse, the rows are checked again one at a time, so the
    error names the first bad line in file order."""
    csv_path = Path(csv_path)
    schema_path = Path(csv_path.with_suffix(".schema") if schema_path is None else schema_path)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{csv_path}: missing header row") from None
        header = [h.strip() for h in header]
        types, keys = parse_schema_file(schema_path, header) if schema_path.exists() else ({}, [])
        parsers = [_PARSERS[types.get(attr, "str")] for attr in header]
        records: list[list[str]] = []
        try:
            records.extend(reader)
        except (csv.Error, UnicodeDecodeError):
            # a bad line read before the one the reader fails on is reported first
            _raise_first_bad_line(csv_path, records, parsers)
            raise
    rows = [r for r in records if r]  # a blank line holds no row
    try:
        if set(map(len, rows)) - {len(header)}:
            raise ValueError("a row with the wrong number of fields")
        columns = [list(map(p, map(str.strip, column))) for p, column in zip(parsers, zip(*rows))]
    except ValueError:
        _raise_first_bad_line(csv_path, records, parsers)
        raise
    return BagRelation(tuple(header), dict(Counter(zip(*columns)))), keys


def _raise_first_bad_line(csv_path: Path, records: list[list[str]], parsers: list) -> None:
    """Raise the DataError of the first record, in file order, with the
    wrong number of fields or a field its column's parser rejects; returns
    when every record is sound."""
    for lineno, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) != len(parsers):
            raise DataError(f"{csv_path}:{lineno}: expected {len(parsers)} fields")
        for p, v in zip(parsers, row):
            try:
                p(v.strip())
            except ValueError as exc:
                raise DataError(f"{csv_path}:{lineno}: {exc}") from exc


def load_directory(path: Path) -> tuple[dict[str, BagRelation], dict[str, list[tuple[str, ...]]]]:
    """Load every ``*.csv`` in a directory; returns (db, keys per relation)."""
    path = Path(path)
    db: dict[str, BagRelation] = {}
    keys: dict[str, list[tuple[str, ...]]] = {}
    for csv_path in sorted(path.glob("*.csv")):
        name = csv_path.stem
        db[name], keys[name] = load_table(csv_path)
    if not db:
        raise DataError(f"no .csv files in {path}")
    return db, keys
