"""File formats: JSON table and family documents, CSV for 2-way tables.

Documents are versioned with ``"schema": 1``. Variable indices in files are
1-based (matching written usage); cell coordinates are 0-based or category
names. Validation failures and unreadable files raise SchemaError with a
pointed message, integer counts beyond int64 a CountRangeError; family
consistency failures surface the witness from the bounds layer.

TableFile:  {"schema": 1, "kind": "integer"|"real", "cardinalities": [...],
             "labels": [[...], ...]?, "counts": [flat row-major]}
FamilyFile: {"schema": 1, "kind": ..., "cardinalities": [...], "labels": ?,
             "marginals": [{"vars": [1-based], "counts": [flat]}, ...]}
"""

from __future__ import annotations

import csv
import json
from math import isfinite, prod

from .bounds import MarginalFamily
from .errors import CountRangeError, RangeError, SchemaError
from .table import INTEGER, REAL, ContingencyTable, MarginalTable, check_labels
from .varset import VarSet

SCHEMA_VERSION = 1
# Error lines quote at most this many characters of a field.
QUOTE_CHARS = 40


def _quoted(field: str) -> str:
    """A field for an error line: its repr, cut to QUOTE_CHARS characters."""
    if len(field) <= QUOTE_CHARS:
        return repr(field)
    return f"{field[:QUOTE_CHARS]!r}... ({len(field)} characters)"


def _too_long(text: str, where: str) -> CountRangeError:
    """The error for an integer count that ``int()`` refuses for its length
    alone (Python's digit limit): a count past int64 and float64 alike."""
    return CountRangeError(f"{where}: count {_quoted(text)} is beyond the int64 limit")


class _LongInt:
    """A JSON integer past Python's digit limit, kept as its text: a count
    reads it as a count past int64 and a label as its digits, as it reads
    any number; anywhere else it is not an int."""

    def __init__(self, text: str):
        self.text = text

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return _quoted(self.text)


def _json_int(text: str):
    try:
        return int(text)
    except ValueError:  # JSON's integer grammar leaves only the digit limit
        return _LongInt(text)


def _integer(value) -> bool:
    """True for an integer read from a document: JSON true and false are
    bools, which Python would otherwise take for 1 and 0."""
    return type(value) is int


def _require(doc: dict, key: str, kinds, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing required key {key!r}")
    value = doc[key]
    if not isinstance(value, kinds):
        raise SchemaError(
            f"{where}: key {key!r} has type {type(value).__name__}"
        )
    return value


def _header(doc, where: str):
    """(cardinalities, kind, labels) of a table or family document, checked."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    version = doc.get("schema", SCHEMA_VERSION)
    if not _integer(version) or version != SCHEMA_VERSION:
        raise SchemaError(f"{where}: unsupported schema version {version!r}")
    cards = _require(doc, "cardinalities", list, where)
    if not cards or not all(_integer(c) and c >= 1 for c in cards):
        raise SchemaError(f"{where}: cardinalities must be positive integers")
    kind = doc.get("kind", INTEGER)
    if kind not in (INTEGER, REAL):
        raise SchemaError(f"{where}: kind must be 'integer' or 'real'")
    return cards, kind, _build(where, lambda: check_labels(doc.get("labels"), cards))


def _counts(doc: dict, cards, kind: str, where: str) -> list:
    """The document's flat counts, checked against its shape and kind."""
    counts = _require(doc, "counts", list, where)
    if len(counts) != prod(cards):
        raise SchemaError(
            f"{where}: {len(counts)} counts for shape {tuple(cards)} "
            f"(expected {prod(cards)})"
        )
    for v in counts:
        if isinstance(v, _LongInt):
            raise _too_long(v.text, where)
        if not (_integer(v) or isinstance(v, float)):
            raise SchemaError(f"{where}: non-numeric count {v!r}")
    if kind == INTEGER and not all(map(_integer, counts)):
        raise SchemaError(f"{where}: non-integer counts in an integer document")
    return counts


def _build(where: str, make):
    """Run a constructor, reporting its range errors as document errors;
    counts beyond int64 stay range errors."""
    try:
        return make()
    except RangeError as err:
        kind = CountRangeError if isinstance(err, CountRangeError) else SchemaError
        raise kind(f"{where}: {err}") from err


def table_from_doc(doc: dict, where: str = "table") -> ContingencyTable:
    cards, kind, labels = _header(doc, where)
    counts = _counts(doc, cards, kind, where)
    return _build(
        where,
        lambda: ContingencyTable.from_flat(cards, counts, labels=labels, kind=kind),
    )


def table_to_doc(table: ContingencyTable) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": table.kind,
        "cardinalities": list(table.cardinalities),
        "counts": [v.item() for v in table.flat],
    }
    if table.labels is not None:
        doc["labels"] = [list(axis) for axis in table.labels]
    return doc


def family_from_doc(doc: dict, where: str = "family") -> MarginalFamily:
    cards, kind, labels = _header(doc, where)
    num_vars = len(cards)
    entries = _require(doc, "marginals", list, where)
    if not entries:
        raise SchemaError(f"{where}: at least one marginal is required")
    marginals = []
    for idx, entry in enumerate(entries):
        where_m = f"{where}.marginals[{idx}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where_m}: expected a JSON object")
        vars_ = _require(entry, "vars", list, where_m)
        if not all(map(_integer, vars_)):
            raise SchemaError(f"{where_m}: vars must be 1-based integers")
        subset = _build(where_m, lambda: VarSet.from_vars(vars_, num_vars))
        sub_cards = tuple(cards[j] for j in subset.axes)
        counts = _counts(entry, sub_cards, kind, where_m)
        sub_labels = (
            [labels[j] for j in subset.axes] if labels is not None else None
        )
        table = _build(
            where_m,
            lambda: ContingencyTable.from_flat(
                sub_cards, counts, labels=sub_labels, kind=kind
            ),
        )
        marginals.append(MarginalTable(subset, table))
    return _build(where, lambda: MarginalFamily(cards, marginals, labels=labels))


def family_to_doc(fam: MarginalFamily) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": fam.kind,
        "cardinalities": list(fam.cardinalities),
        "marginals": [
            {
                "vars": list(a.vars),
                "counts": [v.item() for v in fam.released[a.mask].table.flat],
            }
            for a in fam.subsets()
        ],
    }
    if fam.labels is not None:
        doc["labels"] = [list(axis) for axis in fam.labels]
    return doc


def _csv_count(field: str, where: str):
    """A CSV count: the integer ``int()`` reads, exactly, else a finite float."""
    try:
        return int(field)
    except ValueError:
        digits = field[1:] if field[:1] in "+-" else field
        if digits.isdecimal():  # int() refused it for its length alone
            raise _too_long(field, where) from None
    try:
        if isfinite(value := float(field)):
            return value
    except ValueError:
        pass
    raise SchemaError(f"{where}: count {_quoted(field)} is not a finite number")


def _table_from_csv(text: str, where: str) -> ContingencyTable:
    """2-way CSV: header row holds column labels, first field of each data
    row holds the row label; the corner cell is ignored. The table is
    integer when every count is a whole number."""
    rows = [r for r in csv.reader(text.splitlines()) if r]
    if len(rows) < 2 or len(rows[0]) < 2:
        raise SchemaError(f"{where}: CSV needs a header row and one data row")
    for r in rows[1:]:
        if len(r) != len(rows[0]):
            got, expected = len(r) - 1, len(rows[0]) - 1
            raise SchemaError(
                f"{where}: row {_quoted(r[0])} has {got} values, expected {expected}"
            )
    labels = [[r[0].strip() for r in rows[1:]], [c.strip() for c in rows[0][1:]]]
    counts = [_csv_count(field.strip(), where) for r in rows[1:] for field in r[1:]]
    integral = all(_integer(v) or v.is_integer() for v in counts)
    counts, kind = ([int(v) for v in counts], INTEGER) if integral else (counts, REAL)
    shape = (len(rows) - 1, len(rows[0]) - 1)
    return _build(where, lambda: ContingencyTable.from_flat(shape, counts, labels, kind))


def _read(path: str) -> str:
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err  # decode errors have none
        raise SchemaError(f"{path}: cannot read file: {reason}") from err


def _load_json(path: str):
    try:
        return json.loads(_read(path), parse_int=_json_int)
    except ValueError as err:
        raise SchemaError(f"{path}: invalid JSON: {err}") from err


def load_table(path: str) -> ContingencyTable:
    if path.lower().endswith(".csv"):
        return _table_from_csv(_read(path), path)
    return table_from_doc(_load_json(path), path)


def load_family(path: str) -> MarginalFamily:
    return family_from_doc(_load_json(path), path)


def marginal_to_doc(marg: MarginalTable) -> dict:
    """The output document of the marginalize command."""
    if len(marg.vars) == 0:
        return {"schema": SCHEMA_VERSION, "vars": [], "total": marg.table.total}
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": marg.table.kind,
        "vars": list(marg.vars),
        "cardinalities": list(marg.table.cardinalities),
        "counts": [v.item() for v in marg.table.flat],
    }
    if marg.table.labels is not None:
        doc["labels"] = [list(axis) for axis in marg.table.labels]
    return doc
