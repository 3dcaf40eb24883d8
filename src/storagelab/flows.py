"""The flow table (``flows.csv``), the CSV writer, and the record checks that
every reader of a storagelab file shares.

A reader takes the lines of a file, never its path: the CLI reads, hashes
and decodes each input once, and adds the file's path to a reader's error,
which names only the line.

Each reader decodes a line at most once, JSON with ``_json_object`` and CSV
with ``csv.reader``, and checks
it once against its record kind's field table, with ``_checked`` or
``_cells``. So each rule is written once, and an error names the first bad
field in the table's order.

The privacy metrics read only this module's flow table, so it imports no
other ``storagelab`` module: a ``metrics picf``, ``cross-site`` or
``cross-time`` call compiles neither the replay engine nor the trace event
model (README "Start-up and exit").
"""

from __future__ import annotations

import csv
import json
import re
from operator import itemgetter
from pathlib import Path
from typing import Collection, Iterable, NamedTuple, Sequence


class TraceFormatError(ValueError):
    """A record the trace file format (or a simulate output file) does not
    allow; names the line."""


_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean", dict: "an object",
               list: "an array"}


def _must_be(name: str, kind: type) -> TraceFormatError:
    return TraceFormatError(f"field {name!r} must be {_TYPE_NAMES[kind]}")


# A field table lists a record kind's fields, each as (name, check, default).
# The check is the exact type the value must have (so a JSON boolean is not an
# integer), or a function that returns the value to keep or raises. The
# default is what an absent field takes, or _MISSING for a required one; a
# field whose default is None also takes null for its default.
_MISSING = object()


def _checked(record: dict, table: tuple) -> list:
    """The values of ``record``'s fields, in ``table``'s order. Errors name
    the first field that is missing or fails its check, and no line: the
    caller prefixes where the record came from."""
    values = []
    for name, check, default in table:
        value = record.get(name, default)
        if type(value) is not check:
            if value is default:  # absent, or null where the default is None
                if value is _MISSING:
                    raise TraceFormatError(f"missing field {name!r}")
            elif type(check) is type:
                raise _must_be(name, check)
            else:
                value = check(value)
        values.append(value)
    return values


def _word(name: str, words: Collection[str], what: str):
    """The check of a field that must be a string in ``words``; ``what``
    names such a word in the error for any other string."""
    def check(value) -> str:
        if type(value) is not str:
            raise _must_be(name, str)
        if value not in words:
            raise TraceFormatError(f"unknown {what} {value!r}")
        return value
    return check


# One JSON value at a text's index and where it ends; unlike json.loads, it
# makes no per-call checks or whitespace matches of its own.
_decode = json.JSONDecoder().raw_decode
_SPACE = re.compile(r"[ \t\n\r]*").match  # JSON's whitespace
# Compiled on first use, by re's own cache: a process that never walks a
# decoded value for a surrogate never compiles it.
_SURROGATE = "[\ud800-\udfff]"


def _no_surrogate(value) -> None:
    """Raises a TraceFormatError for the first string, key or value, that
    holds a surrogate code point in a decoded JSON value: only a ``\\u``
    escape gives one, and no UTF-8 output can hold it."""
    stack = [value]
    while stack:
        item = stack.pop()
        if type(item) is str and re.search(_SURROGATE, item):
            raise TraceFormatError(f"lone surrogate in string {item!r}")
        elif type(item) is dict:
            stack += item
            stack += item.values()
        elif type(item) is list:
            stack += item


def _json_object(text: str, surrogates: bool = True) -> dict:
    """The JSON object that is all of ``text`` but JSON whitespace, from one
    decode. Anything else raises a TraceFormatError in json.loads's words:
    ``invalid JSON (msg)``, ``invalid JSON (nested too deeply)``, ``invalid
    JSON (Extra data)`` after the object, or ``record must be a JSON
    object``. Unless ``surrogates`` is false, a text that may escape a
    surrogate, holding a ``\\ud`` or ``\\uD``, is walked for one."""
    try:
        record, end = _decode(text, _SPACE(text).end())
    except json.JSONDecodeError as exc:
        message = ("Unexpected UTF-8 BOM (decode using utf-8-sig)" if text[:1] == "\ufeff"
                   else exc.msg)
        raise TraceFormatError(f"invalid JSON ({message})") from None
    except ValueError as exc:  # an integer past int()'s digit limit
        raise TraceFormatError(f"invalid JSON ({exc})") from None
    except RecursionError:  # json's scanner, on a value nested too deeply
        raise TraceFormatError("invalid JSON (nested too deeply)") from None
    if end != len(text) and _SPACE(text, end).end() != len(text):
        raise TraceFormatError("invalid JSON (Extra data)")
    if type(record) is not dict:
        raise TraceFormatError("record must be a JSON object")
    if surrogates and ("\\ud" in text or "\\uD" in text):
        _no_surrogate(record)
    return record


def _csv_table(header: Sequence[str], names: tuple[str, ...], integers=()) -> tuple:
    """The field table of a CSV file's rows: the named fields, their columns
    under ``header`` (a name the header repeats is its last column), what
    picks them from a row, the header's width, and each integer field's
    name and column."""
    column = {name: index for index, name in enumerate(header)}
    indices = tuple(column[name] for name in names)
    return (names, indices, itemgetter(*indices), len(header),
            tuple((name, column[name]) for name in names if name in integers))


def _cells(row: list[str], table: tuple) -> tuple:
    """The cells of ``table``'s fields in a CSV row, an integer field's as an
    int, which replaces its cell in the row. A row with more cells than the
    header raises, as does the first field with no cell, then the first
    that is not an integer in the form the CLI writes, ``-?[0-9]+``:
    ``int()`` alone would also take " 1_0", "+1" and non-ASCII digits."""
    names, indices, select, width, integers = table
    if len(row) != width:
        if len(row) > width:
            raise TraceFormatError(f"{len(row)} cells, header has {width}")
        for name, index in zip(names, indices):
            if index >= len(row):
                raise TraceFormatError(f"missing field {name!r}")
    for name, index in integers:
        digits = row[index].removeprefix("-")
        if not (digits.isascii() and digits.isdecimal()):
            raise _must_be(name, int)
        row[index] = int(row[index])
    return select(row)


class CookieFlowRecord(NamedTuple):
    """One cookie transmitted to a third-party site within a visit."""

    profile: str
    crawl_iter: int
    visit_seq: int
    top_site: str
    third_party_site: str
    cookie_name: str
    cookie_value: str


FLOW_FIELDS = CookieFlowRecord._fields


class _LineFeedRows:
    """Where ``csv.writer`` writes its rows, ended by its default ``\r\n``, so
    that it quotes every cell holding a ``\r`` or a ``\n``; each row goes to
    ``fh`` ended by ``\n`` instead."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, row: str) -> int:
        return self._fh.write(row[:-2] + "\n")


def write_csv(path: str | Path, rows: Iterable[Sequence]) -> None:
    """Write ``rows``, the header first, as UTF-8 CSV lines ending in a bare
    LF. A cell is quoted when it holds a ``,``, a ``"``, a ``\r`` or a
    ``\n``, so ``csv.reader`` reads back every cell as it was written."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(_LineFeedRows(fh)).writerows(rows)


_FLOW_TABLE = _csv_table(FLOW_FIELDS, FLOW_FIELDS, ("crawl_iter", "visit_seq"))


def read_flows_csv(lines: Iterable[str]) -> list[CookieFlowRecord]:
    """The flow table in the lines of a ``flows.csv`` file, as a text file
    opened with ``newline=""`` gives them. Raises :class:`TraceFormatError`,
    naming the line, for a row with a missing or extra field or a crawl_iter
    or visit_seq that is not an integer (``-?[0-9]+``); a blank row is
    skipped."""
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None or tuple(header) != FLOW_FIELDS:
        raise ValueError(f"not a flow table (header {header})")
    flows = []
    for row in reader:
        if row:
            try:
                flows.append(CookieFlowRecord._make(_cells(row, _FLOW_TABLE)))
            except ValueError as exc:  # also an integer past int()'s digit limit
                raise TraceFormatError(f"line {reader.line_num}: {exc}") from None
    return flows
