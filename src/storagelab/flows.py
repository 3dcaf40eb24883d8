"""The flow table (``flows.csv``), the CSV writer, and the record checks that
every reader of a storagelab file shares.

A reader takes the lines of a file, never its path: the CLI reads, hashes
and decodes each input once, and adds the file's path to a reader's error,
which names only the line.

The privacy metrics read only this module's flow table, so it imports no
other ``storagelab`` module: a ``metrics picf``, ``cross-site`` or
``cross-time`` call compiles neither the replay engine nor the trace event
model (README "Start-up").
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence


class TraceFormatError(ValueError):
    """A record the trace file format (or a simulate output file) does not
    allow; names the line."""


_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean", dict: "an object",
               list: "an array"}


def _require(record: dict, *names: str, of: type = str) -> list:
    """The values of the named fields, each checked to be exactly of type
    ``of`` (so a JSON boolean is not an integer). Errors name no line: the
    caller prefixes where the record came from."""
    values = []
    for name in names:
        if name not in record:
            raise TraceFormatError(f"missing field {name!r}")
        if type(record[name]) is not of:
            raise TraceFormatError(f"field {name!r} must be {_TYPE_NAMES[of]}")
        values.append(record[name])
    return values


def _csv_record(header: Sequence[str], row: Sequence[str]) -> dict[str, str]:
    """A CSV row as {column: cell}, lacking the columns a short row has no cell for."""
    if len(row) > len(header):
        raise TraceFormatError(f"{len(row)} cells, header has {len(header)}")
    return dict(zip(header, row))


# An integer CSV cell in the form the CLI writes: ``int()`` alone would also
# take " 1_0", "+1" and non-ASCII digits.
_INTEGER = re.compile(r"-?[0-9]+").fullmatch


def _json_object(line: str) -> dict:
    try:
        record = json.loads(line)
    except ValueError as exc:  # bad JSON, or an integer past int()'s digit limit
        raise TraceFormatError(f"invalid JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(record, dict):
        raise TraceFormatError("record must be a JSON object")
    return record


class CookieFlowRecord(NamedTuple):
    """One cookie transmitted to a third-party site within a visit."""

    profile: str
    crawl_iter: int
    visit_seq: int
    top_site: str
    third_party_site: str
    cookie_name: str
    cookie_value: str


FLOW_FIELDS = ("profile", "crawl_iter", "visit_seq", "top_site",
               "third_party_site", "cookie_name", "cookie_value")


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


def _flow_record(row: list[str]) -> CookieFlowRecord:
    profile, crawl_iter, visit_seq, top_site, third_party_site, name, value = _require(
        _csv_record(FLOW_FIELDS, row), *FLOW_FIELDS)
    if not (_INTEGER(crawl_iter) and _INTEGER(visit_seq)):
        raise TraceFormatError("crawl_iter and visit_seq must be integers")
    return CookieFlowRecord(profile, int(crawl_iter), int(visit_seq), top_site,
                            third_party_site, name, value)


def read_flows_csv(lines: Iterable[str]) -> list[CookieFlowRecord]:
    """The flow table in the lines of a ``flows.csv`` file, as a text file
    opened with ``newline=""`` gives them. Raises :class:`TraceFormatError`,
    naming the line, for a row with a missing or extra field or a crawl_iter
    or visit_seq that is not an integer (``-?[0-9]+``)."""
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None or tuple(header) != FLOW_FIELDS:
        raise ValueError(f"not a flow table (header {header})")
    flows = []
    for row in reader:
        # One pass: seven cells, and two unsigned ASCII integers. Any other
        # row, a negative integer included, goes to _flow_record, which names
        # what is wrong; a blank row is skipped.
        try:
            profile, crawl_iter, visit_seq, top_site, third_party_site, name, value = row
        except ValueError:
            crawl_iter = visit_seq = ""
        try:
            if (crawl_iter.isdecimal() and visit_seq.isdecimal()
                    and crawl_iter.isascii() and visit_seq.isascii()):
                flows.append(CookieFlowRecord(profile, int(crawl_iter), int(visit_seq),
                                              top_site, third_party_site, name, value))
            elif row:
                flows.append(_flow_record(row))
        except ValueError as exc:  # also an integer past int()'s digit limit
            raise TraceFormatError(f"line {reader.line_num}: {exc}") from None
    return flows
