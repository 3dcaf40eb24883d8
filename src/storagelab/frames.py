"""The frame edge-set archive, ``frames.jsonl``: one line per frame instance
(its edge set, ad flag and party), exactly what json.dumps(record,
sort_keys=True, separators=(",", ":")) gives. The writer takes a path; the
reader takes the lines of a file, which the CLI reads and decodes once, and
accepts an edge only as its exact canonical string.

Replay writes the file and the compatibility metrics read it; like ``flows``
for the flow table, it imports no replay code (README "Start-up").
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable

from storagelab.flows import TraceFormatError, _json_object, _require
from storagelab.trace import _EDGE_MASKS, _Memo


class FrameRecord:
    __slots__ = ("edge_set", "is_ad", "party")

    def __init__(self, edge_set: set[str] | None = None, is_ad: bool = False,
                 party: str = "third") -> None:
        self.edge_set = set() if edge_set is None else edge_set
        self.is_ad = is_ad
        self.party = party

    def __eq__(self, other) -> bool:
        if type(other) is not FrameRecord:
            return NotImplemented
        return (self.edge_set, self.is_ad, self.party) == (other.edge_set, other.is_ad, other.party)


FrameKey = tuple[str, str, str, int]  # (page_url, frame_url, profile, crawl_iter)

PARTIES = ("first", "third")


# A frames.jsonl line, keys sorted; crawl_iter is an int, never a bool, as
# read_frames_jsonl requires.
_FRAME_LINE = ('{"crawl_iter":%d,"edges":[%s],"frame_url":%s,"is_ad":%s,"page_url":%s,'
               '"party":%s,"profile":%s}\n')


def write_frames_jsonl(frames: dict[FrameKey, FrameRecord], path: str | Path) -> None:
    """One compact JSON object per frame, keys sorted, in frame-key order;
    each distinct string is encoded once."""
    encoded = _Memo(encode_basestring_ascii)
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(frames):
            page_url, frame_url, profile, crawl_iter = key
            record = frames[key]
            fh.write(_FRAME_LINE % (
                crawl_iter, ",".join(map(encoded.__getitem__, sorted(record.edge_set))),
                encoded[frame_url], "true" if record.is_ad else "false", encoded[page_url],
                encoded[record.party], encoded[profile]))


def _frame_entry(line: str) -> tuple[FrameKey, FrameRecord]:
    record = _json_object(line)
    page_url, frame_url, profile, party = _require(
        record, "page_url", "frame_url", "profile", "party")
    (crawl_iter,) = _require(record, "crawl_iter", of=int)
    (is_ad,) = _require(record, "is_ad", of=bool)
    (edges,) = _require(record, "edges", of=list)
    if not all(isinstance(edge, str) for edge in edges):
        raise TraceFormatError("field 'edges' must hold strings")
    if party not in PARTIES:
        raise TraceFormatError(f"unknown party {party!r}")
    _canonical_edges(edges)
    key = (page_url, frame_url, profile, crawl_iter)
    return key, FrameRecord(edge_set=set(edges), is_ad=is_ad, party=party)


def _canonical_edges(edges: list) -> bool:
    """Whether every edge is a string; :class:`TraceFormatError` naming the
    first string that is not a canonical edge. Each distinct edge is parsed
    once per process."""
    if not all(type(edge) is str for edge in edges):
        return False
    for edge in edges:
        try:
            _EDGE_MASKS[edge]
        except ValueError as exc:
            raise TraceFormatError(str(exc)) from None
    return True


_FRAME_FIELDS = itemgetter("page_url", "frame_url", "profile", "crawl_iter", "party", "is_ad",
                           "edges")
# One JSON value at the start of a line and where it ends; unlike json.loads,
# it makes no per-call checks or whitespace matches of its own.
_decode = json.JSONDecoder().raw_decode


def read_frames_jsonl(lines: Iterable[str]) -> dict[FrameKey, FrameRecord]:
    """The frames in the lines of a ``frames.jsonl`` file. Raises
    :class:`TraceFormatError`, naming the line, for a record that is not a
    JSON object, lacks a field, has one of the wrong type, holds an edge that
    is not a canonical edge string, or repeats the (page_url, frame_url,
    profile, crawl_iter) of an earlier record."""
    frames: dict[FrameKey, FrameRecord] = {}
    known_edge = _EDGE_MASKS.__contains__
    for line_no, line in enumerate(lines, start=1):
        try:
            # One pass: decode, unpack the seven fields, check their exact
            # types (a JSON boolean is no integer; only a string is in
            # PARTIES) and edges.
            try:
                record, end = _decode(line)
                page_url, frame_url, profile, crawl_iter, party, is_ad, edges = (
                    _FRAME_FIELDS(record))
                valid = (not line[end:].strip()
                         and type(page_url) is str and type(frame_url) is str
                         and type(profile) is str and type(crawl_iter) is int
                         and type(is_ad) is bool and type(edges) is list
                         and party in PARTIES
                         and (all(map(known_edge, edges)) or _canonical_edges(edges)))
            except TraceFormatError:
                raise
            except (ValueError, KeyError, TypeError):
                # Not one JSON object with the fields, or an unhashable party
                # or edge.
                valid = False
            if valid:
                key = (page_url, frame_url, profile, crawl_iter)
                record = FrameRecord(set(edges), is_ad, party)
            else:
                # _frame_entry names what is wrong; a blank line is skipped.
                line = line.strip()
                if not line:
                    continue
                key, record = _frame_entry(line)
            if frames.setdefault(key, record) is not record:
                raise TraceFormatError(f"duplicate frame record {key!r}")
        except TraceFormatError as exc:
            raise TraceFormatError(f"line {line_no}: {exc}") from None
    return frames
