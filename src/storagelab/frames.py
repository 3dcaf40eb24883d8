"""The frame edge-set archive, ``frames.jsonl``: one line per frame instance
(its edge set, ad flag and party), exactly what json.dumps(record,
sort_keys=True, separators=(",", ":")) gives. The writer takes a path; the
reader takes the lines of a file, which the CLI reads and decodes once, and
accepts an edge only as its exact canonical string. A record read back holds
its edges as a frozenset, one per distinct edge set in the file, shared by
every record with that set, so the metrics can score each distinct edge set
once.

Replay writes the file and the compatibility metrics read it; like ``flows``
for the flow table, it imports no replay code, and of the trace only its
vocabulary, ``storagelab.vocab`` (README "Start-up and exit").
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable

from storagelab.flows import TraceFormatError, _json_object, _no_surrogate, _require, _whole
from storagelab.vocab import _EDGE_MASKS, _Memo


class FrameRecord:
    __slots__ = ("edge_set", "is_ad", "party")

    # edge_set: a set that replay adds to, or the frozenset the reader shares
    def __init__(self, edge_set: set[str] | frozenset[str] | None = None,
                 is_ad: bool = False, party: str = "third") -> None:
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
    record = _no_surrogate(_json_object(line), line)
    page_url, frame_url, profile, party = _require(
        record, "page_url", "frame_url", "profile", "party")
    (crawl_iter,) = _require(record, "crawl_iter", of=int)
    (is_ad,) = _require(record, "is_ad", of=bool)
    (edges,) = _require(record, "edges", of=list)
    if not all(isinstance(edge, str) for edge in edges):
        raise TraceFormatError("field 'edges' must hold strings")
    if party not in PARTIES:
        raise TraceFormatError(f"unknown party {party!r}")
    for edge in edges:
        try:
            _EDGE_MASKS[edge]  # parsed once per distinct edge per process
        except ValueError as exc:
            raise TraceFormatError(str(exc)) from None
    key = (page_url, frame_url, profile, crawl_iter)
    return key, FrameRecord(frozenset(edges), is_ad, party)


# A line in the writer's form, up to the first edge: its crawl_iter as the
# writer prints a machine-sized int.
_WRITER_HEAD = re.compile(r'\{"crawl_iter":(0|-?[1-9][0-9]{0,17}),"edges":\[').match
# What ends the edge list and starts the rest of the line; inside an edge's
# JSON string a '"' is always escaped, so the first match is the real one.
_EDGES_END = '],"frame_url":'
# The rest of a line in the writer's form, each string holding no quote, no
# backslash and no control character, so that its text is its value, as JSON
# reads it.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_WRITER_TAIL = re.compile(
    rf'"frame_url":{_STRING},"is_ad":(true|false),"page_url":{_STRING},'
    rf'"party":"(first|third)","profile":{_STRING}}}\n?').fullmatch
_TAIL_FIELDS = itemgetter("page_url", "frame_url", "profile", "party", "is_ad")


def _edge_list(text: str) -> frozenset[str] | None:
    """The edges of a writer-form line's edge-list text, the part between
    ``"edges":[`` and ``]``; None unless it is a list of canonical edge
    strings."""
    try:
        edges = _whole(f"[{text}]")
        if all(type(edge) is str for edge in edges):
            for edge in edges:
                _EDGE_MASKS[edge]
            return frozenset(edges)
    except ValueError:  # not JSON, or not a canonical edge
        pass
    return None


def _line_tail(text: str) -> tuple | None:
    """``(page_url, frame_url, profile, party, is_ad)`` from the text after a
    writer-form line's edge list, ``"frame_url":`` to the end; None unless it
    holds exactly those five fields, of the writer's types. A text whose
    strings need no unescaping is matched; any other is decoded."""
    tail = _WRITER_TAIL(text)
    if tail is not None:
        frame_url, is_ad, page_url, party, profile = tail.groups()
        return page_url, frame_url, profile, party, is_ad == "true"
    try:
        fields = _whole("{" + text)
        if len(fields) == 5:
            page_url, frame_url, profile, party, is_ad = tail = _TAIL_FIELDS(fields)
            if (type(page_url) is str and type(frame_url) is str and type(profile) is str
                    and party in PARTIES and type(is_ad) is bool):
                return tail
    except (ValueError, KeyError):  # not JSON, or a field missing
        pass
    return None


def read_frames_jsonl(lines: Iterable[str]) -> dict[FrameKey, FrameRecord]:
    """The frames in the lines of a ``frames.jsonl`` file. Raises
    :class:`TraceFormatError`, naming the line, for a record that is not a
    JSON object, lacks a field, has one of the wrong type, holds an edge that
    is not a canonical edge string, or repeats the (page_url, frame_url,
    profile, crawl_iter) of an earlier record.

    A line in the writer's exact form is taken as three parts: its
    crawl_iter, its edge-list text and the text after it. Each distinct
    edge-list text is decoded and checked once, and each distinct rest of a
    line is matched or decoded once. Any other line, or one whose parts fail
    a check, is decoded whole by ``_frame_entry``, which names what is wrong.
    Either way, every record with an equal edge set shares one frozenset."""
    frames: dict[FrameKey, FrameRecord] = {}
    shared: dict[frozenset[str], frozenset[str]] = {}  # each distinct edge set

    def shared_edges(text: str) -> frozenset[str] | None:
        edges = _edge_list(text)
        return None if edges is None else shared.setdefault(edges, edges)

    edge_lists = _Memo(shared_edges)
    tails = _Memo(_line_tail)
    for line_no, line in enumerate(lines, start=1):
        try:
            head = _WRITER_HEAD(line)
            stop = line.find(_EDGES_END, head.end()) if head else -1
            edges = edge_lists[line[head.end():stop]] if stop >= 0 else None
            tail = tails[line[stop + 2:]] if edges is not None else None
            if tail is not None:
                page_url, frame_url, profile, party, is_ad = tail
                key = (page_url, frame_url, profile, int(head[1]))
                record = FrameRecord(edges, is_ad, party)
            else:
                # _frame_entry names what is wrong; a blank line is skipped.
                line = line.strip()
                if not line:
                    continue
                key, record = _frame_entry(line)
                record.edge_set = shared.setdefault(record.edge_set, record.edge_set)
            if frames.setdefault(key, record) is not record:
                raise TraceFormatError(f"duplicate frame record {key!r}")
        except TraceFormatError as exc:
            raise TraceFormatError(f"line {line_no}: {exc}") from None
    return frames
