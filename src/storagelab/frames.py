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
from pathlib import Path
from typing import Iterable

from storagelab.flows import _MISSING, TraceFormatError, _checked, _json_object, _must_be, _word
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


def _edges(value) -> frozenset[str]:
    """The check of a record's ``edges``: an array of canonical edge strings."""
    if type(value) is not list:
        raise _must_be("edges", list)
    if not all(type(edge) is str for edge in value):
        raise TraceFormatError("field 'edges' must hold strings")
    for edge in value:
        _EDGE_MASKS[edge]  # parsed once per distinct edge per process; ValueError if not canonical
    return frozenset(value)


# The field table of a frames.jsonl record, in the writer's key order.
_FIELDS = (("crawl_iter", int, _MISSING), ("edges", _edges, _MISSING),
           ("frame_url", str, _MISSING), ("is_ad", bool, _MISSING),
           ("page_url", str, _MISSING), ("party", _word("party", PARTIES, "party"), _MISSING),
           ("profile", str, _MISSING))

# A line in the writer's form, up to the first edge: its crawl_iter as the
# writer prints a machine-sized int.
_WRITER_HEAD = re.compile(r'\{"crawl_iter":(0|-?[1-9][0-9]{0,17}),"edges":\[').match
# What ends the edge list and starts the rest of the line; inside an edge's
# JSON string a '"' is always escaped, so the first match is the real one.
_EDGES_END = '],"frame_url":'
# The rest of a line in the writer's form, when it is plain: the five other
# fields alone, in order, each string holding no quote, no backslash and no
# control character, so that its text is its value, as JSON reads it, and
# the party one of PARTIES. The writer's rests are plain for ASCII text.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_WRITER_TAIL = re.compile(r'"frame_url":{0},"is_ad":(true|false),"page_url":{0},'
                          r'"party":"(first|third)","profile":{0}}}\n?'.format(_STRING)).fullmatch


def _line_tail(text: str) -> tuple | None:
    """``(frame_url, is_ad, page_url, party, profile)``, as ``_FIELDS``
    checks them, from the text after a writer-form line's edge list,
    ``"frame_url":`` to the end, when it is a plain rest; else None."""
    tail = _WRITER_TAIL(text)
    if tail is None:
        return None
    frame_url, is_ad, page_url, party, profile = tail.groups()
    return frame_url, is_ad == "true", page_url, party, profile


def read_frames_jsonl(lines: Iterable[str]) -> dict[FrameKey, FrameRecord]:
    """The frames in the lines of a ``frames.jsonl`` file. Raises
    :class:`TraceFormatError`, naming the line, for a record that is not a
    JSON object, lacks a field, has one of the wrong type, holds an edge that
    is not a canonical edge string, or repeats the (page_url, frame_url,
    profile, crawl_iter) of an earlier record. A blank line, one of JSON
    whitespace only, is skipped.

    A line is read without a decode only when each of its parts is the
    writer's own text: its crawl_iter, an edge-list text that has passed,
    and a plain rest. Any other line is decoded whole, once, and checked
    against ``_FIELDS``, so its error is a whole-line decode's. Its edge-list
    text is remembered only when it is exactly the writer's encoding of the
    set it decoded to. Every record with an equal edge set shares one
    frozenset."""
    frames: dict[FrameKey, FrameRecord] = {}
    shared: dict[frozenset[str], frozenset[str]] = {}  # each distinct edge set
    edge_lists: dict[str, frozenset[str]] = {}  # each writer-form edge-list text that has passed
    tails = _Memo(_line_tail)
    for line_no, line in enumerate(lines, start=1):
        try:
            head = _WRITER_HEAD(line)
            stop = line.find(_EDGES_END, head.end()) if head else -1
            text = edges = tail = None
            if stop >= 0:
                text = line[head.end():stop]
                edges, tail = edge_lists.get(text), tails[line[stop + 2:]]
            if edges is not None and tail is not None:
                frame_url, is_ad, page_url, party, profile = tail
                crawl_iter = int(head[1])
            else:
                line = line.strip(" \t\n\r")
                if not line:
                    continue
                crawl_iter, edges, frame_url, is_ad, page_url, party, profile = _checked(
                    _json_object(line), _FIELDS)
                edges = shared.setdefault(edges, edges)
                if text is not None and text not in edge_lists and text == ",".join(
                        map(encode_basestring_ascii, sorted(edges))):
                    edge_lists[text] = edges
            key = (page_url, frame_url, profile, crawl_iter)
            record = FrameRecord(edges, is_ad, party)
            if frames.setdefault(key, record) is not record:
                raise TraceFormatError(f"duplicate frame record {key!r}")
        except ValueError as exc:  # also a non-canonical edge
            raise TraceFormatError(f"line {line_no}: {exc}") from None
    return frames
