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

from storagelab.flows import (_MISSING, _SPACE, TraceFormatError, _checked, _decoded,
                              _json_object, _must_be, _no_surrogate, _word)
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
# The rest of a line in the writer's form: the five other fields alone, in
# order. In a plain rest, each string holds no quote, no backslash and no
# control character, so that its text is its value, as JSON reads it, and
# the party is one of PARTIES. In an escaped one, a string may hold escapes,
# as the writer's do for any text but ASCII, and the party may be any
# string, so it must be decoded to be read (its escapes are checked then).
_TAIL = r'"frame_url":{0},"is_ad":(true|false),"page_url":{0},"party":{1},"profile":{0}}}\n?'
_STRING = r'"([^"\\\x00-\x1f]*)"'
_ESCAPED = r'"[^"\\\x00-\x1f]*(?:\\.[^"\\\x00-\x1f]*)*"'
_WRITER_TAIL = re.compile(_TAIL.format(_STRING, '"(first|third)"')).fullmatch
# Compiled on first use, by re's own cache: the writer's rests are escaped
# only for text that is not ASCII, and compiling this costs about 0.4 ms.
_ESCAPED_TAIL = _TAIL.format(_ESCAPED, _ESCAPED)


def _line_tail(text: str) -> tuple | None:
    """``(frame_url, is_ad, page_url, party, profile)``, as ``_FIELDS``
    checks them, from the text after a writer-form line's edge list,
    ``"frame_url":`` to the end, when it is a plain rest; ``()`` when it is
    an escaped one; None when it is neither."""
    tail = _WRITER_TAIL(text)
    if tail is None:
        return () if re.fullmatch(_ESCAPED_TAIL, text) else None
    frame_url, is_ad, page_url, party, profile = tail.groups()
    return frame_url, is_ad == "true", page_url, party, profile


# In an edge-list text, a ']' that a ',' follows: where, unless there is
# none, the line's array might end early and its object go on.
_MAY_END_EARLY = re.compile(r"\][ \t\n\r]*,").search


def _line_edges(line: str, start: int, stop: int) -> frozenset[str]:
    """The checked edges of a line whose rest has passed, its edge list
    decoded in place, from the ``[`` at ``start`` to the ``]`` at ``stop``:
    any error is the one a decode of the whole line would raise first."""
    value, end = _decoded(line, start)
    if end != stop + 1:
        # The array ended early, and no ',' follows it (_MAY_END_EARLY): a
        # '}' ends the object before the rest of the line; anything else is
        # out of place.
        if line[_SPACE(line, end).end()] == "}":
            raise TraceFormatError("invalid JSON (Extra data)")
        raise TraceFormatError("invalid JSON (Expecting ',' delimiter)")
    try:
        return _edges(value)
    except ValueError:
        _no_surrogate(value)  # which the whole line's decode names first
        raise


def read_frames_jsonl(lines: Iterable[str]) -> dict[FrameKey, FrameRecord]:
    """The frames in the lines of a ``frames.jsonl`` file. Raises
    :class:`TraceFormatError`, naming the line, for a record that is not a
    JSON object, lacks a field, has one of the wrong type, holds an edge that
    is not a canonical edge string, or repeats the (page_url, frame_url,
    profile, crawl_iter) of an earlier record.

    A line in the writer's form is taken as three parts found by regexes:
    its crawl_iter, its edge-list text and the rest, which holds the five
    other fields. The reader remembers each edge list and each rest that has
    passed; a rest with no escape passes at sight. A line whose two parts
    have passed is not decoded. Of one whose rest has, only the edge list is
    decoded, in place; of one whose edge list has, only the rest. Any other
    line is decoded whole, and the parts of a writer-form line that passes
    are then remembered. So each line is decoded at most once, and an error
    names the first bad field in ``_FIELDS``'s order, as a decode of the
    whole line would. Every record with an equal edge set shares one
    frozenset."""
    frames: dict[FrameKey, FrameRecord] = {}
    shared: dict[frozenset[str], frozenset[str]] = {}  # each distinct edge set
    edge_lists: dict[str, frozenset[str]] = {}  # each edge-list text that has passed
    tails = _Memo(_line_tail)
    for line_no, line in enumerate(lines, start=1):
        try:
            head = _WRITER_HEAD(line)
            stop = line.find(_EDGES_END, head.end()) if head else -1
            edges = tail = None
            if stop >= 0:
                text, rest = line[head.end():stop], line[stop + 2:]
                edges, tail = edge_lists.get(text), tails[rest]
                if edges is None and tail and not _MAY_END_EARLY(text):
                    edges = _line_edges(line, head.end() - 1, stop)
                    edge_lists[text] = edges = shared.setdefault(edges, edges)
                elif edges is not None and tail == ():
                    # After the edge list that has passed, a ',' and then the
                    # rest read as the rest alone does after a '{'.
                    tail = tails[rest] = tuple(_checked(_json_object("{" + rest), _FIELDS[2:]))
            if edges is not None and tail:
                frame_url, is_ad, page_url, party, profile = tail
                crawl_iter = int(head[1])
            else:
                line = line.strip()
                if not line:  # a blank line is skipped
                    continue
                values = _checked(_json_object(line), _FIELDS)
                crawl_iter, edges, frame_url, is_ad, page_url, party, profile = values
                edges = shared.setdefault(edges, edges)
                if tail is not None:  # the writer's form: its parts hold these values in any line
                    tails[rest] = tuple(values[2:])
                    if not _MAY_END_EARLY(text):
                        edge_lists[text] = edges
            key = (page_url, frame_url, profile, crawl_iter)
            record = FrameRecord(edges, is_ad, party)
            if frames.setdefault(key, record) is not record:
                raise TraceFormatError(f"duplicate frame record {key!r}")
        except ValueError as exc:  # also a non-canonical edge
            raise TraceFormatError(f"line {line_no}: {exc}") from None
    return frames
