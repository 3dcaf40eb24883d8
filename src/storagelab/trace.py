"""Trace event model and the line-delimited trace file format.

A trace file is UTF-8, one JSON record per line, each carrying a ``type``
discriminator. Field names are part of the format contract (documented in
the README). An optional leading ``meta`` record identifies the scenario a
generated trace belongs to. :func:`parse_trace` takes the lines of a trace
file, not its path: the CLI reads and decodes the file once and adds its
path to an error.

A request or an edge may carry a ``when`` condition, ``{"cookie": NAME,
"present": true|false}``, the tuple ``(NAME, present)`` in memory: content
that adapts to the storage it gets, evaluated by replay, so that one trace
serves every storage policy.

From parse to the metrics an edge is its canonical string, built once per
distinct line by ``vocab._edge_string``. The node types, the edge's parser
and the ``script_storage`` apis and ops are ``storagelab.vocab``'s, which
the metrics and ``policy`` load without this module. It imports no
partition or replay code.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Union

from storagelab.flows import (_MISSING, TraceFormatError, _checked, _json_object, _must_be,
                              _word)
from storagelab.record import Record
from storagelab.vocab import STORAGE_APIS, STORAGE_OPS, NodeType, _edge_string


class TraceMeta(NamedTuple):
    scenario: str | None = None
    spec: dict | None = None


# Trace events are records: replay reads their fields on every event, which
# is faster from slots than from a NamedTuple, and an event never equals an
# event of another type.

class VisitStart(Record):
    __slots__ = ("profile", "crawl_iter", "tab", "page_url", "visit_seq")


class FrameLoad(Record):
    # is_ad: bool | None overrides filter-list matching when present
    __slots__ = ("tab", "frame_id", "frame_url", "is_ad")
    _defaults = {"is_ad": None}


class HttpRequest(Record):
    # when: (cookie name, present) or None; it gates applying the Set-Cookies
    __slots__ = ("tab", "frame_id", "dest_url", "response_set_cookies", "when")
    _defaults = {"response_set_cookies": (), "when": None}


class ScriptStorage(Record):
    __slots__ = ("tab", "frame_id", "api", "op", "key", "value")
    _defaults = {"value": None}


class BehaviorEdge(Record):
    __slots__ = ("tab", "frame_id", "edge", "when")  # edge: its canonical string
    _defaults = {"when": None}


class VisitEnd(Record):
    __slots__ = ("tab",)


# The fields of a trace file's edge object, in canonical string order.
_EDGE_FIELDS = ("source_type", "source_key", "edge_type", "target_type", "target_key")

TraceEvent = Union[VisitStart, FrameLoad, HttpRequest, ScriptStorage, BehaviorEdge, VisitEnd]


class Trace(NamedTuple):
    meta: TraceMeta | None
    events: list[TraceEvent]


# The checks of a trace record's fields that are not plain strings; each
# returns the value its event keeps, or raises the error that names it.

def _set_cookies(value) -> tuple[str, ...]:
    if type(value) is list:
        for cookie in value:
            if type(cookie) is not str:
                break
        else:
            return tuple(value)
    raise TraceFormatError("response_set_cookies must be a string list")


def _edge(value) -> str:
    """An edge object's canonical string."""
    if type(value) is not dict:
        raise _must_be("edge", dict)
    return _edge_string(*_checked(value, _EDGE_TABLE))


def _when(value) -> tuple[str, bool]:
    """A ``when`` condition as ``(cookie name, present)``."""
    if (type(value) is dict and type(value.get("cookie")) is str
            and type(value.get("present")) is bool):
        return value["cookie"], value["present"]
    raise TraceFormatError('when must be {"cookie": a string, "present": a boolean}')


_NODE_TYPES = frozenset(t.value for t in NodeType)
_CHECKS = {"crawl_iter": int, "visit_seq": int, "is_ad": bool,
           "response_set_cookies": _set_cookies, "edge": _edge, "when": _when, "spec": dict,
           "api": _word("api", STORAGE_APIS, "storage api"),
           "op": _word("op", STORAGE_OPS, "storage op"),
           "source_type": _word("source_type", _NODE_TYPES, "node type"),
           "target_type": _word("target_type", _NODE_TYPES, "node type")}


def _table(fields: tuple[str, ...], defaults: dict) -> tuple:
    """The field table of a record class, in its fields' order: a field is a
    string unless ``_CHECKS`` names its check, and required unless it has a
    default."""
    return tuple((name, _CHECKS.get(name, str), defaults.get(name, _MISSING)) for name in fields)


_EDGE_TABLE = _table(_EDGE_FIELDS, {})
# Each record type's class and field table; only line 1 may be the meta.
_KINDS = {kind: (cls, _table(cls._fields, cls._defaults)) for kind, cls in (
    ("visit_start", VisitStart), ("frame_load", FrameLoad), ("http_request", HttpRequest),
    ("script_storage", ScriptStorage), ("behavior_edge", BehaviorEdge), ("visit_end", VisitEnd))}
_KINDS["meta"] = (TraceMeta, _table(TraceMeta._fields, TraceMeta._field_defaults))


def _event(record: dict) -> TraceEvent | TraceMeta:
    """The event, or the meta, of a decoded trace record; a TraceFormatError
    names an unknown type or the first bad field in its table."""
    kind = record.get("type")
    try:
        cls, table = _KINDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable type
        raise TraceFormatError(f"unknown record type {kind!r}") from None
    return cls(*_checked(record, table))


def parse_trace(lines: Iterable[str]) -> Trace:
    """Parse trace lines; :class:`TraceFormatError` names the first bad line.

    Each distinct line is decoded once (``flows._json_object``) and checked
    once against its type's field table (``_event``): a repeat of a line as
    read reuses the frozen event parsed from its first copy, so events from
    identical lines are the same object. The meta record is never reused,
    since its ``spec`` is a mutable dict and only line 1 may hold it.
    """
    meta: TraceMeta | None = None
    events: list[TraceEvent] = []
    parsed: dict[str, TraceEvent] = {}  # a line as read -> its event
    for line_no, line in enumerate(lines, start=1):
        event = parsed.get(line)
        if event is None:
            text = line.strip(" \t\n\r")
            if not text:
                continue
            try:
                event = _event(_json_object(text))
                if type(event) is TraceMeta:
                    if line_no != 1:
                        raise TraceFormatError("meta record only allowed first")
                    meta = event
                    continue
            except ValueError as exc:
                raise TraceFormatError(f"line {line_no}: {exc}") from None
            parsed[line] = event
        events.append(event)
    return Trace(meta, events)


# json.dumps with these arguments builds a new encoder on every call.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_line(record: dict) -> str:
    return _encode(record) + "\n"


# The writer's field tables: each record class's type and table, looked up by
# exact class, and the encoders of the fields held in another form in memory.
_KIND_OF = {cls: (kind, table) for kind, (cls, table) in _KINDS.items()}
_ENCODERS = {"response_set_cookies": list,
             "edge": lambda edge: dict(zip(_EDGE_FIELDS, json.loads(edge))),
             "when": lambda when: {"cookie": when[0], "present": when[1]}}


def event_to_record(event: TraceEvent | TraceMeta) -> dict:
    """The record of a trace event, or of the meta, walking its type's field
    table: an optional field that is None is left out, but for a script op's
    ``value``, always written (null when None). ``TypeError`` for any other
    object, an event subclass's included."""
    try:
        kind, table = _KIND_OF[type(event)]
    except KeyError:
        raise TypeError(f"not a trace event: {event!r}") from None
    record = {"type": kind}
    for name, _, default in table:
        value = getattr(event, name)
        if value is None and default is None and name != "value":
            continue
        encode = _ENCODERS.get(name)
        record[name] = value if encode is None else encode(value)
    return record


def _trace_lines(trace: Trace) -> Iterator[str]:
    """The lines of a trace file: the meta line, if any, then one line per
    event; a trace with neither is the single line ``"\n"``. Each distinct
    event object is encoded once: a repeat, as :func:`parse_trace` and the
    generator build them, is the same object, found by identity without
    hashing its fields. A line is kept only while its object occurs again
    later, so a trace whose events do not repeat is never held whole.
    ``trace.events`` keeps every event alive during the write, so no id is
    reused."""
    if trace.meta is None and not trace.events:
        yield "\n"
        return
    if trace.meta is not None:
        yield _json_line(event_to_record(trace.meta))
    # The index of each event object's last occurrence: its line is kept from
    # its first occurrence until then, so not at all for an object that occurs
    # once.
    last = {id(event): index for index, event in enumerate(trace.events)}
    lines: dict[int, str] = {}  # id of an event object that occurs again -> its line
    for index, event in enumerate(trace.events):
        key = id(event)
        line = lines.get(key)
        if line is None:
            if type(event) is TraceMeta:  # its line is the meta's, only ever line 1
                raise TypeError(f"not a trace event: {event!r}")
            line = _json_line(event_to_record(event))
            if last[key] != index:
                lines[key] = line
        elif last[key] == index:
            del lines[key]
        yield line


def write_trace(trace: Trace, path: str | Path) -> None:
    """Stream the trace file to ``path`` line by line, never holding its whole
    text: it keeps the index of each event object's last occurrence, and the
    object's line only until then. When an event cannot be encoded, the file
    is removed and the error re-raised, so no partial trace is left behind."""
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            fh.writelines(_trace_lines(trace))
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise
