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
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Union

from storagelab.flows import TraceFormatError, _json_object, _no_surrogate, _require, _whole
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


def event_to_record(event: TraceEvent) -> dict:
    if isinstance(event, VisitStart):
        return {"type": "visit_start", "profile": event.profile, "crawl_iter": event.crawl_iter,
                "tab": event.tab, "page_url": event.page_url, "visit_seq": event.visit_seq}
    if isinstance(event, FrameLoad):
        record = {"type": "frame_load", "tab": event.tab, "frame_id": event.frame_id,
                  "frame_url": event.frame_url}
        if event.is_ad is not None:
            record["is_ad"] = event.is_ad
        return record
    if isinstance(event, ScriptStorage):
        return {"type": "script_storage", "tab": event.tab, "frame_id": event.frame_id,
                "api": event.api, "op": event.op, "key": event.key, "value": event.value}
    if isinstance(event, VisitEnd):
        return {"type": "visit_end", "tab": event.tab}
    if isinstance(event, HttpRequest):
        record = {"type": "http_request", "tab": event.tab, "frame_id": event.frame_id,
                  "dest_url": event.dest_url,
                  "response_set_cookies": list(event.response_set_cookies)}
    elif isinstance(event, BehaviorEdge):
        record = {"type": "behavior_edge", "tab": event.tab, "frame_id": event.frame_id,
                  "edge": dict(zip(_EDGE_FIELDS, json.loads(event.edge)))}
    else:
        raise TypeError(f"not a trace event: {event!r}")
    if event.when is not None:  # only these two events carry a condition
        record["when"] = {"cookie": event.when[0], "present": event.when[1]}
    return record


def _condition(record: dict) -> tuple[str, bool] | None:
    """A record's ``when`` as ``(cookie name, present)``; None when absent."""
    when = record.get("when")
    if when is None:
        return None
    if (type(when) is dict and type(when.get("cookie")) is str
            and type(when.get("present")) is bool):
        return when["cookie"], when["present"]
    raise TraceFormatError('when must be {"cookie": a string, "present": a boolean}')


def _record_to_event(record: dict) -> TraceEvent:
    kind = record.get("type")
    if kind == "visit_start":
        profile, tab, page_url = _require(record, "profile", "tab", "page_url")
        crawl_iter, visit_seq = _require(record, "crawl_iter", "visit_seq", of=int)
        return VisitStart(profile, crawl_iter, tab, page_url, visit_seq)
    if kind == "frame_load":
        tab, frame_id, frame_url = _require(record, "tab", "frame_id", "frame_url")
        is_ad = record.get("is_ad")
        if is_ad is not None and not isinstance(is_ad, bool):
            raise TraceFormatError("is_ad must be a boolean")
        return FrameLoad(tab, frame_id, frame_url, is_ad)
    if kind == "http_request":
        tab, frame_id, dest_url = _require(record, "tab", "frame_id", "dest_url")
        cookies = record.get("response_set_cookies", [])
        if not isinstance(cookies, list) or not all(isinstance(c, str) for c in cookies):
            raise TraceFormatError("response_set_cookies must be a string list")
        return HttpRequest(tab, frame_id, dest_url, tuple(cookies), _condition(record))
    if kind == "script_storage":
        tab, frame_id, api, op, key = _require(record, "tab", "frame_id", "api", "op", "key")
        if api not in STORAGE_APIS:
            raise TraceFormatError(f"unknown storage api {api!r}")
        if op not in STORAGE_OPS:
            raise TraceFormatError(f"unknown storage op {op!r}")
        value = record.get("value")
        if value is not None and not isinstance(value, str):
            raise TraceFormatError("value must be a string or null")
        return ScriptStorage(tab, frame_id, api, op, key, value)
    if kind == "behavior_edge":
        tab, frame_id = _require(record, "tab", "frame_id")
        (edge,) = _require(record, "edge", of=dict)
        fields = _require(edge, *_EDGE_FIELDS)
        NodeType(fields[0]), NodeType(fields[3])  # ValueError for an unknown node type
        return BehaviorEdge(tab, frame_id, _edge_string(*fields), _condition(record))
    if kind == "visit_end":
        (tab,) = _require(record, "tab")
        return VisitEnd(tab)
    raise TraceFormatError(f"unknown record type {kind!r}")


# The one-pass path of parse_trace: a builder per record type takes a decoded
# record and gives its event, or None, or raises KeyError or ValueError, to
# decline it. A builder checks exact types (an integer is never a bool) and
# takes only records that _record_to_event takes, building the same event.
_VISIT_START_FIELDS = itemgetter("profile", "crawl_iter", "tab", "page_url", "visit_seq")
_FRAME_FIELDS = itemgetter("tab", "frame_id", "frame_url")
_REQUEST_FIELDS = itemgetter("tab", "frame_id", "dest_url")
_SCRIPT_FIELDS = itemgetter("tab", "frame_id", "api", "op", "key")
_EDGE_EVENT_FIELDS = itemgetter("tab", "frame_id", "edge")
_EDGE_OBJECT_FIELDS = itemgetter(*_EDGE_FIELDS)
_NODE_TYPES = frozenset(t.value for t in NodeType)


def _build_visit_start(record: dict) -> VisitStart | None:
    profile, crawl_iter, tab, page_url, visit_seq = _VISIT_START_FIELDS(record)
    if (type(profile) is str and type(tab) is str and type(page_url) is str
            and type(crawl_iter) is int and type(visit_seq) is int):
        return VisitStart(profile, crawl_iter, tab, page_url, visit_seq)
    return None


def _build_frame_load(record: dict) -> FrameLoad | None:
    tab, frame_id, frame_url = _FRAME_FIELDS(record)
    is_ad = record.get("is_ad")
    if (type(tab) is str and type(frame_id) is str and type(frame_url) is str
            and (is_ad is None or type(is_ad) is bool)):
        return FrameLoad(tab, frame_id, frame_url, is_ad)
    return None


def _build_http_request(record: dict) -> HttpRequest | None:
    tab, frame_id, dest_url = _REQUEST_FIELDS(record)
    cookies = record.get("response_set_cookies", [])
    if (type(tab) is str and type(frame_id) is str and type(dest_url) is str
            and type(cookies) is list and all(type(c) is str for c in cookies)):
        return HttpRequest(tab, frame_id, dest_url, tuple(cookies), _condition(record))
    return None


def _build_script_storage(record: dict) -> ScriptStorage | None:
    tab, frame_id, api, op, key = _SCRIPT_FIELDS(record)
    value = record.get("value")
    if (type(tab) is str and type(frame_id) is str and type(key) is str
            and type(api) is str and api in STORAGE_APIS and type(op) is str
            and op in STORAGE_OPS and (value is None or type(value) is str)):
        return ScriptStorage(tab, frame_id, api, op, key, value)
    return None


def _build_behavior_edge(record: dict) -> BehaviorEdge | None:
    tab, frame_id, edge = _EDGE_EVENT_FIELDS(record)
    if type(tab) is str and type(frame_id) is str and type(edge) is dict:
        fields = _EDGE_OBJECT_FIELDS(edge)
        if (all(type(field) is str for field in fields)
                and fields[0] in _NODE_TYPES and fields[3] in _NODE_TYPES):
            return BehaviorEdge(tab, frame_id, _edge_string(*fields), _condition(record))
    return None


def _build_visit_end(record: dict) -> VisitEnd | None:
    tab = record["tab"]
    return VisitEnd(tab) if type(tab) is str else None


_BUILDERS = {"visit_start": _build_visit_start, "frame_load": _build_frame_load,
             "http_request": _build_http_request, "script_storage": _build_script_storage,
             "behavior_edge": _build_behavior_edge, "visit_end": _build_visit_end}


def _fast_event(line: str) -> TraceEvent | None:
    """The event of a stripped trace line, from one decode that must end at
    the end of the line and its type's builder; None when the line is not a
    JSON object of a known event type or a builder declines it."""
    try:
        record = _whole(line)
        return _BUILDERS[record["type"]](record)
    except (ValueError, KeyError, TypeError):  # TypeError: not an object, or an unhashable type
        return None


def parse_trace(lines: Iterable[str]) -> Trace:
    """Parse trace lines; :class:`TraceFormatError` names the first bad line.

    Each distinct (stripped) line is decoded and checked once: a repeat
    reuses the frozen event parsed from its first copy, so events from
    identical lines are the same object. A line is decoded in one pass and
    checked by exact types (``_fast_event``); a line that pass declines, a
    meta or a bad record, is decoded again and checked field by field
    (``_record_to_event``), which names what is wrong. The meta record is
    never reused, since its ``spec`` is a mutable dict and only line 1 may
    hold it.
    """
    meta: TraceMeta | None = None
    events: list[TraceEvent] = []
    parsed: dict[str, TraceEvent] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        event = parsed.get(line)
        if event is None:
            event = _fast_event(line)
            if event is None:
                try:
                    record = _no_surrogate(_json_object(line), line)
                    if record.get("type") == "meta":
                        if line_no != 1:
                            raise TraceFormatError("meta record only allowed first")
                        meta = TraceMeta(record.get("scenario"), record.get("spec"))
                        continue
                    event = _record_to_event(record)
                except ValueError as exc:  # a TraceFormatError, or an unknown node type
                    raise TraceFormatError(f"line {line_no}: {exc}") from None
            parsed[line] = event
        events.append(event)
    return Trace(meta, events)


# json.dumps with these arguments builds a new encoder on every call.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_line(record: dict) -> str:
    return _encode(record) + "\n"


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
        meta: dict = {"type": "meta"}
        if trace.meta.scenario is not None:
            meta["scenario"] = trace.meta.scenario
        if trace.meta.spec is not None:
            meta["spec"] = trace.meta.spec
        yield _json_line(meta)
    # The index of each event object's last occurrence: its line is kept from
    # its first occurrence until then, so not at all for an object that occurs
    # once.
    last = {id(event): index for index, event in enumerate(trace.events)}
    lines: dict[int, str] = {}  # id of an event object that occurs again -> its line
    for index, event in enumerate(trace.events):
        key = id(event)
        line = lines.get(key)
        if line is None:
            line = _json_line(event_to_record(event))
            if last[key] != index:
                lines[key] = line
        elif last[key] == index:
            del lines[key]
        yield line


def dump_trace(trace: Trace) -> str:
    """The text of a trace file; ``TypeError`` for an item that is not a
    trace event."""
    return "".join(_trace_lines(trace))


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
