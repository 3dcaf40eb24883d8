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
distinct line. :func:`edge_endpoint_types`, its one parser, accepts only a
string that re-encodes to itself; one memo keeps each distinct edge's
node-type mask for the frames reader and every metric.

It defines its ``script_storage`` vocabulary (``STORAGE_APIS``, ``STORAGE_OPS``)
for ``policy``, and imports no partition or replay code.
"""

from __future__ import annotations

import json
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Union

from storagelab.flows import TraceFormatError, _json_object, _require
from storagelab.record import Record


class NodeType(Enum):
    """Node vocabulary of the behavior-edge model (fixed, 11 entities)."""

    HTML_ELEMENT = "html_element"
    TEXT_NODE = "text_node"
    DOM_ROOT = "dom_root"
    FRAME_OWNER = "frame_owner"
    SCRIPT = "script"
    JS_BUILTIN = "js_builtin"
    WEB_API = "web_api"
    HTTP_RESOURCE = "http_resource"
    COOKIE_JAR = "cookie_jar"
    LOCAL_STORAGE = "local_storage"
    SESSION_STORAGE = "session_storage"


ALL_NODE_TYPES = frozenset(NodeType)

STORAGE_NODE_TYPES = frozenset(
    {NodeType.COOKIE_JAR, NodeType.LOCAL_STORAGE, NodeType.SESSION_STORAGE}
)

# Scripts, selected JS builtins, HTTP resources, frame structure, and storage
# mechanisms: the subset that best separates broken from healthy frames.
OPTIMAL_NODE_TYPES = frozenset(
    {
        NodeType.SCRIPT,
        NodeType.JS_BUILTIN,
        NodeType.HTTP_RESOURCE,
        NodeType.DOM_ROOT,
        NodeType.FRAME_OWNER,
    }
) | STORAGE_NODE_TYPES


# Bit i of a node-type mask is the i-th type in value order, the order the
# optimizer breaks ties in.
_TYPE_BIT = {t: 1 << i for i, t in enumerate(sorted(NodeType, key=lambda t: t.value))}


def _edge_string(*fields: str) -> str:
    """The canonical string of an edge (source type, source key, edge type,
    target type, target key): exactly the bytes of ``json.dumps(list(fields),
    separators=(",", ":"))``, its only in-memory form."""
    return "[%s]" % ",".join(map(encode_basestring_ascii, fields))


def edge_endpoint_types(encoded: str) -> tuple[NodeType, NodeType]:
    """Source and target node types of a canonical edge string; ValueError
    naming the string when it is not one: a JSON array of five strings, with
    known node types, that re-encodes to exactly itself."""
    try:
        fields = json.loads(encoded)
        if (type(fields) is list and len(fields) == 5
                and all(type(field) is str for field in fields)
                and _edge_string(*fields) == encoded):
            return NodeType(fields[0]), NodeType(fields[3])
    except (ValueError, TypeError):  # not JSON text, not text, or an unknown node type
        pass
    raise ValueError(f"not a canonical edge: {encoded!r}")


class _Memo(dict):
    """Each key's value under ``fn``, computed on its first lookup."""

    def __init__(self, fn: Callable[[Hashable], object]) -> None:
        self.fn = fn

    def __missing__(self, key: Hashable):
        self[key] = value = self.fn(key)
        return value


def _edge_mask(edge: str) -> int:
    source, target = edge_endpoint_types(edge)
    return _TYPE_BIT[source] | _TYPE_BIT[target]


# The node-type mask of each canonical edge string, the bits of its two
# endpoint types: parsed on first lookup, so once per distinct edge per
# process, by whichever reader or metric meets it first.
_EDGE_MASKS = _Memo(_edge_mask)


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


STORAGE_APIS = ("cookie", "local", "session", "indexed")
STORAGE_OPS = ("get", "set", "delete")


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


def parse_trace(lines: Iterable[str]) -> Trace:
    """Parse trace lines; :class:`TraceFormatError` names the first bad line.

    Each distinct (stripped) line is decoded and checked once: a repeat
    reuses the frozen event parsed from its first copy, so events from
    identical lines are the same object. The meta record is never reused,
    since its ``spec`` is a mutable dict and only line 1 may hold it.
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
            try:
                record = _json_object(line)
                if record.get("type") == "meta":
                    if line_no != 1:
                        raise TraceFormatError("meta record only allowed first")
                    meta = TraceMeta(record.get("scenario"), record.get("spec"))
                    continue
                event = parsed[line] = _record_to_event(record)
            except ValueError as exc:  # a TraceFormatError, or an unknown node type
                raise TraceFormatError(f"line {line_no}: {exc}") from None
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
