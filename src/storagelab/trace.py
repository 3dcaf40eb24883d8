"""Trace event model and the line-delimited trace file format.

A trace file is UTF-8, one JSON record per line, each carrying a ``type``
discriminator. Field names are part of the format contract (documented in
the README). An optional leading ``meta`` record identifies the scenario a
generated trace belongs to and the policy its adaptive content was modeled
against.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, Union

from storagelab.policy import STORAGE_APIS
from storagelab.record import Record


class TraceFormatError(ValueError):
    """A record the trace file format (or a simulate output file) does not
    allow; names the line."""


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


class BehaviorEdgeRecord(Record):
    """One non-structural page behavior; identity is the full 5-tuple of
    (source type, source key, edge type, target type, target key)."""

    __slots__ = ("source_type", "source_key", "edge_type", "target_type", "target_key",
                 "__dict__")

    @cached_property
    def canonical(self) -> str:
        """Unambiguous string encoding used for set membership; computed once
        per object (the object is immutable, so it cannot go stale)."""
        return json.dumps(
            [self.source_type.value, self.source_key, self.edge_type,
             self.target_type.value, self.target_key],
            separators=(",", ":"),
        )

    @classmethod
    def from_canonical(cls, encoded: str) -> "BehaviorEdgeRecord":
        st, sk, et, tt, tk = json.loads(encoded)
        return cls(NodeType(st), sk, et, NodeType(tt), tk)


def edge_endpoint_types(encoded: str) -> tuple[NodeType, NodeType]:
    """Source and target node types of a canonical edge string; ValueError
    naming the string when it is not one."""
    try:
        fields = json.loads(encoded)
        if isinstance(fields, list) and len(fields) == 5:
            return NodeType(fields[0]), NodeType(fields[3])
    except ValueError:  # not JSON, or an unknown node type
        pass
    raise ValueError(f"not a canonical edge: {encoded!r}")


class TraceMeta(NamedTuple):
    scenario: str | None = None
    policy: str | None = None
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
    __slots__ = ("tab", "frame_id", "dest_url", "response_set_cookies")
    _defaults = {"response_set_cookies": ()}


class ScriptStorage(Record):
    # api: cookie | local | session | indexed; op: get | set | delete
    __slots__ = ("tab", "frame_id", "api", "op", "key", "value")
    _defaults = {"value": None}


class BehaviorEdge(Record):
    __slots__ = ("tab", "frame_id", "edge")


class VisitEnd(Record):
    __slots__ = ("tab",)


TraceEvent = Union[VisitStart, FrameLoad, HttpRequest, ScriptStorage, BehaviorEdge, VisitEnd]


class Trace:
    __slots__ = ("meta", "events")

    def __init__(self, meta: TraceMeta | None, events: list[TraceEvent] | None = None) -> None:
        self.meta = meta
        self.events = [] if events is None else events


_SCRIPT_OPS = ("get", "set", "delete")


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
    if isinstance(event, HttpRequest):
        return {"type": "http_request", "tab": event.tab, "frame_id": event.frame_id,
                "dest_url": event.dest_url,
                "response_set_cookies": list(event.response_set_cookies)}
    if isinstance(event, ScriptStorage):
        return {"type": "script_storage", "tab": event.tab, "frame_id": event.frame_id,
                "api": event.api, "op": event.op, "key": event.key, "value": event.value}
    if isinstance(event, BehaviorEdge):
        e = event.edge
        return {"type": "behavior_edge", "tab": event.tab, "frame_id": event.frame_id,
                "edge": {"source_type": e.source_type.value, "source_key": e.source_key,
                         "edge_type": e.edge_type, "target_type": e.target_type.value,
                         "target_key": e.target_key}}
    if isinstance(event, VisitEnd):
        return {"type": "visit_end", "tab": event.tab}
    raise TypeError(f"not a trace event: {event!r}")


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


def _json_object(line: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON ({exc.msg})") from None
    if not isinstance(record, dict):
        raise TraceFormatError("record must be a JSON object")
    return record


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
        return HttpRequest(tab, frame_id, dest_url, tuple(cookies))
    if kind == "script_storage":
        tab, frame_id, api, op, key = _require(record, "tab", "frame_id", "api", "op", "key")
        if api not in STORAGE_APIS:
            raise TraceFormatError(f"unknown storage api {api!r}")
        if op not in _SCRIPT_OPS:
            raise TraceFormatError(f"unknown storage op {op!r}")
        value = record.get("value")
        if value is not None and not isinstance(value, str):
            raise TraceFormatError("value must be a string or null")
        return ScriptStorage(tab, frame_id, api, op, key, value)
    if kind == "behavior_edge":
        tab, frame_id = _require(record, "tab", "frame_id")
        (edge,) = _require(record, "edge", of=dict)
        st, sk, et, tt, tk = _require(edge, "source_type", "source_key", "edge_type",
                                      "target_type", "target_key")
        try:
            record_edge = BehaviorEdgeRecord(NodeType(st), sk, et, NodeType(tt), tk)
        except ValueError as exc:
            raise TraceFormatError(str(exc)) from None
        return BehaviorEdge(tab, frame_id, record_edge)
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
                    meta = TraceMeta(record.get("scenario"), record.get("policy"),
                                     record.get("spec"))
                    continue
                event = parsed[line] = _record_to_event(record)
            except TraceFormatError as exc:
                raise TraceFormatError(f"line {line_no}: {exc}") from None
        events.append(event)
    return Trace(meta, events)


def load_trace(path: str | Path) -> Trace:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_trace(fh)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path: str | Path) -> TraceFormatError:
    """The error for a file that is not UTF-8, naming its first such line."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return TraceFormatError(f"{path}: line {line_no}: not UTF-8 "
                                        f"({exc.reason} at column {exc.start + 1})")
    return TraceFormatError(f"{path}: not UTF-8")


def dump_trace(trace: Trace) -> str:
    lines = []
    if trace.meta is not None:
        meta: dict = {"type": "meta"}
        if trace.meta.scenario is not None:
            meta["scenario"] = trace.meta.scenario
        if trace.meta.policy is not None:
            meta["policy"] = trace.meta.policy
        if trace.meta.spec is not None:
            meta["spec"] = trace.meta.spec
        lines.append(json.dumps(meta, sort_keys=True, separators=(",", ":")))
    for event in trace.events:
        lines.append(json.dumps(event_to_record(event), sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def write_trace(trace: Trace, path: str | Path) -> None:
    Path(path).write_text(dump_trace(trace), encoding="utf-8")
