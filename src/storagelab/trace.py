"""Trace event model and the line-delimited trace file format.

A trace file is UTF-8, one JSON record per line, each carrying a ``type``
discriminator. Field names are part of the format contract (documented in
the README). An optional leading ``meta`` record identifies the scenario a
generated trace belongs to and the policy its adaptive content was modeled
against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Union

from storagelab.policy import STORAGE_APIS


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


@dataclass(frozen=True)
class BehaviorEdgeRecord:
    """One non-structural page behavior; identity is the full 5-tuple."""

    source_type: NodeType
    source_key: str
    edge_type: str
    target_type: NodeType
    target_key: str

    def canonical(self) -> str:
        """Unambiguous string encoding used for set membership."""
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
    when it is not one."""
    fields = json.loads(encoded)
    if not isinstance(fields, list) or len(fields) != 5:
        raise ValueError(f"not a canonical edge: {encoded!r}")
    return NodeType(fields[0]), NodeType(fields[3])


@dataclass(frozen=True)
class TraceMeta:
    scenario: str | None = None
    policy: str | None = None
    spec: dict | None = None


@dataclass(frozen=True)
class VisitStart:
    profile: str
    crawl_iter: int
    tab: str
    page_url: str
    visit_seq: int


@dataclass(frozen=True)
class FrameLoad:
    tab: str
    frame_id: str
    frame_url: str
    is_ad: bool | None = None  # overrides filter-list matching when present


@dataclass(frozen=True)
class HttpRequest:
    tab: str
    frame_id: str
    dest_url: str
    response_set_cookies: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScriptStorage:
    tab: str
    frame_id: str
    api: str  # cookie | local | session | indexed
    op: str  # get | set | delete
    key: str
    value: str | None = None


@dataclass(frozen=True)
class BehaviorEdge:
    tab: str
    frame_id: str
    edge: BehaviorEdgeRecord


@dataclass(frozen=True)
class VisitEnd:
    tab: str


TraceEvent = Union[VisitStart, FrameLoad, HttpRequest, ScriptStorage, BehaviorEdge, VisitEnd]


@dataclass
class Trace:
    meta: TraceMeta | None
    events: list[TraceEvent] = field(default_factory=list)


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


def _require(record: dict, line_no: int, *names: str, of: type = str) -> list:
    """The values of the named fields, each checked to be of type ``of``."""
    values = []
    for name in names:
        if name not in record:
            raise TraceFormatError(f"line {line_no}: missing field {name!r}")
        if not isinstance(record[name], of):
            raise TraceFormatError(f"line {line_no}: field {name!r} must be {_TYPE_NAMES[of]}")
        values.append(record[name])
    return values


def _json_object(line: str, line_no: int) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {line_no}: invalid JSON ({exc.msg})") from None
    if not isinstance(record, dict):
        raise TraceFormatError(f"line {line_no}: record must be a JSON object")
    return record


def record_to_event(record: dict, line_no: int) -> TraceEvent:
    kind = record.get("type")
    if kind == "visit_start":
        profile, tab, page_url = _require(record, line_no, "profile", "tab", "page_url")
        crawl_iter, visit_seq = _require(record, line_no, "crawl_iter", "visit_seq", of=int)
        return VisitStart(profile, crawl_iter, tab, page_url, visit_seq)
    if kind == "frame_load":
        tab, frame_id, frame_url = _require(record, line_no, "tab", "frame_id", "frame_url")
        is_ad = record.get("is_ad")
        if is_ad is not None and not isinstance(is_ad, bool):
            raise TraceFormatError(f"line {line_no}: is_ad must be a boolean")
        return FrameLoad(tab, frame_id, frame_url, is_ad)
    if kind == "http_request":
        tab, frame_id, dest_url = _require(record, line_no, "tab", "frame_id", "dest_url")
        cookies = record.get("response_set_cookies", [])
        if not isinstance(cookies, list) or not all(isinstance(c, str) for c in cookies):
            raise TraceFormatError(f"line {line_no}: response_set_cookies must be a string list")
        return HttpRequest(tab, frame_id, dest_url, tuple(cookies))
    if kind == "script_storage":
        tab, frame_id, api, op, key = _require(record, line_no, "tab", "frame_id", "api", "op", "key")
        if api not in STORAGE_APIS:
            raise TraceFormatError(f"line {line_no}: unknown storage api {api!r}")
        if op not in _SCRIPT_OPS:
            raise TraceFormatError(f"line {line_no}: unknown storage op {op!r}")
        value = record.get("value")
        if value is not None and not isinstance(value, str):
            raise TraceFormatError(f"line {line_no}: value must be a string or null")
        return ScriptStorage(tab, frame_id, api, op, key, value)
    if kind == "behavior_edge":
        tab, frame_id = _require(record, line_no, "tab", "frame_id")
        (edge,) = _require(record, line_no, "edge", of=dict)
        st, sk, et, tt, tk = _require(edge, line_no, "source_type", "source_key",
                                      "edge_type", "target_type", "target_key")
        try:
            record_edge = BehaviorEdgeRecord(NodeType(st), sk, et, NodeType(tt), tk)
        except ValueError as exc:
            raise TraceFormatError(f"line {line_no}: {exc}") from None
        return BehaviorEdge(tab, frame_id, record_edge)
    if kind == "visit_end":
        (tab,) = _require(record, line_no, "tab")
        return VisitEnd(tab)
    raise TraceFormatError(f"line {line_no}: unknown record type {kind!r}")


def parse_trace(lines: Iterable[str]) -> Trace:
    meta: TraceMeta | None = None
    events: list[TraceEvent] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        record = _json_object(line, line_no)
        if record.get("type") == "meta":
            if line_no != 1:
                raise TraceFormatError(f"line {line_no}: meta record only allowed first")
            meta = TraceMeta(record.get("scenario"), record.get("policy"), record.get("spec"))
            continue
        events.append(record_to_event(record, line_no))
    return Trace(meta, events)


def load_trace(path: str | Path) -> Trace:
    with open(path, encoding="utf-8") as fh:
        return parse_trace(fh)


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
