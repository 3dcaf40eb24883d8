"""Replay crawl traces under a storage policy.

Replay is policy-pure: it maintains per-profile browser state (partition
stores, open tabs, frame registries) and records cookie flows and per-frame
behavior-edge sets. Under every policy a frame's partition depends only on
its page load and its site, so it is resolved once, when the frame loads;
a request resolves only its destination. Replay keeps no op log: flows and
frames are its only outputs. Content adaptivity (pages emitting different
edges when storage misbehaves) belongs to the trace, not to the replayer:
replay records what the trace says.

Virtual time advances one tick per event; cookie expiries are interpreted
against it.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from storagelab.cookies import cookies_for_request, parse_set_cookie
from storagelab.filterlist import AdRuleSet, EMPTY_RULES, is_ad_url
from storagelab.policy import (
    FirstParty,
    PartitionKey,
    PartitionStore,
    Party,
    PolicyKind,
    resolve_partition,
    site_of,
)
from storagelab.psl import SuffixRuleSet
from storagelab.record import Record
from storagelab.trace import (
    BehaviorEdge,
    FrameLoad,
    HttpRequest,
    ScriptStorage,
    TraceEvent,
    TraceFormatError,
    VisitEnd,
    VisitStart,
    _csv_record,
    _json_object,
    _not_utf8,
    _require,
)


class ReplayError(ValueError):
    """A trace violated replay preconditions; names the event index."""


class CookieFlowRecord(NamedTuple):
    """One cookie transmitted to a third-party site within a visit."""

    profile: str
    crawl_iter: int
    visit_seq: int
    top_site: str
    third_party_site: str
    cookie_name: str
    cookie_value: str


class FrameRecord:
    __slots__ = ("edge_set", "is_ad", "party")

    def __init__(self, edge_set: set[str] | None = None, is_ad: bool = False,
                 party: Party = Party.THIRD) -> None:
        self.edge_set = set() if edge_set is None else edge_set
        self.is_ad = is_ad
        self.party = party

    def __eq__(self, other) -> bool:
        if type(other) is not FrameRecord:
            return NotImplemented
        return (self.edge_set, self.is_ad, self.party) == (other.edge_set, other.is_ad, other.party)


FrameKey = tuple[str, str, str, int]  # (page_url, frame_url, profile, crawl_iter)

_PARTIES = {p.value: p for p in Party}


class SimOutput:
    __slots__ = ("flows", "frames")

    def __init__(self, flows: list[CookieFlowRecord] | None = None,
                 frames: dict[FrameKey, FrameRecord] | None = None) -> None:
        self.flows = [] if flows is None else flows
        self.frames = {} if frames is None else frames


class _TabState(Record):
    # frames: frame_id -> (frame URL, the frame's partition key)
    __slots__ = ("profile", "crawl_iter", "visit_seq", "page_url", "site", "load_key", "frames")


_TAB_EVENTS = (FrameLoad, HttpRequest, ScriptStorage, BehaviorEdge, VisitEnd)


def replay(
    events: Sequence[TraceEvent],
    policy: PolicyKind,
    rules: SuffixRuleSet,
    ads: AdRuleSet = EMPTY_RULES,
    *,
    origin_keyed: bool = False,
) -> SimOutput:
    """Replay trace events under ``policy`` and collect flows and edge sets.

    Raises :class:`ReplayError` (naming the event index) for events that
    reference unknown tabs or frames, URLs without a host, or non-increasing
    visit sequences.
    """
    out = SimOutput()
    stores: dict[str, PartitionStore] = {}
    tabs: dict[str, _TabState] = {}
    last_seq: dict[str, int] = {}
    load_counter = 0

    for index, event in enumerate(events):
        now = float(index)
        try:
            if isinstance(event, VisitStart):
                prev_seq = last_seq.get(event.profile)
                if prev_seq is not None and event.visit_seq <= prev_seq:
                    raise ValueError(f"visit_seq {event.visit_seq} not increasing "
                                     f"for profile {event.profile!r}")
                last_seq[event.profile] = event.visit_seq
                previous = tabs.get(event.tab)
                if previous is not None and policy is PolicyKind.PAGE_LENGTH:
                    stores[previous.profile].end_page_load(previous.load_key)
                load_counter += 1
                stores.setdefault(event.profile, PartitionStore(rules))
                tabs[event.tab] = _TabState(
                    profile=event.profile,
                    crawl_iter=event.crawl_iter,
                    visit_seq=event.visit_seq,
                    page_url=event.page_url,
                    site=site_of(event.page_url, rules),
                    load_key=load_counter,
                    frames={},
                )
                continue
            if not isinstance(event, _TAB_EVENTS):
                raise ValueError(f"not a trace event: {event!r}")
            state = tabs.get(event.tab)
            if state is None:
                raise ValueError(f"tab {event.tab!r} has no active visit")

            if isinstance(event, FrameLoad):
                pkey = resolve_partition(policy, state.page_url, state.load_key,
                                         event.frame_url, rules, origin_keyed=origin_keyed)
                party = Party.FIRST if isinstance(pkey, FirstParty) else Party.THIRD
                ad = event.is_ad if event.is_ad is not None else is_ad_url(event.frame_url, ads)
                state.frames[event.frame_id] = (event.frame_url, pkey)
                key = (state.page_url, event.frame_url, state.profile, state.crawl_iter)
                record = out.frames.setdefault(key, FrameRecord(is_ad=ad, party=party))
                record.is_ad = ad
                record.party = party
                continue
            if isinstance(event, VisitEnd):
                if policy is PolicyKind.PAGE_LENGTH:
                    stores[state.profile].end_page_load(state.load_key)
                del tabs[event.tab]
                continue

            frame = state.frames.get(event.frame_id)
            if frame is None:
                raise ValueError(f"unknown frame {event.frame_id!r}")
            frame_url, frame_pkey = frame

            if isinstance(event, HttpRequest):
                pkey = resolve_partition(policy, state.page_url, state.load_key,
                                         event.dest_url, rules, origin_keyed=origin_keyed)
                area = stores[state.profile].area(pkey)
                if area is None:
                    continue
                if not isinstance(pkey, FirstParty):
                    dest_site = site_of(event.dest_url, rules)
                    for name, value in cookies_for_request(area.jar, event.dest_url, now):
                        out.flows.append(CookieFlowRecord(
                            state.profile, state.crawl_iter, state.visit_seq,
                            state.site, dest_site, name, value))
                for header in event.response_set_cookies:
                    cookie = parse_set_cookie(header, event.dest_url, rules, now)
                    if cookie is not None:
                        area.jar.add(cookie)

            elif isinstance(event, ScriptStorage):
                stores[state.profile].storage_access(
                    frame_pkey, event.op, event.api, event.key, event.value,
                    url=frame_url, now=now,
                    session_scope=f"{event.tab}:{state.load_key}",
                )

            else:  # BehaviorEdge
                key = (state.page_url, frame_url, state.profile, state.crawl_iter)
                out.frames[key].edge_set.add(event.edge.canonical)
        except ValueError as exc:
            raise ReplayError(f"event {index}: {exc}") from None

    return out


# ---------------------------------------------------------------------------
# SimOutput files: a flow table (CSV) and a frame edge-set archive (JSONL).

FLOW_FIELDS = ("profile", "crawl_iter", "visit_seq", "top_site",
               "third_party_site", "cookie_name", "cookie_value")


def write_flows_csv(flows: Iterable[CookieFlowRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FLOW_FIELDS)
        for r in flows:
            writer.writerow([r.profile, r.crawl_iter, r.visit_seq, r.top_site,
                             r.third_party_site, r.cookie_name, r.cookie_value])


def _flow_record(row: list[str]) -> CookieFlowRecord:
    profile, crawl_iter, visit_seq, top_site, third_party_site, name, value = _require(
        _csv_record(FLOW_FIELDS, row), *FLOW_FIELDS)
    try:
        return CookieFlowRecord(profile, int(crawl_iter), int(visit_seq), top_site,
                                third_party_site, name, value)
    except ValueError:
        raise TraceFormatError("crawl_iter and visit_seq must be integers") from None


def read_flows_csv(path: str | Path) -> list[CookieFlowRecord]:
    """Raises :class:`TraceFormatError`, naming the file and line, for a row
    with a missing field or a non-integer crawl_iter or visit_seq."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != FLOW_FIELDS:
                raise ValueError(f"{path}: not a flow table (header {header})")
            flows = []
            for row in reader:
                if not row:
                    continue
                try:
                    flows.append(_flow_record(row))
                except TraceFormatError as exc:
                    raise TraceFormatError(f"{path}: line {reader.line_num}: {exc}") from None
            return flows
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def write_frames_jsonl(frames: dict[FrameKey, FrameRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(frames):
            page_url, frame_url, profile, crawl_iter = key
            record = frames[key]
            fh.write(json.dumps({
                "page_url": page_url,
                "frame_url": frame_url,
                "profile": profile,
                "crawl_iter": crawl_iter,
                "party": record.party.value,
                "is_ad": record.is_ad,
                "edges": sorted(record.edge_set),
            }, sort_keys=True, separators=(",", ":")) + "\n")


def _frame_entry(line: str) -> tuple[FrameKey, FrameRecord]:
    record = _json_object(line)
    page_url, frame_url, profile, party = _require(
        record, "page_url", "frame_url", "profile", "party")
    (crawl_iter,) = _require(record, "crawl_iter", of=int)
    (is_ad,) = _require(record, "is_ad", of=bool)
    (edges,) = _require(record, "edges", of=list)
    if not all(isinstance(edge, str) for edge in edges):
        raise TraceFormatError("field 'edges' must hold strings")
    if party not in _PARTIES:
        raise TraceFormatError(f"unknown party {party!r}")
    key = (page_url, frame_url, profile, crawl_iter)
    return key, FrameRecord(edge_set=set(edges), is_ad=is_ad, party=_PARTIES[party])


def read_frames_jsonl(path: str | Path) -> dict[FrameKey, FrameRecord]:
    """Raises :class:`TraceFormatError`, naming the file and line, for a
    record that is not a JSON object, lacks a field or has one of the wrong
    type."""
    frames: dict[FrameKey, FrameRecord] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    key, record = _frame_entry(line)
                except TraceFormatError as exc:
                    raise TraceFormatError(f"{path}: line {line_no}: {exc}") from None
                frames[key] = record
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return frames
