"""Replay crawl traces under a storage policy.

Replay is policy-pure: it maintains per-profile browser state (partition
stores, open tabs, frame registries), resolves a partition for every storage
touch, and records cookie flows and per-frame behavior-edge sets. Content
adaptivity (pages emitting different edges when storage misbehaves) belongs
to the trace, not to the replayer: replay records what the trace says.

Virtual time advances one tick per event; cookie expiries are interpreted
against it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from storagelab.cookies import cookies_for_request, parse_set_cookie
from storagelab.filterlist import AdRuleSet, EMPTY_RULES, is_ad_url
from storagelab.policy import (
    FirstParty,
    PartitionStore,
    Party,
    PolicyKind,
    classify_party,
    resolve_partition,
    site_of,
)
from storagelab.psl import SuffixRuleSet
from storagelab.trace import (
    BehaviorEdge,
    FrameLoad,
    HttpRequest,
    ScriptStorage,
    Trace,
    TraceEvent,
    TraceFormatError,
    VisitEnd,
    VisitStart,
    _json_object,
    _require,
)


class ReplayError(ValueError):
    """A trace violated replay preconditions; names the event index."""


@dataclass(frozen=True)
class CookieFlowRecord:
    """One cookie transmitted to a third-party site within a visit."""

    profile: str
    crawl_iter: int
    visit_seq: int
    top_site: str
    third_party_site: str
    cookie_name: str
    cookie_value: str


@dataclass
class FrameRecord:
    edge_set: set[str] = field(default_factory=set)
    is_ad: bool = False
    party: Party = Party.THIRD


FrameKey = tuple[str, str, str, int]  # (page_url, frame_url, profile, crawl_iter)

_PARTIES = {p.value: p for p in Party}


@dataclass(frozen=True)
class StorageOp:
    """Diagnostic log entry for one script storage operation."""

    event_index: int
    profile: str
    tab: str
    frame_id: str
    partition: str
    api: str
    op: str
    key: str
    value: str | None
    result: str | None


@dataclass
class SimOutput:
    flows: list[CookieFlowRecord] = field(default_factory=list)
    frames: dict[FrameKey, FrameRecord] = field(default_factory=dict)
    storage_op_log: list[StorageOp] = field(default_factory=list)
    scenario: str | None = None
    policy: str | None = None


@dataclass
class _TabState:
    profile: str
    crawl_iter: int
    visit_seq: int
    page_url: str
    load_key: int
    frames: dict[str, tuple[str, bool, Party]] = field(default_factory=dict)


def replay(
    trace: Trace | Sequence[TraceEvent],
    policy: PolicyKind,
    rules: SuffixRuleSet,
    ads: AdRuleSet = EMPTY_RULES,
    *,
    origin_keyed: bool = False,
) -> SimOutput:
    """Replay a trace under ``policy`` and collect flows and edge sets.

    Raises :class:`ReplayError` (naming the event index) for events that
    reference unknown tabs or frames, or for non-increasing visit sequences.
    """
    if isinstance(trace, Trace):
        events: Sequence[TraceEvent] = trace.events
        meta = trace.meta
    else:
        events = trace
        meta = None

    out = SimOutput(
        scenario=meta.scenario if meta else None,
        policy=policy.value,
    )
    stores: dict[str, PartitionStore] = {}
    tabs: dict[str, _TabState] = {}
    last_seq: dict[str, int] = {}
    load_counter = 0

    def tab_state(index: int, tab: str) -> _TabState:
        state = tabs.get(tab)
        if state is None:
            raise ReplayError(f"event {index}: tab {tab!r} has no active visit")
        return state

    def frame_of(index: int, state: _TabState, frame_id: str) -> tuple[str, bool, Party]:
        frame = state.frames.get(frame_id)
        if frame is None:
            raise ReplayError(f"event {index}: unknown frame {frame_id!r}")
        return frame

    for index, event in enumerate(events):
        now = float(index)

        if isinstance(event, VisitStart):
            prev_seq = last_seq.get(event.profile)
            if prev_seq is not None and event.visit_seq <= prev_seq:
                raise ReplayError(
                    f"event {index}: visit_seq {event.visit_seq} not increasing "
                    f"for profile {event.profile!r}"
                )
            last_seq[event.profile] = event.visit_seq
            previous = tabs.get(event.tab)
            if previous is not None and policy is PolicyKind.PAGE_LENGTH:
                stores[previous.profile].end_page_load(previous.load_key)
            load_counter += 1
            stores.setdefault(event.profile, PartitionStore(rules))
            try:
                site_of(event.page_url, rules)
            except ValueError as exc:
                raise ReplayError(f"event {index}: {exc}") from None
            tabs[event.tab] = _TabState(
                profile=event.profile,
                crawl_iter=event.crawl_iter,
                visit_seq=event.visit_seq,
                page_url=event.page_url,
                load_key=load_counter,
            )

        elif isinstance(event, FrameLoad):
            state = tab_state(index, event.tab)
            try:
                party = classify_party(event.frame_url, state.page_url, rules)
            except ValueError as exc:
                raise ReplayError(f"event {index}: {exc}") from None
            ad = event.is_ad if event.is_ad is not None else is_ad_url(event.frame_url, ads)
            state.frames[event.frame_id] = (event.frame_url, ad, party)
            key = (state.page_url, event.frame_url, state.profile, state.crawl_iter)
            record = out.frames.setdefault(key, FrameRecord(is_ad=ad, party=party))
            record.is_ad = ad
            record.party = party

        elif isinstance(event, HttpRequest):
            state = tab_state(index, event.tab)
            frame_of(index, state, event.frame_id)
            store = stores[state.profile]
            try:
                pkey = resolve_partition(
                    policy, state.page_url, state.load_key, event.dest_url, rules,
                    origin_keyed=origin_keyed,
                )
            except ValueError as exc:
                raise ReplayError(f"event {index}: {exc}") from None
            area = store.area(pkey)
            if area is not None:
                attached = cookies_for_request(area.jar, event.dest_url, now)
                if not isinstance(pkey, FirstParty):
                    top_site = site_of(state.page_url, rules)
                    dest_site = site_of(event.dest_url, rules)
                    for name, value in attached:
                        out.flows.append(CookieFlowRecord(
                            profile=state.profile,
                            crawl_iter=state.crawl_iter,
                            visit_seq=state.visit_seq,
                            top_site=top_site,
                            third_party_site=dest_site,
                            cookie_name=name,
                            cookie_value=value,
                        ))
                for header in event.response_set_cookies:
                    cookie = parse_set_cookie(header, event.dest_url, rules, now)
                    if cookie is not None:
                        area.jar.add(cookie)

        elif isinstance(event, ScriptStorage):
            state = tab_state(index, event.tab)
            frame_url, _, _ = frame_of(index, state, event.frame_id)
            store = stores[state.profile]
            try:
                pkey = resolve_partition(
                    policy, state.page_url, state.load_key, frame_url, rules,
                    origin_keyed=origin_keyed,
                )
            except ValueError as exc:
                raise ReplayError(f"event {index}: {exc}") from None
            result = store.storage_access(
                pkey, event.op, event.api, event.key, event.value,
                url=frame_url, now=now,
                session_scope=f"{event.tab}:{state.load_key}",
            )
            out.storage_op_log.append(StorageOp(
                event_index=index, profile=state.profile, tab=event.tab,
                frame_id=event.frame_id, partition=str(pkey), api=event.api,
                op=event.op, key=event.key, value=event.value, result=result,
            ))

        elif isinstance(event, BehaviorEdge):
            state = tab_state(index, event.tab)
            frame_url, _, _ = frame_of(index, state, event.frame_id)
            key = (state.page_url, frame_url, state.profile, state.crawl_iter)
            out.frames[key].edge_set.add(event.edge.canonical())

        elif isinstance(event, VisitEnd):
            state = tab_state(index, event.tab)
            if policy is PolicyKind.PAGE_LENGTH:
                stores[state.profile].end_page_load(state.load_key)
            del tabs[event.tab]

        else:
            raise ReplayError(f"event {index}: not a trace event: {event!r}")

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


def _flow_record(row: list[str], line_no: int) -> CookieFlowRecord:
    profile, crawl_iter, visit_seq, top_site, third_party_site, name, value = _require(
        dict(zip(FLOW_FIELDS, row)), line_no, *FLOW_FIELDS)
    try:
        return CookieFlowRecord(profile, int(crawl_iter), int(visit_seq), top_site,
                                third_party_site, name, value)
    except ValueError:
        raise TraceFormatError(
            f"line {line_no}: crawl_iter and visit_seq must be integers") from None


def read_flows_csv(path: str | Path) -> list[CookieFlowRecord]:
    """Raises :class:`TraceFormatError`, naming the file and line, for a row
    with a missing field or a non-integer crawl_iter or visit_seq."""
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
                flows.append(_flow_record(row, reader.line_num))
            except TraceFormatError as exc:
                raise TraceFormatError(f"{path}: {exc}") from None
        return flows


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


def _frame_entry(line: str, line_no: int) -> tuple[FrameKey, FrameRecord]:
    record = _json_object(line, line_no)
    page_url, frame_url, profile, party = _require(
        record, line_no, "page_url", "frame_url", "profile", "party")
    (crawl_iter,) = _require(record, line_no, "crawl_iter", of=int)
    (is_ad,) = _require(record, line_no, "is_ad", of=bool)
    (edges,) = _require(record, line_no, "edges", of=list)
    if not all(isinstance(edge, str) for edge in edges):
        raise TraceFormatError(f"line {line_no}: field 'edges' must hold strings")
    if party not in _PARTIES:
        raise TraceFormatError(f"line {line_no}: unknown party {party!r}")
    key = (page_url, frame_url, profile, crawl_iter)
    return key, FrameRecord(edge_set=set(edges), is_ad=is_ad, party=_PARTIES[party])


def read_frames_jsonl(path: str | Path) -> dict[FrameKey, FrameRecord]:
    """Raises :class:`TraceFormatError`, naming the file and line, for a
    record that is not a JSON object, lacks a field or has one of the wrong
    type."""
    frames: dict[FrameKey, FrameRecord] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                key, record = _frame_entry(line, line_no)
            except TraceFormatError as exc:
                raise TraceFormatError(f"{path}: {exc}") from None
            frames[key] = record
    return frames
