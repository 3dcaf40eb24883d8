"""Replay crawl traces under a storage policy.

Replay is policy-pure: it maintains per-profile browser state (one cookie
jar per partition, open tabs, frame registries) and records cookie flows and
per-frame behavior-edge sets. The jars are the only replay state an output
reads, so a script storage op changes state only when it is a cookie ``set``
or ``delete`` on a jar; the others are checked inline against the trace's
``api`` and ``op`` vocabulary and dropped, and an unknown value goes to
``storage_access``, which names it. Replay dispatches on an event's exact
class, the one ``parse_trace`` builds: the three frame events (behavior
edges, script ops, requests; nine in ten events) are tested first, and only
the rest go through the check against every event class. A run owns one URL
table: it forms each distinct URL's site once, looking each distinct host's
site up once through ``policy.site_of`` on the first URL naming it, and each
frame URL's filter-list verdict once; under origin keying it forms a URL's
origin once, at its first third-party use.
``resolve_partition`` maps sites to a partition key. A tab's state is its
page load: it holds that load's page-length jars beside its profile's
persistent ones, and when the visit ends or the tab navigates, the state is
dropped and the page's jars with it.
A frame's partition depends only on its page load and its site, so its jar
is found when the frame loads; a request's comes from its destination, whose
one site serves its partition and its flows. A tab's frame registry maps a
frame id to the frame's URL, jar and output record, so an edge (its canonical
string) is one set insert, and a script op or a condition goes straight to
the jar. A frame's party is ``"first"`` or ``"third"``. Flows and frames are
replay's only outputs; a frame's record, its edge set and flags, is
``storagelab.frames.FrameRecord``.
Content adaptivity is the trace's ``when`` conditions, which replay
evaluates on the frame's jar (a blocked frame has none): an edge whose
condition fails is not recorded, and a request whose condition fails still
sends its cookies but sets none.

Virtual time advances one tick per event; cookie expiries are interpreted
against it. The ``simulate`` command, at the end, reads a trace and writes
the replay's ``flows.csv`` and ``frames.jsonl``. It reads the trace through
``artifacts._parse_input``, which hashes a trace of 1 MiB or more in a
helper thread while it decodes it and joins that thread before it returns,
so no thread is running when ``cli.run`` ends the process with ``os._exit``.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from storagelab.artifacts import (_load_ad_rules, _load_suffix_rules, _out_dir, _parse_input,
                                  _write_manifest)
from storagelab.cookies import (
    Jar,
    add_cookie,
    cookies_for_request,
    host_and_path,
    matching_cookies,
    parse_set_cookie,
)
from storagelab.filterlist import AdRuleSet, EMPTY_RULES, is_ad_url
from storagelab.flows import FLOW_FIELDS, CookieFlowRecord, write_csv
from storagelab.frames import FrameKey, FrameRecord, write_frames_jsonl
from storagelab.policy import (
    PolicyKind,
    origin_of,
    partition_jar,
    resolve_partition,
    site_of,
    storage_access,
)
from storagelab.psl import SuffixRuleSet
from storagelab.record import Record
from storagelab.trace import (
    BehaviorEdge,
    FrameLoad,
    HttpRequest,
    ScriptStorage,
    TraceEvent,
    VisitEnd,
    VisitStart,
    parse_trace,
)
from storagelab.vocab import STORAGE_APIS, STORAGE_OPS, _Memo


class ReplayError(ValueError):
    """A trace violated replay preconditions; names the event index."""


class SimOutput(NamedTuple):
    flows: list[CookieFlowRecord]
    frames: dict[FrameKey, FrameRecord]


class _TabState(Record):
    # profile_jars and page_jars: the profile's persistent jars and this page
    # load's own; frames: frame_id -> (frame URL, its jar, its FrameRecord)
    __slots__ = ("profile", "crawl_iter", "visit_seq", "page_url", "site", "profile_jars",
                 "page_jars", "frames")


_EVENT_TYPES = frozenset((VisitStart, FrameLoad, HttpRequest, ScriptStorage, BehaviorEdge,
                          VisitEnd))


def _holds(when: tuple[str, bool], jar: Jar | None, url: str, now: float) -> bool:
    """Whether ``jar`` (None when blocked) holds a cookie named ``when[0]``
    that ``url`` can read, exactly when ``when[1]`` is true."""
    return (jar is not None and bool(matching_cookies(jar, url, now, when[0]))) == when[1]


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
    reference unknown tabs or frames, URLs without a host, an unknown storage
    api or op, or non-increasing visit sequences, and for an object whose
    type is not exactly one of the event classes.
    """
    flows: list[CookieFlowRecord] = []
    frames: dict[FrameKey, FrameRecord] = {}
    profiles: defaultdict[str, dict] = defaultdict(dict)  # profile -> its persistent jars
    tabs: dict[str, _TabState] = {}
    last_seq: dict[str, int] = {}
    # The run's URL table: each distinct URL's site, a third party's origin
    # when origin keyed, and a frame URL's filter-list verdict, each formed
    # on the URL's first use. A site depends only on the host, so each
    # distinct host's is looked up once, from the first URL that names it;
    # a URL without a host is passed on, and site_of names it.
    host_sites: dict[str, str] = {}

    def url_site(url: str) -> str:
        host = host_and_path(url)[0]
        site = host_sites.get(host)
        if site is None:
            site = host_sites[host] = site_of(url, rules)
        return site

    sites = _Memo(url_site)
    origins = _Memo(origin_of)
    ad_verdicts = _Memo(lambda url: is_ad_url(url, ads))

    def resolve(state: _TabState, url: str) -> tuple[str, Jar | None]:
        """A frame or request URL's site, and its partition's jar or None."""
        site = sites[url]
        subject_id = origins[url] if origin_keyed and site != state.site else site
        return site, partition_jar(resolve_partition(policy, state.site, site, subject_id),
                                   state.page_jars, state.profile_jars)

    for index, event in enumerate(events):
        kind = type(event)
        try:
            if kind is BehaviorEdge or kind is ScriptStorage or kind is HttpRequest:
                state = tabs.get(event.tab)
                if state is None:
                    raise ValueError(f"tab {event.tab!r} has no active visit")
                frame = state.frames.get(event.frame_id)
                if frame is None:
                    raise ValueError(f"unknown frame {event.frame_id!r}")
                if kind is BehaviorEdge:
                    when = event.when
                    if when is None or _holds(when, frame[1], frame[0], float(index)):
                        frame[2].edge_set.add(event.edge)
                    continue
                frame_url, frame_jar, _ = frame
                if kind is ScriptStorage:
                    # Only a cookie set or delete on a jar changes state; any
                    # other op of a known api and op is dropped here, and the
                    # rest go to storage_access, which names an unknown one.
                    api, op = event.api, event.op
                    if ((frame_jar is None or api != "cookie" or op == "get")
                            and api in STORAGE_APIS and op in STORAGE_OPS):
                        continue
                    storage_access(frame_jar, op, api, event.key, event.value,
                                   url=frame_url, rules=rules, now=float(index))
                    continue
                now = float(index)
                dest_site, jar = resolve(state, event.dest_url)
                if jar is None:
                    continue
                if dest_site != state.site:
                    for name, value in cookies_for_request(jar, event.dest_url, now):
                        flows.append(CookieFlowRecord(
                            state.profile, state.crawl_iter, state.visit_seq,
                            state.site, dest_site, name, value))
                when = event.when
                if when is not None and not _holds(when, frame_jar, frame_url, now):
                    continue
                for header in event.response_set_cookies:
                    cookie = parse_set_cookie(header, event.dest_url, rules, now)
                    if cookie is not None:
                        add_cookie(jar, cookie)
                continue

            if kind not in _EVENT_TYPES:
                raise ValueError(f"not a trace event: {event!r}")
            state = tabs.get(event.tab)
            if state is None and kind is not VisitStart:
                raise ValueError(f"tab {event.tab!r} has no active visit")

            if kind is FrameLoad:
                frame_url = event.frame_url
                site, jar = resolve(state, frame_url)
                party = "first" if site == state.site else "third"
                ad = event.is_ad if event.is_ad is not None else ad_verdicts[frame_url]
                key = (state.page_url, frame_url, state.profile, state.crawl_iter)
                record = frames.get(key)
                if record is None:
                    record = frames[key] = FrameRecord()
                record.is_ad = ad  # the frame's latest load decides its flags
                record.party = party
                state.frames[event.frame_id] = (frame_url, jar, record)

            elif kind is VisitEnd:
                del tabs[event.tab]

            else:  # VisitStart; it replaces the tab's previous page load, if any
                prev_seq = last_seq.get(event.profile)
                if prev_seq is not None and event.visit_seq <= prev_seq:
                    raise ValueError(f"visit_seq {event.visit_seq} not increasing "
                                     f"for profile {event.profile!r}")
                last_seq[event.profile] = event.visit_seq
                tabs[event.tab] = _TabState(
                    profile=event.profile,
                    crawl_iter=event.crawl_iter,
                    visit_seq=event.visit_seq,
                    page_url=event.page_url,
                    site=sites[event.page_url],
                    profile_jars=profiles[event.profile],
                    page_jars={},
                    frames={},
                )
        except ValueError as exc:
            raise ReplayError(f"event {index}: {exc}") from None

    return SimOutput(flows, frames)


# ---------------------------------------------------------------------------
# The flow table file, read back by ``storagelab.flows``.

def write_flows_csv(flows: Iterable[CookieFlowRecord], path: str | Path) -> None:
    write_csv(path, [FLOW_FIELDS, *flows])


# ---------------------------------------------------------------------------
# CLI command


def cmd_simulate(args) -> int:
    rules, psl_entry = _load_suffix_rules(args.psl)
    ads, filters_entry = _load_ad_rules(args.filters)
    trace, trace_entry = _parse_input(args.trace, parse_trace, None)
    output = replay(trace.events, PolicyKind(args.policy), rules, ads,
                    origin_keyed=args.origin_keyed)
    out = _out_dir(args.out)
    write_flows_csv(output.flows, out / "flows.csv")
    write_frames_jsonl(output.frames, out / "frames.jsonl")
    inputs = {"trace": trace_entry, "psl": psl_entry}
    if filters_entry:
        inputs["filters"] = filters_entry
    _write_manifest(
        out, args, inputs=inputs, outputs=["flows.csv", "frames.jsonl"],
        extra={
            "trace_scenario": trace.meta.scenario if trace.meta else None,
            "trace_sha256": trace_entry["sha256"],
        },
    )
    return 0
