"""Deterministic synthetic crawl traces with storage-adaptive tracker frames.

Pages are plain first-party documents embedding zero or more third-party
tracker widgets. Per frame load, a tracker widget:

1. reads its ID cookie (script access),
2. issues a sync request to its own site, whose response sets a fresh
   16-character ID cookie only when the widget's jar holds no ID yet,
3. issues a beacon request that transmits whatever the jar now holds,
4. reads the ID back and caches it, emitting storage-touching behavior
   edges only when that read-back succeeds.

Whether the jar holds an ID, and so whether the read-back succeeds, depends
on the storage policy the content runs under. The trace says so with
``when`` conditions on the sync request (``uid`` absent) and on the storage
edges (``uid`` present), and on the page's own API request that sets the
first-party session ID (``fpsession`` absent); replay evaluates them against
its jars. So a scenario has one trace, whatever the policy it is replayed
under, and the scenario fingerprint names it.

The edge helpers return canonical edge strings. All randomness (embedding
draws, ID tokens) is derived by hashing the seed, so identical specs produce
byte-identical traces.

A page's content is the same on every visit, so the generator does its work
once per distinct item, before it walks the profiles and crawl iterations:
one embedding draw per (site, page, tracker), the edge strings once per page
and per tracker, and one record per distinct event, appended again each time
the event repeats. Only a visit's start and its sync requests, each with the
visit's own ID, are new on each visit. So equal events in a generated trace
are one object, as in a parsed one, and the writer finds a repeat's line by
identity. The ``gen-trace`` command, at the end, writes a scenario's trace.
"""

from __future__ import annotations

import hashlib
import json
from typing import NamedTuple

from storagelab.artifacts import InputError, _at_least, _out_dir, _write_manifest
from storagelab.policy import site_of
from storagelab.psl import builtin_rules
from storagelab.trace import (
    BehaviorEdge,
    FrameLoad,
    HttpRequest,
    ScriptStorage,
    Trace,
    TraceEvent,
    TraceMeta,
    VisitEnd,
    VisitStart,
    write_trace,
)
from storagelab.vocab import _edge_string, _Memo


class TrackerSpec(NamedTuple):
    site: str
    embed_probability: float = 1.0  # 1.0 = embedded on every page


class SyntheticSpec(NamedTuple):
    n_sites: int
    trackers: tuple[TrackerSpec, ...]
    pages_per_site: int = 1
    crawl_iters: int = 1
    profiles: int = 1
    seed: int = 0


def _scenario_fields(spec: SyntheticSpec) -> dict:
    """The spec's fields, as the trace's meta record holds them."""
    return {
        "n_sites": spec.n_sites,
        "trackers": [[t.site, t.embed_probability] for t in spec.trackers],
        "pages_per_site": spec.pages_per_site,
        "crawl_iters": spec.crawl_iters,
        "profiles": spec.profiles,
        "seed": spec.seed,
    }


def scenario_id(spec: SyntheticSpec) -> str:
    """Fingerprint of the scenario: of its trace, which every policy replays."""
    payload = json.dumps(_scenario_fields(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _hash_fraction(*parts: object) -> float:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _token(*parts: object) -> str:
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()[:16]


def page_fixed_edges(page_url: str, site: str) -> list[str]:
    script = f"https://{site}/static/app.js"
    return [
        _edge_string("dom_root", page_url, "loads_script", "script", script),
        _edge_string("script", script, "sends_request", "http_resource", f"https://{site}/api"),
        _edge_string("script", script, "inserts", "html_element", "div#app"),
        _edge_string("script", script, "writes", "local_storage", site),
    ]


def tracker_fixed_edges(widget_url: str, tracker_site: str) -> list[str]:
    script = f"https://{tracker_site}/widget.js"
    return [
        _edge_string("dom_root", widget_url, "loads_script", "script", script),
        _edge_string("script", script, "sends_request", "http_resource",
                     f"https://{tracker_site}/beacon"),
        _edge_string("script", script, "invokes", "js_builtin", "Date.now"),
    ]


def tracker_storage_edges(widget_url: str, tracker_site: str) -> list[str]:
    script = f"https://{tracker_site}/widget.js"
    return [
        _edge_string("script", script, "reads", "cookie_jar", tracker_site),
        _edge_string("script", script, "writes", "cookie_jar", tracker_site),
        _edge_string("script", script, "writes", "local_storage", tracker_site),
    ]


def site_name(index: int) -> str:
    return f"site{index}.test"


def default_tracker_sites(count: int) -> tuple[str, ...]:
    return tuple(f"tracker{i}.test" for i in range(count))


def is_embedded(spec: SyntheticSpec, site_index: int, page_index: int, tracker: TrackerSpec) -> bool:
    """Embedding is page content: identical across profiles and iterations
    for a given scenario, so the generator draws it once per (site, page,
    tracker)."""
    if tracker.embed_probability >= 1.0:
        return True
    draw = _hash_fraction(spec.seed, "embed", site_index, page_index, tracker.site)
    return draw < tracker.embed_probability


def generate_synthetic_trace(spec: SyntheticSpec) -> Trace:
    """Generate the deterministic trace of a scenario, for every policy."""
    if spec.n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if spec.profiles < 1:
        raise ValueError("profiles must be >= 1")
    if spec.pages_per_site < 1 or spec.crawl_iters < 1:
        raise ValueError("pages_per_site and crawl_iters must be >= 1")
    sites = [site_name(i) for i in range(spec.n_sites)]
    for tracker in spec.trackers:
        if not (0.0 <= tracker.embed_probability <= 1.0):
            raise ValueError(f"embed_probability out of range for {tracker.site!r}")
        if tracker.site in sites:
            raise ValueError(f"tracker site {tracker.site!r} collides with a page site")
        # A tracker is a site of its own: on a subdomain it would share a
        # page's or another tracker's partitions and flows.
        if site_of(f"https://{tracker.site}/", builtin_rules()) != tracker.site:
            raise ValueError(f"tracker site {tracker.site!r} is not a registrable domain")
    if len({t.site for t in spec.trackers}) != len(spec.trackers):
        raise ValueError("tracker sites must be distinct")

    tab = "tab0"
    # Each distinct event below is built once, keyed by its class and fields,
    # so a repeat is the same object and the writer finds its line by
    # identity. Every field is passed, defaults too: the key is the fields
    # as given, and an omitted default would make a second key for one event.
    event = _Memo(lambda key: key[0](*key[1:]))

    widget_content = []  # per tracker: its widget's URL and its two edge lists
    for tracker in spec.trackers:
        widget_url = f"https://{tracker.site}/widget.html"
        widget_content.append((tracker, widget_url,
                               tracker_fixed_edges(widget_url, tracker.site),
                               tracker_storage_edges(widget_url, tracker.site)))
    pages = []
    for site_index, site in enumerate(sites):
        for page_index in range(spec.pages_per_site):
            page_url = f"https://{site}/p{page_index}"
            first_party = (
                event[ScriptStorage, tab, "f0", "local", "set", "fp_flag", "1"],
                event[ScriptStorage, tab, "f0", "local", "get", "fp_flag", None],
                *(event[BehaviorEdge, tab, "f0", edge, None]
                  for edge in page_fixed_edges(page_url, site)),
            )
            widgets = []
            for tracker, widget_url, fixed, storage in widget_content:
                if not is_embedded(spec, site_index, page_index, tracker):
                    continue
                frame_id = f"f{len(widgets) + 1}"
                uid_get = event[ScriptStorage, tab, frame_id, "cookie", "get", "uid", None]
                before_sync = (event[FrameLoad, tab, frame_id, widget_url, None], uid_get)
                after_sync = (
                    event[HttpRequest, tab, frame_id,
                          f"https://{tracker.site}/beacon?src={site}", (), None],
                    # Read-back of the just-stored ID: it finds one except in
                    # a blocked partition, where the set was a no-op; only
                    # then does the widget touch storage.
                    uid_get,
                    event[ScriptStorage, tab, frame_id, "local", "set", "seen", "1"],
                    event[ScriptStorage, tab, frame_id, "local", "get", "seen", None],
                    *(event[BehaviorEdge, tab, frame_id, edge, None] for edge in fixed),
                    *(event[BehaviorEdge, tab, frame_id, edge, ("uid", True)]
                      for edge in storage),
                )
                widgets.append((tracker.site, frame_id, f"https://{tracker.site}/sync",
                                before_sync, after_sync))
            pages.append((site, event[FrameLoad, tab, "f0", page_url, None], first_party,
                          widgets))
    visit_end = VisitEnd(tab)

    events: list[TraceEvent] = []
    for profile_index in range(spec.profiles):
        profile = f"prof{profile_index}"
        # The first-party session ID, set by the page's own API when the
        # site's partition holds none yet.
        api = {site: HttpRequest(tab, "f0", f"https://{site}/api",
                                 (f"fpsession={_token(spec.seed, 'fp', profile, site)}; Path=/",),
                                 ("fpsession", False))
               for site in sites}
        visit_seq = 0
        for crawl_iter in range(1, spec.crawl_iters + 1):
            for site, frame, first_party, widgets in pages:
                visit_seq += 1
                events.append(VisitStart(profile, crawl_iter, tab, frame.frame_url, visit_seq))
                events.append(frame)
                events.append(api[site])
                events.extend(first_party)
                for tracker_site, frame_id, sync_url, before_sync, after_sync in widgets:
                    events.extend(before_sync)
                    # The sync response sets this visit's own ID, which the
                    # jar takes only when it holds no ID yet.
                    token = _token(spec.seed, "uid", profile, tracker_site, visit_seq)
                    events.append(HttpRequest(tab, frame_id, sync_url, (f"uid={token}; Path=/",),
                                              ("uid", False)))
                    events.extend(after_sync)
                events.append(visit_end)

    return Trace(TraceMeta(scenario_id(spec), _scenario_fields(spec)), events)


# ---------------------------------------------------------------------------
# CLI command


def cmd_gen_trace(args) -> int:
    _at_least(1, sites=args.sites, profiles=args.profiles, pages=args.pages, iters=args.iters)
    _at_least(0, trackers=args.trackers)
    if not 0 <= args.tracker_prob <= 1:
        raise InputError("--tracker-prob must be in [0, 1]")
    trackers = tuple(
        TrackerSpec(site, args.tracker_prob) for site in default_tracker_sites(args.trackers)
    )
    trace = generate_synthetic_trace(SyntheticSpec(
        n_sites=args.sites, trackers=trackers, pages_per_site=args.pages,
        crawl_iters=args.iters, profiles=args.profiles, seed=args.seed))
    out = _out_dir(args.out)
    write_trace(trace, out / "trace.jsonl")
    _write_manifest(out, args, inputs={}, outputs=["trace.jsonl"],
                    extra={"trace_scenario": trace.meta.scenario})
    return 0
