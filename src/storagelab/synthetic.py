"""Deterministic synthetic crawl traces with storage-adaptive tracker frames.

Pages are plain first-party documents embedding zero or more third-party
tracker widgets. Per frame load, a tracker widget:

1. reads its ID cookie (script access),
2. issues a sync request to its own site; the response sets a fresh
   16-character ID cookie only when the widget's jar was empty at that
   moment,
3. issues a beacon request that transmits whatever the jar now holds,
4. reads the ID back and caches it, emitting storage-touching behavior
   edges only when that read-back can succeed.

Whether the jar was empty -- and whether the read-back succeeds -- depends on
the storage policy the content runs under, so a trace is generated *for* a
policy: the generator carries a tiny model of the target policy's partition
lifetimes, mirroring how the same page produces different behavior under
different browsers. Traces generated for the same scenario (everything but
the policy) share a scenario fingerprint so cross-policy comparisons can be
validated.

All randomness (embedding draws, ID tokens) is derived by hashing the seed,
so identical specs produce byte-identical traces.
"""

from __future__ import annotations

import hashlib
import json
from typing import NamedTuple

from storagelab.policy import PolicyKind
from storagelab.trace import (
    BehaviorEdge,
    BehaviorEdgeRecord,
    FrameLoad,
    HttpRequest,
    NodeType,
    ScriptStorage,
    Trace,
    TraceMeta,
    VisitEnd,
    VisitStart,
)


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
    policy: PolicyKind = PolicyKind.PERMISSIVE


def _scenario_fields(spec: SyntheticSpec) -> dict:
    """Every field of the spec but the policy: what its per-policy traces share."""
    return {
        "n_sites": spec.n_sites,
        "trackers": [[t.site, t.embed_probability] for t in spec.trackers],
        "pages_per_site": spec.pages_per_site,
        "crawl_iters": spec.crawl_iters,
        "profiles": spec.profiles,
        "seed": spec.seed,
    }


def scenario_id(spec: SyntheticSpec) -> str:
    """Fingerprint of the scenario, identical across its per-policy traces."""
    payload = json.dumps(_scenario_fields(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _hash_fraction(*parts: object) -> float:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _token(*parts: object) -> str:
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()[:16]


def _edge(st: NodeType, sk: str, et: str, tt: NodeType, tk: str) -> BehaviorEdgeRecord:
    return BehaviorEdgeRecord(st, sk, et, tt, tk)


def page_fixed_edges(page_url: str, site: str) -> list[BehaviorEdgeRecord]:
    script = f"https://{site}/static/app.js"
    return [
        _edge(NodeType.DOM_ROOT, page_url, "loads_script", NodeType.SCRIPT, script),
        _edge(NodeType.SCRIPT, script, "sends_request", NodeType.HTTP_RESOURCE, f"https://{site}/api"),
        _edge(NodeType.SCRIPT, script, "inserts", NodeType.HTML_ELEMENT, "div#app"),
        _edge(NodeType.SCRIPT, script, "writes", NodeType.LOCAL_STORAGE, site),
    ]


def tracker_fixed_edges(widget_url: str, tracker_site: str) -> list[BehaviorEdgeRecord]:
    script = f"https://{tracker_site}/widget.js"
    return [
        _edge(NodeType.DOM_ROOT, widget_url, "loads_script", NodeType.SCRIPT, script),
        _edge(NodeType.SCRIPT, script, "sends_request", NodeType.HTTP_RESOURCE,
              f"https://{tracker_site}/beacon"),
        _edge(NodeType.SCRIPT, script, "invokes", NodeType.JS_BUILTIN, "Date.now"),
    ]


def tracker_storage_edges(widget_url: str, tracker_site: str) -> list[BehaviorEdgeRecord]:
    script = f"https://{tracker_site}/widget.js"
    return [
        _edge(NodeType.SCRIPT, script, "reads", NodeType.COOKIE_JAR, tracker_site),
        _edge(NodeType.SCRIPT, script, "writes", NodeType.COOKIE_JAR, tracker_site),
        _edge(NodeType.SCRIPT, script, "writes", NodeType.LOCAL_STORAGE, tracker_site),
    ]


def site_name(index: int) -> str:
    return f"site{index}.test"


def default_tracker_sites(count: int) -> tuple[str, ...]:
    return tuple(f"tracker{i}.test" for i in range(count))


def is_embedded(spec: SyntheticSpec, site_index: int, page_index: int, tracker: TrackerSpec) -> bool:
    """Embedding is page content: identical across profiles, iterations, and
    policies for a given scenario."""
    if tracker.embed_probability >= 1.0:
        return True
    draw = _hash_fraction(spec.seed, "embed", site_index, page_index, tracker.site)
    return draw < tracker.embed_probability


def generate_synthetic_trace(spec: SyntheticSpec) -> Trace:
    """Generate the deterministic trace of a scenario under ``spec.policy``."""
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
    if len({t.site for t in spec.trackers}) != len(spec.trackers):
        raise ValueError("tracker sites must be distinct")

    policy = spec.policy
    events: list = []
    # Generator-side model of which partitions already hold a tracker ID.
    # Keys mirror the target policy's partition lifetime; page-length and
    # blocking partitions never carry state into a load, so they have no keys.
    model: dict[tuple, str] = {}
    fp_model: dict[tuple, str] = {}
    minted: set[str] = set()
    mint_count: dict[tuple, int] = {}

    def mint(profile: str, tracker_site: str) -> str:
        n = mint_count.get((profile, tracker_site), 0)
        mint_count[(profile, tracker_site)] = n + 1
        token = _token(spec.seed, policy.value, profile, tracker_site, n)
        if token in minted:
            raise RuntimeError("token collision in synthetic generator")
        minted.add(token)
        return token

    visit_seq = 0
    tab = "tab0"
    for profile_index in range(spec.profiles):
        profile = f"prof{profile_index}"
        visit_seq = 0
        for crawl_iter in range(1, spec.crawl_iters + 1):
            for site_index, site in enumerate(sites):
                for page_index in range(spec.pages_per_site):
                    visit_seq += 1
                    page_url = f"https://{site}/p{page_index}"
                    events.append(VisitStart(profile, crawl_iter, tab, page_url, visit_seq))

                    # First-party document frame: storage behaves the same
                    # under every policy, so its model is policy-independent.
                    events.append(FrameLoad(tab, "f0", page_url))
                    fp_key = (profile, site)
                    set_cookies: tuple[str, ...] = ()
                    if fp_key not in fp_model:
                        fp_model[fp_key] = _token(spec.seed, "fp", profile, site)
                        set_cookies = (f"fpsession={fp_model[fp_key]}; Path=/",)
                    events.append(HttpRequest(tab, "f0", f"https://{site}/api", set_cookies))
                    events.append(ScriptStorage(tab, "f0", "local", "set", "fp_flag", "1"))
                    events.append(ScriptStorage(tab, "f0", "local", "get", "fp_flag"))
                    for edge in page_fixed_edges(page_url, site):
                        events.append(BehaviorEdge(tab, "f0", edge))

                    frame_no = 0
                    for tracker in spec.trackers:
                        if not is_embedded(spec, site_index, page_index, tracker):
                            continue
                        frame_no += 1
                        frame_id = f"f{frame_no}"
                        widget_url = f"https://{tracker.site}/widget.html"
                        events.append(FrameLoad(tab, frame_id, widget_url))
                        events.append(ScriptStorage(tab, frame_id, "cookie", "get", "uid"))

                        if policy is PolicyKind.PERMISSIVE:
                            key = (profile, tracker.site)
                        elif policy is PolicyKind.SITE_KEYED:
                            key = (profile, site, tracker.site)
                        else:
                            key = None  # blocking / page-length: nothing survives into a load
                        present = key is not None and key in model
                        if present:
                            sync_cookies: tuple[str, ...] = ()
                        else:
                            token = mint(profile, tracker.site)
                            if key is not None:
                                model[key] = token
                            sync_cookies = (f"uid={token}; Path=/",)
                        events.append(HttpRequest(
                            tab, frame_id, f"https://{tracker.site}/sync", sync_cookies))
                        events.append(HttpRequest(
                            tab, frame_id, f"https://{tracker.site}/beacon?src={site}"))

                        # Read-back of the just-stored ID: works everywhere
                        # except under blocking, where the set was a no-op.
                        events.append(ScriptStorage(tab, frame_id, "cookie", "get", "uid"))
                        events.append(ScriptStorage(tab, frame_id, "local", "set", "seen", "1"))
                        events.append(ScriptStorage(tab, frame_id, "local", "get", "seen"))
                        for edge in tracker_fixed_edges(widget_url, tracker.site):
                            events.append(BehaviorEdge(tab, frame_id, edge))
                        if policy is not PolicyKind.BLOCKING:
                            for edge in tracker_storage_edges(widget_url, tracker.site):
                                events.append(BehaviorEdge(tab, frame_id, edge))

                    events.append(VisitEnd(tab))

    return Trace(TraceMeta(scenario_id(spec), policy.value, _scenario_fields(spec)), events)
