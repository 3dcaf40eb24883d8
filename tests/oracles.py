"""Slow, obviously-correct reference implementations.

The matchers are linear scans over every rule, kept as oracles for the
label-walk lookups in ``storagelab.psl`` and ``storagelab.filterlist``. The
node-type functions re-parse every edge string and test enum membership subset
by subset, kept as oracles for the bitmask forms in ``storagelab.metrics``.
``mean_defined``, ``similarity_curve`` and ``mean_score`` add exact scores
as ``Fraction``s one at a time, kept as the oracles for
``storagelab.metrics``' ``mean_defined``, ``similarity_curve`` and
``_mean_score``, which sum integer numerators over the least common multiple
of the denominators and build one ``Fraction`` per value they return.
``edge_string`` runs ``json.dumps`` on an edge's five fields, kept as the
oracle for ``storagelab.vocab._edge_string``, which joins the fields' JSON
string encodings. ``replay`` resolves a partition from its URLs (with
``resolve_partition``, which looks both sites up on every call) and
classifies the party again (with ``classify_party``, a second pair of site
lookups) on every storage touch, looks up a frame's output record by its key
on every edge, and evaluates a ``when`` condition by resolving the frame's
partition again and scanning its whole jar, kept as the oracle for
``storagelab.simulator.replay``, which looks each distinct URL up once per
run, resolves each frame once and keeps its jar and record in the frame
registry. It forms a third party's origin with ``origin``, which reads the
URL's text as RFC 3986 and RFC 6454 describe it, kept as the oracle for
``storagelab.policy.origin_of``, which reads ``urlsplit``'s fields. Its
partition keys are records of its own, one class per kind, where replay's
are tagged tuples. Its ``PartitionStore`` keeps a DOM-storage
area beside each cookie jar, answers every script read, and keys page-length
areas by a page-load counter (its two-field ``Ephemeral``) that
``end_page_load`` destroys;
it is the oracle for replay's jars, which keep only the cookie jar, apply
only a script cookie ``set`` or ``delete``, and hold a page load's
page-length jars in the page load's own state, dropped with it. Its cookie
jar numbers each stored cookie and sorts on that number, kept as the oracle
for ``storagelab.cookies.add_cookie``, whose jar's dict order is its
creation order.
``parse_trace`` decodes and checks every line, repeated or not, field by
field with a call per rule, kept as the oracle for
``storagelab.trace.parse_trace``, which does so once per distinct line,
walking the record's field table.
``generate_synthetic_trace`` writes a trace for one policy, without
conditions: it keeps its own copy of that policy's partition keys to decide
which visits set an ID and which widgets touch storage, draws each embedding
on every visit and builds every event afresh. It is the oracle for
``storagelab.synthetic.generate_synthetic_trace``, which writes one trace
with ``when`` conditions for every policy: replaying that trace under a
policy must give the frames of this one's, and its flows up to a renaming of
cookie values. ``event_to_record`` writes out each event class's record field
by field, kept as the oracle for ``storagelab.trace.event_to_record``, which
walks the class's field table. ``dump_trace`` encodes every event, repeated
or not, into one string, kept as the oracle for ``storagelab.trace``'s
writers, which encode each distinct event object once and stream the lines.
``read_flows_csv`` and ``read_frames_jsonl`` build a dict per row and check
each field with its own call, kept as the oracles for
``storagelab.flows.read_flows_csv``, which checks each row against its
field table, and ``storagelab.frames.read_frames_jsonl``, which decodes each
distinct edge list of a writer-form line once and matches each distinct rest
of it once.
``write_frames_jsonl`` runs ``json.dumps`` on a dict per frame, kept as the
oracle for ``storagelab.frames.write_frames_jsonl``, which fills one line
template with each distinct string encoded once. ``check_rule`` splits a PSL
rule into its labels and lowercases it a character at a time, kept as the
oracle for ``storagelab.psl._check_rule``. ``parse_psl`` and ``parse_rules``
handle a rule file line by line, kept as the oracles for
``storagelab.psl.parse_psl`` and ``storagelab.filterlist.parse_rules``, which
take the lines already in canonical form in one regex scan. ``_not_utf8``
opens a file again and decodes it line by line to find its first byte that is
not UTF-8, kept as the oracle for the CLI's input helper, which finds the line
and column in the bytes it already read. The hypothesis tests in
``test_oracles.py`` require each pair to agree on random inputs.
"""

from __future__ import annotations

import csv
import json
import re
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, takewhile
from pathlib import Path
from typing import Iterable, Sequence
from urllib.parse import urlsplit

from storagelab.cookies import Cookie, parse_set_cookie
from storagelab.filterlist import EMPTY_RULES, AdRuleSet
from storagelab.filterlist import is_ad_url as fast_is_ad_url
from storagelab.flows import FLOW_FIELDS, CookieFlowRecord, TraceFormatError
from storagelab.frames import FrameRecord
from storagelab.metrics import OptimizeInstance, OptimizeResult, Score
from storagelab.policy import PolicyKind, site_of
from storagelab.psl import PslParseError, SuffixRuleSet, is_ip_host
from storagelab.record import Record
from storagelab.simulator import ReplayError, SimOutput
from storagelab.synthetic import (
    SyntheticSpec,
    _scenario_fields,
    _token,
    is_embedded,
    page_fixed_edges,
    scenario_id,
    site_name,
    tracker_fixed_edges,
    tracker_storage_edges,
)
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
)
from storagelab.vocab import STORAGE_APIS, STORAGE_OPS, NodeType, edge_endpoint_types


def _labels(host: str) -> list[str]:
    if not host:
        raise ValueError("empty host")
    labels = host.split(".")
    if any(not label for label in labels):
        raise ValueError(f"empty label in host {host!r}")
    return labels


def _matches(rule: str, host_labels: list[str]) -> bool:
    rule_labels = rule.split(".")
    return (
        len(rule_labels) <= len(host_labels)
        and host_labels[len(host_labels) - len(rule_labels) :] == rule_labels
    )


def public_suffix(host: str, rules: SuffixRuleSet) -> str:
    """Return the public suffix of ``host`` under ``rules``.

    Exception rules beat wildcard and normal rules; the public suffix of an
    exception match is the exception rule minus its leftmost label. With no
    matching rule the last label is the suffix.
    """
    labels = _labels(host.lower())

    best_exception: str | None = None
    for rule in rules.exception_rules:
        if _matches(rule, labels):
            if best_exception is None or rule.count(".") > best_exception.count("."):
                best_exception = rule
    if best_exception is not None:
        return ".".join(best_exception.split(".")[1:])

    best_len = 1  # default rule: the last label
    for rule in rules.normal_rules:
        if _matches(rule, labels):
            best_len = max(best_len, len(rule.split(".")))
    # Wildcard `*.base` matches when the host ends with base and has at least
    # one extra label; the matched suffix is base plus that one label.
    for base in rules.wildcard_rules:
        base_labels = base.split(".")
        if len(labels) > len(base_labels) and labels[-len(base_labels):] == base_labels:
            best_len = max(best_len, len(base_labels) + 1)

    return ".".join(labels[-best_len:])


def etld_plus_one(host: str, rules: SuffixRuleSet) -> str | None:
    """Return the registrable domain (public suffix plus one label).

    Returns ``None`` when the host is itself a public suffix. IP-address
    hosts are their own site and are returned unchanged.
    """
    host = host.lower()
    if is_ip_host(host):
        return host
    suffix = public_suffix(host, rules)
    labels = _labels(host)
    suffix_len = len(suffix.split("."))
    if len(labels) <= suffix_len:
        return None
    return ".".join(labels[-(suffix_len + 1):])


@lru_cache(maxsize=4096)
def _substring_regex(rule: str) -> re.Pattern[str]:
    return re.compile(".*".join(re.escape(part) for part in rule.split("*")))


def is_ad_url(url: str, rules: AdRuleSet) -> bool:
    """True when the URL's host falls under a domain anchor or the full URL
    string matches a substring rule.

    Host matching is case-insensitive; substring rules match the URL string
    case-sensitively.
    """
    host = (urlsplit(url).hostname or "").lower()
    for anchor in rules.domain_anchor_rules:
        if host == anchor or host.endswith("." + anchor):
            return True
    return any(_substring_regex(rule).search(url) for rule in rules.substring_rules)


def edge_string(*fields: str) -> str:
    """The canonical string of an edge, the five fields as a compact JSON
    array."""
    return json.dumps(list(fields), separators=(",", ":"))


def _filter_edges(edges: set[str], node_filter: frozenset[NodeType]) -> set[str]:
    kept = set()
    for edge in edges:
        src, tgt = edge_endpoint_types(edge)
        if src in node_filter and tgt in node_filter:
            kept.add(edge)
    return kept


def _pair_counts(a: frozenset[str], b: frozenset[str]):
    """Per endpoint-type pair: (intersection size, union size) of a vs b."""
    groups_a: dict[tuple[NodeType, NodeType], set[str]] = defaultdict(set)
    groups_b: dict[tuple[NodeType, NodeType], set[str]] = defaultdict(set)
    for edge in a:
        groups_a[edge_endpoint_types(edge)].add(edge)
    for edge in b:
        groups_b[edge_endpoint_types(edge)].add(edge)
    counts = {}
    for pair in set(groups_a) | set(groups_b):
        ga = groups_a.get(pair, set())
        gb = groups_b.get(pair, set())
        counts[pair] = (len(ga & gb), len(ga | gb))
    return counts


def mean_defined(scores: Iterable[Score]) -> Fraction | None:
    """Mean of the defined scores; None when every score is undefined."""
    defined = [s for s in scores if s is not None]
    if not defined:
        return None
    return sum(defined, Fraction(0)) / len(defined)


def similarity_curve(scores: Sequence[Score], baseline_max: int) -> list[tuple[int, Fraction]]:
    """(instance rank, cumulative / max), undefined scores adding 0."""
    if baseline_max < 0:
        raise ValueError("baseline_max must be >= 0")
    points = []
    total = Fraction(0)
    for rank, score in enumerate(scores, start=1):
        if score is not None:
            total += score
        points.append((rank, total / baseline_max if baseline_max else Fraction(0)))
    return points


def mean_score(weighted: list[tuple[list[tuple[int, int, int]], int]],
               subset: int) -> Fraction | None:
    """The weighted mean of the defined Jaccard scores of (edge mask,
    intersection, union) counts under the node-type mask ``subset``."""
    total = Fraction(0)
    defined = 0
    for counts, weight in weighted:
        inter = union = 0
        for mask, i, u in counts:
            if not mask & ~subset:
                inter += i
                union += u
        if union:
            total += Fraction(inter, union) * weight
            defined += weight
    return total / defined if defined else None


def _subset_jaccard(counts, subset: frozenset[NodeType]) -> Score:
    inter = union = 0
    for (src, tgt), (i, u) in counts.items():
        if src in subset and tgt in subset:
            inter += i
            union += u
    if union == 0:
        return None
    return Fraction(inter, union)


def optimize_node_types(sample: Sequence[OptimizeInstance]) -> OptimizeResult:
    """Brute-force the node-type power set for the subset maximizing the gap
    between the baseline pair's similarity and the contrast's similarity to
    the baseline anchor.

    Undefined scores are excluded from means. Ties prefer smaller subsets,
    then lexicographic type order. Raises ValueError when no subset yields a
    defined score on both sides.
    """
    if not sample:
        raise ValueError("sample must be non-empty")
    baseline_counts = [_pair_counts(i.baseline_a, i.baseline_b) for i in sample]
    contrast_counts = [_pair_counts(i.contrast, i.baseline_a) for i in sample]

    ordered_types = sorted(NodeType, key=lambda t: t.value)
    best: tuple[Fraction, frozenset[NodeType], Fraction, Fraction] | None = None
    evaluated = 0
    for size in range(1, len(ordered_types) + 1):
        for combo in combinations(ordered_types, size):
            evaluated += 1
            subset = frozenset(combo)
            base_mean = mean_defined(_subset_jaccard(c, subset) for c in baseline_counts)
            contrast_mean = mean_defined(_subset_jaccard(c, subset) for c in contrast_counts)
            if base_mean is None or contrast_mean is None:
                continue
            separation = base_mean - contrast_mean
            if best is None or separation > best[0]:
                best = (separation, subset, base_mean, contrast_mean)
    if best is None:
        raise ValueError("all similarity scores undefined under every subset")
    separation, subset, base_mean, contrast_mean = best
    return OptimizeResult(subset, separation, base_mean, contrast_mean, evaluated)


# A URL's scheme and authority (RFC 3986 §3), and the ports that RFC 6454
# §4 reads for an absent one.
_SCHEME_AUTHORITY = re.compile(r"([A-Za-z][A-Za-z0-9+.-]*)://([^/?#]*)")
DEFAULT_PORTS = {"http": 80, "https": 443}


def origin(url: str) -> str:
    """The URL's origin serialized as RFC 6454 §6.2 says, from the text of
    the URL, with no URL parser: the scheme in lower case, ``://``, the host
    in lower case (an IPv6 literal with its brackets, RFC 3986 §3.2.2), and
    ``:`` with the port in decimal only when it is not the scheme's default.
    Userinfo is dropped and an empty port is the default (RFC 3986 §3.2.3).
    ValueError for a URL with no host or a port that is not 0-65535."""
    match = _SCHEME_AUTHORITY.match(url)
    authority = match[2].rpartition("@")[2] if match else ""
    if authority.startswith("["):
        end = authority.find("]") + 1
        host, port = authority[:end], authority[end:]
    else:
        host, colon, port = authority.partition(":")
        port = colon + port
    if host in ("", "[]"):
        raise ValueError(f"URL has no host: {url!r}")
    scheme, host, port = match[1].lower(), host.lower(), port.removeprefix(":")
    if port:
        if not (port.isascii() and port.isdigit() and int(port) <= 65535):
            raise ValueError(f"bad port in {url!r}")
        if int(port) != DEFAULT_PORTS.get(scheme):
            return f"{scheme}://{host}:{int(port)}"
    return f"{scheme}://{host}"


# This oracle's partition keys, one record class per kind, so keys of two
# kinds never compare equal. Replay's keys are tagged tuples.

class FirstParty(Record):
    __slots__ = ("site",)


class GlobalThirdParty(Record):
    __slots__ = ("site",)


class SiteKeyedThirdParty(Record):
    __slots__ = ("first_party_site", "third_party_site")


class Ephemeral(Record):
    """A page-length key of this oracle's store: the page load's number and
    the third party."""
    __slots__ = ("load_key", "third_party_site")


class Blocked(Record):
    __slots__ = ()


PartitionKey = FirstParty | GlobalThirdParty | SiteKeyedThirdParty | Ephemeral | Blocked

BLOCKED = Blocked()


def resolve_partition(
    policy: PolicyKind,
    top_url: str,
    load_key: int,
    subject_url: str,
    rules: SuffixRuleSet,
    *,
    origin_keyed: bool = False,
) -> PartitionKey:
    """Partition key for a frame or request URL, with both sites looked up
    (and a third party's origin formed) again on every call. The subject is
    first party iff its site equals the top-level page's site."""
    top_site = site_of(top_url, rules)
    subject_site = site_of(subject_url, rules)
    if subject_site == top_site:
        return FirstParty(top_site)
    subject = origin(subject_url) if origin_keyed else subject_site
    if policy is PolicyKind.PERMISSIVE:
        return GlobalThirdParty(subject)
    if policy is PolicyKind.BLOCKING:
        return BLOCKED
    if policy is PolicyKind.SITE_KEYED:
        return SiteKeyedThirdParty(top_site, subject)
    return Ephemeral(load_key, subject)


def classify_party(subject_url: str, top_url: str, rules: SuffixRuleSet) -> str:
    """First party iff the subject's site equals the top-level page's site.

    Nested frames classify against the top-level URL, never an intermediate
    parent.
    """
    return "first" if site_of(subject_url, rules) == site_of(top_url, rules) else "third"


class StorageArea:
    """One cookie jar plus the keyed DOM-storage buckets of a partition.

    The jar maps a cookie's (name, domain, path) to its creation number and
    the cookie. Storing a cookie gives it the next number, so a re-set cookie
    counts as newly created; retrieval sorts on that number, never on the
    dict's order. Session buckets are additionally scoped per (tab, load);
    the scope token is supplied by the caller and is uniform across policies.
    """

    __slots__ = ("jar", "created", "local", "indexed", "session")

    def __init__(self) -> None:
        self.jar: dict[tuple[str, str, str], tuple[int, Cookie]] = {}
        self.created = 0
        self.local: dict[str, str] = {}
        self.indexed: dict[str, str] = {}
        self.session: dict[str, dict[str, str]] = {}

    def store(self, cookie: Cookie) -> None:
        self.created += 1
        self.jar[cookie.name, cookie.domain, cookie.path] = (self.created, cookie)

    def attached(self, url: str, now: float) -> list[tuple[str, str]]:
        """The (name, value) of each cookie ``url`` can read, longer path
        first, then earlier created (RFC 6265 §5.4)."""
        entries = sorted((-len(cookie.path), created, cookie)
                         for created, cookie in self.jar.values() if readable(cookie, url, now))
        return [(cookie.name, cookie.value) for _, _, cookie in entries]


def readable(cookie: Cookie, url: str, now: float) -> bool:
    """Whether ``url`` can read ``cookie`` at ``now`` (RFC 6265 §5.4 step 1):
    it has not expired, its domain is the URL's host or, unless host-only, a
    parent of it, and its path path-matches the URL's."""
    parts = urlsplit(url)
    host = (parts.hostname or "").lower()
    path = parts.path or "/"
    if cookie.expiry is not None and cookie.expiry <= now:
        return False
    if cookie.host_only:
        domain_ok = host == cookie.domain
    else:
        domain_ok = host == cookie.domain or host.endswith("." + cookie.domain)
    path_ok = path == cookie.path or (
        path.startswith(cookie.path)
        and (cookie.path.endswith("/") or path[len(cookie.path)] == "/"))
    return domain_ok and path_ok


class PartitionStore:
    """All storage areas of one simulated browser profile.

    Areas are created empty on first touch and live exactly as long as their
    partition key: persistent keys survive page loads, ephemeral keys die
    with :meth:`end_page_load`. A Blocked key never stores anything.
    Cookies set through the store are parsed against the profile's suffix
    ``rules``.
    """

    def __init__(self, rules: SuffixRuleSet) -> None:
        self.rules = rules
        self.persistent: dict[PartitionKey, StorageArea] = {}
        self.ephemeral: dict[PartitionKey, StorageArea] = {}

    def area(self, key: PartitionKey) -> StorageArea | None:
        if isinstance(key, Blocked):
            return None
        bucket = self.ephemeral if isinstance(key, Ephemeral) else self.persistent
        if key not in bucket:
            bucket[key] = StorageArea()
        return bucket[key]

    def storage_access(
        self,
        key: PartitionKey,
        op: str,
        api: str,
        storage_key: str | None = None,
        value: str | None = None,
        *,
        url: str | None = None,
        now: float = 0.0,
        session_scope: str = "",
    ) -> str | None:
        """Perform one storage operation under a partition key.

        Blocked keys make every op a silent no-op; get returns None rather
        than raising. ``url`` is required for the cookie api (it provides the
        setting host and request path).
        """
        if api not in STORAGE_APIS:
            raise ValueError(f"unknown storage api {api!r}")
        if op not in STORAGE_OPS:
            raise ValueError(f"unknown storage op {op!r}")
        area = self.area(key)
        if area is None:
            return None

        if api == "cookie":
            if url is None:
                raise ValueError("cookie access requires the frame URL")
            return self._cookie_access(area, op, storage_key, value, url, now)

        if api == "session":
            bucket = area.session.setdefault(session_scope, {})
        else:
            bucket = area.local if api == "local" else area.indexed

        if op == "get":
            return bucket.get(storage_key)  # type: ignore[arg-type]
        if op == "set":
            bucket[storage_key] = value  # type: ignore[index]
        else:  # delete
            bucket.pop(storage_key, None)
        return None

    def _cookie_access(
        self, area: StorageArea, op: str, name: str | None, value: str | None, url: str,
        now: float,
    ) -> str | None:
        if op == "get":
            for cookie_name, cookie_value in area.attached(url, now):
                if cookie_name == name:
                    return cookie_value
            return None
        if op == "set":
            header = f"{name}={value if value is not None else ''}"
            cookie = parse_set_cookie(header, url, self.rules, now)
            if cookie is not None:
                area.store(cookie)
        else:  # delete: each cookie of that name the URL can read
            for key, (_, cookie) in list(area.jar.items()):
                if cookie.name == name and readable(cookie, url, now):
                    del area.jar[key]
        return None

    def end_page_load(self, load_key: int) -> None:
        """Destroy every ephemeral area minted under ``load_key``. Idempotent."""
        dead = [k for k in self.ephemeral if isinstance(k, Ephemeral) and k.load_key == load_key]
        for k in dead:
            del self.ephemeral[k]


@dataclass
class _TabState:
    profile: str
    crawl_iter: int
    visit_seq: int
    page_url: str
    load_key: int
    frames: dict[str, tuple[str, bool, str]] = field(default_factory=dict)


def replay(
    events: Sequence[TraceEvent],
    policy: PolicyKind,
    rules: SuffixRuleSet,
    ads: AdRuleSet = EMPTY_RULES,
    *,
    origin_keyed: bool = False,
) -> SimOutput:
    """Replay a trace under ``policy`` and collect flows and edge sets.

    Raises :class:`ReplayError` (naming the event index) for events that
    reference unknown tabs or frames, URLs without a host, an unknown storage
    api or op, or non-increasing visit sequences, and for an object that is
    not a trace event.
    """
    out = SimOutput([], {})
    stores: dict[str, PartitionStore] = {}
    tabs: dict[str, _TabState] = {}
    last_seq: dict[str, int] = {}
    load_counter = 0

    def tab_state(index: int, tab: str) -> _TabState:
        state = tabs.get(tab)
        if state is None:
            raise ReplayError(f"event {index}: tab {tab!r} has no active visit")
        return state

    def frame_of(index: int, state: _TabState, frame_id: str) -> tuple[str, bool, str]:
        frame = state.frames.get(frame_id)
        if frame is None:
            raise ReplayError(f"event {index}: unknown frame {frame_id!r}")
        return frame

    def condition_holds(index: int, state: _TabState, frame_id: str,
                        when: tuple[str, bool] | None, now: float) -> bool:
        """Whether the frame's partition holds a cookie of that name that the
        frame URL can read, or not, as the condition says."""
        if when is None:
            return True
        frame_url, _, _ = frame_of(index, state, frame_id)
        try:
            pkey = resolve_partition(policy, state.page_url, state.load_key, frame_url, rules,
                                     origin_keyed=origin_keyed)
        except ValueError as exc:
            raise ReplayError(f"event {index}: {exc}") from None
        area = stores[state.profile].area(pkey)
        name, present = when
        found = area is not None and any(cookie.name == name and readable(cookie, frame_url, now)
                                         for _, cookie in area.jar.values())
        return found == present

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
            ad = event.is_ad if event.is_ad is not None else fast_is_ad_url(event.frame_url, ads)
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
                holds = condition_holds(index, state, event.frame_id, event.when, now)
                attached = area.attached(event.dest_url, now)
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
                for header in event.response_set_cookies if holds else ():
                    cookie = parse_set_cookie(header, event.dest_url, rules, now)
                    if cookie is not None:
                        area.store(cookie)

        elif isinstance(event, ScriptStorage):
            state = tab_state(index, event.tab)
            frame_url, _, _ = frame_of(index, state, event.frame_id)
            store = stores[state.profile]
            try:
                pkey = resolve_partition(
                    policy, state.page_url, state.load_key, frame_url, rules,
                    origin_keyed=origin_keyed,
                )
                store.storage_access(
                    pkey, event.op, event.api, event.key, event.value,
                    url=frame_url, now=now,
                    session_scope=f"{event.tab}:{state.load_key}",
                )
            except ValueError as exc:
                raise ReplayError(f"event {index}: {exc}") from None

        elif isinstance(event, BehaviorEdge):
            state = tab_state(index, event.tab)
            frame_url, _, _ = frame_of(index, state, event.frame_id)
            if condition_holds(index, state, event.frame_id, event.when, now):
                key = (state.page_url, frame_url, state.profile, state.crawl_iter)
                out.frames[key].edge_set.add(event.edge)

        elif isinstance(event, VisitEnd):
            state = tab_state(index, event.tab)
            if policy is PolicyKind.PAGE_LENGTH:
                stores[state.profile].end_page_load(state.load_key)
            del tabs[event.tab]

        else:
            raise ReplayError(f"event {index}: not a trace event: {event!r}")

    return out


# ---------------------------------------------------------------------------
# Trace parsing: every line is decoded and checked, each error names its line.
# The changes from the original: ``_require`` rejects a JSON boolean where an
# integer is required; the fields of a record are checked in its event
# class's field order, so that a record with several bad fields names the
# first of them; a wrong ``is_ad`` or ``value`` is named as any other field
# is; an edge's node type is checked as soon as its field is read, and an
# unknown one named "unknown node type"; and the meta's ``scenario`` must be
# a string and its ``spec`` an object, each absent or null otherwise.

_SCRIPT_OPS = ("get", "set", "delete")
NODE_TYPE_VALUES = [t.value for t in NodeType]

_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean", dict: "an object",
               list: "an array"}


def _require(record: dict, line_no: int, *names: str, of: type = str) -> list:
    """The values of the named fields, each checked to be of type ``of``."""
    values = []
    for name in names:
        if name not in record:
            raise TraceFormatError(f"line {line_no}: missing field {name!r}")
        if not isinstance(record[name], of) or (of is int and isinstance(record[name], bool)):
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


def _condition(record: dict, line_no: int) -> tuple[str, bool] | None:
    if "when" not in record or record["when"] is None:
        return None
    when = record["when"]
    if (not isinstance(when, dict) or not isinstance(when.get("cookie"), str)
            or not isinstance(when.get("present"), bool)):
        raise TraceFormatError(
            f'line {line_no}: when must be {{"cookie": a string, "present": a boolean}}')
    return when["cookie"], when["present"]


def record_to_event(record: dict, line_no: int) -> TraceEvent:
    kind = record.get("type")
    if kind == "visit_start":
        (profile,) = _require(record, line_no, "profile")
        (crawl_iter,) = _require(record, line_no, "crawl_iter", of=int)
        tab, page_url = _require(record, line_no, "tab", "page_url")
        (visit_seq,) = _require(record, line_no, "visit_seq", of=int)
        return VisitStart(profile, crawl_iter, tab, page_url, visit_seq)
    if kind == "frame_load":
        tab, frame_id, frame_url = _require(record, line_no, "tab", "frame_id", "frame_url")
        is_ad = record.get("is_ad")
        if is_ad is not None and not isinstance(is_ad, bool):
            raise TraceFormatError(f"line {line_no}: field 'is_ad' must be a boolean")
        return FrameLoad(tab, frame_id, frame_url, is_ad)
    if kind == "http_request":
        tab, frame_id, dest_url = _require(record, line_no, "tab", "frame_id", "dest_url")
        cookies = record.get("response_set_cookies", [])
        if not isinstance(cookies, list) or not all(isinstance(c, str) for c in cookies):
            raise TraceFormatError(f"line {line_no}: response_set_cookies must be a string list")
        return HttpRequest(tab, frame_id, dest_url, tuple(cookies), _condition(record, line_no))
    if kind == "script_storage":
        tab, frame_id, api = _require(record, line_no, "tab", "frame_id", "api")
        if api not in STORAGE_APIS:
            raise TraceFormatError(f"line {line_no}: unknown storage api {api!r}")
        (op,) = _require(record, line_no, "op")
        if op not in _SCRIPT_OPS:
            raise TraceFormatError(f"line {line_no}: unknown storage op {op!r}")
        (key,) = _require(record, line_no, "key")
        value = record.get("value")
        if value is not None and not isinstance(value, str):
            raise TraceFormatError(f"line {line_no}: field 'value' must be a string")
        return ScriptStorage(tab, frame_id, api, op, key, value)
    if kind == "behavior_edge":
        tab, frame_id = _require(record, line_no, "tab", "frame_id")
        (edge,) = _require(record, line_no, "edge", of=dict)
        fields = []
        for name in ("source_type", "source_key", "edge_type", "target_type", "target_key"):
            (value,) = _require(edge, line_no, name)
            if name in ("source_type", "target_type") and value not in NODE_TYPE_VALUES:
                raise TraceFormatError(f"line {line_no}: unknown node type {value!r}")
            fields.append(value)
        st, sk, et, tt, tk = fields
        return BehaviorEdge(tab, frame_id, edge_string(st, sk, et, tt, tk),
                            _condition(record, line_no))
    if kind == "visit_end":
        (tab,) = _require(record, line_no, "tab")
        return VisitEnd(tab)
    raise TraceFormatError(f"line {line_no}: unknown record type {kind!r}")


def parse_trace(lines: Iterable[str]) -> Trace:
    meta: TraceMeta | None = None
    events: list[TraceEvent] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip(" \t\n\r")
        if not line:
            continue
        record = _json_object(line, line_no)
        if record.get("type") == "meta":
            scenario, spec = record.get("scenario"), record.get("spec")
            if scenario is not None and not isinstance(scenario, str):
                raise TraceFormatError(f"line {line_no}: field 'scenario' must be a string")
            if spec is not None and not isinstance(spec, dict):
                raise TraceFormatError(f"line {line_no}: field 'spec' must be an object")
            if line_no != 1:
                raise TraceFormatError(f"line {line_no}: meta record only allowed first")
            meta = TraceMeta(scenario, spec)
            continue
        events.append(record_to_event(record, line_no))
    return Trace(meta, events)


# ---------------------------------------------------------------------------
# Trace writing: each event class's record is written out field by field, and
# every event is encoded, and the whole text built, in one go.


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
        fields = ("source_type", "source_key", "edge_type", "target_type", "target_key")
        record = {"type": "behavior_edge", "tab": event.tab, "frame_id": event.frame_id,
                  "edge": dict(zip(fields, json.loads(event.edge)))}
    else:
        raise TypeError(f"not a trace event: {event!r}")
    if event.when is not None:  # only these two events carry a condition
        record["when"] = {"cookie": event.when[0], "present": event.when[1]}
    return record


def dump_trace(trace: Trace) -> str:
    lines = []
    if trace.meta is not None:
        meta: dict = {"type": "meta"}
        if trace.meta.scenario is not None:
            meta["scenario"] = trace.meta.scenario
        if trace.meta.spec is not None:
            meta["spec"] = trace.meta.spec
        lines.append(json.dumps(meta, sort_keys=True, separators=(",", ":")))
    for event in trace.events:
        lines.append(json.dumps(event_to_record(event), sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Synthetic generation for one policy: the ``model`` and ``fp_model`` dicts
# restate which partition the policy gives a frame, and so which visits set
# an ID and which widgets can touch storage, where the one-trace generator
# writes ``when`` conditions for replay to evaluate. Each visit draws its
# embeddings and builds its events and edge strings afresh.


def generate_synthetic_trace(spec: SyntheticSpec, policy: PolicyKind) -> Trace:
    """Generate the deterministic trace of a scenario's content under ``policy``."""
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

    return Trace(TraceMeta(scenario_id(spec), _scenario_fields(spec)), events)


# ---------------------------------------------------------------------------
# Simulate output readers: a dict per row, and a call per field checked. The
# changes from the originals: they check with code of their own, not the
# product's helpers; they check a row's fields in its field table's order
# (a frames record's in the writer's key order), so that a row with several
# bad fields names the first of them; and a flow cell that is not an integer
# names its field. The frames writer builds a dict per frame and encodes it
# with its own ``json.dumps``.


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


def _flow_record(row: list[str]) -> CookieFlowRecord:
    if len(row) > len(FLOW_FIELDS):
        raise TraceFormatError(f"{len(row)} cells, header has {len(FLOW_FIELDS)}")
    if len(row) < len(FLOW_FIELDS):
        raise TraceFormatError(f"missing field {FLOW_FIELDS[len(row)]!r}")
    profile, crawl_iter, visit_seq, top_site, third_party_site, name, value = row
    for field_name, cell in (("crawl_iter", crawl_iter), ("visit_seq", visit_seq)):
        try:
            int(cell)
        except ValueError:
            raise TraceFormatError(f"field {field_name!r} must be an integer") from None
    return CookieFlowRecord(profile, int(crawl_iter), int(visit_seq), top_site,
                            third_party_site, name, value)


def read_flows_csv(path) -> list[CookieFlowRecord]:
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


def _surrogate_strings(value) -> list[str]:
    """Every string, key or value, in a decoded JSON value that holds a
    surrogate code point, which only a \\u escape gives."""
    if isinstance(value, str):
        return [value] if any(0xD800 <= ord(c) <= 0xDFFF for c in value) else []
    if isinstance(value, dict):
        return [s for k, v in value.items() for s in _surrogate_strings(k) + _surrogate_strings(v)]
    if isinstance(value, list):
        return [s for item in value for s in _surrogate_strings(item)]
    return []


def _frame_entry(line: str):
    """A frames.jsonl record's key and frame, its fields checked in the
    writer's key order."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON ({exc.msg})") from None
    except ValueError as exc:  # an integer past int()'s digit limit
        raise TraceFormatError(f"invalid JSON ({exc})") from None
    except RecursionError:
        raise TraceFormatError("invalid JSON (nested too deeply)") from None
    if not isinstance(record, dict):
        raise TraceFormatError("record must be a JSON object")
    surrogates = _surrogate_strings(record)
    if surrogates:
        raise TraceFormatError(f"lone surrogate in string {surrogates[0]!r}")
    kinds = {"crawl_iter": int, "edges": list, "frame_url": str, "is_ad": bool,
             "page_url": str, "party": str, "profile": str}
    for name, kind in kinds.items():
        if name not in record:
            raise TraceFormatError(f"missing field {name!r}")
        value = record[name]
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise TraceFormatError(f"field {name!r} must be {_TYPE_NAMES[kind]}")
        if name == "edges":
            if not all(isinstance(edge, str) for edge in value):
                raise TraceFormatError("field 'edges' must hold strings")
            for edge in value:
                try:
                    edge_endpoint_types(edge)
                except ValueError as exc:
                    raise TraceFormatError(str(exc)) from None
        if name == "party" and value not in ("first", "third"):
            raise TraceFormatError(f"unknown party {value!r}")
    key = (record["page_url"], record["frame_url"], record["profile"], record["crawl_iter"])
    return key, FrameRecord(edge_set=set(record["edges"]), is_ad=record["is_ad"],
                            party=record["party"])


def read_frames_jsonl(path) -> dict:
    frames = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip(" \t\n\r")
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


def write_frames_jsonl(frames: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(frames):
            page_url, frame_url, profile, crawl_iter = key
            record = frames[key]
            fh.write(json.dumps({
                "page_url": page_url,
                "frame_url": frame_url,
                "profile": profile,
                "crawl_iter": crawl_iter,
                "party": record.party,
                "is_ad": record.is_ad,
                "edges": sorted(record.edge_set),
            }, sort_keys=True, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# PSL rule check: the labels of every rule, and a generator over every
# character.


def ascii_lower(text: str) -> str:
    """A-Z lowercased, one character at a time; every other character kept."""
    return "".join(chr(ord(ch) + 32) if "A" <= ch <= "Z" else ch for ch in text)


def check_rule(rule: str, line_no: int) -> str:
    if not rule or any(not label for label in rule.split(".")):
        raise PslParseError(f"line {line_no}: empty label in rule {rule!r}")
    return ascii_lower(rule)


# ---------------------------------------------------------------------------
# Rule files, line by line: strip each line of ``str.splitlines()`` and test
# its prefixes.


def parse_psl(text: str) -> SuffixRuleSet:
    normal: set[str] = set()
    wildcard: set[str] = set()
    exception: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        # A line is read only up to its first whitespace.
        line = "".join(takewhile(lambda ch: not ch.isspace(), line))
        if line.startswith("!"):
            exception.add(check_rule(line[1:], line_no))
        elif line.startswith("*."):
            wildcard.add(check_rule(line[2:], line_no))
        else:
            normal.add(check_rule(line, line_no))
    return SuffixRuleSet(frozenset(normal), frozenset(wildcard), frozenset(exception))


_HOST_RE = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?(\.[a-z0-9]([a-z0-9-]*[a-z0-9])?)*$")


def parse_rules(text: str) -> AdRuleSet:
    anchors: set[str] = set()
    substrings: list[str] = []
    skipped = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("!"):
            continue
        if line.startswith("@@") or "##" in line or "$" in line:
            skipped += 1
            continue
        if line.startswith("||"):
            host = ascii_lower(line[2:].rstrip("^"))
            if _HOST_RE.match(host):
                anchors.add(host)
            else:
                skipped += 1
            continue
        substrings.append(line)
    return AdRuleSet(frozenset(anchors), tuple(substrings), skipped)
