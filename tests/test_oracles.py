"""The fast paths agree with the reference implementations kept in
``oracles.py``: the label-walk PSL and filter-anchor lookups with the linear
scans, the edge string builder with ``json.dumps``, the bitmask node-type
filter and the optimizer that scores each distinct instance once with the
enum-set ones, the resolve-once replay loop that keeps only cookie jars with
the one that resolves every storage touch and keeps DOM storage and script
reads as well, the once-per-distinct-line trace parser with the one that
parses every line, the one trace with ``when`` conditions that the generator
writes for every policy, replayed under each, with the per-policy trace of
the generator that keeps its own model of the partition keys, the trace
writers that encode each distinct event once with the dump that encodes
every event, the table-checked flows reader and the frames reader that
decodes each distinct edge list of a writer-form line once with the
per-field ones, the
input helper's not-UTF-8 line and column with a second line-by-line read of
the file, the templated frames writer with the per-record ``json.dumps``,
the one-pass PSL rule check with the per-character one, and the rule-file
parsers that scan the canonical lines in one regex pass with the
line-by-line ones.

Rules and hosts are drawn from a small label alphabet so that normal,
wildcard and exception rules actually match, nest and compete. Edge sets are
drawn from a small per-instance pool so that the compared sets overlap.
"""

import csv
import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import support
from storagelab.filterlist import EMPTY_RULES, AdRuleSet, is_ad_url, parse_rules
from storagelab.artifacts import InputError, _parse_input
from storagelab.flows import FLOW_FIELDS, TraceFormatError
from storagelab import metrics
from storagelab.metrics import OptimizeInstance, frame_similarity, jaccard, optimize_node_types
from storagelab.frames import FrameRecord, read_frames_jsonl, write_frames_jsonl
from storagelab.policy import PolicyKind, origin_of, resolve_partition, site_of
from storagelab.psl import (
    PslParseError,
    SuffixRuleSet,
    _check_rule,
    builtin_rules,
    etld_plus_one,
    parse_psl,
    public_suffix,
)
from storagelab.record import Record
from storagelab.simulator import ReplayError, replay
from storagelab.synthetic import (
    SyntheticSpec,
    TrackerSpec,
    default_tracker_sites,
    generate_synthetic_trace,
)
from storagelab.trace import (
    BehaviorEdge,
    FrameLoad,
    HttpRequest,
    ScriptStorage,
    Trace,
    TraceMeta,
    VisitEnd,
    VisitStart,
    parse_trace,
    write_trace,
)
from storagelab.vocab import STORAGE_APIS, NodeType, _edge_string, edge_endpoint_types

LABEL = st.sampled_from(["a", "b", "c", "co", "uk"])
RULE = st.lists(LABEL, min_size=1, max_size=3).map(".".join)
RULES = st.builds(
    SuffixRuleSet,
    st.frozensets(RULE, max_size=8),
    st.frozensets(RULE, max_size=4),
    st.frozensets(RULE, max_size=4),
)
HOST_LABEL = st.one_of(LABEL, LABEL.map(str.upper), st.just("x"))
HOST = st.lists(HOST_LABEL, min_size=1, max_size=5).map(".".join)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


@given(HOST, RULES)
def test_public_suffix_matches_linear_scan(host, rules):
    assert public_suffix(host, rules) == oracles.public_suffix(host, rules)


@given(HOST, RULES)
def test_etld_plus_one_matches_linear_scan(host, rules):
    assert etld_plus_one(host, rules) == oracles.etld_plus_one(host, rules)


@given(st.sampled_from(["", ".", "a..b", "a.", ".a"]), RULES)
def test_malformed_hosts_raise_in_both(host, rules):
    assert _outcome(public_suffix, host, rules) is ValueError
    assert _outcome(oracles.public_suffix, host, rules) is ValueError
    assert _outcome(etld_plus_one, host, rules) is ValueError
    assert _outcome(oracles.etld_plus_one, host, rules) is ValueError


# Anchors skip parse_rules' validation so that odd ones (empty labels, a
# lone dot) are compared too; substring rules use regex metacharacters.
ANCHOR = st.one_of(RULE, st.sampled_from(["", ".b", "a..b"]))
SUBSTRING = st.text(alphabet="ab/.*|(?[", min_size=1, max_size=5)
AD_RULES = st.builds(
    AdRuleSet,
    st.frozensets(ANCHOR, max_size=6),
    st.lists(SUBSTRING, max_size=4).map(tuple),
)
URL_HOST = st.one_of(
    HOST,
    st.sampled_from(["a..b", "A..B", "a.", ".b"]),
)
URL = st.one_of(
    st.builds(lambda h, p: f"https://{h}/{p}", URL_HOST, st.text(alphabet="ab/.?*|(", max_size=6)),
    st.sampled_from(["not-a-url", "https:///path", "", "file:/a/b"]),
)


@given(URL, AD_RULES)
@example("https://X.A..B/y", AdRuleSet(frozenset({"a..b"}), ()))
@example("https://a..b/", AdRuleSet(frozenset({".b"}), ()))
@example("not-a-url", AdRuleSet(frozenset({""}), ()))
def test_is_ad_url_matches_linear_scan(url, rules):
    assert is_ad_url(url, rules) == oracles.is_ad_url(url, rules)


# ---------------------------------------------------------------------------
# Node-type filtering and the subset search


def _edge(src: NodeType, tgt: NodeType, key: str = "k") -> str:
    return _edge_string(src.value, key, "e", tgt.value, key)


# Edge keys: any character, lone surrogates included, and the ones JSON
# escapes drawn often.
EDGE_KEY = st.text(st.one_of(st.characters(exclude_categories=()),
                             st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\ud800\udfff')),
                   max_size=6)


@given(st.sampled_from(list(NodeType)), EDGE_KEY, EDGE_KEY, st.sampled_from(list(NodeType)),
       EDGE_KEY)
@example(NodeType.SCRIPT, 's"|,\\x', "op", NodeType.TEXT_NODE, "")
@example(NodeType.COOKIE_JAR, "\ud800\n", "\x00", NodeType.WEB_API, "\u00e9\U0001f600")
@example(NodeType.SCRIPT, "\ud83d\ude00", "", NodeType.SCRIPT, "\U0001f600")
def test_edge_string_is_json_dumps_and_parses_back(source, source_key, edge_type, target,
                                                  target_key):
    fields = (source.value, source_key, edge_type, target.value, target_key)
    edge = _edge_string(*fields)
    assert edge == oracles.edge_string(*fields)
    assert edge_endpoint_types(edge) == (source, target)
    # Decoding gives back the fields, except that a surrogate pair held as two
    # code points decodes to the one code point it encodes, as in json.loads.
    assert _edge_string(*json.loads(edge)) == edge
    if not any("\ud800" <= ch <= "\udfff" for field in fields for ch in field):
        assert tuple(json.loads(edge)) == fields


SAMPLE_EDGES = st.builds(_edge, st.sampled_from(NodeType), st.sampled_from(NodeType),
                         st.sampled_from("ab"))


@st.composite
def samples(draw, max_instances=3):
    instances = []
    for _ in range(draw(st.integers(1, max_instances))):
        pool = draw(st.lists(SAMPLE_EDGES, max_size=6, unique=True))
        subsets = st.frozensets(st.sampled_from(pool)) if pool else st.just(frozenset())
        instances.append(OptimizeInstance(draw(subsets), draw(subsets), draw(subsets)))
    return instances


@settings(max_examples=50, deadline=None)
@given(samples())
def test_optimizer_matches_enum_search_over_all_types(sample):
    assert _outcome(optimize_node_types, sample) == _outcome(oracles.optimize_node_types, sample)


# Exact scores whose denominators are equal, coprime or large.
DENOMINATOR = st.one_of(st.sampled_from([1, 2, 3, 4, 6, 7, 9, 10, 97, 2**61 - 1]),
                        st.integers(1, 10**40))
EXACT_SCORES = st.lists(st.one_of(st.none(), DENOMINATOR.flatmap(
    lambda d: st.integers(0, d).map(lambda n: Fraction(n, d)))), max_size=30)


@settings(max_examples=300)
@given(EXACT_SCORES, st.one_of(st.just(0), st.integers(1, 40)))
@example([Fraction(1, 3), None, Fraction(2, 7)], 0)
@example([None, None], 2)
@example([], 0)
def test_integer_sums_match_fraction_sums(scores, baseline_max):
    mean = metrics.mean_defined(scores)
    assert mean == oracles.mean_defined(scores)
    assert mean is None or type(mean) is Fraction
    curve = metrics.similarity_curve(scores, baseline_max)
    assert curve == oracles.similarity_curve(scores, baseline_max)
    assert all(type(value) is Fraction for _, value in curve)


# (edge mask, |a & b|, |a | b|) of one endpoint-type pair, as _pair_counts gives them.
PAIR_COUNT = st.tuples(st.integers(0, 10), st.integers(0, 10), st.integers(0, 60),
                       st.integers(0, 60)).map(
    lambda t: (1 << t[0] | 1 << t[1], min(t[2], t[3]), max(t[2], t[3])))


@settings(max_examples=300)
@given(st.lists(st.tuples(st.lists(PAIR_COUNT, max_size=5), st.integers(1, 12)), max_size=8),
       st.integers(0, 2**11 - 1))
@example([([(1, 1, 3)], 2), ([(1, 2, 5)], 3), ([(2, 0, 0)], 1)], 1)
def test_optimizer_means_match_fraction_sums(weighted, subset):
    mean = metrics._mean_score(weighted, subset)
    assert mean == oracles.mean_score(weighted, subset)
    assert mean is None or type(mean) is Fraction


def test_optimizer_breaks_exact_ties_by_size_then_type_value_order():
    # web_api and cookie_jar each separate the sample perfectly, as does
    # every set holding either. Declaration order would put web_api first;
    # value order (the documented tie-break) puts cookie_jar first.
    kept = frozenset({_edge(NodeType.WEB_API, NodeType.WEB_API),
                      _edge(NodeType.COOKIE_JAR, NodeType.COOKIE_JAR)})
    sample = [OptimizeInstance(kept, kept, frozenset())]
    result = optimize_node_types(sample)
    assert result.best_subset == {NodeType.COOKIE_JAR}
    assert (result.separation, result.subsets_evaluated) == (1, 2047)
    assert result == oracles.optimize_node_types(sample)


@pytest.mark.parametrize("sample", [
    [OptimizeInstance(frozenset(), frozenset(), frozenset())],
    # Defined baseline scores, but the contrast pair is empty under every subset.
    [OptimizeInstance(frozenset(), frozenset({_edge(NodeType.SCRIPT, NodeType.SCRIPT)}),
                      frozenset())],
])
def test_all_undefined_raises_in_both(sample):
    assert _outcome(optimize_node_types, sample) is ValueError
    assert _outcome(oracles.optimize_node_types, sample) is ValueError


@st.composite
def repeated(draw, sample):
    """Each instance of ``sample`` one to three times, in any order: a repeat
    is the same object or an equal copy with sets of its own."""
    out = []
    for instance in sample:
        for _ in range(draw(st.integers(1, 3))):
            out.append(instance if draw(st.booleans())
                       else OptimizeInstance(*(frozenset(set(edges)) for edges in instance)))
    return draw(st.permutations(out))


@settings(max_examples=50, deadline=None)
@given(samples().flatmap(repeated))
def test_optimizer_with_repeated_instances_matches_enum_search(sample):
    assert _outcome(optimize_node_types, sample) == _outcome(oracles.optimize_node_types, sample)


def _frames(edge_sets, profile):
    return {("https://p.com/", f"https://f{i}.net/", profile, 1): FrameRecord(edge_set=edges)
            for i, edges in enumerate(edge_sets)}


@given(samples(max_instances=4).flatmap(repeated), st.frozensets(st.sampled_from(list(NodeType))),
       st.data())
def test_frame_similarity_matches_enum_filter(sample, node_filter, data):
    """Instances that repeat share their edge-set objects, as the frames
    reader's records do, or hold equal copies; the contrasts are shuffled, so
    that one shared set meets different ones."""
    bases = [i.baseline_a for i in sample]
    others = data.draw(st.permutations([i.contrast for i in sample]))
    scores = [s.score for s in frame_similarity(_frames(bases, "x"), _frames(others, "y"),
                                                node_filter, "x", "y")]
    by_key = sorted(range(len(sample)), key=lambda i: f"https://f{i}.net/")
    assert scores == [jaccard(oracles._filter_edges(bases[i], node_filter),
                              oracles._filter_edges(others[i], node_filter)) for i in by_key]


# ---------------------------------------------------------------------------
# Replay: two tabs, two profiles, reloads, shared and hostless URLs. Events
# name an open tab and a loaded frame, and requests mostly go to their frame's
# URL. Script ops set, delete and read the cookies that requests set and that
# conditions ask for, besides the ops that change no jar. In half the event
# lists, about one choice in thirty is instead any tab, frame or URL, a reused
# visit_seq, or a bad event: a non-event object, a record of another class
# with a behavior edge's fields, an unknown storage api or op, or an unknown
# tab or frame.
# Ports are valid: an origin-keyed third-party frame whose port does not parse
# fails at its FrameLoad here but only at its first storage touch in the oracle.

PAGE_URLS = ["https://a.com/", "https://www.a.com/p", "https://b.co.uk/", "https://t.net/",
             "http://127.0.0.1/"]
SUBJECT_URLS = ["https://t.net/w", "https://x.t.net/w/i", "http://t.net:8080/w", "https://a.com/f",
                "https://cdn.a.com/f", "https://w.x.co.uk/", "https://ads.u.org/a",
                "https://T.net:443/x"]
HOSTLESS_URLS = ["not-a-url", "https:///path"]
SET_COOKIES = ["uid=1", "uid=2; Max-Age=3", "sid=9; Domain=t.net", "p=w; Path=/w",
               "ps=1; Domain=co.uk", "gone=1; Max-Age=0"]
EDGES = [_edge(NodeType.SCRIPT, NodeType.COOKIE_JAR),
         _edge(NodeType.SCRIPT, NodeType.LOCAL_STORAGE, "b")]


class _EdgeLookalike(Record):
    """Not a trace event, though it has a behavior edge's fields."""
    __slots__ = BehaviorEdge.__slots__
    _defaults = BehaviorEdge._defaults


NON_EVENTS = ["not an event", ("t1", "f1"), None, {"type": "behavior_edge"}]


KINDS = ["visit", "frame", "frame", "request", "request", "request", "script", "script",
         "edge", "end"]
# No condition in half the events; otherwise a cookie the requests or the
# scripts set, or one nothing sets.
CONDITIONS = st.one_of(st.none(), st.tuples(st.sampled_from(["uid", "sid", "p", "u", "zz"]),
                                            st.booleans()))


@st.composite
def replay_events(draw):
    faulty = draw(st.booleans())

    def pick(values):
        return draw(st.sampled_from(values))

    def rare():
        return faulty and draw(st.integers(0, 29)) == 0

    def url(urls):
        return pick(HOSTLESS_URLS if rare() else urls)

    def bad_event(tab, frame_id):
        bad = pick(["object", "record", "api", "op", "tab", "frame"])
        if bad == "object":
            return pick(NON_EVENTS)
        if bad == "record":
            return _EdgeLookalike(tab, frame_id, pick(EDGES), draw(CONDITIONS))
        if bad in ("api", "op"):
            api = pick(["webSQL", "Cookie"]) if bad == "api" else pick(STORAGE_APIS)
            op = pick(["peek", "GET"]) if bad == "op" else pick(["get", "set", "delete"])
            return ScriptStorage(tab, frame_id, api, op, "uid", "1")
        if bad == "frame":
            frame_id = "f9"
        frame_events = [BehaviorEdge(tab, frame_id, pick(EDGES), draw(CONDITIONS)),
                        HttpRequest(tab, frame_id, pick(SUBJECT_URLS), (), draw(CONDITIONS)),
                        ScriptStorage(tab, frame_id, "cookie", "set", "uid", "1")]
        if bad == "frame":
            return pick(frame_events)
        tab = "t9"
        return pick([*frame_events, FrameLoad(tab, frame_id, pick(SUBJECT_URLS)), VisitEnd(tab)])

    open_tabs: dict[str, dict[str, str]] = {}  # tab -> frame_id -> frame URL
    events: list = []
    seq = 0
    for _ in range(draw(st.integers(1, 40))):
        kind = pick(KINDS)
        tab = pick(["t1", "t2"] if rare() or not open_tabs else sorted(open_tabs))
        frames = open_tabs.get(tab)
        frame_id = pick(["f1", "f2"] if rare() or not frames else sorted(frames))
        if kind in ("request", "script", "edge") and not frames and not rare():
            kind = "frame"  # load a frame first
        if kind == "visit" or not open_tabs:
            seq += 0 if rare() else 1
            events.append(VisitStart(pick(["p0", "p1"]), pick([1, 2]), tab, url(PAGE_URLS), seq))
            open_tabs[tab] = {}
        elif kind == "frame":
            frame_url = url(SUBJECT_URLS)
            events.append(FrameLoad(tab, frame_id, frame_url, pick([None, None, True, False])))
            if tab in open_tabs:
                open_tabs[tab][frame_id] = frame_url
        elif kind == "request":
            cookies = tuple(draw(st.lists(st.sampled_from(SET_COOKIES), max_size=2)))
            own = frames.get(frame_id) if frames and draw(st.integers(0, 3)) else None
            events.append(HttpRequest(tab, frame_id, own or url(SUBJECT_URLS), cookies,
                                      draw(CONDITIONS)))
        elif kind == "script":
            # Only the cookie api reaches an output (a later request's flows).
            events.append(ScriptStorage(tab, frame_id, pick(["cookie", "cookie", *STORAGE_APIS]),
                                        pick(["get", "set", "set", "delete"]),
                                        pick(["u", "v", "uid", "sid", "p"]),
                                        pick(["1", "2", None])))
        elif kind == "edge":
            events.append(BehaviorEdge(tab, frame_id, pick(EDGES), draw(CONDITIONS)))
        else:
            events.append(VisitEnd(tab))
            open_tabs.pop(tab, None)
        if rare():
            events.append(bad_event(tab, frame_id))
    return events


def _replay_outcome(fn, events, policy, ads, origin_keyed):
    try:
        out = fn(events, policy, builtin_rules(), ads, origin_keyed=origin_keyed)
    except ReplayError as exc:
        return str(exc)
    return out.flows, out.frames


@settings(max_examples=300, deadline=None)
@given(replay_events(), st.sampled_from(list(PolicyKind)), st.booleans(), st.booleans())
# x.t.net cannot read the host-only uid that t.net set, so it cannot delete it
# either, and the last request still sends it.
@example(events=[VisitStart("p0", 1, "t1", "https://a.com/", 1),
                 FrameLoad("t1", "f1", "https://t.net/w", None),
                 FrameLoad("t1", "f2", "https://x.t.net/w/i", None),
                 HttpRequest("t1", "f1", "https://t.net/w", ("uid=1",)),
                 ScriptStorage("t1", "f2", "cookie", "delete", "uid", None),
                 HttpRequest("t1", "f1", "https://t.net/w", ())],
         policy=PolicyKind.PERMISSIVE, origin_keyed=False, with_ads=False)
# Frame f1 is loaded again with another URL in the same load: the later edge
# goes to the new frame's record.
@example(events=[VisitStart("p0", 1, "t1", "https://a.com/", 1),
                 FrameLoad("t1", "f1", "https://t.net/w", None),
                 BehaviorEdge("t1", "f1", EDGES[0]),
                 FrameLoad("t1", "f1", "https://x.t.net/w/i", None),
                 BehaviorEdge("t1", "f1", EDGES[1])],
         policy=PolicyKind.SITE_KEYED, origin_keyed=False, with_ads=False)
# The same frame key, loaded again on a later load of the same page: both
# loads add their edges to one record.
@example(events=[VisitStart("p0", 1, "t1", "https://a.com/", 1),
                 FrameLoad("t1", "f1", "https://t.net/w", None),
                 BehaviorEdge("t1", "f1", EDGES[0]),
                 VisitEnd("t1"),
                 VisitStart("p0", 1, "t1", "https://a.com/", 2),
                 FrameLoad("t1", "f2", "https://t.net/w", None),
                 BehaviorEdge("t1", "f2", EDGES[1])],
         policy=PolicyKind.PAGE_LENGTH, origin_keyed=False, with_ads=False)
# uid is set again after sid, so it moves behind sid: the two have one path,
# and the last request sends them in creation order (add_cookie's rule).
@example(events=[VisitStart("p0", 1, "t1", "https://a.com/", 1),
                 FrameLoad("t1", "f1", "https://t.net/w", None),
                 HttpRequest("t1", "f1", "https://t.net/w", ("uid=1", "sid=9; Domain=t.net")),
                 HttpRequest("t1", "f1", "https://t.net/w", ("uid=2; Max-Age=3",)),
                 HttpRequest("t1", "f1", "https://t.net/w", ())],
         policy=PolicyKind.PERMISSIVE, origin_keyed=False, with_ads=False)
# A trace's own is_ad flag, under rules that flag nothing.
@example(events=[VisitStart("p0", 1, "t1", "https://a.com/", 1),
                 FrameLoad("t1", "f1", "https://ads.u.org/a", True),
                 BehaviorEdge("t1", "f1", EDGES[0])],
         policy=PolicyKind.BLOCKING, origin_keyed=False, with_ads=False)
def test_replay_matches_per_touch_resolution(events, policy, origin_keyed, with_ads):
    """Equal flows and frames, or the same ReplayError at the same event."""
    ads = parse_rules("||u.org^") if with_ads else EMPTY_RULES
    assert (_replay_outcome(replay, events, policy, ads, origin_keyed)
            == _replay_outcome(oracles.replay, events, policy, ads, origin_keyed))


def _tag(header: str, index: int) -> str:
    """A Set-Cookie header with its value replaced by the event index."""
    pair, sep, attributes = header.partition(";")
    return f"{pair.partition('=')[0]}=e{index}{sep}{attributes}"


def _tagged_events(events: list) -> list:
    """The events, with each Set-Cookie value and each script ``set`` value
    replaced by the index of the event that carries it."""
    tagged = []
    for index, event in enumerate(events):
        if type(event) is HttpRequest:
            event = HttpRequest(event.tab, event.frame_id, event.dest_url,
                                tuple(_tag(header, index) for header in event.response_set_cookies),
                                event.when)
        elif type(event) is ScriptStorage and event.op == "set":
            event = ScriptStorage(event.tab, event.frame_id, event.api, "set", event.key,
                                  f"e{index}")
        tagged.append(event)
    return tagged


def _origins(events: list) -> dict[int, VisitStart | None]:
    """The page load each request and script event comes from, by event index."""
    visits: dict[str, VisitStart] = {}
    origins = {}
    for index, event in enumerate(events):
        if type(event) is VisitStart:
            visits[event.tab] = event
        elif type(event) is VisitEnd:
            visits.pop(event.tab, None)
        elif type(event) in (HttpRequest, ScriptStorage):
            origins[index] = visits.get(event.tab)
    return origins


@settings(max_examples=300, deadline=None)
@given(replay_events())
def test_flows_keep_to_their_policy_definitions(events):
    """Every flow's cookie value leads back to the event that stored it: under
    every policy that event's page load has the flow's profile; under blocking
    no cookie flows; under page-length it is the flow's own page load; under
    site-keyed its top site is the flow's. Each with origin keying off and on."""
    rules = builtin_rules()
    events = _tagged_events(events)
    origins = _origins(events)
    for policy, origin_keyed in product(PolicyKind, (False, True)):
        try:
            flows = replay(events, policy, rules, origin_keyed=origin_keyed).flows
        except ReplayError:
            continue
        if policy is PolicyKind.BLOCKING:
            assert flows == []
        for flow in flows:
            origin = origins[int(flow.cookie_value.removeprefix("e"))]
            assert origin.profile == flow.profile
            if policy is PolicyKind.PAGE_LENGTH:
                assert origin.visit_seq == flow.visit_seq
            if policy is PolicyKind.SITE_KEYED:
                assert site_of(origin.page_url, rules) == flow.top_site


# RFC 6454 §6.2 serializations, written by hand: an IPv6 host keeps its
# brackets, a host is lower case, and a port is written only when it is not
# the scheme's default, whether the URL names the default or leaves it out.
ORIGINS = [
    ("https://[::1]:8080/a", "https://[::1]:8080"),
    ("https://[::1:8080]/a", "https://[::1:8080]"),
    ("https://[2001:DB8::1]:443/", "https://[2001:db8::1]"),
    ("https://sub.t.net:8443/w", "https://sub.t.net:8443"),
    ("https://t.net:443/w", "https://t.net"),
    ("https://t.net/w", "https://t.net"),
    ("https://t.net:/w", "https://t.net"),
    ("https://t.net:0443/w", "https://t.net"),
    ("https://t.net:80/w", "https://t.net:80"),
    ("http://t.net:80/w", "http://t.net"),
    ("http://t.net:443/w", "http://t.net:443"),
    ("HTTP://Sub.T.NET:8080/W", "http://sub.t.net:8080"),
    ("https://user:pw@t.net:8080/", "https://t.net:8080"),
    ("http://127.0.0.1:8080/", "http://127.0.0.1:8080"),
]


@pytest.mark.parametrize("url, expected", ORIGINS)
def test_both_origin_serializers_follow_rfc_6454(url, expected):
    assert origin_of(url) == oracles.origin(url) == expected


@pytest.mark.parametrize("url", ["https:///path", "not-a-url", "https://t.net:65536/",
                                 "https://t.net:x/", "https://t.net:-1/"])
def test_both_origin_serializers_refuse_a_url_without_an_origin(url):
    with pytest.raises(ValueError):
        origin_of(url)
    with pytest.raises(ValueError):
        oracles.origin(url)


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_only_page_length_hands_out_ephemeral_keys(policy):
    rules = builtin_rules()
    keys = [resolve_partition(policy, site_of(top, rules), site_of(subject, rules), subject_id)
            for top, subject in product(PAGE_URLS, PAGE_URLS + SUBJECT_URLS)
            for subject_id in (site_of(subject, rules), origin_of(subject))]
    assert any(k is not None and k[0] == "page-length" for k in keys) == (
        policy is PolicyKind.PAGE_LENGTH)


# ---------------------------------------------------------------------------
# Synthetic generation: the default tracker sites, each embedded on every
# page, on none, or by a seeded draw.

SYNTHETIC_SPECS = st.builds(
    lambda n_sites, probabilities, pages, iters, profiles, seed: SyntheticSpec(
        n_sites,
        tuple(TrackerSpec(site, p) for site, p in
              zip(default_tracker_sites(len(probabilities)), probabilities)),
        pages, iters, profiles, seed),
    st.integers(1, 5),
    st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]), max_size=4),
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
    st.integers(),
)


def _renamed_flows(flows: list, oracle_flows: list) -> bool:
    """Whether the flows equal the oracle's after a one-to-one renaming of
    cookie values."""
    forward: dict[str, str] = {}
    backward: dict[str, str] = {}
    return len(flows) == len(oracle_flows) and all(
        flow[:-1] == want[:-1]
        and forward.setdefault(want.cookie_value, flow.cookie_value) == flow.cookie_value
        and backward.setdefault(flow.cookie_value, want.cookie_value) == want.cookie_value
        for flow, want in zip(flows, oracle_flows))


@settings(max_examples=100, deadline=None)
@given(SYNTHETIC_SPECS, st.sampled_from(list(PolicyKind)), st.booleans())
def test_one_trace_replays_as_each_policys_own_trace(spec, policy, origin_keyed):
    """Replaying the one trace under a policy gives the frames of the trace
    the oracle writes for that policy, and its flows up to a one-to-one
    renaming of cookie values. The one trace's equal events are one object."""
    rules = builtin_rules()
    trace = generate_synthetic_trace(spec)
    oracle = oracles.generate_synthetic_trace(spec, policy)
    assert trace.meta == oracle.meta
    assert len({id(e) for e in trace.events}) == len(set(trace.events))
    out = replay(trace.events, policy, rules, origin_keyed=origin_keyed)
    want = replay(oracle.events, policy, rules, origin_keyed=origin_keyed)
    assert out.frames == want.frames
    assert _renamed_flows(out.flows, want.flows)


# ---------------------------------------------------------------------------
# Trace parsing: a small pool of lines, so that lines repeat heavily; the same
# event written with other key order and spacing; whitespace padding, blank
# lines, invalid lines that repeat, and the meta record, sometimes again later.

META = '{"type":"meta","scenario":"s","spec":{"sites":2}}'
POOL_EVENTS = [
    VisitStart("p0", 1, "t1", "https://a.com/", 1),
    VisitStart("p1", 2, "t1", "https://a.com/", 1),
    FrameLoad("t1", "f1", "https://t.net/w"),
    FrameLoad("t1", "f1", "https://t.net/w", True),
    HttpRequest("t1", "f1", "https://t.net/p", ("uid=1", "sid=2; Max-Age=3")),
    HttpRequest("t1", "f1", "https://t.net/p"),
    HttpRequest("t1", "f1", "https://t.net/p", ("uid=1",), ("uid", False)),
    ScriptStorage("t1", "f1", "local", "set", "k", "v"),
    ScriptStorage("t1", "f1", "cookie", "get", "k"),
    *(BehaviorEdge("t1", "f1", edge) for edge in EDGES),
    BehaviorEdge("t1", "f1", EDGES[0], ("uid", True)),
    VisitEnd("t1"),
]
VALID_LINES = [json.dumps(oracles.event_to_record(e), sort_keys=True, separators=(",", ":"))
               for e in POOL_EVENTS] + [json.dumps(oracles.event_to_record(e))
                                        for e in POOL_EVENTS[::3]]
INVALID_LINES = [
    "{nope", "[1,2]", '"x"', "null", '{"type":"teleport"}', '{"type":"visit_end"}',
    '{"type":"visit_end","tab":1}',
    '{"type":"visit_start","profile":"p","crawl_iter":true,"tab":"t","page_url":"u","visit_seq":1}',
    '{"type":"script_storage","tab":"t","frame_id":"f","api":"webSQL","op":"get","key":"k"}',
    '{"type":"http_request","tab":"t","frame_id":"f","dest_url":"u","response_set_cookies":[1]}',
    '{"type":"behavior_edge","tab":"t","frame_id":"f","edge":{"source_type":"martian",'
    '"source_key":"s","edge_type":"e","target_type":"script","target_key":"t"}}',
    '{"type":"http_request","tab":"t","frame_id":"f","dest_url":"u","when":"uid"}',
    '{"type":"http_request","tab":"t","frame_id":"f","dest_url":"u","when":{"present":true}}',
    '{"type":"behavior_edge","tab":"t","frame_id":"f","edge":{"source_type":"script",'
    '"source_key":"s","edge_type":"e","target_type":"script","target_key":"t"},'
    '"when":{"cookie":"uid","present":0}}',
]
PAD = st.sampled_from(["", " ", "\t", "  ", "\n", " \r\n"])


@st.composite
def trace_lines(draw):
    pool = VALID_LINES + ["", "   "] + (INVALID_LINES if draw(st.booleans()) else [])
    lines = [draw(PAD) + line + draw(PAD)
             for line in draw(st.lists(st.sampled_from(pool), max_size=40))]
    if draw(st.booleans()):
        lines.insert(0, META)
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(PAD) + META)
    return lines


def _parse_outcome(parse, lines):
    try:
        trace = parse(lines)
    except TraceFormatError as exc:
        return str(exc)
    return trace.meta, trace.events


@settings(max_examples=300)
@given(trace_lines())
@example(['{"type":"visit_end"}', "", '{"type":"visit_end"}'])
@example([META, '{"type":"visit_end","tab":"t"}', META])
def test_parse_trace_matches_per_line_parse(lines):
    """Equal meta and events, or the same error naming the same first line."""
    assert _parse_outcome(parse_trace, lines) == _parse_outcome(oracles.parse_trace, lines)


@settings(max_examples=100)
@given(trace_lines())
def test_repeated_lines_share_one_event(lines):
    """A line repeated as read reuses one event object; lines equal but for
    surrounding whitespace give equal events."""
    try:
        trace = parse_trace(lines)
    except TraceFormatError:
        return
    read = [line for line in lines if line.strip() and line.strip() != META]
    first: dict[str, object] = {}
    stripped: dict[str, object] = {}
    for line, event in zip(read, trace.events, strict=True):
        assert first.setdefault(line, event) is event
        assert stripped.setdefault(line.strip(), event) == event


# ---------------------------------------------------------------------------
# Trace writing: events from the parse pool plus a non-ad frame and non-ASCII
# text, each drawn as the pool's object or a fresh equal copy, so that equal
# events are often distinct objects; meta with any of its fields missing.

WRITE_EVENTS = [*POOL_EVENTS, FrameLoad("t1", "f2", "https://t.net/w", False),
                ScriptStorage("t1", "f2", "session", "delete", "\u00fc\n\"k\"")]
METAS = st.one_of(st.none(), st.builds(
    TraceMeta, st.sampled_from([None, "s"]),
    st.sampled_from([None, {"sites": 2, "trackers": ["t.net"]}])))


@st.composite
def write_traces(draw):
    events = []
    for event in draw(st.lists(st.sampled_from(WRITE_EVENTS), max_size=40)):
        if draw(st.booleans()):
            event = type(event)(*(getattr(event, name) for name in event._fields))
        events.append(event)
    return Trace(draw(METAS), events)


@settings(max_examples=300)
@given(write_traces())
@example(Trace(None, []))
@example(Trace(TraceMeta(), []))
def test_writers_match_dump_of_every_event(tmp_path_factory, trace):
    """The writer's lines and the bytes write_trace leaves on disk are those
    of the dump that encodes every event."""
    expected = oracles.dump_trace(trace)
    assert support.trace_text(trace) == expected
    path = tmp_path_factory.getbasetemp() / "written-trace.jsonl"
    write_trace(trace, path)
    assert path.read_bytes() == expected.encode("utf-8")


# ---------------------------------------------------------------------------
# Simulate output readers: valid files with any text in the string fields
# and integers in any ``-?[0-9]+`` form; frame records in the writer's exact
# form, in forms that look like it and are not (a duplicate key whose later
# value JSON keeps, ``-0``, a crawl_iter past 18 digits, padding, an escaped
# or non-ASCII string, a sixth field), or with extra fields, in any key order
# and spacing, between blank lines, with edges from a pool and fresh ones, so
# that some edges are met for the first time in the process. A malformed row
# from the unit tests, put anywhere in such a file, gets the same message
# from both readers.

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
# csv.writer quotes a cell holding its line terminator, "\n", but not a bare
# "\r", which csv.reader then takes for the end of the row.
CELL = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
               max_size=6)
INT_CELL = st.one_of(st.integers(-3, 30).map(str), st.integers(0, 99).map("{:03d}".format))


def _write_rows(path, header, rows, insert=None):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    if insert is not None:
        index, line = insert
        lines = path.read_text(encoding="utf-8").split("\n")
        lines.insert(1 + index, line)
        path.write_text("\n".join(lines), encoding="utf-8")


def _read_outcome(read, path):
    try:
        return read(path)
    except (TraceFormatError, InputError) as exc:
        return str(exc)


@st.composite
def flow_rows(draw):
    rows = draw(st.lists(st.tuples(CELL, INT_CELL, INT_CELL, CELL, CELL, CELL, CELL),
                         max_size=12))
    return [row if draw(st.integers(0, 5)) else () for row in rows]


@settings(max_examples=200)
@given(flow_rows())
@example([("p", "-0", "007", "", "t,\"net", "a\nb", "\u00fc")])
def test_flows_reader_matches_per_field_reader(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "drawn-flows.csv"
    _write_rows(path, FLOW_FIELDS, rows)
    flows = _read_outcome(support.read_flows, path)
    assert flows == _read_outcome(oracles.read_flows_csv, path)
    assert all(type(f.crawl_iter) is int and type(f.visit_seq) is int for f in flows)


@settings(max_examples=100)
@given(flow_rows(), st.sampled_from(support.BAD_FLOW_ROWS), st.integers(0, 12))
def test_bad_flow_row_fails_alike(tmp_path_factory, rows, bad, index):
    path = tmp_path_factory.getbasetemp() / "drawn-bad-flows.csv"
    rows = [row for row in rows if row and "\n" not in "".join(row)]
    index = min(index, len(rows))
    _write_rows(path, FLOW_FIELDS, rows, insert=(index, bad[0]))
    message = _read_outcome(support.read_flows, path)
    assert message == _read_outcome(oracles.read_flows_csv, path)
    assert f": line {2 + index}: {bad[1]}" in message


FRAME_EDGE = st.one_of(
    st.sampled_from([_edge(NodeType.SCRIPT, NodeType.COOKIE_JAR),
                     _edge(NodeType.WEB_API, NodeType.SCRIPT),
                     # The text that ends the edge list in the writer's form.
                     _edge(NodeType.SCRIPT, NodeType.SCRIPT, '],"frame_url":'),
                     # A ']' that no '"' follows, as in an IPv6 host or a query.
                     _edge(NodeType.SCRIPT, NodeType.SCRIPT, "https://[::1]/?a[]=1&b=[x],y")]),
    st.builds(_edge, st.sampled_from(list(NodeType)), st.sampled_from(list(NodeType)), TEXT),
)
# Small crawl iterations, and the writer's widest machine-sized ones and past.
CRAWL_ITER = st.one_of(st.integers(-2, 3), st.sampled_from(
    [10**17, 10**18 - 1, -(10**18 - 1), 10**18, -(10**18), 10**19 - 1, 10**30]))


def _writer_form(record: dict, ensure_ascii: bool = True) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=ensure_ascii)


def _any_json_line(draw, record):
    """Extra fields, any key order and spacing, escaped or not."""
    if draw(st.booleans()):
        record = dict(record, extra=draw(st.sampled_from([None, 1, "x", [1]])))
    items = draw(st.permutations(list(record.items())))
    line = json.dumps(dict(items), sort_keys=draw(st.booleans()),
                      ensure_ascii=draw(st.booleans()))
    return draw(PAD) + line + draw(PAD)


def _writer_line(draw, record):
    return _writer_form(record, ensure_ascii=draw(st.booleans()))


def _decoy_first_value(draw, record):
    """A later duplicate ``edges`` or ``crawl_iter`` key holds the value JSON
    reads; the writer-form head holds a decoy."""
    name = draw(st.sampled_from(["edges", "crawl_iter"]))
    decoy = draw(st.lists(FRAME_EDGE, max_size=2) if name == "edges" else st.integers(-2, 3))
    return (_writer_form(dict(record, **{name: decoy}))[:-1]
            + f',"{name}":{json.dumps(record[name], separators=(",", ":"))}}}')


def _lookalike_line(draw, record):
    """The writer's form with one difference that keeps its meaning: a
    ``-0`` (where crawl_iter is 0), padding, an escaped tail string, each
    ``/`` of the page URL escaped as ``\\/``, or else a sixth field."""
    line = _writer_form(record)
    kind = draw(st.sampled_from(["-0", "pad", "escape", "solidus", "extra"]))
    if kind == "-0" and record["crawl_iter"] == 0:
        return line.replace('{"crawl_iter":0,', '{"crawl_iter":-0,', 1)
    if kind == "pad":
        return draw(st.sampled_from(["", " "])) + line + draw(st.sampled_from([" ", "\t", "\r"]))
    if kind == "escape":  # the party's first letter as a \u escape
        party = record["party"]
        return line.replace(f'"party":"{party}"', f'"party":"\\u{ord(party[0]):04x}{party[1:]}"')
    if kind == "solidus":
        page = '"page_url":' + json.dumps(record["page_url"])
        return line.replace(page, page.replace("/", "\\/"), 1)
    return line[:-1] + ',"zz":0}'


FRAME_LINE_FORMS = [_any_json_line, _writer_line, _writer_line, _decoy_first_value,
                    _lookalike_line]


# Rest-of-line strings: the writer escapes '"', '\\' and non-ASCII; written
# raw, non-ASCII text, U+2028 and DEL are what JSON reads them as.
TAIL_TEXT = st.one_of(TEXT, st.lists(st.sampled_from(
    ['"', "\\", "/", "\u00e9", "\u2028", "\x7f", "\x1f", "a", "\u4e2d"]), max_size=4).map("".join))


@st.composite
def frame_lines(draw):
    records = {}
    for _ in range(draw(st.integers(0, 8))):
        key = (draw(TAIL_TEXT), draw(st.sampled_from(["f", "g\u00fc", "h/\u2028\x7f"])),
               draw(st.sampled_from(["p0", "p1"])), draw(CRAWL_ITER))
        records[key] = {"page_url": key[0], "frame_url": key[1], "profile": key[2],
                        "crawl_iter": key[3], "party": draw(st.sampled_from(["first", "third"])),
                        "is_ad": draw(st.booleans()),
                        "edges": draw(st.lists(FRAME_EDGE, max_size=4))}
    lines = []
    for record in records.values():
        lines.append(draw(st.sampled_from(FRAME_LINE_FORMS))(draw, record))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  "])))
    return lines


def _read_lines(text: str):
    """The frames that ``read_frames_jsonl`` reads from the lines of ``text``
    split at each \\n alone, so that a \\r stays in its line."""
    try:
        return read_frames_jsonl(line + "\n" for line in text.split("\n"))
    except TraceFormatError as exc:
        return str(exc)


@settings(max_examples=300)
@given(frame_lines())
@example(['{"crawl_iter":-0,"edges":[],"frame_url":"f","is_ad":false,"page_url":"p",'
          '"party":"third","profile":"p"}',
          '{"crawl_iter":1,"edges":[],"frame_url":"f","is_ad":false,"page_url":"p",'
          '"party":"third","profile":"p","crawl_iter":2} \r',
          '{"crawl_iter":1,"edges":["x"],"frame_url":"f","is_ad":false,"page_url":"p",'
          '"party":"\\u0074hird","profile":"p","edges":[]}'])
@example(['{"crawl_iter":1,"edges":[],"frame_url":"h/\u2028\x7f\u00e9","is_ad":false,'
          '"page_url":"a\\/\\"\\\\\\u00e9","party":"third","profile":"p"}'])
def test_frames_reader_matches_per_field_reader(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "drawn-frames.jsonl"
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    frames = oracles.read_frames_jsonl(path)
    assert support.read_frames(path) == frames
    assert _read_lines(text) == frames


@settings(max_examples=100)
@given(frame_lines(), st.sampled_from(support.BAD_FRAME_LINES), st.integers(0, 12))
def test_bad_frame_line_fails_alike(tmp_path_factory, lines, bad, index):
    path = tmp_path_factory.getbasetemp() / "drawn-bad-frames.jsonl"
    lines = "\n".join(lines).split("\n")
    index = min(index, len(lines))
    lines.insert(index, bad[0])
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    message = _read_outcome(support.read_frames, path)
    assert message == _read_outcome(oracles.read_frames_jsonl, path)
    assert f": line {1 + index}: {bad[1]}" in message
    assert message.endswith(_read_lines(text))


# Characters that JSON gives a meaning to, or that a writer-form line lacks,
# and the escapes of a lone surrogate and of a surrogate pair.
MUTATION_CHARS = ['"', "\\", "]", "[", ",", ":", "{", "}", "u", "d", "8", "0", " ", "\u00e9",
                  "\x1f", "\\ud800", "\\ud83d\\ude00"]


@st.composite
def mutated_frame_lines(draw):
    """A writer-form line changed at one place by one of those, after none,
    either or both of two lines that share its edge list or its rest, so
    that the reader may know either part of it as checked."""
    record = {"page_url": draw(TAIL_TEXT), "frame_url": "f", "profile": "p0", "crawl_iter": 1,
              "party": draw(st.sampled_from(["first", "third"])), "is_ad": draw(st.booleans()),
              "edges": draw(st.lists(FRAME_EDGE, max_size=3))}
    line = _writer_form(record)
    at = draw(st.one_of(st.integers(0, len(line)),
                        st.sampled_from([i for i, c in enumerate(line) if c in '",[]\\:'])))
    char = draw(st.sampled_from(MUTATION_CHARS))
    mutated = draw(st.sampled_from([line[:at] + char + line[at:], line[:at] + char + line[at + 1:],
                                    line[:at] + line[at + 1:]]))
    shares = [_writer_form(dict(record, page_url=record["page_url"] + "x")),
              _writer_form(dict(record, crawl_iter=2))]
    return draw(st.sampled_from([[], shares[:1], shares[1:], shares])) + [mutated]


_TWO_EDGES = _writer_form({"crawl_iter": 1, "edges": sorted(
    [_edge(NodeType.SCRIPT, NodeType.COOKIE_JAR), _edge(NodeType.WEB_API, NodeType.SCRIPT)]),
    "frame_url": "f", "is_ad": False, "page_url": "p", "party": "first", "profile": "p0"})
_BETWEEN = _TWO_EDGES.index('","[') + 1  # the comma between the two edges


@settings(max_examples=500)
@given(mutated_frame_lines())
# The edge array ends early, before a '"', a '}', a ' "' or a ','; an edge
# escapes a lone surrogate.
@example([_TWO_EDGES[:_BETWEEN] + "]" + _TWO_EDGES[_BETWEEN + 1:]])
@example([_TWO_EDGES[:_BETWEEN] + "]}" + _TWO_EDGES[_BETWEEN + 1:]])
@example([_TWO_EDGES[:_BETWEEN] + "] " + _TWO_EDGES[_BETWEEN + 1:]])
@example([_TWO_EDGES[:_BETWEEN] + "]" + _TWO_EDGES[_BETWEEN:]])
@example([_TWO_EDGES.replace('\\"script', '\\"\\ud800script', 1)])
@example(['{"crawl_iter":1,"edges":[],"frame_url":"f","is_ad":true,"page_url":"\\u00e9x",'
          '"party":"first","profile":"p0"}',
          '{"crawl_iter":1,"edges":[],"frame_url":"f","is_ad":true,"page_url":"\\u00e9",'
          '"party":"fir\\st","profile":"p0"}'])
def test_a_changed_writer_line_reads_as_its_whole_decode(tmp_path_factory, lines):
    """Whichever part of the changed line the reader decodes, it reads what,
    or fails as, the per-line reader does."""
    path = tmp_path_factory.getbasetemp() / "mutated-frames.jsonl"
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    want = _read_outcome(oracles.read_frames_jsonl, path)
    got = _read_lines(text)
    if type(want) is str:
        assert type(got) is str and want.endswith(": " + got), (want, got)
    else:
        assert got == want


# Any text: non-ASCII, '"', '\\', control characters and lone surrogates (which
# st.text() leaves out unless its alphabet allows every category).
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)


@st.composite
def frame_records(draw):
    """Frames with any text in the key strings and in the edges' keys, exact
    ints of any size for crawl_iter (as the reader requires), both is_ad
    values and both parties."""
    keys = st.tuples(ANY_TEXT, ANY_TEXT, st.sampled_from(["p0", "p\u00fc", "\ud800"]),
                     st.one_of(st.integers(-3, 3), st.integers()))
    edge = st.builds(_edge, st.sampled_from(list(NodeType)), st.sampled_from(list(NodeType)),
                     ANY_TEXT)
    return draw(st.dictionaries(keys, st.builds(
        FrameRecord, st.sets(edge, max_size=4), st.booleans(), st.sampled_from(["first", "third"])),
        max_size=6))


@settings(max_examples=200)
@given(frame_records())
@example({("https://a.com/\x00\"\\", "\x7f\u2028", "p0", -2**70):
              FrameRecord({_edge(NodeType.SCRIPT, NodeType.COOKIE_JAR, "\ud800\n")}, True,
                          "first"),
          ("", "", "", 0): FrameRecord()})
def test_frames_writer_matches_per_record_dumps(tmp_path_factory, frames):
    """Byte for byte the per-record json.dumps lines, read back equal; or,
    when a key string holds a lone surrogate, which no UTF-8 output of a
    metric could hold, read back as an input error naming it. An edge's
    surrogate is its ``\\u`` escape, so it reads back."""
    base = tmp_path_factory.getbasetemp()
    write_frames_jsonl(frames, base / "written-frames.jsonl")
    oracles.write_frames_jsonl(frames, base / "dumped-frames.jsonl")
    written = (base / "written-frames.jsonl").read_bytes()
    assert written == (base / "dumped-frames.jsonl").read_bytes()
    if any(0xD800 <= ord(c) <= 0xDFFF for key in frames for text in key[:3] for c in text):
        with pytest.raises(InputError, match=r": line \d+: lone surrogate in string "):
            support.read_frames(base / "written-frames.jsonl")
    else:
        assert support.read_frames(base / "written-frames.jsonl") == frames


# ---------------------------------------------------------------------------
# Not-UTF-8 errors: bytes made of ASCII, line ends, whole UTF-8 sequences, the
# same sequences cut short (so that a line end or the end of the file follows
# them) and stray bytes.

BYTE_PIECES = st.one_of(
    st.sampled_from([b"a", b"\n", b"\r", b"\r\n", "\u00fc".encode(), "\u20ac".encode(),
                     "\U0001f600".encode(), b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\x80",
                     b"\xff", b"\xed\xa0\x80"]),
    st.binary(max_size=3),
)


@settings(max_examples=300)
@given(st.lists(BYTE_PIECES, max_size=24), st.sampled_from([None, ""]))
@example([b"ab\xe2\x82\ncd"], None)
@example([b"x\r\n\xe2\x82"], "")
@example([b"a" * 8191, "\u20ac".encode(), b"\n"], None)  # a sequence across the 8 KiB chunks
@example([b"a\n" * 5000, b"\xe2\x82\n"], "")
def test_not_utf8_error_names_the_line_a_second_read_finds(tmp_path_factory, pieces, newline):
    path = tmp_path_factory.getbasetemp() / "drawn-bytes.txt"
    data = b"".join(pieces)
    path.write_bytes(data)
    try:
        _parse_input(path, list, newline)
    except InputError as exc:
        assert str(exc) == str(oracles._not_utf8(path))
    else:
        data.decode("utf-8")


# ---------------------------------------------------------------------------
# PSL rule check: rules over a few labels, dots and every whitespace character.

SPACES = [ch for ch in map(chr, range(0x110000)) if ch.isspace()]


def _rule_outcome(check, rule, line_no):
    try:
        return check(rule, line_no)
    except PslParseError as exc:
        return str(exc)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(["a", "Co", ".", "\u00dc", "*", "!", *SPACES]), max_size=8)
       .map("".join), st.integers(1, 9999))
def test_rule_check_matches_per_character_check(rule, line_no):
    assert _rule_outcome(_check_rule, rule, line_no) == _rule_outcome(oracles.check_rule, rule,
                                                                      line_no)


@pytest.mark.parametrize("space", SPACES, ids=lambda ch: f"U+{ord(ch):04X}")
def test_every_whitespace_character_ends_a_rule_alike(space):
    for text in (f"a{space}b\n", f"{space}a\n", f"a{space}// c\n", f"!a{space}b.c\n"):
        rules = parse_psl(text)
        assert rules == oracles.parse_psl(text)
        assert "a" in rules.normal_rules | rules.exception_rules
    text = f"com\na..b{space}c\n"
    assert (_psl_outcome(parse_psl, text) == _psl_outcome(oracles.parse_psl, text)
            == "line 2: empty label in rule 'a..b'")


# ---------------------------------------------------------------------------
# Rule files: lines from markers, labels in mixed case, non-ASCII letters and
# blanks, ended by "\n" mostly and by every other str.splitlines break.

RULE_PIECE = st.sampled_from([
    "a", "b", "co", "Co", "xn--p1ai", "-", ".", "!", "*.", "*", "/", "//", "||", "^", "$", "##",
    "@@", " ", "\t", "\u00dc", "\u212a", "\u0130", "\u00e9", "\u3000",
])
LINE_BREAK = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                            "\x85", "\u2028", "\u2029"])
RULE_LINE = st.one_of(
    st.lists(RULE_PIECE, max_size=6).map("".join),
    st.tuples(st.sampled_from(["", "!", "*.", "||"]),
              st.lists(st.sampled_from(["a", "co", "a-b", "b-", "-b", "xn--p1ai"]), min_size=1,
                       max_size=3).map(".".join),
              st.sampled_from(["", "^", "^^"])).map("".join),
)
RULE_TEXT = st.lists(st.tuples(RULE_LINE, LINE_BREAK),
                     max_size=10).map(lambda lines: "".join(a + b for a, b in lines))
RULE_FILE = st.tuples(RULE_TEXT, st.booleans()).map(
    lambda drawn: drawn[0][:-1] if drawn[1] else drawn[0])  # the last line unended


def _psl_outcome(parse, text):
    try:
        return parse(text)
    except PslParseError as exc:
        return str(exc)


@settings(max_examples=400)
@given(RULE_FILE)
@example("com\nCo.Uk\r\n*.ck\n!www.ck\n a.b \n\u00fc.de\na..b")
@example("// c\ncom\r\nco uk\n")
@example("com\n\nnet\n\n\na..b\n")
def test_psl_parser_matches_line_by_line_parser(text):
    assert _psl_outcome(parse_psl, text) == _psl_outcome(oracles.parse_psl, text)


@settings(max_examples=400)
@given(RULE_FILE)
@example("||a.b^\n||A.b^\n||a.b^^\n||a.b\n/ads/*\n||-a.b^\n@@||a^\n||a^$x\n||a^\r\n/x/")
@example("||b-^\n||a.-b^\n||a..b^\n||a-b.c^\n")
def test_filter_parser_matches_line_by_line_parser(text):
    assert parse_rules(text) == oracles.parse_rules(text)
