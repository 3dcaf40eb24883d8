import csv
import gc
import io
import json
import re
import weakref
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from storagelab.artifacts import InputError
from storagelab.filterlist import parse_rules
from storagelab.flows import FLOW_FIELDS, CookieFlowRecord, read_flows_csv
from storagelab import cookies, simulator
from storagelab.policy import PolicyKind, site_of
from storagelab.psl import BUILTIN_PSL, parse_psl
from storagelab.frames import write_frames_jsonl
from storagelab.simulator import ReplayError, replay, write_flows_csv
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
    VisitEnd,
    VisitStart,
)
from storagelab.vocab import NodeType, _edge_string

from conftest import N_ITERS, N_PROFILES, N_SITES, N_TRACKERS, make_spec


FLOWS = st.lists(st.builds(CookieFlowRecord, st.text(), st.integers(), st.integers(),
                           st.text(), st.text(), st.text(), st.text()), max_size=6)


@pytest.mark.parametrize("name", sorted(support.SCENARIOS))
@pytest.mark.parametrize("policy", list(PolicyKind))
def test_scenario_visibility(name, policy, rules):
    events = support.SCENARIOS[name]()
    assert support.probe_visibility(events, policy, rules) == support.EXPECTED_VISIBILITY[name][policy]


class TestSyntheticGenerator:
    def test_visit_count(self):
        spec = SyntheticSpec(n_sites=3, trackers=(TrackerSpec("tracker0.test"),),
                             pages_per_site=1, crawl_iters=2, profiles=1, seed=7)
        trace = generate_synthetic_trace(spec)
        starts = [e for e in trace.events if isinstance(e, VisitStart)]
        assert len(starts) == 6  # 3 sites x 2 iterations

    def test_byte_identical_for_same_spec(self):
        spec = SyntheticSpec(n_sites=3, trackers=(TrackerSpec("tracker0.test"),),
                             pages_per_site=1, crawl_iters=2, profiles=1, seed=7)
        assert (support.trace_text(generate_synthetic_trace(spec))
                == support.trace_text(generate_synthetic_trace(spec)))

    def test_zero_sites_or_profiles_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_trace(SyntheticSpec(n_sites=0, trackers=()))
        with pytest.raises(ValueError):
            generate_synthetic_trace(SyntheticSpec(n_sites=1, trackers=(), profiles=0))

    def test_tracker_site_collision_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_trace(SyntheticSpec(n_sites=1, trackers=(TrackerSpec("site0.test"),)))

    @pytest.mark.parametrize("tracker", ["cdn.site0.test", "w.tracker0.test"])
    def test_tracker_site_on_a_subdomain_rejected(self, tracker):
        with pytest.raises(ValueError, match="not a registrable domain"):
            generate_synthetic_trace(SyntheticSpec(n_sites=1, trackers=(TrackerSpec(tracker),)))

    def test_embedding_probability_seeded(self, rules):
        spec = SyntheticSpec(n_sites=6, trackers=(TrackerSpec("tracker0.test", 0.5),),
                             seed=11)
        trace_a = generate_synthetic_trace(spec)
        trace_b = generate_synthetic_trace(spec)
        assert support.trace_text(trace_a) == support.trace_text(trace_b)
        frames = [e for e in trace_a.events
                  if isinstance(e, FrameLoad) and "tracker0" in e.frame_url]
        assert 0 < len(frames) < 6


class TestReplaySemantics:
    def test_permissive_single_value_per_profile(self, policy_outputs, rules):
        out = policy_outputs[PolicyKind.PERMISSIVE]
        for profile in ("prof0", "prof1"):
            for tracker_index in range(N_TRACKERS):
                site = f"tracker{tracker_index}.test"
                values = {f.cookie_value for f in out.flows
                          if f.profile == profile and f.third_party_site == site}
                assert len(values) == 1
                tops = {f.top_site for f in out.flows
                        if f.profile == profile and f.third_party_site == site}
                assert len(tops) == N_SITES

    def test_page_length_fresh_value_per_load(self, policy_outputs):
        out = policy_outputs[PolicyKind.PAGE_LENGTH]
        for profile in ("prof0", "prof1"):
            values = {f.cookie_value for f in out.flows
                      if f.profile == profile and f.third_party_site == "tracker0.test"}
            assert len(values) == N_SITES * N_ITERS  # one per embedding page load

    def test_blocking_has_no_third_party_flows(self, policy_outputs):
        assert policy_outputs[PolicyKind.BLOCKING].flows == []

    def test_first_party_frames_identical_across_policies(self, policy_outputs):
        reference = None
        for out in policy_outputs.values():
            first_party = {
                key: frozenset(record.edge_set)
                for key, record in out.frames.items()
                if record.party == "first"
            }
            assert first_party, "first-party frames must be present"
            if reference is None:
                reference = first_party
            else:
                assert first_party == reference

    def test_replay_is_deterministic(self, rules):
        trace = generate_synthetic_trace(make_spec(n_sites=3))
        out_a = replay(trace.events, PolicyKind.PAGE_LENGTH, rules)
        out_b = replay(trace.events, PolicyKind.PAGE_LENGTH, rules)
        assert out_a.flows == out_b.flows
        assert {k: frozenset(v.edge_set) for k, v in out_a.frames.items()} == \
               {k: frozenset(v.edge_set) for k, v in out_b.frames.items()}

    def test_frame_count_covers_profiles_and_iters(self, policy_outputs):
        out = policy_outputs[PolicyKind.PERMISSIVE]
        tracker_frames = [k for k, v in out.frames.items() if v.party == "third"]
        assert len(tracker_frames) == N_SITES * N_TRACKERS * N_PROFILES * N_ITERS

    def test_ad_flag_from_filter_list(self, rules):
        ads = parse_rules("||tracker0.test^")
        trace = generate_synthetic_trace(make_spec(n_sites=2))
        out = replay(trace.events, PolicyKind.PERMISSIVE, rules, ads)
        flagged = {key[1] for key, record in out.frames.items() if record.is_ad}
        assert flagged == {"https://tracker0.test/widget.html"}

    def test_ad_flag_override_in_trace(self, rules):
        events = [
            VisitStart("p0", 1, "t", "https://a.com/", 1),
            FrameLoad("t", "f1", "https://t.net/w", is_ad=True),
        ]
        out = replay(events, PolicyKind.PERMISSIVE, rules)
        assert out.frames[("https://a.com/", "https://t.net/w", "p0", 1)].is_ad


class TestReplayErrors:
    def test_unknown_frame_names_event_index(self, rules):
        events = [
            VisitStart("p0", 1, "t", "https://a.com/", 1),
            ScriptStorage("t", "f9", "local", "get", "k"),
        ]
        with pytest.raises(ReplayError, match="event 1"):
            replay(events, PolicyKind.PERMISSIVE, rules)

    def test_event_without_visit(self, rules):
        with pytest.raises(ReplayError, match="event 0"):
            replay([FrameLoad("t", "f1", "https://t.net/w")], PolicyKind.PERMISSIVE, rules)

    def test_visit_seq_must_increase(self, rules):
        events = [
            VisitStart("p0", 1, "t", "https://a.com/", 2),
            VisitStart("p0", 1, "t", "https://b.com/", 2),
        ]
        with pytest.raises(ReplayError, match="not increasing"):
            replay(events, PolicyKind.PERMISSIVE, rules)

    def test_http_request_with_unknown_frame(self, rules):
        events = [
            VisitStart("p0", 1, "t", "https://a.com/", 1),
            HttpRequest("t", "f1", "https://t.net/x"),
        ]
        with pytest.raises(ReplayError, match="unknown frame"):
            replay(events, PolicyKind.PERMISSIVE, rules)


_VISIT = VisitStart("p0", 1, "t", "https://a.com/", 1)
_FRAME = FrameLoad("t", "f1", "https://t.net/w")
_EDGE = _edge_string(NodeType.SCRIPT.value, "s", "reads", NodeType.COOKIE_JAR.value, "t.net")
_TRACKER = "https://t.net/w"


@pytest.mark.parametrize("events,message", [
    pytest.param([VisitStart("p0", 1, "t", "not-a-url", 1)],
                 "event 0: URL has no host: 'not-a-url'", id="hostless-page"),
    pytest.param([_VISIT, FrameLoad("t", "f1", "https:///w")],
                 "event 1: URL has no host: 'https:///w'", id="hostless-frame"),
    pytest.param([_VISIT, _FRAME, HttpRequest("t", "f1", "not-a-url")],
                 "event 2: URL has no host: 'not-a-url'", id="hostless-destination"),
    *[pytest.param([_VISIT, _FRAME, event], "event 2: tab 'u' has no active visit",
                   id=f"unknown-tab-{type(event).__name__}")
      for event in (FrameLoad("u", "f1", "https://t.net/w"), HttpRequest("u", "f1", "https://t.net/"),
                    ScriptStorage("u", "f1", "local", "get", "k"), BehaviorEdge("u", "f1", _EDGE),
                    VisitEnd("u"))],
    *[pytest.param([_VISIT, _FRAME, event], "event 2: unknown frame 'f9'",
                   id=f"unknown-frame-{type(event).__name__}")
      for event in (HttpRequest("t", "f9", "https://t.net/"),
                    ScriptStorage("t", "f9", "local", "get", "k"), BehaviorEdge("t", "f9", _EDGE))],
    pytest.param([_VISIT, _FRAME, ("t", "f1")], "event 2: not a trace event: ('t', 'f1')",
                 id="non-event"),
    # replay takes an event by its exact class, so a subclass's fields are never read
    *[pytest.param([_VISIT, _FRAME, event], f"event 2: not a trace event: {event!r}",
                   id=f"subclass-of-{type(event).__name__}")
      for event in (support.subclass_event(BehaviorEdge, "t", "f1", _EDGE),
                    support.subclass_event(ScriptStorage, "t", "f1", "cookie", "set", "k", "v"),
                    support.subclass_event(HttpRequest, "t", "f1", "https://t.net/"),
                    support.subclass_event(FrameLoad, "t", "f2", "https://t.net/w"),
                    support.subclass_event(VisitStart, "p0", 1, "t", "https://b.com/", 2),
                    support.subclass_event(VisitEnd, "t"))],
    # in memory, a ScriptStorage may hold what parse_trace would refuse
    pytest.param([_VISIT, _FRAME, ScriptStorage("t", "f1", "webSQL", "get", "k")],
                 "event 2: unknown storage api 'webSQL'", id="unknown-storage-api"),
    pytest.param([_VISIT, _FRAME, ScriptStorage("t", "f1", "cookie", "peek", "k")],
                 "event 2: unknown storage op 'peek'", id="unknown-storage-op"),
])
@pytest.mark.parametrize("policy", list(PolicyKind))
def test_replay_error_names_event_index(events, message, policy, rules):
    with pytest.raises(ReplayError, match="^" + re.escape(message) + "$"):
        replay(events, policy, rules)


def test_origin_keyed_frame_with_bad_port_fails_at_its_load(rules):
    # A frame's partition is resolved when it loads, so a third-party frame
    # whose origin cannot be formed is rejected at its FrameLoad.
    events = [_VISIT, FrameLoad("t", "f1", "https://t.net:99999/w")]
    assert replay(events, PolicyKind.PERMISSIVE, rules).frames
    with pytest.raises(ReplayError, match="^event 1: Port out of range"):
        replay(events, PolicyKind.PERMISSIVE, rules, origin_keyed=True)
    # A first party is keyed by its site, so its origin is never formed.
    first_party = [_VISIT, FrameLoad("t", "f1", "https://cdn.a.com:99999/w")]
    assert replay(first_party, PolicyKind.PERMISSIVE, rules, origin_keyed=True).frames


@pytest.mark.parametrize("origin_keyed, sent", [(False, 2), (True, 1)])
def test_ipv6_origins_key_their_own_jars(origin_keyed, sent, rules):
    # The uid that https://[::1]:8080 sets reaches its site, the host ::1, on
    # any port (here 8080 and 9090); under origin keying, only its own
    # origin. The host ::1:8080 is another site and another origin, though
    # without its brackets it would read like the first one's origin.
    urls = ["https://[::1]:8080/x", "https://[::1:8080]/", "https://[::1]:9090/"]
    events = [_VISIT, FrameLoad("t", "f1", "https://[::1]:8080/w"),
              HttpRequest("t", "f1", "https://[::1]:8080/", ("uid=1",)),
              *(HttpRequest("t", "f1", url) for url in urls)]
    flows = replay(events, PolicyKind.PERMISSIVE, rules, origin_keyed=origin_keyed).flows
    assert [flow.third_party_site for flow in flows] == ["::1"] * sent


class TestPageLoadLifetime:
    """A page load's page-length jars die with it, when its visit ends or its
    tab navigates; other page loads' jars and the profile's persistent jars
    live on. Seen through the flows of frame f's requests to t.net, whose
    script stores ``u``."""

    @staticmethod
    def load(tab: str, seq: int) -> list:
        return [VisitStart("p0", 1, tab, "https://a.com/", seq), FrameLoad(tab, "f", _TRACKER)]

    @staticmethod
    def store(tab: str, value: str) -> ScriptStorage:
        return ScriptStorage(tab, "f", "cookie", "set", "u", value)

    @staticmethod
    def send(tab: str) -> HttpRequest:
        return HttpRequest(tab, "f", _TRACKER)

    def sent(self, events, policy, rules) -> list[tuple[int, str]]:
        return [(f.visit_seq, f.cookie_value) for f in replay(events, policy, rules).flows]

    @pytest.mark.parametrize("end", [[VisitEnd("t1")], []], ids=["visit-end", "in-tab-reload"])
    @pytest.mark.parametrize("policy", [PolicyKind.PERMISSIVE, PolicyKind.SITE_KEYED,
                                        PolicyKind.PAGE_LENGTH])
    def test_page_length_cookie_is_gone_after_its_page_load(self, end, policy, rules):
        events = [*self.load("t1", 1), self.store("t1", "x"), self.send("t1"), *end,
                  *self.load("t1", 2), self.send("t1")]
        expected = [(1, "x")] if policy is PolicyKind.PAGE_LENGTH else [(1, "x"), (2, "x")]
        assert self.sent(events, policy, rules) == expected

    @pytest.mark.parametrize("end", [VisitEnd("t1"),
                                     VisitStart("p0", 1, "t1", "https://b.com/", 3)],
                             ids=["visit-end", "in-tab-navigation"])
    def test_concurrent_tab_keeps_its_own(self, end, rules):
        events = [*self.load("t1", 1), self.store("t1", "x"), *self.load("t2", 2),
                  self.store("t2", "y"), end, self.send("t2")]
        assert self.sent(events, PolicyKind.PAGE_LENGTH, rules) == [(2, "y")]

    @pytest.mark.parametrize("policy", list(PolicyKind))
    def test_persistent_jars_survive(self, policy, rules):
        # The first party's jar outlives the page load under every policy;
        # a condition on its cookie sees it in the next load (crawl_iter 2).
        def load(crawl_iter, seq, *events):
            return [VisitStart("p0", crawl_iter, "t1", "https://a.com/", seq),
                    FrameLoad("t1", "f", "https://a.com/w"), *events, VisitEnd("t1")]
        events = [*load(1, 1, ScriptStorage("t1", "f", "cookie", "set", "fp", "1")),
                  *load(2, 2, BehaviorEdge("t1", "f", _EDGE, ("fp", True)))]
        frames = replay(events, policy, rules).frames
        assert frames[("https://a.com/", "https://a.com/w", "p0", 2)].edge_set == {_EDGE}


def _small_trace():
    spec = SyntheticSpec(n_sites=3, trackers=tuple(TrackerSpec(site)
                                                   for site in default_tracker_sites(2)),
                         pages_per_site=2, crawl_iters=2, profiles=2, seed=5)
    return generate_synthetic_trace(spec).events


def _spy_site_of(monkeypatch) -> list[str]:
    """The URLs replay hands ``policy.site_of``, in call order."""
    looked_up = []

    def counted(url, rules):
        looked_up.append(url)
        return site_of(url, rules)

    monkeypatch.setattr(simulator, "site_of", counted)
    return looked_up


def _first_url_of_each_host(urls) -> dict[str, str]:
    first: dict[str, str] = {}
    for url in urls:
        first.setdefault(urlsplit(url).hostname.lower(), url)
    return first


@pytest.mark.parametrize("origin_keyed", [False, True])
@pytest.mark.parametrize("policy", list(PolicyKind))
def test_replay_looks_each_host_up_once(policy, origin_keyed, rules, monkeypatch):
    """One ``site_of`` call per distinct host of the page, frame and
    destination URLs, on the first URL that names it."""
    events = _small_trace()
    urls = [getattr(e, name) for e in events for name in ("page_url", "frame_url", "dest_url")
            if hasattr(e, name)]
    first = _first_url_of_each_host(urls)
    looked_up = _spy_site_of(monkeypatch)
    replay(events, policy, rules, origin_keyed=origin_keyed)
    assert looked_up == list(first.values())
    assert len(first) < len(set(urls))


@pytest.mark.parametrize("policy", list(PolicyKind))
def test_replay_looks_a_host_up_once_across_many_urls(policy, rules, monkeypatch):
    # 201 distinct URLs name 4 hosts, two of them written in two cases.
    events = [_VISIT]
    for i in range(40):
        events += [FrameLoad("t", f"f{i}", f"https://T.net/w{i}"),
                   *(HttpRequest("t", f"f{i}", url, ("uid=1",))
                     for url in (f"https://t.net/r{i}", f"https://cdn.a.com/{i}",
                                 f"https://CDN.a.com/x{i}", f"https://x.t.net/{i}"))]
    looked_up = _spy_site_of(monkeypatch)
    replay(events, policy, rules)
    assert looked_up == ["https://a.com/", "https://T.net/w0", "https://cdn.a.com/0",
                         "https://x.t.net/0"]


@pytest.mark.parametrize("url", ["https:///a", "not-a-url"])
def test_hostless_url_after_its_peers_still_names_its_event(url, rules, monkeypatch):
    looked_up = _spy_site_of(monkeypatch)
    events = [_VISIT, _FRAME, HttpRequest("t", "f1", "https://t.net/a"),
              HttpRequest("t", "f1", url)]
    with pytest.raises(ReplayError) as error:
        replay(events, PolicyKind.PERMISSIVE, rules)
    assert str(error.value) == f"event 3: URL has no host: {url!r}"
    assert looked_up == ["https://a.com/", "https://t.net/w", url]


@pytest.mark.parametrize("policy", [PolicyKind.PERMISSIVE, PolicyKind.SITE_KEYED])
def test_replay_splits_each_url_once_past_4096_urls(policy, rules, monkeypatch):
    """``cookies.host_and_path`` splits each distinct URL once, however many
    there are: here 4,200, each used again in a second crawl iteration after
    all the others, as a trace of 1,000 sites uses its 13,210."""
    events = []
    for crawl_iter in range(2):
        for i in range(1400):
            events += [
                VisitStart("p", crawl_iter, "t", f"https://site{i}.split.test/",
                           2000 * crawl_iter + i),
                FrameLoad("t", "f", f"https://tracker.test/w{i}"),
                HttpRequest("t", "f", f"https://tracker.test/r?page={i}", ("uid=1",)),
                VisitEnd("t"),
            ]
    urls = {e.page_url for e in events if type(e) is VisitStart} | {
        e.frame_url for e in events if type(e) is FrameLoad} | {
        e.dest_url for e in events if type(e) is HttpRequest}
    split = []

    def counted(url):
        split.append(url)
        return urlsplit(url)

    cookies.host_and_path.cache_clear()
    monkeypatch.setattr(cookies, "urlsplit", counted)
    replay(events, policy, rules)
    assert len(split) == len(urls) == 4200
    assert set(split) == urls


def test_replay_keeps_no_rule_set_alive():
    # builtin_rules() is memoized on purpose, so the rules here are a fresh
    # parse that nothing else holds, with one extra rule so that they equal
    # no rule set another test has used.
    rules = parse_psl(BUILTIN_PSL + "unused.example\n")
    alive = weakref.ref(rules.normal_rules)
    for policy in PolicyKind:
        replay(_small_trace(), policy, rules, origin_keyed=True)
    del rules
    gc.collect()
    assert alive() is None


def test_set_cookie_with_public_suffix_domain_not_stored(rules):
    def flows(domain):
        events = [
            VisitStart("p0", 1, "t", "https://a.com/", 1),
            FrameLoad("t", "f1", "https://w.x.co.uk/f"),
            HttpRequest("t", "f1", "https://w.x.co.uk/s", (f"uid=v; Domain={domain}",)),
            HttpRequest("t", "f1", "https://w.x.co.uk/r"),
        ]
        return replay(events, PolicyKind.PERMISSIVE, rules).flows
    assert [f.cookie_name for f in flows("x.co.uk")] == ["uid"]
    assert flows("co.uk") == []


_STORAGE_EDGE = _edge_string(NodeType.SCRIPT.value, "s", "writes", NodeType.COOKIE_JAR.value,
                             "t.net")


def _condition_outcome(frame_url, set_cookie_url, header, policy, rules):
    """Whether each of an edge on ``uid`` present and one on ``uid`` absent is
    recorded, in a frame at ``frame_url``, after a request of that frame to
    ``set_cookie_url`` whose response sets ``header``."""
    events = [_VISIT, FrameLoad("t", "f1", frame_url),
              HttpRequest("t", "f1", set_cookie_url, (header,)),
              BehaviorEdge("t", "f1", _EDGE, ("uid", True)),
              BehaviorEdge("t", "f1", _STORAGE_EDGE, ("uid", False))]
    (record,) = replay(events, policy, rules).frames.values()
    return _EDGE in record.edge_set, _STORAGE_EDGE in record.edge_set


class TestConditions:
    """``when`` asks whether the frame's jar holds a cookie of that name that
    the frame URL can read."""

    @pytest.mark.parametrize("policy", list(PolicyKind))
    def test_readable_cookie_is_present(self, policy, rules):
        expected = (False, True) if policy is PolicyKind.BLOCKING else (True, False)
        assert _condition_outcome("https://t.net/w", "https://t.net/s", "uid=1; Path=/",
                                  policy, rules) == expected

    @pytest.mark.parametrize("frame_url,set_cookie_url,header", [
        # host-only on t.net, read from a subdomain in the same partition
        ("https://x.t.net/w", "https://t.net/s", "uid=1"),
        # a path the frame URL does not path-match
        ("https://t.net/w", "https://t.net/x/s", "uid=1; Path=/x"),
        # another name
        ("https://t.net/w", "https://t.net/s", "sid=1; Path=/"),
        # expired before the edges
        ("https://t.net/w", "https://t.net/s", "uid=1; Max-Age=0"),
    ])
    def test_unreadable_cookie_is_absent(self, frame_url, set_cookie_url, header, rules):
        assert _condition_outcome(frame_url, set_cookie_url, header, PolicyKind.PERMISSIVE,
                                  rules) == (False, True)

    def test_blocked_frame_finds_no_cookie(self, rules):
        # The first-party frame's jar holds uid; the blocked frame has no jar.
        events = [_VISIT, FrameLoad("t", "f0", "https://a.com/"), _FRAME,
                  HttpRequest("t", "f0", "https://a.com/s", ("uid=1",)),
                  BehaviorEdge("t", "f0", _EDGE, ("uid", True)),
                  BehaviorEdge("t", "f1", _EDGE, ("uid", True)),
                  BehaviorEdge("t", "f1", _STORAGE_EDGE, ("uid", False))]
        frames = replay(events, PolicyKind.BLOCKING, rules).frames
        assert frames[("https://a.com/", "https://a.com/", "p0", 1)].edge_set == {_EDGE}
        assert frames[("https://a.com/", "https://t.net/w", "p0", 1)].edge_set == {_STORAGE_EDGE}

    def test_failed_request_condition_sends_cookies_but_sets_none(self, rules):
        events = [_VISIT, _FRAME,
                  HttpRequest("t", "f1", "https://t.net/s", ("uid=1; Path=/",), ("uid", False)),
                  # uid is present now: this response is ignored, its cookies sent
                  HttpRequest("t", "f1", "https://t.net/s", ("uid=2; Path=/", "sid=3; Path=/"),
                              ("uid", False)),
                  HttpRequest("t", "f1", "https://t.net/s", ("sid=4; Path=/",), ("uid", True)),
                  HttpRequest("t", "f1", "https://t.net/s")]
        flows = replay(events, PolicyKind.PERMISSIVE, rules).flows
        assert [(f.visit_seq, f.cookie_name, f.cookie_value) for f in flows] == [
            (1, "uid", "1"), (1, "uid", "1"), (1, "uid", "1"), (1, "sid", "4")]

    def test_condition_reads_the_frame_jar_not_the_destination_jar(self, rules):
        # The first-party frame holds no uid; its request to t.net finds uid
        # in t.net's jar, and still its condition holds and the set applies.
        events = [_VISIT, FrameLoad("t", "f0", "https://a.com/"), _FRAME,
                  HttpRequest("t", "f1", "https://t.net/s", ("uid=1; Path=/",)),
                  HttpRequest("t", "f0", "https://t.net/s", ("uid=2; Path=/",), ("uid", False)),
                  HttpRequest("t", "f1", "https://t.net/s")]
        flows = replay(events, PolicyKind.PERMISSIVE, rules).flows
        assert [f.cookie_value for f in flows] == ["1", "2"]

    @pytest.mark.parametrize("policy", list(PolicyKind))
    def test_trace_without_conditions_replays_as_before(self, policy, rules):
        # The same events with conditions that always hold give the same outputs.
        plain = [_VISIT, _FRAME, HttpRequest("t", "f1", "https://t.net/s", ("uid=1",)),
                 BehaviorEdge("t", "f1", _EDGE), HttpRequest("t", "f1", "https://t.net/s")]
        always = [*plain[:2], HttpRequest("t", "f1", "https://t.net/s", ("uid=1",), ("zz", False)),
                  BehaviorEdge("t", "f1", _EDGE, ("zz", False)), plain[4]]
        out, again = replay(plain, policy, rules), replay(always, policy, rules)
        assert (out.flows, out.frames) == (again.flows, again.frames)


class TestOutputFiles:
    def test_flows_round_trip(self, tmp_path, policy_outputs):
        flows = policy_outputs[PolicyKind.PERMISSIVE].flows
        path = tmp_path / "flows.csv"
        write_flows_csv(flows, path)
        assert support.read_flows(path) == flows

    @settings(max_examples=200)
    @given(FLOWS)
    def test_any_flows_round_trip(self, tmp_path_factory, flows):
        path = tmp_path_factory.getbasetemp() / "drawn-round-trip.csv"
        write_flows_csv(flows, path)
        assert support.read_flows(path) == flows

    @settings(max_examples=100)
    @given(FLOWS.map(lambda flows: [f for f in flows if "\r" not in "".join(map(str, f))]))
    def test_flows_without_a_carriage_return_keep_their_bytes(self, tmp_path_factory, flows):
        base = tmp_path_factory.getbasetemp()
        write_flows_csv(flows, base / "drawn-flows.csv")
        with open(base / "drawn-plain.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([FLOW_FIELDS, *flows])
        assert (base / "drawn-flows.csv").read_bytes() == (base / "drawn-plain.csv").read_bytes()

    def test_frames_round_trip(self, tmp_path, policy_outputs):
        frames = policy_outputs[PolicyKind.PERMISSIVE].frames
        path = tmp_path / "frames.jsonl"
        write_frames_jsonl(frames, path)
        again = support.read_frames(path)
        assert set(again) == set(frames)
        for key, record in frames.items():
            assert again[key].edge_set == record.edge_set
            assert again[key].party == record.party
            assert again[key].is_ad == record.is_ad

    @pytest.mark.parametrize("line,message", support.BAD_FRAME_LINES)
    def test_bad_frame_record_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "frames.jsonl"
        path.write_text("\n" + line + "\n")
        with pytest.raises(InputError, match=f"frames.jsonl: line 2: {message}"):
            support.read_frames(path)

    @pytest.mark.parametrize("row,message", support.BAD_FLOW_ROWS)
    def test_bad_flow_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "flows.csv"
        path.write_text(",".join(FLOW_FIELDS) + "\nprof0,1,1,a.com,t.net,id,v\n" + row + "\n")
        with pytest.raises(InputError, match=f"flows.csv: line 3: {message}"):
            support.read_flows(path)

    @pytest.mark.parametrize("cell", [" 1_0", "1_0", "+1", "1 ", "\u0661", "\u00b2", "--1", "-",
                                      ""])
    def test_integer_cells_take_only_ascii_digits(self, tmp_path, cell):
        for name, row in (("crawl_iter", f"prof0,{cell},1,a.com,t.net,id,v"),
                          ("visit_seq", f"prof0,1,{cell},a.com,t.net,id,v")):
            path = tmp_path / "flows.csv"
            path.write_text(",".join(FLOW_FIELDS) + "\n" + row + "\n", encoding="utf-8")
            with pytest.raises(InputError, match=f"flows.csv: line 2: field '{name}' must be "
                                                 "an integer"):
                support.read_flows(path)

    def test_negative_and_zero_padded_integers_are_read(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(",".join(FLOW_FIELDS) + "\nprof0,-1,007,a.com,t.net,id,v\n"
                        "prof0,-0,-12,a.com,t.net,id,v\n")
        flows = support.read_flows(path)
        assert [(f.crawl_iter, f.visit_seq) for f in flows] == [(-1, 7), (0, -12)]

    def test_repeated_frame_record_names_file_and_line_of_the_repeat(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        first = ('{"crawl_iter":1,"edges":[],"frame_url":"f","is_ad":false,"page_url":"p",'
                 '"party":"third","profile":"p"}')
        other = first.replace('"crawl_iter":1', '"crawl_iter":2')
        path.write_text(f"{first}\n{other}\n\n{first.replace('false', 'true')}\n")
        with pytest.raises(InputError, match=re.escape(
                "frames.jsonl: line 4: duplicate frame record ('p', 'f', 'p', 1)")):
            support.read_frames(path)

    @pytest.mark.parametrize("edge", [
        "foo", "[]", '["script","s","op","script"]', '["nope","s","op","script","t"]',
        # JSON arrays of the right values that are not spelled canonically
        '["script", "s", "op", "web_api", "w"]', '["script","s","op","web_api","w"] ',
        '["script","\\u0061","op","web_api","w"]', '["script","s","op","web_api","é"]',
        '["script","s","op","web_api","\\/"]',
        # the wrong number or kind of fields
        '["script","s","op","web_api",1]', '["script","s","op","web_api",null]',
        '["script","s","op","web_api"]', '["script","s","op","web_api","w","x"]',
        '{"0":"script"}', '"script"',
    ])
    @pytest.mark.parametrize("padding", ["", "  "])
    @pytest.mark.parametrize("form", [{}, {"sort_keys": True, "separators": (",", ":")}],
                             ids=["spaced", "writer"])
    def test_non_canonical_edge_names_file_line_and_edge(self, tmp_path, edge, padding, form):
        good = _edge_string(NodeType.SCRIPT.value, "s", "op", NodeType.WEB_API.value, "w")
        path = tmp_path / "frames.jsonl"
        record = {"page_url": "p", "frame_url": "f", "profile": "p", "party": "third",
                  "crawl_iter": 1, "is_ad": False, "edges": [good]}
        lines = [json.dumps(record, **form),
                 padding + json.dumps({**record, "crawl_iter": 2, "edges": [good, edge]},
                                      **form) + padding]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=re.escape(
                f"frames.jsonl: line 2: not a canonical edge: {edge!r}")):
            support.read_frames(path)

    @pytest.mark.parametrize("padding", ["", "  "])
    def test_first_non_canonical_edge_of_a_line_is_named(self, tmp_path, padding):
        path = tmp_path / "frames.jsonl"
        record = {"page_url": "p", "frame_url": "f", "profile": "p", "party": "third",
                  "crawl_iter": 1, "is_ad": False, "edges": ["zz", "aa"]}
        path.write_text(padding + json.dumps(record) + "\n")
        with pytest.raises(InputError, match=re.escape(
                "frames.jsonl: line 1: not a canonical edge: 'zz'")):
            support.read_frames(path)

    def test_bad_flow_header_rejected(self):
        with pytest.raises(ValueError, match="not a flow table"):
            read_flows_csv(io.StringIO("nope,nope\n1,2\n"))
