"""Shared builders and oracles used by both the unit and acceptance suites."""

from __future__ import annotations

import random
from fractions import Fraction

from storagelab.artifacts import _parse_input
from storagelab.flows import read_flows_csv
from storagelab.metrics import OptimizeInstance, jaccard
from storagelab.policy import PolicyKind
from storagelab.frames import read_frames_jsonl
from storagelab.simulator import replay
from storagelab.trace import (FrameLoad, HttpRequest, ScriptStorage, VisitEnd, VisitStart,
                              _trace_lines)
from storagelab.vocab import NodeType, _edge_string



def trace_text(trace) -> str:
    """The text of a trace file, as ``write_trace`` streams it."""
    return "".join(_trace_lines(trace))


def subclass_event(cls, *fields):
    """An event of a subclass of ``cls`` with the same fields."""
    subclass = type(f"Sub{cls.__name__}", (cls,),
                    {"__slots__": cls.__slots__, "_defaults": cls._defaults})
    return subclass(*fields)


def read_flows(path):
    """The flow table in the file at ``path``, read as the CLI reads an input:
    an error is an ``InputError`` naming the file."""
    return _parse_input(path, read_flows_csv, "")[0]


def read_frames(path):
    """The frames in the file at ``path``, read as the CLI reads an input."""
    return _parse_input(path, read_frames_jsonl, None)[0]


THIRD_PARTY = "https://t.net/w"
PAGE_A = "https://a.com/"
PAGE_B = "https://b.com/"


def scenario_same_page():
    """Two frames from the same third party on one page: the second frame's
    request carries the cookie the first stored."""
    return [
        VisitStart("p0", 1, "tab1", PAGE_A, 1),
        FrameLoad("tab1", "f1", THIRD_PARTY),
        FrameLoad("tab1", "f2", THIRD_PARTY),
        ScriptStorage("tab1", "f1", "cookie", "set", "u", "x"),
        HttpRequest("tab1", "f2", THIRD_PARTY),
        VisitEnd("tab1"),
    ]


def scenario_two_tabs():
    """The same page open in two tabs simultaneously; the second tab's frame's
    request carries the cookie the first tab's frame stored."""
    return [
        VisitStart("p0", 1, "tab1", PAGE_A, 1),
        FrameLoad("tab1", "f1", THIRD_PARTY),
        ScriptStorage("tab1", "f1", "cookie", "set", "u", "x"),
        VisitStart("p0", 1, "tab2", PAGE_A, 2),
        FrameLoad("tab2", "f1", THIRD_PARTY),
        HttpRequest("tab2", "f1", THIRD_PARTY),
        VisitEnd("tab1"),
        VisitEnd("tab2"),
    ]


def scenario_reload():
    """Page loaded then reloaded in the same tab (same URL); the frame's
    request after the reload carries the cookie it stored before."""
    return [
        VisitStart("p0", 1, "tab1", PAGE_A, 1),
        FrameLoad("tab1", "f1", THIRD_PARTY),
        ScriptStorage("tab1", "f1", "cookie", "set", "u", "x"),
        VisitStart("p0", 1, "tab1", PAGE_A, 2),
        FrameLoad("tab1", "f1", THIRD_PARTY),
        HttpRequest("tab1", "f1", THIRD_PARTY),
        VisitEnd("tab1"),
    ]


def scenario_cross_site():
    """The same third party embedded on two different first-party pages."""
    return [
        VisitStart("p0", 1, "tab1", PAGE_A, 1),
        FrameLoad("tab1", "f1", THIRD_PARTY),
        ScriptStorage("tab1", "f1", "cookie", "set", "u", "x"),
        VisitEnd("tab1"),
        VisitStart("p0", 1, "tab1", PAGE_B, 2),
        FrameLoad("tab1", "f1", THIRD_PARTY),
        HttpRequest("tab1", "f1", THIRD_PARTY),
        VisitEnd("tab1"),
    ]


SCENARIOS = {
    "same_page": scenario_same_page,
    "two_tabs": scenario_two_tabs,
    "reload": scenario_reload,
    "cross_site": scenario_cross_site,
}

# Visibility of the stored value per scenario x policy.
EXPECTED_VISIBILITY = {
    "same_page": {
        PolicyKind.PERMISSIVE: "x",
        PolicyKind.BLOCKING: None,
        PolicyKind.SITE_KEYED: "x",
        PolicyKind.PAGE_LENGTH: "x",
    },
    "two_tabs": {
        PolicyKind.PERMISSIVE: "x",
        PolicyKind.BLOCKING: None,
        PolicyKind.SITE_KEYED: "x",
        PolicyKind.PAGE_LENGTH: None,
    },
    "reload": {
        PolicyKind.PERMISSIVE: "x",
        PolicyKind.BLOCKING: None,
        PolicyKind.SITE_KEYED: "x",
        PolicyKind.PAGE_LENGTH: None,
    },
    "cross_site": {
        PolicyKind.PERMISSIVE: "x",
        PolicyKind.BLOCKING: None,
        PolicyKind.SITE_KEYED: None,
        PolicyKind.PAGE_LENGTH: None,
    },
}


def probe_visibility(events, policy, rules):
    """What the scenario's final third-party request carries: the value of
    its ``u`` cookie flow, or None."""
    out = replay(events, policy, rules)
    sent = [f.cookie_value for f in out.flows if f.cookie_name == "u"]
    return sent[-1] if sent else None


def visibility_matrix(rules):
    return {
        name: {policy: probe_visibility(build(), policy, rules) for policy in PolicyKind}
        for name, build in SCENARIOS.items()
    }


# ---------------------------------------------------------------------------
# Jaccard brute-force oracle


def brute_force_jaccard(a, b):
    inter = 0
    union_items = []
    for x in a:
        if x in b:
            inter += 1
        union_items.append(x)
    for x in b:
        if x not in a:
            union_items.append(x)
    if not union_items:
        return None
    return Fraction(inter, len(union_items))


def random_set_pairs(seed: int, count: int, universe_size: int = 64):
    rng = random.Random(seed)
    universe = [f"e{i}" for i in range(universe_size)]
    for _ in range(count):
        a = set(rng.sample(universe, rng.randint(0, universe_size)))
        b = set(rng.sample(universe, rng.randint(0, universe_size)))
        yield a, b


def run_jaccard_oracle(seed: int = 1234, count: int = 1000) -> int:
    checked = 0
    for a, b in random_set_pairs(seed, count):
        assert jaccard(a, b) == brute_force_jaccard(a, b)
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# Node-type optimization sample where only storage-linked edges differ


def _edge(st, sk, et, tt, tk) -> str:
    return _edge_string(st.value, sk, et, tt.value, tk)


def build_storage_separation_sample() -> list[OptimizeInstance]:
    script = "https://w.net/w.js"
    fixed = frozenset({
        _edge(NodeType.SCRIPT, script, "spawns", NodeType.SCRIPT, script + "#worker"),
        _edge(NodeType.SCRIPT, script, "sends_request", NodeType.HTTP_RESOURCE, "https://w.net/r"),
        _edge(NodeType.DOM_ROOT, "https://w.net/f", "loads_script", NodeType.SCRIPT, script),
        _edge(NodeType.SCRIPT, script, "inserts", NodeType.HTML_ELEMENT, "div#x"),
    })
    storage_edges = [
        _edge(NodeType.SCRIPT, script, "reads", NodeType.COOKIE_JAR, "w.net"),
        _edge(NodeType.SCRIPT, script, "writes", NodeType.LOCAL_STORAGE, "w.net"),
        _edge(NodeType.SCRIPT, script, "writes", NodeType.SESSION_STORAGE, "w.net"),
    ]
    sample = []
    for storage_edge in storage_edges:
        with_storage = frozenset(fixed | {storage_edge})
        sample.append(OptimizeInstance(with_storage, with_storage, fixed))
    return sample


# Malformed simulate output rows, each with the message its reader gives (after
# the file and line): frames.jsonl lines and flows.csv rows.
BAD_FRAME_LINES = [
    ("not json", "invalid JSON"),
    ('{"page_url":"p","frame_url":"f","profile":"p","party":"third","crawl_iter":1,'
     '"is_ad":false,"edges":[]} x', "invalid JSON"),
    ("[]", "record must be a JSON object"),
    ('{"frame_url":"f","profile":"p","party":"third","crawl_iter":1,"is_ad":false,'
     '"edges":[]}', "missing field 'page_url'"),
    ('{"page_url":"p","frame_url":"f","profile":"p","party":"third","crawl_iter":"1",'
     '"is_ad":false,"edges":[]}', "field 'crawl_iter' must be an integer"),
    ('{"page_url":"p","frame_url":"f","profile":"p","party":"third","crawl_iter":1,'
     '"is_ad":0,"edges":[]}', "field 'is_ad' must be a boolean"),
    ('{"page_url":"p","frame_url":"f","profile":"p","party":"third","crawl_iter":1,'
     '"is_ad":false,"edges":[1]}', "field 'edges' must hold strings"),
    ('{"page_url":"p","frame_url":"f","profile":"p","party":"fourth","crawl_iter":1,'
     '"is_ad":false,"edges":[]}', "unknown party 'fourth'"),
    ('{"page_url":"p","frame_url":"f","profile":"p","party":"third","crawl_iter":true,'
     '"is_ad":false,"edges":[]}', "field 'crawl_iter' must be an integer"),
    ('{"page_url":1,"frame_url":"f","profile":"p","party":"third","crawl_iter":1,'
     '"is_ad":false,"edges":[]}', "field 'page_url' must be a string"),
    ('{"page_url":"p","frame_url":true,"profile":"p","party":"third","crawl_iter":1,'
     '"is_ad":false,"edges":[]}', "field 'frame_url' must be a string"),
    ('{"page_url":"p","frame_url":"f","profile":null,"party":"third","crawl_iter":1,'
     '"is_ad":false,"edges":[]}', "field 'profile' must be a string"),
    ('{"page_url":"p","frame_url":"f","profile":"p","party":["third"],"crawl_iter":1,'
     '"is_ad":false,"edges":[]}', "field 'party' must be a string"),
    ('{"page_url":"p","frame_url":"f","profile":"p","party":"third","crawl_iter":1,'
     '"is_ad":false,"edges":{}}', "field 'edges' must be an array"),
    ('{"page_url":"p","frame_url":"f","profile":"p","party":"third","crawl_iter":1,'
     '"is_ad":false,"edges":"ab"}', "field 'edges' must be an array"),
    # The writer's form, with one thing wrong.
    ('{"crawl_iter":1' + "0" * 4300 + ',"edges":[],"frame_url":"f","is_ad":false,'
     '"page_url":"p","party":"third","profile":"p"}', "invalid JSON"),
    ('{"crawl_iter":01,"edges":[],"frame_url":"f","is_ad":false,"page_url":"p",'
     '"party":"third","profile":"p"}', "invalid JSON"),
    ('{"crawl_iter":1,"edges":[1],"frame_url":"f","is_ad":false,"page_url":"p",'
     '"party":"third","profile":"p"}', "field 'edges' must hold strings"),
    ('{"crawl_iter":1,"edges":["foo"],"frame_url":"f","is_ad":false,"page_url":"p",'
     '"party":"third","profile":"p"}', "not a canonical edge: 'foo'"),
    ('{"crawl_iter":1,"edges":[],"frame_url":"f","is_ad":0,"page_url":"p",'
     '"party":"third","profile":"p"}', "field 'is_ad' must be a boolean"),
    ('{"crawl_iter":1,"edges":[],"frame_url":"f","is_ad":false,"page_url":"p",'
     '"party":"fourth","profile":"p"}', "unknown party 'fourth'"),
    ('{"crawl_iter":1,"edges":[],"frame_url":"f","is_ad":false,"page_url":"p",'
     '"party":"third"}', "missing field 'profile'"),
    ('{"crawl_iter":1,"edges":[],"frame_url":"f","is_ad":false,"page_url":"p",'
     '"party":"third","profile":"p","crawl_iter":"1"}', "field 'crawl_iter' must be an integer"),
    ('{"crawl_iter":1,"edges":[],"frame_url":"f","is_ad":false,"page_url":"p",'
     '"party":"third","profile":"p","edges":{}}', "field 'edges' must be an array"),
    ('{"crawl_iter":1,"edges":[],"frame_url":"f","is_ad":false,"page_url":"p",'
     '"party":"third","profile":"p"}}', "invalid JSON"),
    # A control character JSON takes only escaped, raw in each string after the edges.
    *((f'{{"crawl_iter":1,"edges":[],"frame_url":"{frame_url}","is_ad":false,'
       f'"page_url":"{page_url}","party":"third","profile":"{profile}"}}', "invalid JSON")
      for frame_url, page_url, profile in (("f\x1f", "p", "p"), ("f", "\tp", "p"),
                                           ("f", "p", "p\x00"))),
]

BAD_FLOW_ROWS = [
    ("prof0,1", "missing field 'visit_seq'"),
    ("prof0,x,1,a.com,t.net,id,v", "field 'crawl_iter' must be an integer"),
    ("prof0,1,,a.com,t.net,id,v", "field 'visit_seq' must be an integer"),
    ("prof0,-x,1,a.com,t.net,id,v", "field 'crawl_iter' must be an integer"),
    ("prof0,1,1,a.com,t.net,id,v,EXTRA", "8 cells, header has 7"),
]
