"""Semantics every record class keeps, whatever it is built from: records of
different types never compare equal, even with equal fields, events and
the test oracle's partition keys refuse attribute assignment, and derived values are computed once: an edge string
per distinct trace line, a written line per distinct event object, a
substring regex per rule set, a decoded edge set per distinct edge list of a
frames file, a similarity score per distinct pair of edge sets, and the
optimizer's pair counts per distinct instance."""

import itertools
import json
import re

import pytest

from oracles import Blocked, Ephemeral, FirstParty, GlobalThirdParty, SiteKeyedThirdParty
from storagelab import filterlist, flows, frames, metrics, trace
from storagelab.filterlist import AdRuleSet, is_ad_url
from storagelab.frames import FrameRecord, read_frames_jsonl, write_frames_jsonl
from storagelab.record import Record
from storagelab.trace import (
    BehaviorEdge,
    FrameLoad,
    HttpRequest,
    ScriptStorage,
    VisitEnd,
    VisitStart,
    parse_trace,
)
from storagelab.vocab import ALL_NODE_TYPES

# Each class with its number of fields; every field gets the same value, so
# two classes of the same arity hold equal field values. The partition keys
# are the oracle's: replay's own keys are tagged tuples.
PARTITION_KEYS = {FirstParty: 1, GlobalThirdParty: 1, SiteKeyedThirdParty: 2, Ephemeral: 2,
                  Blocked: 0}
EVENTS = {VisitStart: 5, FrameLoad: 4, HttpRequest: 4, ScriptStorage: 6, BehaviorEdge: 3,
          VisitEnd: 1}


def build(cls, n_fields: int):
    return cls(*["v"] * n_fields)


EDGE = trace._edge_string("script", "https://t.net/w.js", "reads", "cookie_jar", "t.net")


def test_two_event_classes_with_equal_fields_never_compare_equal():
    # Record's own example: two NamedTuples with these fields would compare equal.
    frame, edge = FrameLoad("t", "f", "x"), BehaviorEdge("t", "f", "x")
    assert [getattr(frame, f) for f in frame._fields] == [getattr(edge, f) for f in edge._fields]
    assert frame != edge and len({frame: 1, edge: 2}) == 2


@pytest.mark.parametrize("kinds", [PARTITION_KEYS, EVENTS], ids=["partition-keys", "events"])
def test_records_of_different_types_never_compare_equal(kinds):
    for (a_cls, a_n), (b_cls, b_n) in itertools.combinations(kinds.items(), 2):
        a, b = build(a_cls, a_n), build(b_cls, b_n)
        assert a != b and b != a
        assert not a == b and not b == a
        assert len({a: 1, b: 2}) == 2


@pytest.mark.parametrize("cls,n_fields", [*PARTITION_KEYS.items(), *EVENTS.items()])
def test_records_of_one_type_compare_and_hash_by_value(cls, n_fields):
    a, b = build(cls, n_fields), build(cls, n_fields)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a: 1, b: 2}) == 1


@pytest.mark.parametrize("record", [
    VisitStart("p", 1, "t", "https://a.com/", 1),
    FrameLoad("t", "f", "https://t.net/w"),
    HttpRequest("t", "f", "https://t.net/s", ("uid=1",)),
    ScriptStorage("t", "f", "local", "set", "k", "v"),
    BehaviorEdge("t", "f", EDGE),
    VisitEnd("t"),
    FirstParty("a.com"),
    GlobalThirdParty("t.net"),
    SiteKeyedThirdParty("a.com", "t.net"),
    Ephemeral(1, "t.net"),
    Blocked(),
], ids=lambda record: type(record).__name__)
def test_records_refuse_attribute_assignment(record):
    for name in ("tab", "site", "source_key", "third_party_site", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, "x")
    with pytest.raises(AttributeError):
        del record.not_a_field


@pytest.fixture
def edge_strings_built(monkeypatch):
    calls = []
    real = trace._edge_string

    def counting(*fields):
        calls.append(fields)
        return real(*fields)

    monkeypatch.setattr(trace, "_edge_string", counting)
    return calls


def test_canonical_is_encoded_once_per_edge(edge_strings_built):
    line = json.dumps(trace.event_to_record(BehaviorEdge("t", "f", EDGE)))
    other = json.dumps(trace.event_to_record(BehaviorEdge("t", "g", EDGE)))
    events = parse_trace([line, other, line]).events
    assert len(edge_strings_built) == 2  # once per distinct line
    assert [e.edge for e in events] == [EDGE] * 3
    assert events[0].edge is events[2].edge


@pytest.fixture
def decoded(monkeypatch):
    """The text from where each ``flows._decode`` call starts, the one JSON
    decode of every reader."""
    texts = []
    real = flows._decode

    def counting(text, start=0):
        texts.append(text[start:])
        return real(text, start)

    monkeypatch.setattr(flows, "_decode", counting)
    return texts


def test_each_distinct_trace_line_is_decoded_once_in_one_pass(decoded):
    events = [VisitStart("p", 1, "t", "https://a.com/", 1), FrameLoad("t", "f", "https://t.net/w"),
              HttpRequest("t", "f", "https://t.net/s", ("u=1",), ("u", False)),
              ScriptStorage("t", "f", "cookie", "get", "u"),
              BehaviorEdge("t", "f", EDGE, ("u", True)), VisitEnd("t")] * 2
    lines = trace.dump_trace(trace.Trace(None, events)).splitlines()
    assert parse_trace(lines).events == events
    assert decoded == lines[:6]


WRITER_FRAME = ('{"crawl_iter":1,"edges":[],"frame_url":"f","is_ad":false,"page_url":"p",'
                '"party":"third","profile":"p"}')
BAD_JSON_LINES = [
    (parse_trace, [], line) for line in [
        '{"type":"visit_start","profile":1,"crawl_iter":1,"tab":"t"}', '{"type":"visit_end"} x',
        '{"type":"behavior_edge","tab":"t","frame_id":"f","edge":{"source_type":"x"}}',
        '{"type":"meta","spec":5}', '{"type":"visit_end","tab":"\\ud800"}']
] + [
    (read_frames_jsonl, [], line) for line in [
        WRITER_FRAME.replace("[]", '["nope"]'), WRITER_FRAME.replace("[]", "[1]"),
        WRITER_FRAME.replace("[]", '["a",]'), WRITER_FRAME.replace("[]", "[]]"),
        WRITER_FRAME.replace('"p"}', '"p","edges":{}}'), " " + WRITER_FRAME[:-1],
        WRITER_FRAME.replace("third", "\\u0074hree"),
        WRITER_FRAME.replace("[]", '["nope"]').replace('"page_url":"p"', '"page_url":"\\u00e9"')]
] + [
    # After a line whose edge list has passed, a bad rest is decoded whole.
    (read_frames_jsonl, [WRITER_FRAME], WRITER_FRAME.replace(good, bad, 1)) for good, bad in [
        ('"p"}', '"\\q"}'), ('"p"}', '"\\ud800"}'), ('"p"}', '"p\\u00e9\\"}'),
        ("third", "\\u0074hree")]
] + [(lambda lines: flows._json_object(lines[0], surrogates=False), [], '{"command":"x",}')]


@pytest.mark.parametrize("reader,before,line", BAD_JSON_LINES)
def test_a_bad_line_of_each_json_reader_is_decoded_once(decoded, reader, before, line):
    """A bad trace, frames.jsonl or manifest line is decoded once, whole,
    whatever line before it has passed."""
    good = len(decoded) if before and reader(before) else 0
    with pytest.raises(flows.TraceFormatError):
        reader(before + [line])
    assert len(decoded) == 2 * good + 1


def test_repeated_edge_lines_encode_once(monkeypatch):
    decoded = []
    real_loads = json.loads
    monkeypatch.setattr(trace.json, "loads", lambda text: decoded.append(text) or real_loads(text))
    events = [BehaviorEdge("t", "f", EDGE), BehaviorEdge("t", "g", EDGE)] * 3
    lines = trace.dump_trace(trace.Trace(None, events)).splitlines()
    assert len(set(lines)) == 2
    assert decoded == [EDGE, EDGE]  # once per distinct event


WRITE_EVENTS = [VisitStart("p", 1, "t", "https://a.com/", 1),
                FrameLoad("t", "f", "https://t.net/w"), BehaviorEdge("t", "f", EDGE), VisitEnd("t")]


def test_repeats_that_are_one_object_encode_once_and_hash_never(monkeypatch):
    hashed = []
    encoded = []
    real_hash = Record.__hash__
    real_encode = trace.event_to_record
    monkeypatch.setattr(Record, "__hash__", lambda self: hashed.append(self) or real_hash(self))
    monkeypatch.setattr(trace, "event_to_record", lambda e: encoded.append(e) or real_encode(e))
    events = [WRITE_EVENTS[i] for i in (0, 1, 2, 2, 1, 2, 3, 0, 3)] * 50
    text = trace.dump_trace(trace.Trace(None, events))
    assert hashed == []  # a repeat is found by identity
    assert encoded == WRITE_EVENTS
    assert text == "".join(trace._json_line(real_encode(e)) for e in events)


def test_equal_copies_write_their_own_lines():
    events = [type(e)(*(getattr(e, name) for name in e._fields))
              for _ in range(3) for e in WRITE_EVENTS]
    lines = trace.dump_trace(trace.Trace(None, events)).splitlines(keepends=True)
    assert lines == [trace._json_line(trace.event_to_record(e)) for e in WRITE_EVENTS] * 3


def test_events_equal_as_records_keep_their_own_json():
    """``1 == True``, so these two events are equal records, but each is
    written with its own value."""
    events = [FrameLoad("t", "f", "https://t.net/w", is_ad) for is_ad in (1, True)]
    lines = trace.dump_trace(trace.Trace(None, events)).splitlines()
    assert events[0] == events[1]
    assert '"is_ad":1,' in lines[0] and '"is_ad":true,' in lines[1]


def test_substring_regex_is_compiled_once_per_rule_set(monkeypatch):
    compiled = []
    real = re.compile

    def counting(pattern, *args):
        compiled.append(pattern)
        return real(pattern, *args)

    monkeypatch.setattr(filterlist.re, "compile", counting)
    rules = AdRuleSet(frozenset(), ("/ads/", "track*px"), 0)
    assert is_ad_url("https://a.com/ads/x", rules)
    assert is_ad_url("https://a.com/track/1px", rules)
    assert not is_ad_url("https://a.com/ok", rules)
    assert len([p for p in compiled if "/ads/" in p]) == 1


# The compatibility side: each distinct edge list of a frames file is decoded
# once, into one shared set, and each distinct pair of edge sets is scored once.

FRAME_EDGES = [trace._edge_string("script", f"https://t.net/{i}.js", "reads", "cookie_jar",
                                  "t.net") for i in range(3)]
EDGE_LISTS = [frozenset(), frozenset(FRAME_EDGES[:1]), frozenset(FRAME_EDGES[:2]),
              frozenset(FRAME_EDGES[1:])]


def _written_frames(tmp_path, edge_list_of):
    """The lines of a frames file of 20 pages x 2 profiles x 2 crawl
    iterations, the page's edge list under each profile chosen by
    ``edge_list_of(page, profile)``."""
    records = {(f"https://s{page}.com/", "https://t.net/w", profile, crawl_iter):
               FrameRecord(set(EDGE_LISTS[edge_list_of(page, profile)]))
               for page in range(20) for profile in ("p0", "p1") for crawl_iter in (1, 2)}
    write_frames_jsonl(records, tmp_path / "frames.jsonl")
    return records, (tmp_path / "frames.jsonl").read_text().splitlines(keepends=True)


def test_each_distinct_edge_list_is_decoded_once_into_one_shared_set(decoded, monkeypatch,
                                                                     tmp_path):
    tails = []
    real_tail = frames._line_tail
    monkeypatch.setattr(frames, "_line_tail", lambda text: tails.append(text) or real_tail(text))
    records, lines = _written_frames(tmp_path, lambda page, profile: page % 4)
    read = read_frames_jsonl(lines)
    assert read == records
    # Each edge list's first line, decoded whole; every later line is read
    # at sight.
    assert len(decoded) == len(EDGE_LISTS) and all(text.startswith("{") for text in decoded)
    # The rest of a line, past its edges, once per (page, profile): not per
    # crawl iteration, which comes before the edges. The writer's rest of a
    # line holds no escape, so it is matched, never decoded alone.
    assert len(tails) == len(set(tails)) == len(lines) // 2
    edge_sets = {id(record.edge_set): record.edge_set for record in read.values()}
    assert len(edge_sets) == len(EDGE_LISTS)
    assert all(type(edge_set) is frozenset for edge_set in edge_sets.values())


def test_an_edge_list_with_brackets_in_its_urls_is_decoded_once(decoded, tmp_path):
    """A ']' in an edge's URL, as an IPv6 host or a query holds one, leaves
    the edge list read at sight once a line of it has been decoded whole."""
    edges = [trace._edge_string("script", f"https://[::1]/{i}.js?a[]={i}", "reads",
                                "cookie_jar", "t.net") for i in range(2)]
    records = {(f"https://s{page}.com/", "https://t.net/w", "p0", crawl_iter):
               FrameRecord({edges[page % 2]}) for page in range(6) for crawl_iter in (1, 2)}
    write_frames_jsonl(records, tmp_path / "frames.jsonl")
    lines = (tmp_path / "frames.jsonl").read_text().splitlines(keepends=True)
    assert all("]/" in line and "]=" in line for line in lines)
    assert read_frames_jsonl(lines) == records
    assert decoded == [lines[0].rstrip("\n"), lines[2].rstrip("\n")]


def test_an_edge_list_whose_url_holds_a_bracket_and_a_comma_is_decoded_once(decoded, tmp_path):
    """A query such as ``?a=[1],b`` puts a ']' and then a ',' in an edge
    list, where a JSON array could end early; the list is still decoded once
    in all, not once per line."""
    edge = trace._edge_string("script", "https://t.net/w.js?a=[1],b", "reads", "cookie_jar",
                              "t.net")
    records = {(f"https://s{page}.com/", "https://t.net/w", "p0", crawl_iter): FrameRecord({edge})
               for page in range(300) for crawl_iter in (1, 2)}
    write_frames_jsonl(records, tmp_path / "frames.jsonl")
    lines = (tmp_path / "frames.jsonl").read_text().splitlines(keepends=True)
    assert len(lines) == 600 and all("],b" in line for line in lines)
    assert read_frames_jsonl(lines) == records
    assert len(decoded) == 1


_E1, _E2 = (json.dumps(edge) for edge in FRAME_EDGES[:2])


@pytest.mark.parametrize("edge_list", [
    f"{_E2},{_E1}", f"{_E1},{_E1}", f'{_E1}],"crawl_iter":7,"x":[{_E2}', f"{_E1}, {_E2}"],
    ids=["unsorted", "repeated", "ends-early", "spaced"])
def test_an_edge_list_not_in_the_writers_form_is_never_remembered(decoded, edge_list):
    """A writer-shaped line whose edge-list text is not the writer's encoding
    of the set it decodes to is decoded whole, and so is a later line with
    the same text: each reads as its own whole decode."""
    lines = [f'{{"crawl_iter":1,"edges":[{edge_list}],"frame_url":"f","is_ad":false,'
             f'"page_url":"{page}","party":"third","profile":"p0"}}\n' for page in ("a", "b")]
    alone = [read_frames_jsonl([line]) for line in lines]
    del decoded[:]
    assert read_frames_jsonl(lines) == {**alone[0], **alone[1]}
    assert decoded == [line.rstrip("\n") for line in lines]


def test_equal_edge_lists_share_one_set_whatever_path_their_line_takes(decoded, tmp_path):
    """Lines whose rest holds an escape (the writer's ``\\u00e9``), a padded
    line and one with a sixth field are each decoded whole, once; a plain
    line is decoded only when no line before it has passed with its edge
    list in the writer's form. Each record holds the one set of its edge
    list."""
    records = {(f"https://s{page}{'é' * (page % 3 == 0)}.com/", "https://t.net/w", profile,
                crawl_iter): FrameRecord(set(EDGE_LISTS[page % 4]))
               for page in range(12) for profile in ("p0", "p1") for crawl_iter in (1, 2)}
    write_frames_jsonl(records, tmp_path / "frames.jsonl")
    lines = (tmp_path / "frames.jsonl").read_text().splitlines(keepends=True)
    lines[0] = " " + lines[0]
    lines[1] = lines[1].replace("}\n", ',"zz":0}\n')
    escaped = [line for line in lines if "\\u00e9" in line]
    assert len(escaped) == len(lines) // 3
    read = read_frames_jsonl(lines)
    assert read == records
    expected, passed = [], set()  # the decoded texts; the edge lists that have passed
    for line in lines:
        edge_list = line[line.index("[") + 1:line.index('],"frame_url":')]
        if line in escaped or line in lines[:2] or edge_list not in passed:
            expected.append(line.strip())
        if line[0] == "{":
            passed.add(edge_list)
    assert decoded == expected
    assert len([text for text in decoded if "\\u00e9" in text]) == len(escaped)
    shared = {}
    for record in read.values():
        assert shared.setdefault(record.edge_set, record.edge_set) is record.edge_set
    assert len(shared) == len(EDGE_LISTS)


def test_similarity_scores_each_distinct_pair_of_edge_sets_once(monkeypatch, tmp_path):
    scored = []
    real = metrics.jaccard
    monkeypatch.setattr(metrics, "jaccard", lambda a, b: scored.append((a, b)) or real(a, b))
    def choose(page, profile):
        return page % 4 if profile == "p0" else page // 2 % 4

    _, lines = _written_frames(tmp_path, choose)
    read = read_frames_jsonl(lines)
    scores = metrics.frame_similarity(read, read, ALL_NODE_TYPES, "p0", "p1")
    assert len(scores) == 40
    assert len(scored) == len({(choose(page, "p0"), choose(page, "p1")) for page in range(20)})
    assert [s.score for s in scores] == [
        real(read[(s.page_url, s.frame_url, "p0", s.crawl_iter)].edge_set,
             read[(s.page_url, s.frame_url, "p1", s.crawl_iter)].edge_set) for s in scores]


def test_optimizer_counts_each_distinct_instance_once(monkeypatch):
    counted = []
    real = metrics._pair_counts
    monkeypatch.setattr(metrics, "_pair_counts", lambda a, b: counted.append((a, b)) or real(a, b))
    one = metrics.OptimizeInstance(EDGE_LISTS[2], EDGE_LISTS[2], EDGE_LISTS[1])
    other = metrics.OptimizeInstance(EDGE_LISTS[3], EDGE_LISTS[2], EDGE_LISTS[0])
    copy = metrics.OptimizeInstance(*(frozenset(set(edges)) for edges in other))
    sample = [one] * 5 + [other, copy] * 3
    result = metrics.optimize_node_types(sample)
    assert len(counted) == 2 * 2  # a baseline and a contrast pair per distinct instance
    assert result == metrics.optimize_node_types([one] * 5 + [other] * 6)
