"""Semantics every record class keeps, whatever it is built from: records of
different types never compare equal, events, edges and partition keys refuse
attribute assignment, and derived values are computed once per object."""

import itertools
import json
import re

import pytest

from storagelab import filterlist, trace
from storagelab.filterlist import AdRuleSet, is_ad_url
from storagelab.policy import Blocked, Ephemeral, FirstParty, GlobalThirdParty, SiteKeyedThirdParty
from storagelab.trace import (
    BehaviorEdge,
    BehaviorEdgeRecord,
    FrameLoad,
    HttpRequest,
    NodeType,
    ScriptStorage,
    VisitEnd,
    VisitStart,
    parse_trace,
)

# Each class with its number of fields; every field gets the same value, so
# two classes of the same arity hold equal field values.
PARTITION_KEYS = {FirstParty: 1, GlobalThirdParty: 1, SiteKeyedThirdParty: 2, Ephemeral: 2,
                  Blocked: 0}
EVENTS = {VisitStart: 5, FrameLoad: 4, HttpRequest: 4, ScriptStorage: 6, BehaviorEdge: 3,
          VisitEnd: 1}


def build(cls, n_fields: int):
    return cls(*["v"] * n_fields)


def _edge() -> BehaviorEdgeRecord:
    return BehaviorEdgeRecord(NodeType.SCRIPT, "https://t.net/w.js", "reads",
                              NodeType.COOKIE_JAR, "t.net")


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
    BehaviorEdge("t", "f", _edge()),
    VisitEnd("t"),
    _edge(),
    FirstParty("a.com"),
    GlobalThirdParty("t.net"),
    SiteKeyedThirdParty("a.com", "t.net"),
    Ephemeral(1, "t.net"),
    Blocked(),
], ids=lambda record: type(record).__name__)
def test_records_refuse_attribute_assignment(record):
    for name in ("tab", "site", "source_key", "load_key", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, "x")
    with pytest.raises(AttributeError):
        del record.not_a_field


@pytest.fixture
def json_dumps_calls(monkeypatch):
    calls = []
    real = json.dumps

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(trace.json, "dumps", counting)
    return calls


def test_canonical_is_encoded_once_per_edge(json_dumps_calls):
    edge = _edge()
    first = edge.canonical
    assert edge.canonical is first
    assert len(json_dumps_calls) == 1
    assert _edge().canonical == first  # another object encodes its own
    assert len(json_dumps_calls) == 2


def test_repeated_edge_lines_encode_once(json_dumps_calls):
    line = json.dumps(trace.event_to_record(BehaviorEdge("t", "f", _edge())))
    json_dumps_calls.clear()
    events = parse_trace([line] * 3).events
    assert {e.edge.canonical for e in events} == {_edge().canonical}
    assert len(json_dumps_calls) == 2  # the parsed edge once, the fresh one above once


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
