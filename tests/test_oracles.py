"""The fast paths agree with the reference implementations kept in
``oracles.py``: the label-walk PSL and filter-anchor lookups with the linear
scans, and the bitmask node-type filter and optimizer with the enum-set ones.

Rules and hosts are drawn from a small label alphabet so that normal,
wildcard and exception rules actually match, nest and compete. Edge sets are
drawn from a small per-instance pool so that the compared sets overlap.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from storagelab.filterlist import AdRuleSet, is_ad_url
from storagelab.metrics import OptimizeInstance, frame_similarity, jaccard, optimize_node_types
from storagelab.psl import SuffixRuleSet, etld_plus_one, public_suffix
from storagelab.simulator import FrameRecord, SimOutput
from storagelab.trace import BehaviorEdgeRecord, NodeType

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
    return BehaviorEdgeRecord(src, key, "e", tgt, key).canonical()


def edges_over(types):
    return st.builds(_edge, st.sampled_from(types), st.sampled_from(types), st.sampled_from("ab"))


@st.composite
def samples(draw, types=tuple(NodeType), max_instances=3):
    instances = []
    for _ in range(draw(st.integers(1, max_instances))):
        pool = draw(st.lists(edges_over(types), max_size=6, unique=True))
        subsets = st.frozensets(st.sampled_from(pool)) if pool else st.just(frozenset())
        instances.append(OptimizeInstance(draw(subsets), draw(subsets), draw(subsets)))
    return instances


NODE_TYPES = st.frozensets(st.sampled_from(list(NodeType)), min_size=1, max_size=4)


@settings(max_examples=50, deadline=None)
@given(samples())
def test_optimizer_matches_enum_search_over_all_types(sample):
    assert _outcome(optimize_node_types, sample) == _outcome(oracles.optimize_node_types, sample)


@settings(deadline=None)
@given(samples(types=(NodeType.SCRIPT, NodeType.COOKIE_JAR, NodeType.WEB_API, NodeType.TEXT_NODE),
               max_instances=4),
       NODE_TYPES)
def test_optimizer_matches_enum_search_on_restricted_types(sample, node_types):
    assert (_outcome(lambda: optimize_node_types(sample, node_types=node_types))
            == _outcome(lambda: oracles.optimize_node_types(sample, node_types=node_types)))


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


def _frames(edge_sets, profile):
    return SimOutput(frames={("https://p.com/", f"https://f{i}.net/", profile, 1):
                             FrameRecord(edge_set=set(edges)) for i, edges in enumerate(edge_sets)})


@given(samples(max_instances=4), st.frozensets(st.sampled_from(list(NodeType))))
def test_frame_similarity_matches_enum_filter(sample, node_filter):
    base = _frames([i.baseline_a for i in sample], "x")
    other = _frames([i.contrast for i in sample], "y")
    scores = [s.score for s in frame_similarity(base, other, node_filter, "x", "y")]
    assert scores == [jaccard(oracles._filter_edges(i.baseline_a, node_filter),
                              oracles._filter_edges(i.contrast, node_filter)) for i in sample]
