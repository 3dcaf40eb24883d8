"""The label-walk PSL and filter-anchor lookups agree with the linear scans
kept in ``oracles.py``.

Rules and hosts are drawn from a small label alphabet so that normal,
wildcard and exception rules actually match, nest and compete.
"""

from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from storagelab.filterlist import AdRuleSet, is_ad_url
from storagelab.psl import SuffixRuleSet, etld_plus_one, public_suffix

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
