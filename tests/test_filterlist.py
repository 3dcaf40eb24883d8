import pytest

import oracles
from storagelab.filterlist import AdRuleSet, is_ad_url, parse_rules


class TestParseRules:
    def test_domain_anchor(self):
        rules = parse_rules("||ads.example.com^")
        assert rules.domain_anchor_rules == {"ads.example.com"}
        assert rules.skipped == 0

    def test_comment_and_wildcard_substring(self):
        rules = parse_rules("!comment\n/banner/*")
        assert rules.substring_rules == ("/banner/*",)
        assert rules.skipped == 0

    def test_exception_rules_skipped_and_counted(self):
        rules = parse_rules("@@||good.com^")
        assert rules.domain_anchor_rules == frozenset()
        assert rules.skipped == 1

    def test_element_hiding_and_options_skipped(self):
        rules = parse_rules("example.com##.ad\n||x.com^$third-party\n")
        assert rules.skipped == 2

    def test_anchor_lowercased(self):
        rules = parse_rules("||ADS.Example.com^")
        assert rules.domain_anchor_rules == {"ads.example.com"}

    def test_anchor_with_path_not_retained(self):
        assert parse_rules("||ads.com/banner^").skipped == 1


# Forms the one-pass scan leaves to the per-line code: (text, anchors,
# substring rules, skipped). Each must also be what the line-by-line parser gives.
SCAN_VECTORS = [
    ("||a.com^\r\n||b.net^\r\n/ads/\r\n", {"a.com", "b.net"}, ("/ads/",), 0),
    ("||a.com^\r||b.net^\x0c||c.org^\x85/x/\u2028||d.io^\n", {"a.com", "b.net", "c.org", "d.io"},
     ("/x/",), 0),
    ("||ADS.Example.com^\n||a.COM^\n", {"ads.example.com", "a.com"}, (), 0),
    # Only A-Z is lowercased: the Kelvin sign stays, so neither host is ASCII.
    ("||b\u00fccher.de^\n||\u212aa.com^\n", set(), (), 2),
    ("||a.com^^\n||b.com\n||c.com^\n", {"a.com", "b.com", "c.com"}, (), 0),
    ("  ||a.com^ \n\t/ads/*\t\n", {"a.com"}, ("/ads/*",), 0),
    ("||-a.com^\n||a-.com^\n||a..com^\n||a-b.com^\n", {"a-b.com"}, (), 3),
    ("/b/\n||a.com^\n/a/\n@@||x.com^\n||a.com^$third-party\nx##y\n/c/", {"a.com"},
     ("/b/", "/a/", "/c/"), 3),
    ("||a.com^", {"a.com"}, (), 0),
    ("", set(), (), 0),
    ("! only a comment", set(), (), 0),
]


@pytest.mark.parametrize("text,anchors,substrings,skipped", SCAN_VECTORS)
def test_scan_vectors_match_line_by_line_parser(text, anchors, substrings, skipped):
    expected = AdRuleSet(frozenset(anchors), substrings, skipped)
    assert parse_rules(text) == expected
    assert oracles.parse_rules(text) == expected


class TestIsAdUrl:
    RULES = parse_rules("||ads.example.com^\n/banner/*.gif")

    def test_anchor_host_match(self):
        assert is_ad_url("https://ads.example.com/b", self.RULES)

    def test_anchor_subdomain_match(self):
        assert is_ad_url("https://sub.ads.example.com/b", self.RULES)

    def test_non_matching_host(self):
        assert not is_ad_url("https://example.com/", self.RULES)

    def test_substring_with_wildcard(self):
        assert is_ad_url("https://cdn.net/banner/x/y.gif", self.RULES)
        assert not is_ad_url("https://cdn.net/banner/x/y.png", self.RULES)

    def test_host_match_case_insensitive(self):
        assert is_ad_url("https://ADS.EXAMPLE.COM/b", self.RULES)

    def test_path_substring_case_sensitive(self):
        assert not is_ad_url("https://cdn.net/BANNER/x.gif", self.RULES)

    def test_adding_rules_is_monotone(self):
        small = parse_rules("||ads.example.com^")
        big = parse_rules("||ads.example.com^\n||other.net^\n/track/*")
        urls = ["https://ads.example.com/b", "https://sub.ads.example.com/",
                "https://x.org/track/1", "https://plain.org/"]
        for url in urls:
            if is_ad_url(url, small):
                assert is_ad_url(url, big)

    def test_empty_rules_flag_nothing(self):
        empty = AdRuleSet(frozenset(), (), 0)
        assert not is_ad_url("https://ads.example.com/", empty)
