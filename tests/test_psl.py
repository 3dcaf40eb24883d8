import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from storagelab.psl import (
    PslParseError,
    SuffixRuleSet,
    builtin_rules,
    etld_plus_one,
    parse_psl,
    public_suffix,
)
from vectors_psl import CASES


def rule_set(normal=(), wildcard=(), exception=()):
    return SuffixRuleSet(frozenset(normal), frozenset(wildcard), frozenset(exception))


class TestParse:
    def test_comments_prefixes_and_markers(self):
        rules = parse_psl("// c\ncom\n*.ck\n!www.ck\n")
        assert rules.normal_rules == {"com"}
        assert rules.wildcard_rules == {"ck"}
        assert rules.exception_rules == {"www.ck"}

    def test_empty_input(self):
        rules = parse_psl("")
        assert rules == rule_set()

    def test_two_normal_rules(self):
        rules = parse_psl("co.uk\ncom\n")
        assert rules.normal_rules == {"co.uk", "com"}

    def test_rules_lowercased(self):
        assert parse_psl("CoM\n").normal_rules == {"com"}

    def test_rule_is_read_up_to_its_first_whitespace(self):
        assert parse_psl("com\nco uk\n").normal_rules == {"com", "co"}
        assert parse_psl("com // comment\n").normal_rules == {"com"}

    def test_rules_lowercased_in_ascii_only(self):
        # str.lower() would map U+212A KELVIN SIGN to "k" and make k.com a suffix.
        rules = parse_psl("\u212a.com\ncom\n")
        assert rules.normal_rules == {"\u212a.com", "com"}
        assert public_suffix("a.k.com", rules) == "com"
        assert etld_plus_one("a.k.com", rules) == "k.com"

    def test_empty_label_rejected(self):
        with pytest.raises(PslParseError, match="line 1"):
            parse_psl("co..uk\n")


def _parsed(text):
    """The rule set, or the error message, of each parser."""
    outcomes = []
    for parse in (parse_psl, oracles.parse_psl):
        try:
            outcomes.append(parse(text))
        except PslParseError as exc:
            outcomes.append(str(exc))
    return outcomes


# Forms the one-pass scan leaves to the per-line code, each with its rule set
# or error; every one must also be what the line-by-line parser gives.
SCAN_VECTORS = [
    ("com\r\nco.uk\r\n*.ck\r\n!www.ck\r\n", rule_set(["com", "co.uk"], ["ck"], ["www.ck"])),
    ("com\rco.uk\x0cnet\x85org\u2028io\n", rule_set(["com", "co.uk", "net", "org", "io"])),
    ("CoM\n*.CK\n!WWW.ck\n", rule_set(["com"], ["ck"], ["www.ck"])),
    ("\u00fcber.de\n\u516c\u53f8.cn\n", rule_set(["\u00fcber.de", "\u516c\u53f8.cn"])),
    ("  com \n\t*.ck\n !www.ck\t\n", rule_set(["com"], ["ck"], ["www.ck"])),
    ("// c\ncom\nco.uk", rule_set(["com", "co.uk"])),
    ("", rule_set()),
    ("\n\n", rule_set()),
    ("com\n\nnet\r\n\nor g\n", rule_set(["com", "net", "or"])),
    ("com // comment\n!www.ck\tx\n*.ck y z\n", rule_set(["com"], ["ck"], ["www.ck"])),
    ("\u212a.com\n*.\u212a.com\n!\u0130.com\n",
     rule_set(["\u212a.com"], ["\u212a.com"], ["\u0130.com"])),
    ("com\n! www.ck\n", "line 2: empty label in rule ''"),
    ("com\r\nnet\na..b\r\n", "line 3: empty label in rule 'a..b'"),
    ("com\x0cco..uk\n", "line 2: empty label in rule 'co..uk'"),
    ("com\n" * 3 + "net", rule_set(["com", "net"])),
    ("com\n" * 3 + ".net", "line 4: empty label in rule '.net'"),
    ("!a..b\n", "line 1: empty label in rule 'a..b'"),
    ("*.\ncom\n", "line 1: empty label in rule ''"),
]


@pytest.mark.parametrize("text,expected", SCAN_VECTORS)
def test_scan_vectors_match_line_by_line_parser(text, expected):
    assert _parsed(text) == [expected, expected]


class TestPublicSuffix:
    def test_simple_match(self):
        assert public_suffix("www.example.com", rule_set(["com"])) == "com"

    def test_wildcard_beats_nothing_exception_beats_wildcard(self):
        rules = rule_set(wildcard=["ck"], exception=["www.ck"])
        assert public_suffix("foo.bar.ck", rules) == "bar.ck"
        assert public_suffix("www.ck", rules) == "ck"

    def test_unlisted_tld_defaults_to_last_label(self):
        assert public_suffix("example.nosuchtld", rule_set(["com"])) == "nosuchtld"

    def test_longest_rule_wins(self):
        rules = rule_set(["uk", "co.uk"])
        assert public_suffix("shop.example.co.uk", rules) == "co.uk"

    def test_empty_host_raises(self):
        with pytest.raises(ValueError):
            public_suffix("", builtin_rules())


class TestEtldPlusOne:
    def test_examples(self):
        rules = builtin_rules()
        assert etld_plus_one("www.example.com", rules) == "example.com"
        assert etld_plus_one("com", rules) is None
        assert etld_plus_one("a.b.co.uk", rules) == "b.co.uk"

    def test_ip_hosts_are_their_own_site(self):
        rules = builtin_rules()
        assert etld_plus_one("127.0.0.1", rules) == "127.0.0.1"
        assert etld_plus_one("2001:db8::1", rules) == "2001:db8::1"


HOST_LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)


@given(st.lists(HOST_LABEL, min_size=1, max_size=4))
def test_suffix_relationship(labels):
    host = ".".join(labels)
    rules = builtin_rules()
    suffix = public_suffix(host, rules)
    site = etld_plus_one(host, rules)
    assert host == suffix or host.endswith("." + suffix)
    if site is not None:
        assert site.endswith(suffix)
        assert len(site.split(".")) == len(suffix.split(".")) + 1
        assert host == site or host.endswith("." + site)


@given(st.lists(HOST_LABEL, min_size=1, max_size=4))
def test_etld_idempotent(labels):
    host = ".".join(labels)
    rules = builtin_rules()
    site = etld_plus_one(host, rules)
    if site is not None:
        assert etld_plus_one(site, rules) == site


@pytest.mark.parametrize("host,expected", CASES)
def test_conformance_vectors(host, expected):
    assert etld_plus_one(host.lower(), builtin_rules()) == expected
