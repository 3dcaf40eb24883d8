import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from storagelab.cookies import (
    Cookie,
    add_cookie,
    cookies_for_request,
    default_path,
    domain_match,
    matching_cookies,
    parse_cookie_date,
    parse_set_cookie,
    path_match,
)
from storagelab.psl import builtin_rules

RULES = builtin_rules()


class TestParseSetCookie:
    def test_domain_attribute(self):
        cookie = parse_set_cookie("id=abc123; Domain=example.com; Path=/",
                                  "https://www.example.com/", RULES)
        assert cookie == Cookie(name="id", value="abc123", domain="example.com",
                                host_only=False, path="/")

    def test_default_path_and_host_only(self):
        cookie = parse_set_cookie("sid=x", "https://a.com/p/q", RULES)
        assert cookie.domain == "a.com"
        assert cookie.host_only
        assert cookie.path == "/p"

    def test_host_is_lowercased_and_path_kept(self):
        cookie = parse_set_cookie("sid=x", "https://WWW.A.com/P/q", RULES)
        assert (cookie.domain, cookie.path) == ("www.a.com", "/P")
        jar = {}
        add_cookie(jar, cookie)
        assert cookies_for_request(jar, "https://www.a.COM/P/r", 0.0) == [("sid", "x")]
        assert cookies_for_request(jar, "https://www.a.com/p/r", 0.0) == []

    def test_empty_name_rejected(self):
        assert parse_set_cookie("=novalue", "https://a.com/", RULES) is None

    def test_no_equals_rejected(self):
        assert parse_set_cookie("bare", "https://a.com/", RULES) is None

    def test_domain_mismatch_rejected(self):
        assert parse_set_cookie("a=1; Domain=other.com", "https://a.com/", RULES) is None
        # Suffix without a label boundary must not match either.
        assert parse_set_cookie("a=1; Domain=example.com", "https://badexample.com/", RULES) is None

    def test_leading_dot_domain_stripped(self):
        cookie = parse_set_cookie("a=1; Domain=.example.com", "https://www.example.com/", RULES)
        assert cookie.domain == "example.com"

    def test_max_age_wins_over_expires(self):
        cookie = parse_set_cookie(
            "a=1; Expires=Wed, 21 Oct 2015 07:28:00 GMT; Max-Age=60",
            "https://a.com/", RULES, now=100.0)
        assert cookie.expiry == 160.0

    def test_nonpositive_max_age_expires_immediately(self):
        cookie = parse_set_cookie("a=1; Max-Age=0", "https://a.com/", RULES, now=50.0)
        assert cookie.expiry == 50.0

    # §5.2.2: a positive delta gives an expiry of now plus delta, a
    # non-positive one expires at once, whatever the length of the digit run:
    # 310 nines overflow a float, and 4,301 digits exceed int()'s limit.
    @pytest.mark.parametrize("digits", [310, 4301])
    def test_max_age_too_long_for_a_float_never_expires(self, digits):
        cookie = parse_set_cookie(f"a=1; Max-Age={'9' * digits}", "https://a.com/", RULES,
                                  now=5.0)
        assert cookie.expiry == float("inf")
        jar = {}
        add_cookie(jar, cookie)
        assert cookies_for_request(jar, "https://a.com/", 1e308) == [("a", "1")]

    @pytest.mark.parametrize("digits", [310, 4301])
    def test_negative_max_age_of_any_length_expires_at_once(self, digits):
        cookie = parse_set_cookie(f"a=1; Max-Age=-{'9' * digits}", "https://a.com/", RULES,
                                  now=5.0)
        assert cookie.expiry == 5.0

    def test_max_age_with_leading_zeros_is_its_value(self):
        cookie = parse_set_cookie(f"a=1; Max-Age={'0' * 4301}60", "https://a.com/", RULES,
                                  now=5.0)
        assert cookie.expiry == 65.0

    def test_bad_max_age_ignored(self):
        cookie = parse_set_cookie("a=1; Max-Age=soon", "https://a.com/", RULES)
        assert cookie.expiry is None

    def test_non_ascii_digit_max_age_ignored(self):
        # RFC 6265 §5.2.2: DIGIT is 0-9; an Arabic-Indic three is no number.
        cookie = parse_set_cookie("a=1; Max-Age=\u0663", "https://a.com/", RULES, now=5.0)
        assert cookie.expiry is None

    def test_unknown_and_flag_attributes_ignored(self):
        cookie = parse_set_cookie("a=1; Secure; HttpOnly; SameSite=Lax; X-Weird=1",
                                  "https://a.com/", RULES)
        assert cookie is not None
        assert cookie.expiry is None

    def test_expires_parsed_against_epoch(self):
        cookie = parse_set_cookie("a=1; Expires=Thu, 01 Jan 1970 00:01:00 GMT",
                                  "https://a.com/", RULES)
        assert cookie.expiry == 60.0

    @pytest.mark.parametrize("domain,url", [
        ("co.uk", "https://x.co.uk/"),
        (".CO.UK", "https://www.x.co.uk/"),
        ("uk", "https://x.co.uk/"),
        ("foo.kobe.jp", "https://a.foo.kobe.jp/"),  # under the *.kobe.jp wildcard
    ])
    def test_public_suffix_domain_rejected(self, domain, url):
        # RFC 6265 section 5.3 step 5.
        assert parse_set_cookie(f"a=1; Domain={domain}", url, RULES) is None

    def test_public_suffix_domain_equal_to_host_is_host_only(self):
        cookie = parse_set_cookie("a=1; Domain=uk.com", "https://uk.com/", RULES)
        assert (cookie.domain, cookie.host_only) == ("uk.com", True)

    def test_registrable_domain_under_exception_rule_kept(self):
        cookie = parse_set_cookie("a=1; Domain=city.kobe.jp", "https://www.city.kobe.jp/", RULES)
        assert (cookie.domain, cookie.host_only) == ("city.kobe.jp", False)

    @pytest.mark.parametrize("domain,url", [
        ("b..com", "https://a.b..com/"),
        ("x..co.uk", "https://x..co.uk/"),
        ("co.uk.", "https://x.co.uk./"),
    ])
    def test_domain_with_empty_label_dropped(self, domain, url):
        assert parse_set_cookie(f"a=1; Domain={domain}", url, RULES) is None

    @pytest.mark.parametrize("attrs,expected", [
        # "Domain=." leaves an empty domain-attribute: host-only (RFC 6265
        # section 5.2.3, section 5.3 step 6).
        ("Domain=.", ("www.example.com", True, "/p")),
        ("Domain=example.com; Domain=.", ("www.example.com", True, "/p")),
        ("Domain=.; Domain=example.com", ("example.com", False, "/p")),
        ("Domain=other.com; Domain=example.com", ("example.com", False, "/p")),
        # An empty Domain value is ignored; the earlier one stands.
        ("Domain=example.com; Domain=", ("example.com", False, "/p")),
        # A Path not starting with "/" is the default-path (section 5.2.4),
        # and the last Path wins (section 5.3 step 7).
        ("Path=/x; Path=y", ("www.example.com", True, "/p")),
        ("Path=y; Path=/x", ("www.example.com", True, "/x")),
        ("Path=/x; Path=", ("www.example.com", True, "/p")),
    ])
    def test_last_domain_and_path_attributes_win(self, attrs, expected):
        cookie = parse_set_cookie(f"a=1; {attrs}", "https://www.example.com/p/q", RULES)
        assert (cookie.domain, cookie.host_only, cookie.path) == expected

    @pytest.mark.parametrize("header", [
        "a=1\x00", "a\x08=1", "a=1\n", "a=1; Path=/\x0b", "a=1\r", "a=1;\x0c Path=/",
        "a=\x1f1", "a=1\x7f", "a=1; Domain=a.com\x1b", "\x01a=1",
    ])
    def test_control_character_ignores_whole_string(self, header):
        # RFC 6265bis, "The Set-Cookie Header Field", step 1: a set-cookie-string
        # holding %x00-08, %x0A-1F or %x7F is ignored entirely, wherever it is.
        assert parse_set_cookie(header, "https://a.com/", RULES) is None

    @pytest.mark.parametrize("header,expected", [
        # HTAB is no such control character, and is trimmed like a space.
        ("a=\t1\t;\tPath=/x", ("a", "1", "/x")),
        ("a=1\t2", ("a", "1\t2", "/")),
        # A C1 control (U+0080-U+009F) is not a CTL of RFC 5234's octets.
        ("a=x\x9fy", ("a", "x\x9fy", "/")),
    ])
    def test_htab_and_c1_characters_kept(self, header, expected):
        cookie = parse_set_cookie(header, "https://a.com/", RULES)
        assert (cookie.name, cookie.value, cookie.path) == expected

    @pytest.mark.parametrize("header,expected", [
        # RFC 6265 §5.2 step 4 removes only WSP (SP and HTAB) around the
        # value: NBSP and the ideographic space stay.
        ("a=\xa0x\u3000", ("a", "\xa0x\u3000", "/")),
        # §5.2, step 5 for each cookie-av: NEL is no WSP, so "\x85Path" is
        # an unknown attribute and the Path is ignored.
        ("a=1; \x85Path=/x", ("a", "1", "/")),
        # §5.2 step 4 trims the name of WSP only; NBSP inside it is kept.
        ("a\xa0b=1", ("a\xa0b", "1", "/")),
    ])
    def test_only_wsp_is_trimmed(self, header, expected):
        cookie = parse_set_cookie(header, "https://a.com/", RULES)
        assert (cookie.name, cookie.value, cookie.path) == expected

    @pytest.mark.parametrize("attrs", [
        "Domain=..example.com",  # only one leading dot is stripped
        "Domain=example.com; Domain=other.com",
    ])
    def test_last_domain_attribute_can_drop_the_cookie(self, attrs):
        assert parse_set_cookie(f"a=1; {attrs}", "https://www.example.com/p/q", RULES) is None


class TestCookieDate:
    def test_rfc1123(self):
        assert parse_cookie_date("Wed, 21 Oct 2015 07:28:00 GMT") == 1445412480.0

    def test_two_digit_years(self):
        assert parse_cookie_date("Tue, 1 Jan 70 00:00:00 GMT") == 0.0
        assert parse_cookie_date("1 Jan 10 00:00:00 GMT") == 1262304000.0

    def test_dashed_legacy_format(self):
        assert parse_cookie_date("Sun, 06-Nov-1994 08:49:37 GMT") == 784111777.0

    def test_garbage_is_none(self):
        assert parse_cookie_date("not a date") is None
        assert parse_cookie_date("") is None

    # RFC 6265 §5.1.1 counts only ASCII digits: "²1" and Arabic-Indic digits
    # match no production, so the date lacks that part and is no date.
    def test_superscript_digit_is_no_day(self):
        assert parse_cookie_date("Wed, \u00b21 Oct 2015 07:28:00 GMT") is None

    @pytest.mark.parametrize("date", [
        "Wed, \u0662\u0661 Oct 2015 07:28:00 GMT",  # day
        "Wed, 21 Oct \u0662\u0660\u0661\u0665 07:28:00 GMT",  # year
        "Wed, 21 Oct 2015 \u0660\u0667:28:00 GMT",  # time
    ])
    def test_arabic_indic_digits_are_no_number(self, date):
        assert parse_cookie_date(date) is None

    # A day, year or time may end in a non-digit and anything after it.
    def test_time_with_trailing_text(self):
        assert parse_cookie_date("Wed, 21 Oct 2015 07:28:00junk GMT") == 1445412480.0

    def test_day_with_trailing_text(self):
        assert parse_cookie_date("Wed, 21st Oct 2015 07:28:00 GMT") == 1445412480.0

    def test_year_with_trailing_text(self):
        assert parse_cookie_date("Wed, 21 Oct 2015x 07:28:00 GMT") == 1445412480.0

    def test_digit_runs_longer_than_the_production_match_nothing(self):
        # A 3-digit day is no day; 2 to 4 digits make a year (015 is 2015).
        assert parse_cookie_date("Wed, 021 Oct 2015 07:28:00 GMT") is None
        assert parse_cookie_date("Wed, 21 Oct 015 07:28:00 GMT") == 1445412480.0
        assert parse_cookie_date("Wed, 21 Oct 20155 07:28:00 GMT") is None


class TestDomainMatch:
    def test_subdomain(self):
        assert domain_match("www.example.com", "example.com")

    def test_identity(self):
        assert domain_match("example.com", "example.com")

    def test_label_boundary(self):
        assert not domain_match("badexample.com", "example.com")

    @given(st.text(alphabet="abc.", min_size=1, max_size=12))
    def test_reflexive(self, host):
        assert domain_match(host, host)

    @given(st.lists(st.text(alphabet="ab", min_size=1, max_size=3), min_size=1, max_size=4))
    def test_transitive_along_suffix_chain(self, labels):
        host = ".".join(labels)
        for start in range(1, len(labels)):
            mid = ".".join(labels[start:])
            assert domain_match(host, mid)
            for deeper in range(start + 1, len(labels)):
                assert domain_match(mid, ".".join(labels[deeper:]))


class TestDefaultPath:
    @pytest.mark.parametrize("uri_path,expected", [
        ("/p/q", "/p"),
        ("/", "/"),
        ("/x", "/"),
        ("/x/", "/x"),
        ("", "/"),
        ("noslash", "/"),
    ])
    def test_cases(self, uri_path, expected):
        assert default_path(uri_path) == expected


class TestCookiesForRequest:
    def make_jar(self, *cookies):
        jar = {}
        for cookie in cookies:
            add_cookie(jar, cookie)
        return jar

    def test_order_longer_path_first(self):
        jar = self.make_jar(
            Cookie("a", "1", "a.com", True, "/"),
            Cookie("b", "2", "a.com", True, "/x"),
        )
        assert cookies_for_request(jar, "https://a.com/x/y", 0) == [("b", "2"), ("a", "1")]

    def test_empty_jar(self):
        assert cookies_for_request({}, "https://a.com/", 0) == []

    def test_expired_excluded_and_purged(self):
        jar = self.make_jar(Cookie("a", "1", "a.com", True, "/", expiry=9.0))
        assert cookies_for_request(jar, "https://a.com/", 10.0) == []
        assert len(jar) == 0

    def test_host_only_requires_exact_host(self):
        jar = self.make_jar(Cookie("a", "1", "a.com", True, "/"))
        assert cookies_for_request(jar, "https://www.a.com/", 0) == []
        assert cookies_for_request(jar, "https://a.com/", 0) == [("a", "1")]

    def test_path_match_boundary(self):
        jar = self.make_jar(Cookie("a", "1", "a.com", True, "/x"))
        assert cookies_for_request(jar, "https://a.com/xy", 0) == []
        assert cookies_for_request(jar, "https://a.com/x/y", 0) == [("a", "1")]

    def test_set_then_read_round_trips(self):
        jar = {}
        cookie = parse_set_cookie("token=v1; Path=/", "https://shop.example.com/cart", RULES)
        add_cookie(jar, cookie)
        assert ("token", "v1") in cookies_for_request(jar, "https://shop.example.com/cart", 1.0)

    def test_equal_paths_sorted_by_creation(self):
        jar = self.make_jar(
            Cookie("late", "2", "a.com", True, "/"),
            Cookie("later", "3", "a.com", True, "/"),
        )
        assert cookies_for_request(jar, "https://a.com/", 0) == [("late", "2"), ("later", "3")]
        # A re-set cookie is created anew, so it moves behind its peers
        # (RFC 6265 §5.3 step 11.3 would keep its old creation time).
        add_cookie(jar, Cookie("late", "4", "a.com", True, "/"))
        assert cookies_for_request(jar, "https://a.com/", 0) == [("later", "3"), ("late", "4")]

    def test_matching_cookies_of_one_name(self):
        # A named match reads, and purges, only cookies of that name.
        jar = self.make_jar(
            Cookie("a", "1", "a.com", True, "/"),
            Cookie("a", "2", "a.com", False, "/x"),
            Cookie("a", "3", "www.a.com", True, "/"),
            Cookie("b", "4", "a.com", True, "/"),
            Cookie("a", "5", "a.com", True, "/x/z", expiry=9.0),
            Cookie("b", "6", "a.com", True, "/x", expiry=9.0),
        )
        url = "https://a.com/x/z"
        assert [c.value for c in matching_cookies(jar, url, 10.0, "a")] == ["1", "2"]
        assert len(jar) == 5
        assert [c.value for c in matching_cookies(jar, url, 10.0, "zz")] == []
        assert [c.value for c in matching_cookies(jar, url, 10.0)] == ["1", "2", "4"]
        assert len(jar) == 4

    def test_no_duplicate_name_domain_path(self):
        jar = {}
        add_cookie(jar, Cookie("a", "1", "a.com", True, "/"))
        add_cookie(jar, Cookie("a", "2", "a.com", True, "/"))
        result = cookies_for_request(jar, "https://a.com/", 0)
        assert result == [("a", "2")]
        assert len(jar) == 1


class ReferenceJar:
    """Naive linear-scan jar used as an independent oracle."""

    def __init__(self):
        self.items = []
        self.seq = 0

    def set(self, name, value, domain, host_only, path, expiry):
        self.items = [c for c in self.items
                      if not (c["name"] == name and c["domain"] == domain and c["path"] == path)]
        self.items.append(dict(name=name, value=value, domain=domain, host_only=host_only,
                               path=path, expiry=expiry, seq=self.seq))
        self.seq += 1

    def get(self, host, path, now):
        self.items = [c for c in self.items if c["expiry"] is None or c["expiry"] > now]
        matched = []
        for c in self.items:
            if c["host_only"]:
                if host != c["domain"]:
                    continue
            elif not (host == c["domain"] or host.endswith("." + c["domain"])):
                continue
            if not (path == c["path"]
                    or (path.startswith(c["path"])
                        and (c["path"].endswith("/") or path[len(c["path"])] == "/"))):
                continue
            matched.append(c)
        matched.sort(key=lambda c: (-len(c["path"]), c["seq"]))
        return [(c["name"], c["value"]) for c in matched]


HOSTS = ["a.com", "www.a.com", "x.www.a.com", "b.org"]
PATHS = ["/", "/x", "/x/", "/x/y", "/y"]
NAMES = ["a", "b", "c"]


def run_jar_equivalence(n_sequences: int = 500, ops_per_sequence: int = 20, seed: int = 99) -> int:
    """Drive the real jar and the reference jar with identical random ops."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(n_sequences):
        jar = {}
        ref = ReferenceJar()
        now = 0.0
        for _ in range(ops_per_sequence):
            now += rng.choice([0.0, 1.0, 2.0])
            if rng.random() < 0.65:
                host = rng.choice(HOSTS)
                labels = host.split(".")
                domain = ".".join(labels[rng.randrange(len(labels)):])
                host_only = rng.random() < 0.5
                if host_only:
                    domain = host
                cookie = Cookie(
                    name=rng.choice(NAMES),
                    value=str(rng.randrange(100)),
                    domain=domain,
                    host_only=host_only,
                    path=rng.choice(PATHS),
                    expiry=None if rng.random() < 0.5 else now + rng.randrange(-2, 6),
                )
                add_cookie(jar, cookie)
                ref.set(cookie.name, cookie.value, cookie.domain, cookie.host_only,
                        cookie.path, cookie.expiry)
            else:
                host = rng.choice(HOSTS)
                path = rng.choice(PATHS)
                got = cookies_for_request(jar, f"https://{host}{path}", now)
                assert got == ref.get(host, path, now)
                checked += 1
        # Final retrieval on every host x path combination.
        for host in HOSTS:
            for path in PATHS:
                assert cookies_for_request(jar, f"https://{host}{path}", now) == ref.get(host, path, now)
                checked += 1
    return checked


def test_reference_jar_equivalence():
    assert run_jar_equivalence() > 0


def test_path_match_helper():
    assert path_match("/x/y", "/x")
    assert path_match("/x", "/x")
    assert path_match("/x/", "/x/")
    assert not path_match("/xy", "/x")
