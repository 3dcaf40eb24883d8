import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from storagelab.cookies import (
    Cookie,
    CookieJar,
    cookies_for_request,
    default_path,
    domain_match,
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

    def test_bad_max_age_ignored(self):
        cookie = parse_set_cookie("a=1; Max-Age=soon", "https://a.com/", RULES)
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
        jar = CookieJar()
        for cookie in cookies:
            jar.add(cookie)
        return jar

    def test_order_longer_path_first(self):
        jar = self.make_jar(
            Cookie("a", "1", "a.com", True, "/"),
            Cookie("b", "2", "a.com", True, "/x"),
        )
        assert cookies_for_request(jar, "https://a.com/x/y", 0) == [("b", "2"), ("a", "1")]

    def test_empty_jar(self):
        assert cookies_for_request(CookieJar(), "https://a.com/", 0) == []

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
        jar = CookieJar()
        cookie = parse_set_cookie("token=v1; Path=/", "https://shop.example.com/cart", RULES)
        jar.add(cookie)
        assert ("token", "v1") in cookies_for_request(jar, "https://shop.example.com/cart", 1.0)

    def test_equal_paths_sorted_by_creation(self):
        jar = self.make_jar(
            Cookie("late", "2", "a.com", True, "/"),
            Cookie("later", "3", "a.com", True, "/"),
        )
        assert cookies_for_request(jar, "https://a.com/", 0) == [("late", "2"), ("later", "3")]

    def test_no_duplicate_name_domain_path(self):
        jar = CookieJar()
        jar.add(Cookie("a", "1", "a.com", True, "/"))
        jar.add(Cookie("a", "2", "a.com", True, "/"))
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
        jar = CookieJar()
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
                jar.add(cookie)
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
