import pytest

from storagelab.cookies import Jar, cookies_for_request
from storagelab.policy import (
    PolicyKind,
    origin_of,
    partition_jar,
    resolve_partition,
    site_of,
    storage_access,
)
from storagelab.psl import builtin_rules
from storagelab.vocab import STORAGE_APIS, STORAGE_OPS

RULES = builtin_rules()
TRACKER = "https://t.net/w"
ORIGIN = "https://sub.t.net:8443"


class TestSiteOf:
    """The party split: a subject is first party iff its site (``site_of``)
    is the top-level page's site, which ``resolve_partition`` compares."""

    def test_site_of_uses_etld_plus_one(self, rules):
        assert site_of("https://deep.sub.example.co.uk/x", rules) == "example.co.uk"

    def test_same_site_subdomain_is_first(self, rules):
        assert site_of("https://cdn.a.com/x", rules) == site_of("https://www.a.com/", rules)
        assert site_of("https://sub.a.com/inner", rules) == site_of("https://a.com/", rules)

    def test_distinct_sites_are_third(self, rules):
        assert site_of(TRACKER, rules) != site_of("https://a.com/", rules)

    def test_host_without_registrable_domain_uses_full_host(self, rules):
        assert site_of("https://com/x", rules) == site_of("https://com/y", rules) == "com"
        assert site_of("http://127.0.0.1/", rules) == "127.0.0.1"

    def test_missing_host_raises(self, rules):
        for url in ("not-a-url", "https:///path"):
            with pytest.raises(ValueError, match="URL has no host"):
                site_of(url, rules)


# (policy, top site, subject site, subject id, key): first and third parties
# under each policy, each with its site or its origin as identifier. A first
# party's key ignores the identifier.
@pytest.mark.parametrize("url, origin", [
    ("https://sub.t.net:8443/w", ORIGIN),
    ("HTTP://Sub.T.net/w", "http://sub.t.net"),
    ("http://127.0.0.1:8080/", "http://127.0.0.1:8080"),
    # RFC 6454 §6.2 writes an IPv6 host in its brackets, which keeps these
    # two origins apart: without them both read https://::1:8080.
    ("https://[::1]:8080/a", "https://[::1]:8080"),
    ("https://[::1:8080]/a", "https://[::1:8080]"),
    ("https://[2001:DB8::1]/", "https://[2001:db8::1]"),
])
def test_origin_of(url, origin):
    assert origin_of(url) == origin


PARTITIONS = [
    (PolicyKind.PERMISSIVE, "a.com", "a.com", "a.com", ("first", "a.com")),
    (PolicyKind.PERMISSIVE, "a.com", "a.com", "https://cdn.a.com", ("first", "a.com")),
    (PolicyKind.PERMISSIVE, "a.com", "t.net", "t.net", ("permissive", "t.net")),
    (PolicyKind.PERMISSIVE, "b.com", "t.net", ORIGIN, ("permissive", ORIGIN)),
    (PolicyKind.BLOCKING, "a.com", "a.com", "a.com", ("first", "a.com")),
    (PolicyKind.BLOCKING, "a.com", "a.com", "https://cdn.a.com", ("first", "a.com")),
    (PolicyKind.BLOCKING, "a.com", "t.net", "t.net", None),
    (PolicyKind.BLOCKING, "a.com", "t.net", ORIGIN, None),
    (PolicyKind.SITE_KEYED, "a.com", "a.com", "a.com", ("first", "a.com")),
    (PolicyKind.SITE_KEYED, "a.com", "a.com", "https://cdn.a.com", ("first", "a.com")),
    (PolicyKind.SITE_KEYED, "a.com", "t.net", "t.net", ("site-keyed", "a.com", "t.net")),
    (PolicyKind.SITE_KEYED, "b.com", "t.net", "t.net", ("site-keyed", "b.com", "t.net")),
    (PolicyKind.SITE_KEYED, "a.com", "t.net", ORIGIN, ("site-keyed", "a.com", ORIGIN)),
    (PolicyKind.PAGE_LENGTH, "a.com", "a.com", "a.com", ("first", "a.com")),
    (PolicyKind.PAGE_LENGTH, "a.com", "a.com", "https://cdn.a.com", ("first", "a.com")),
    (PolicyKind.PAGE_LENGTH, "a.com", "t.net", "t.net", ("page-length", "t.net")),
    (PolicyKind.PAGE_LENGTH, "b.com", "t.net", "t.net", ("page-length", "t.net")),
    (PolicyKind.PAGE_LENGTH, "a.com", "t.net", ORIGIN, ("page-length", ORIGIN)),
]


@pytest.mark.parametrize("policy, top_site, subject_site, subject_id, key", PARTITIONS)
def test_resolve_partition(policy, top_site, subject_site, subject_id, key):
    assert resolve_partition(policy, top_site, subject_site, subject_id) == key


def names(jar: Jar) -> list[str]:
    return sorted(cookie.name for cookie in jar.values())


def set_cookie(jar: Jar | None, header: str, url: str = TRACKER) -> None:
    name, _, value = header.partition("=")
    storage_access(jar, "set", "cookie", name, value, url=url, rules=RULES, now=1.0)


class TestPartitionJar:
    """A page load's page-length jars and its profile's persistent jars are
    two dicts; ``partition_jar`` picks one by the key's kind."""

    def test_blocked_has_no_jar(self):
        page, profile = {}, {}
        assert partition_jar(None, page, profile) is None
        assert page == {} and profile == {}

    @pytest.mark.parametrize("key", [("first", "a.com"), ("permissive", "t.net"),
                                     ("site-keyed", "a.com", "t.net")])
    def test_persistent_jar_created_empty_in_the_profile(self, key):
        page, profile = {}, {}
        jar = partition_jar(key, page, profile)
        assert len(jar) == 0
        assert profile == {key: jar} and page == {}
        assert partition_jar(key, {}, profile) is jar

    def test_page_length_jar_created_empty_in_the_page_load(self):
        page, profile = {}, {}
        jar = partition_jar(("page-length", "t.net"), page, profile)
        assert len(jar) == 0
        assert page == {("page-length", "t.net"): jar} and profile == {}
        assert partition_jar(("page-length", "t.net"), page, profile) is jar


class TestStorageAccess:
    def test_dom_ops_and_gets_change_no_state(self):
        # Only a cookie set or delete changes the frame's jar.
        jar = {}
        for api in STORAGE_APIS:
            for op in STORAGE_OPS:
                if api != "cookie" or op == "get":
                    assert storage_access(jar, op, api, "u", "x", url=TRACKER, rules=RULES) is None
        assert len(jar) == 0

    def test_blocked_checks_the_op_and_changes_nothing(self):
        with pytest.raises(ValueError, match="unknown storage op 'clear'"):
            storage_access(None, "clear", "session", url=TRACKER, rules=RULES)
        assert set_cookie(None, "a=1") is None
        assert storage_access(None, "delete", "cookie", "a", url=TRACKER, rules=RULES) is None

    def test_same_partition_shared_between_frames(self, rules):
        # Two frames from the same third party on one page resolve to equal
        # keys, so a cookie set by one is visible to the other.
        page, profile = {}, {}
        sites = [site_of(url, rules) for url in (TRACKER, "https://t.net/other")]
        key_1, key_2 = (resolve_partition(PolicyKind.PAGE_LENGTH, "a.com", site, site)
                        for site in sites)
        assert key_1 == key_2
        set_cookie(partition_jar(key_1, page, profile), "u=x")
        assert cookies_for_request(partition_jar(key_2, page, profile), "https://t.net/other",
                                   2.0) == [("u", "x")]

    def test_cookie_api_round_trip(self):
        jar = {}
        storage_access(jar, "set", "cookie", "uid", "tok", url=TRACKER, rules=RULES, now=1.0)
        assert cookies_for_request(jar, TRACKER, 2.0) == [("uid", "tok")]
        storage_access(jar, "delete", "cookie", "uid", url=TRACKER, rules=RULES, now=3.0)
        assert cookies_for_request(jar, TRACKER, 4.0) == []

    def test_script_cookie_with_public_suffix_domain_not_stored(self):
        jar = {}
        url = "https://x.co.uk/w"
        set_cookie(jar, "uid=tok; Domain=co.uk", url)
        assert names(jar) == []
        set_cookie(jar, "uid=tok; Domain=x.co.uk", url)
        assert cookies_for_request(jar, url, 4.0) == [("uid", "tok")]

    def test_cookie_delete_with_hostless_url_is_noop(self):
        jar = {}
        set_cookie(jar, "uid=tok")
        assert storage_access(jar, "delete", "cookie", "uid", url="not-a-url", rules=RULES,
                              now=2.0) is None
        assert names(jar) == ["uid"]

    def test_unknown_api_or_op(self):
        jar = {}
        with pytest.raises(ValueError, match="unknown storage api 'webSQL'"):
            storage_access(jar, "get", "webSQL", "k", url=TRACKER, rules=RULES)
        with pytest.raises(ValueError, match="unknown storage op 'peek'"):
            storage_access(jar, "peek", "local", "k", url=TRACKER, rules=RULES)


class TestScriptCookieDelete:
    """A script deletes only the cookies of that name its frame can read
    (RFC 6265 section 5.4 step 1: host-only, domain-match and path-match)."""

    def delete(self, set_url: str, header: str, delete_url: str) -> list[str]:
        jar = {}
        set_cookie(jar, header, set_url)
        assert len(jar) == 1
        assert storage_access(jar, "delete", "cookie", header.split("=")[0], url=delete_url,
                              rules=RULES, now=2.0) is None
        return names(jar)

    def test_host_only_cookie_survives_delete_from_subdomain(self):
        assert self.delete("https://a.t.net/w", "uid=1", "https://b.a.t.net/w") == ["uid"]

    def test_path_cookie_survives_delete_from_other_path(self):
        assert self.delete("https://t.net/x", "p=1; Path=/x", "https://t.net/other") == ["p"]

    def test_domain_cookie_deleted_from_subdomain(self):
        assert self.delete("https://t.net/w", "sid=1; Domain=t.net", "https://x.t.net/w") == []

    def test_other_names_survive(self):
        jar = {}
        set_cookie(jar, "a=1")
        set_cookie(jar, "b=2")
        storage_access(jar, "delete", "cookie", "a", url=TRACKER, rules=RULES, now=2.0)
        assert names(jar) == ["b"]


class TestIsolationProperties:
    def test_page_load_isolation(self):
        # Two page loads of one profile: each has its own page-length jars.
        page_1, page_2, profile = {}, {}, {}
        set_cookie(partition_jar(("page-length", "t.net"), page_1, profile), "u=x")
        assert names(partition_jar(("page-length", "t.net"), page_1, profile)) == ["u"]
        assert names(partition_jar(("page-length", "t.net"), page_2, profile)) == []
        assert profile == {}

    def test_site_keyed_isolation_between_top_sites(self):
        profile = {}
        set_cookie(partition_jar(("site-keyed", "a.com", "t.net"), {}, profile), "u=x")
        assert names(partition_jar(("site-keyed", "a.com", "t.net"), {}, profile)) == ["u"]
        assert names(partition_jar(("site-keyed", "b.com", "t.net"), {}, profile)) == []

    def test_keys_of_two_kinds_never_compare_equal(self):
        # One third party under each policy, and as the first party: the
        # tag keeps five keys apart (blocking's is None).
        keys = {resolve_partition(policy, "a.com", "t.net", "t.net") for policy in PolicyKind}
        keys.add(resolve_partition(PolicyKind.PERMISSIVE, "t.net", "t.net", "t.net"))
        assert len(keys) == 5
