import pytest

from storagelab.cookies import CookieJar, cookies_for_request
from storagelab.policy import (
    BLOCKED,
    STORAGE_APIS,
    STORAGE_OPS,
    Blocked,
    Ephemeral,
    FirstParty,
    GlobalThirdParty,
    PartitionStore,
    PolicyKind,
    SiteKeyedThirdParty,
    resolve_partition,
    site_of,
)
from storagelab.psl import builtin_rules

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


# (policy, top site, load key, subject site, subject id, key): first and third
# parties under each policy, each with its site or its origin as identifier.
# A first party's key ignores the identifier and the load.
PARTITIONS = [
    (PolicyKind.PERMISSIVE, "a.com", 1, "a.com", "a.com", FirstParty("a.com")),
    (PolicyKind.PERMISSIVE, "a.com", 1, "a.com", "https://cdn.a.com", FirstParty("a.com")),
    (PolicyKind.PERMISSIVE, "a.com", 1, "t.net", "t.net", GlobalThirdParty("t.net")),
    (PolicyKind.PERMISSIVE, "b.com", 2, "t.net", ORIGIN, GlobalThirdParty(ORIGIN)),
    (PolicyKind.BLOCKING, "a.com", 1, "a.com", "a.com", FirstParty("a.com")),
    (PolicyKind.BLOCKING, "a.com", 1, "a.com", "https://cdn.a.com", FirstParty("a.com")),
    (PolicyKind.BLOCKING, "a.com", 1, "t.net", "t.net", BLOCKED),
    (PolicyKind.BLOCKING, "a.com", 1, "t.net", ORIGIN, BLOCKED),
    (PolicyKind.SITE_KEYED, "a.com", 7, "a.com", "a.com", FirstParty("a.com")),
    (PolicyKind.SITE_KEYED, "a.com", 7, "a.com", "https://cdn.a.com", FirstParty("a.com")),
    (PolicyKind.SITE_KEYED, "a.com", 1, "t.net", "t.net", SiteKeyedThirdParty("a.com", "t.net")),
    (PolicyKind.SITE_KEYED, "b.com", 2, "t.net", "t.net", SiteKeyedThirdParty("b.com", "t.net")),
    (PolicyKind.SITE_KEYED, "a.com", 1, "t.net", ORIGIN, SiteKeyedThirdParty("a.com", ORIGIN)),
    (PolicyKind.PAGE_LENGTH, "a.com", 7, "a.com", "a.com", FirstParty("a.com")),
    (PolicyKind.PAGE_LENGTH, "a.com", 7, "a.com", "https://cdn.a.com", FirstParty("a.com")),
    (PolicyKind.PAGE_LENGTH, "a.com", 1, "t.net", "t.net", Ephemeral(1, "t.net")),
    (PolicyKind.PAGE_LENGTH, "a.com", 2, "t.net", "t.net", Ephemeral(2, "t.net")),
    (PolicyKind.PAGE_LENGTH, "a.com", 1, "t.net", ORIGIN, Ephemeral(1, ORIGIN)),
]


@pytest.mark.parametrize("policy, top_site, load_key, subject_site, subject_id, key", PARTITIONS)
def test_resolve_partition(policy, top_site, load_key, subject_site, subject_id, key):
    assert resolve_partition(policy, top_site, load_key, subject_site, subject_id) == key


def names(store: PartitionStore, key) -> list[str]:
    """Names of the cookies in the jar of ``key`` (creating it if absent)."""
    return sorted(cookie.name for cookie in store.jar(key).cookies())


def set_cookie(store: PartitionStore, key, header: str, url: str = TRACKER) -> None:
    name, _, value = header.partition("=")
    store.storage_access(store.jar(key), "set", "cookie", name, value, url=url, now=1.0)


class TestStorageAccess:
    def test_dom_ops_and_gets_change_no_state(self):
        # Only a cookie set or delete changes the frame's jar.
        store = PartitionStore(RULES)
        jar = CookieJar()
        for api in STORAGE_APIS:
            for op in STORAGE_OPS:
                if api != "cookie" or op == "get":
                    assert store.storage_access(jar, op, api, "u", "x", url=TRACKER) is None
        assert len(jar) == 0
        assert store.persistent == {} and store.ephemeral == {}

    def test_blocked_get_is_absent_and_nothing_mutates(self):
        store = PartitionStore(RULES)
        assert store.jar(BLOCKED) is None
        with pytest.raises(ValueError, match="unknown storage op 'clear'"):
            store.storage_access(None, "clear", "session", url=TRACKER)
        set_cookie(store, BLOCKED, "a=1")
        store.storage_access(None, "delete", "cookie", "a", url=TRACKER)
        assert store.persistent == {} and store.ephemeral == {}

    def test_same_partition_shared_between_frames(self, rules):
        # Two frames from the same third party on one page resolve to equal
        # keys, so a cookie set by one is visible to the other.
        store = PartitionStore(RULES)
        sites = [site_of(url, rules) for url in (TRACKER, "https://t.net/other")]
        key_1, key_2 = (resolve_partition(PolicyKind.PAGE_LENGTH, "a.com", 5, site, site)
                        for site in sites)
        assert key_1 == key_2
        set_cookie(store, key_1, "u=x")
        assert cookies_for_request(store.jar(key_2), "https://t.net/other", 2.0) == [("u", "x")]

    def test_cookie_api_round_trip(self):
        store = PartitionStore(RULES)
        jar = store.jar(GlobalThirdParty("t.net"))
        store.storage_access(jar, "set", "cookie", "uid", "tok", url=TRACKER, now=1.0)
        assert cookies_for_request(jar, TRACKER, 2.0) == [("uid", "tok")]
        store.storage_access(jar, "delete", "cookie", "uid", url=TRACKER, now=3.0)
        assert cookies_for_request(jar, TRACKER, 4.0) == []

    def test_script_cookie_with_public_suffix_domain_not_stored(self):
        key = GlobalThirdParty("x.co.uk")
        store = PartitionStore(RULES)
        url = "https://x.co.uk/w"
        set_cookie(store, key, "uid=tok; Domain=co.uk", url)
        assert names(store, key) == []
        set_cookie(store, key, "uid=tok; Domain=x.co.uk", url)
        assert cookies_for_request(store.jar(key), url, 4.0) == [("uid", "tok")]

    def test_cookie_delete_with_hostless_url_is_noop(self):
        store = PartitionStore(RULES)
        key = GlobalThirdParty("t.net")
        set_cookie(store, key, "uid=tok")
        assert store.storage_access(store.jar(key), "delete", "cookie", "uid", url="not-a-url",
                                    now=2.0) is None
        assert names(store, key) == ["uid"]

    def test_area_created_empty_on_demand(self):
        store = PartitionStore(RULES)
        key = SiteKeyedThirdParty("a.com", "t.net")
        assert len(store.jar(key)) == 0
        assert key in store.persistent
        assert store.jar(key) is store.persistent[key]

    def test_unknown_api_or_op(self):
        store = PartitionStore(RULES)
        jar = store.jar(FirstParty("a.com"))
        with pytest.raises(ValueError):
            store.storage_access(jar, "get", "webSQL", "k", url=TRACKER)
        with pytest.raises(ValueError):
            store.storage_access(jar, "peek", "local", "k", url=TRACKER)


class TestScriptCookieDelete:
    """A script deletes only the cookies of that name its frame can read
    (RFC 6265 section 5.4 step 1: host-only, domain-match and path-match)."""

    KEY = GlobalThirdParty("t.net")

    def delete(self, set_url: str, header: str, delete_url: str) -> list[str]:
        store = PartitionStore(RULES)
        set_cookie(store, self.KEY, header, set_url)
        assert len(store.jar(self.KEY)) == 1
        assert store.storage_access(store.jar(self.KEY), "delete", "cookie", header.split("=")[0],
                                    url=delete_url, now=2.0) is None
        return names(store, self.KEY)

    def test_host_only_cookie_survives_delete_from_subdomain(self):
        assert self.delete("https://a.t.net/w", "uid=1", "https://b.a.t.net/w") == ["uid"]

    def test_path_cookie_survives_delete_from_other_path(self):
        assert self.delete("https://t.net/x", "p=1; Path=/x", "https://t.net/other") == ["p"]

    def test_domain_cookie_deleted_from_subdomain(self):
        assert self.delete("https://t.net/w", "sid=1; Domain=t.net", "https://x.t.net/w") == []

    def test_other_names_survive(self):
        store = PartitionStore(RULES)
        set_cookie(store, self.KEY, "a=1")
        set_cookie(store, self.KEY, "b=2")
        store.storage_access(store.jar(self.KEY), "delete", "cookie", "a", url=TRACKER, now=2.0)
        assert names(store, self.KEY) == ["b"]


class TestEndPageLoad:
    def test_ephemeral_areas_destroyed(self):
        store = PartitionStore(RULES)
        set_cookie(store, Ephemeral(1, "t.net"), "u=x")
        set_cookie(store, Ephemeral(2, "t.net"), "u=y")
        store.end_page_load(1)
        assert list(store.ephemeral) == [2]
        assert names(store, Ephemeral(2, "t.net")) == ["u"]
        assert names(store, Ephemeral(1, "t.net")) == []

    def test_persistent_areas_survive(self):
        store = PartitionStore(RULES)
        set_cookie(store, FirstParty("a.com"), "u=x", "https://a.com/")
        store.end_page_load(1)
        assert cookies_for_request(store.jar(FirstParty("a.com")), "https://a.com/", 2.0) == [
            ("u", "x")]

    def test_idempotent(self):
        store = PartitionStore(RULES)
        set_cookie(store, Ephemeral(1, "t.net"), "u=x")
        assert store.ephemeral != {}
        store.end_page_load(1)
        store.end_page_load(1)
        assert store.ephemeral == {}

    def test_unknown_load_key_is_noop(self):
        store = PartitionStore(RULES)
        store.end_page_load(999)
        assert store.ephemeral == {}


class TestIsolationProperties:
    def test_load_key_isolation(self):
        store = PartitionStore(RULES)
        set_cookie(store, Ephemeral(1, "t.net"), "u=x")
        assert names(store, Ephemeral(1, "t.net")) == ["u"]
        assert names(store, Ephemeral(2, "t.net")) == []

    def test_site_keyed_isolation_between_top_sites(self):
        store = PartitionStore(RULES)
        set_cookie(store, SiteKeyedThirdParty("a.com", "t.net"), "u=x")
        assert names(store, SiteKeyedThirdParty("a.com", "t.net")) == ["u"]
        assert names(store, SiteKeyedThirdParty("b.com", "t.net")) == []

    def test_blocked_is_shared_singleton_value(self):
        assert Blocked() == BLOCKED
