import pytest

from storagelab.cookies import cookies_for_request
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
TOP = "https://www.a.com/"
TRACKER = "https://t.net/w"


def is_first_party(subject_url: str, top_url: str, rules) -> bool:
    key = resolve_partition(PolicyKind.PERMISSIVE, top_url, 1, subject_url, rules)
    return isinstance(key, FirstParty)


class TestClassifyParty:
    """The party split inside ``resolve_partition``: first party iff the
    subject's site equals the top-level page's site."""

    def test_same_site_subdomain_is_first(self, rules):
        assert is_first_party("https://cdn.a.com/x", TOP, rules)

    def test_distinct_sites_are_third(self, rules):
        assert not is_first_party(TRACKER, "https://a.com/", rules)

    def test_nested_frames_classify_against_top_only(self, rules):
        # t.net inside b.org inside a.com: relative to the top page, not b.org.
        assert not is_first_party(TRACKER, "https://a.com/", rules)
        assert is_first_party("https://sub.a.com/inner", "https://a.com/", rules)

    def test_host_without_registrable_domain_uses_full_host(self, rules):
        assert is_first_party("https://com/x", "https://com/y", rules)

    def test_missing_host_raises(self, rules):
        with pytest.raises(ValueError):
            resolve_partition(PolicyKind.PERMISSIVE, TOP, 1, "not-a-url", rules)


class TestResolvePartition:
    def test_page_length_third_party(self, rules):
        key = resolve_partition(PolicyKind.PAGE_LENGTH, "https://a.com/", 1, TRACKER, rules)
        assert key == Ephemeral(1, "t.net")

    def test_blocking_third_party(self, rules):
        key = resolve_partition(PolicyKind.BLOCKING, "https://a.com/", 1, TRACKER, rules)
        assert key == BLOCKED

    def test_site_keyed_differs_by_top_site(self, rules):
        key_a = resolve_partition(PolicyKind.SITE_KEYED, "https://a.com/", 1, TRACKER, rules)
        key_b = resolve_partition(PolicyKind.SITE_KEYED, "https://b.com/", 2, TRACKER, rules)
        assert key_a == SiteKeyedThirdParty("a.com", "t.net")
        assert key_a != key_b

    def test_first_party_same_under_every_policy(self, rules):
        for policy in PolicyKind:
            key = resolve_partition(policy, "https://a.com/", 7, "https://cdn.a.com/x", rules)
            assert key == FirstParty("a.com")

    def test_permissive_third_party_is_global(self, rules):
        key = resolve_partition(PolicyKind.PERMISSIVE, "https://a.com/", 1, TRACKER, rules)
        assert key == GlobalThirdParty("t.net")

    def test_origin_keyed_flag(self, rules):
        key = resolve_partition(PolicyKind.PERMISSIVE, "https://a.com/", 1,
                                "https://sub.t.net:8443/w", rules, origin_keyed=True)
        assert key == GlobalThirdParty("https://sub.t.net:8443")


def names(store: PartitionStore, key) -> list[str]:
    """Names of the cookies in the jar of ``key`` (creating it if absent)."""
    return sorted(cookie.name for cookie in store.jar(key).cookies())


def set_cookie(store: PartitionStore, key, header: str, url: str = TRACKER) -> None:
    name, _, value = header.partition("=")
    store.storage_access(key, "set", "cookie", name, value, url=url, now=1.0)


class TestStorageAccess:
    def test_dom_ops_and_gets_change_no_state(self):
        # Only a cookie set or delete reaches a jar; nothing else makes one.
        store = PartitionStore(RULES)
        keys = [FirstParty("a.com"), GlobalThirdParty("t.net"),
                SiteKeyedThirdParty("a.com", "t.net"), Ephemeral(1, "t.net")]
        for key in keys:
            for api in STORAGE_APIS:
                for op in STORAGE_OPS:
                    if api != "cookie" or op == "get":
                        assert store.storage_access(key, op, api, "u", "x", url=TRACKER) is None
        assert store.persistent == {} and store.ephemeral == {}

    def test_blocked_get_is_absent_and_nothing_mutates(self):
        store = PartitionStore(RULES)
        assert store.jar(BLOCKED) is None
        with pytest.raises(ValueError, match="unknown storage op 'clear'"):
            store.storage_access(BLOCKED, "clear", "session")
        set_cookie(store, BLOCKED, "a=1")
        store.storage_access(BLOCKED, "delete", "cookie", "a", url=TRACKER)
        assert store.persistent == {} and store.ephemeral == {}

    def test_same_partition_shared_between_frames(self, rules):
        # Two frames from the same third party on one page resolve to equal
        # keys, so a cookie set by one is visible to the other.
        store = PartitionStore(RULES)
        key_1 = resolve_partition(PolicyKind.PAGE_LENGTH, "https://a.com/", 5, TRACKER, rules)
        key_2 = resolve_partition(PolicyKind.PAGE_LENGTH, "https://a.com/", 5,
                                  "https://t.net/other", rules)
        assert key_1 == key_2
        set_cookie(store, key_1, "u=x")
        assert cookies_for_request(store.jar(key_2), "https://t.net/other", 2.0) == [("u", "x")]

    def test_cookie_api_round_trip(self):
        store = PartitionStore(RULES)
        key = GlobalThirdParty("t.net")
        store.storage_access(key, "set", "cookie", "uid", "tok", url=TRACKER, now=1.0)
        assert cookies_for_request(store.jar(key), TRACKER, 2.0) == [("uid", "tok")]
        store.storage_access(key, "delete", "cookie", "uid", url=TRACKER, now=3.0)
        assert cookies_for_request(store.jar(key), TRACKER, 4.0) == []

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
        assert store.storage_access(key, "delete", "cookie", "uid", url="not-a-url", now=2.0) is None
        assert names(store, key) == ["uid"]

    def test_area_created_empty_on_demand(self):
        store = PartitionStore(RULES)
        key = SiteKeyedThirdParty("a.com", "t.net")
        assert len(store.jar(key)) == 0
        assert key in store.persistent
        assert store.jar(key) is store.persistent[key]

    def test_unknown_api_or_op(self):
        store = PartitionStore(RULES)
        with pytest.raises(ValueError):
            store.storage_access(FirstParty("a.com"), "get", "webSQL", "k")
        with pytest.raises(ValueError):
            store.storage_access(FirstParty("a.com"), "peek", "local", "k")


class TestScriptCookieDelete:
    """A script deletes only the cookies of that name its frame can read
    (RFC 6265 section 5.4 step 1: host-only, domain-match and path-match)."""

    KEY = GlobalThirdParty("t.net")

    def delete(self, set_url: str, header: str, delete_url: str) -> list[str]:
        store = PartitionStore(RULES)
        set_cookie(store, self.KEY, header, set_url)
        assert len(store.jar(self.KEY)) == 1
        assert store.storage_access(self.KEY, "delete", "cookie", header.split("=")[0],
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
        store.storage_access(self.KEY, "delete", "cookie", "a", url=TRACKER, now=2.0)
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

    def test_site_of_uses_etld_plus_one(self, rules):
        assert site_of("https://deep.sub.example.co.uk/x", rules) == "example.co.uk"

    def test_blocked_is_shared_singleton_value(self):
        assert Blocked() == BLOCKED
