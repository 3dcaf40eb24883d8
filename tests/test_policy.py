import pytest

from storagelab.policy import (
    BLOCKED,
    Blocked,
    Ephemeral,
    FirstParty,
    GlobalThirdParty,
    PartitionStore,
    Party,
    PolicyKind,
    SiteKeyedThirdParty,
    classify_party,
    resolve_partition,
    site_of,
)
from storagelab.psl import builtin_rules

RULES = builtin_rules()
TOP = "https://www.a.com/"
TRACKER = "https://t.net/w"


class TestClassifyParty:
    def test_same_site_subdomain_is_first(self, rules):
        assert classify_party("https://cdn.a.com/x", TOP, rules) is Party.FIRST

    def test_distinct_sites_are_third(self, rules):
        assert classify_party(TRACKER, "https://a.com/", rules) is Party.THIRD

    def test_nested_frames_classify_against_top_only(self, rules):
        # t.net inside b.org inside a.com: relative to the top page, not b.org.
        assert classify_party(TRACKER, "https://a.com/", rules) is Party.THIRD
        assert classify_party("https://sub.a.com/inner", "https://a.com/", rules) is Party.FIRST

    def test_host_without_registrable_domain_uses_full_host(self, rules):
        assert classify_party("https://com/x", "https://com/y", rules) is Party.FIRST

    def test_missing_host_raises(self, rules):
        with pytest.raises(ValueError):
            classify_party("not-a-url", TOP, rules)


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


class TestStorageAccess:
    def test_local_round_trip_under_ephemeral(self):
        store = PartitionStore(RULES)
        key = Ephemeral(1, "t.net")
        store.storage_access(key, "set", "local", "u", "x")
        assert store.storage_access(key, "get", "local", "u") == "x"

    def test_blocked_get_is_absent_and_nothing_mutates(self):
        store = PartitionStore(RULES)
        store.storage_access(BLOCKED, "set", "local", "u", "x")
        assert store.storage_access(BLOCKED, "get", "local", "u") is None
        store.storage_access(BLOCKED, "delete", "indexed", "u")
        store.storage_access(BLOCKED, "clear", "session")
        store.storage_access(BLOCKED, "set", "cookie", "a", "1", url=TRACKER)
        assert store.persistent == {} and store.ephemeral == {}

    def test_same_partition_shared_between_frames(self, rules):
        # Two frames from the same third party on one page resolve to equal
        # keys, so a value set by one is visible to the other.
        store = PartitionStore(RULES)
        key_1 = resolve_partition(PolicyKind.PAGE_LENGTH, "https://a.com/", 5, TRACKER, rules)
        key_2 = resolve_partition(PolicyKind.PAGE_LENGTH, "https://a.com/", 5,
                                  "https://t.net/other", rules)
        assert key_1 == key_2
        store.storage_access(key_1, "set", "local", "u", "x")
        assert store.storage_access(key_2, "get", "local", "u") == "x"

    def test_cookie_api_round_trip(self):
        store = PartitionStore(RULES)
        key = GlobalThirdParty("t.net")
        store.storage_access(key, "set", "cookie", "uid", "tok", url=TRACKER, now=1.0)
        assert store.storage_access(key, "get", "cookie", "uid", url=TRACKER, now=2.0) == "tok"
        store.storage_access(key, "delete", "cookie", "uid", url=TRACKER, now=3.0)
        assert store.storage_access(key, "get", "cookie", "uid", url=TRACKER, now=4.0) is None

    def test_script_cookie_with_public_suffix_domain_not_stored(self):
        key = GlobalThirdParty("x.co.uk")
        store = PartitionStore(RULES)
        url = "https://x.co.uk/w"
        store.storage_access(key, "set", "cookie", "uid", "tok; Domain=co.uk", url=url, now=1.0)
        assert store.storage_access(key, "get", "cookie", "uid", url=url, now=2.0) is None
        store.storage_access(key, "set", "cookie", "uid", "tok; Domain=x.co.uk", url=url, now=3.0)
        assert store.storage_access(key, "get", "cookie", "uid", url=url, now=4.0) == "tok"

    def test_cookie_delete_with_hostless_url_is_noop(self):
        store = PartitionStore(RULES)
        key = GlobalThirdParty("t.net")
        store.storage_access(key, "set", "cookie", "uid", "tok", url=TRACKER, now=1.0)
        assert store.storage_access(key, "delete", "cookie", "uid", url="not-a-url", now=2.0) is None
        assert store.storage_access(key, "get", "cookie", "uid", url=TRACKER, now=3.0) == "tok"

    def test_session_buckets_scoped_per_tab_and_load(self):
        store = PartitionStore(RULES)
        key = FirstParty("a.com")
        store.storage_access(key, "set", "session", "k", "v", session_scope="tab1:1")
        assert store.storage_access(key, "get", "session", "k", session_scope="tab1:1") == "v"
        assert store.storage_access(key, "get", "session", "k", session_scope="tab2:2") is None

    def test_area_created_empty_on_demand(self):
        store = PartitionStore(RULES)
        key = SiteKeyedThirdParty("a.com", "t.net")
        assert store.storage_access(key, "get", "local", "missing") is None
        assert key in store.persistent

    def test_unknown_api_or_op(self):
        store = PartitionStore(RULES)
        with pytest.raises(ValueError):
            store.storage_access(FirstParty("a.com"), "get", "webSQL", "k")
        with pytest.raises(ValueError):
            store.storage_access(FirstParty("a.com"), "peek", "local", "k")


class TestEndPageLoad:
    def test_ephemeral_areas_destroyed(self):
        store = PartitionStore(RULES)
        store.storage_access(Ephemeral(1, "t.net"), "set", "local", "u", "x")
        store.end_page_load(1)
        assert store.storage_access(Ephemeral(2, "t.net"), "get", "local", "u") is None
        assert Ephemeral(1, "t.net") not in store.ephemeral

    def test_persistent_areas_survive(self):
        store = PartitionStore(RULES)
        store.storage_access(FirstParty("a.com"), "set", "local", "u", "x")
        store.end_page_load(1)
        assert store.storage_access(FirstParty("a.com"), "get", "local", "u") == "x"

    def test_idempotent(self):
        store = PartitionStore(RULES)
        store.storage_access(Ephemeral(1, "t.net"), "set", "local", "u", "x")
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
        store.storage_access(Ephemeral(1, "t.net"), "set", "local", "u", "x")
        assert store.storage_access(Ephemeral(2, "t.net"), "get", "local", "u") is None

    def test_site_keyed_isolation_between_top_sites(self):
        store = PartitionStore(RULES)
        store.storage_access(SiteKeyedThirdParty("a.com", "t.net"), "set", "local", "u", "x")
        assert store.storage_access(
            SiteKeyedThirdParty("b.com", "t.net"), "get", "local", "u") is None

    def test_site_of_uses_etld_plus_one(self, rules):
        assert site_of("https://deep.sub.example.co.uk/x", rules) == "example.co.uk"

    def test_blocked_is_shared_singleton_value(self):
        assert Blocked() == BLOCKED
