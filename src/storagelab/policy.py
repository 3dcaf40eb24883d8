"""Storage partition resolution for the four third-party storage policies.

A partition key names the identity a cookie jar and DOM-storage buckets live
under. First-party storage is keyed the same way under every policy; the
policies differ only in what they hand third parties:

* permissive   - one global partition per third-party site
* blocking     - no partition at all; every access is a silent no-op
* site-keyed   - persistent partition per (first-party site, third-party site)
* page-length  - ephemeral partition per (page load, third-party site),
                 destroyed when the top-level page goes away

Partition identity is site-granular (eTLD+1) by default; ``origin_keyed``
switches the third-party identifier to scheme://host[:port].
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from urllib.parse import urlsplit

from storagelab.cookies import (CookieJar, cookies_for_request, domain_match, host_and_path,
                                parse_set_cookie)
from storagelab.psl import SuffixRuleSet, etld_plus_one
from storagelab.record import Record


class PolicyKind(Enum):
    PERMISSIVE = "permissive"
    BLOCKING = "blocking"
    SITE_KEYED = "site-keyed"
    PAGE_LENGTH = "page-length"


class Party(Enum):
    FIRST = "first"
    THIRD = "third"


# Partition keys are records, so keys of two kinds never compare equal.

class FirstParty(Record):
    __slots__ = ("site",)


class GlobalThirdParty(Record):
    __slots__ = ("site",)


class SiteKeyedThirdParty(Record):
    __slots__ = ("first_party_site", "third_party_site")


class Ephemeral(Record):
    __slots__ = ("load_key", "third_party_site")


class Blocked(Record):
    __slots__ = ()


PartitionKey = FirstParty | GlobalThirdParty | SiteKeyedThirdParty | Ephemeral | Blocked

BLOCKED = Blocked()

STORAGE_APIS = ("cookie", "local", "session", "indexed")
STORAGE_OPS = ("get", "set", "delete")


def host_of(url: str) -> str:
    host = host_and_path(url)[0]
    if not host:
        raise ValueError(f"URL has no host: {url!r}")
    return host


# Bounded so memory stays flat on long traces; URLs recur within a page load.
@lru_cache(maxsize=4096)
def site_of(url: str, rules: SuffixRuleSet) -> str:
    """eTLD+1 of the URL's host; hosts with no registrable domain (bare
    suffixes, IP addresses) are their own site. Memoized per (URL, rule set),
    so each distinct URL is split and looked up once."""
    host = host_of(url)
    return etld_plus_one(host, rules) or host


def origin_of(url: str) -> str:
    parts = urlsplit(url)
    if not parts.hostname:
        raise ValueError(f"URL has no host: {url!r}")
    origin = f"{parts.scheme}://{parts.hostname.lower()}"
    if parts.port is not None:
        origin += f":{parts.port}"
    return origin


def resolve_partition(
    policy: PolicyKind,
    top_url: str,
    load_key: int,
    subject_url: str,
    rules: SuffixRuleSet,
    *,
    origin_keyed: bool = False,
) -> PartitionKey:
    """Partition key for a frame (script storage) or request destination. The
    subject is first party iff its site equals the top-level page's site (not
    an intermediate parent's)."""
    top_site = site_of(top_url, rules)
    subject_site = site_of(subject_url, rules)
    if subject_site == top_site:
        return FirstParty(top_site)
    subject = origin_of(subject_url) if origin_keyed else subject_site
    if policy is PolicyKind.PERMISSIVE:
        return GlobalThirdParty(subject)
    if policy is PolicyKind.BLOCKING:
        return BLOCKED
    if policy is PolicyKind.SITE_KEYED:
        return SiteKeyedThirdParty(top_site, subject)
    return Ephemeral(load_key, subject)


class StorageArea:
    """One cookie jar plus the keyed DOM-storage buckets of a partition.

    Session buckets are additionally scoped per (tab, load); the scope token
    is supplied by the caller and is uniform across policies.
    """

    __slots__ = ("jar", "local", "indexed", "session")

    def __init__(self) -> None:
        self.jar = CookieJar()
        self.local: dict[str, str] = {}
        self.indexed: dict[str, str] = {}
        self.session: dict[str, dict[str, str]] = {}


class PartitionStore:
    """All storage areas of one simulated browser profile.

    Areas are created empty on first touch and live exactly as long as their
    partition key: persistent keys survive page loads, ephemeral keys die
    with :meth:`end_page_load`. A Blocked key never stores anything.
    Cookies set through the store are parsed against the profile's suffix
    ``rules``.
    """

    def __init__(self, rules: SuffixRuleSet) -> None:
        self.rules = rules
        self.persistent: dict[PartitionKey, StorageArea] = {}
        self.ephemeral: dict[PartitionKey, StorageArea] = {}

    def area(self, key: PartitionKey) -> StorageArea | None:
        if isinstance(key, Blocked):
            return None
        bucket = self.ephemeral if isinstance(key, Ephemeral) else self.persistent
        if key not in bucket:
            bucket[key] = StorageArea()
        return bucket[key]

    def storage_access(
        self,
        key: PartitionKey,
        op: str,
        api: str,
        storage_key: str | None = None,
        value: str | None = None,
        *,
        url: str | None = None,
        now: float = 0.0,
        session_scope: str = "",
    ) -> str | None:
        """Perform one storage operation under a partition key.

        Blocked keys make every op a silent no-op; get returns None rather
        than raising. ``url`` is required for the cookie api (it provides the
        setting host and request path).
        """
        if api not in STORAGE_APIS:
            raise ValueError(f"unknown storage api {api!r}")
        if op not in STORAGE_OPS:
            raise ValueError(f"unknown storage op {op!r}")
        area = self.area(key)
        if area is None:
            return None

        if api == "cookie":
            if url is None:
                raise ValueError("cookie access requires the frame URL")
            return self._cookie_access(area.jar, op, storage_key, value, url, now)

        if api == "session":
            bucket = area.session.setdefault(session_scope, {})
        else:
            bucket = area.local if api == "local" else area.indexed

        if op == "get":
            return bucket.get(storage_key)  # type: ignore[arg-type]
        if op == "set":
            bucket[storage_key] = value  # type: ignore[index]
        else:  # delete
            bucket.pop(storage_key, None)
        return None

    def _cookie_access(
        self, jar: CookieJar, op: str, name: str | None, value: str | None, url: str, now: float
    ) -> str | None:
        if op == "get":
            for cookie_name, cookie_value in cookies_for_request(jar, url, now):
                if cookie_name == name:
                    return cookie_value
            return None
        if op == "set":
            header = f"{name}={value if value is not None else ''}"
            cookie = parse_set_cookie(header, url, self.rules, now)
            if cookie is not None:
                jar.add(cookie)
        else:  # delete
            try:
                host = host_of(url)
            except ValueError:  # a URL without a host matches no cookie
                return None
            for cookie in jar.cookies():
                if cookie.name == name and domain_match(host, cookie.domain):
                    jar.remove(cookie.name, cookie.domain, cookie.path)
        return None

    def end_page_load(self, load_key: int) -> None:
        """Destroy every ephemeral area minted under ``load_key``. Idempotent."""
        dead = [k for k in self.ephemeral if isinstance(k, Ephemeral) and k.load_key == load_key]
        for k in dead:
            del self.ephemeral[k]

