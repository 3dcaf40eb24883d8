"""Storage partition resolution for the four third-party storage policies.

A partition key names the cookie jar a frame or request reads and writes.
It is a tuple whose first item names its kind. First-party storage is keyed
``("first", top_site)`` under every policy; the policies differ only in what
they hand third parties, each keyed by its policy's value:

* permissive   - ``("permissive", id)``: one global partition per third party
* blocking     - no partition at all (``None``); every access is a silent no-op
* site-keyed   - ``("site-keyed", top_site, id)``: persistent partition per
                 (first-party site, third party)
* page-length  - ``("page-length", id)``: ephemeral partition per (page load,
                 third party), destroyed when the top-level page goes away

The policies are defined on sites, and so is ``resolve_partition``. A third
party's identifier is its site (eTLD+1), or its scheme://host[:port] origin
under origin keying; replay forms each URL's site or origin once per run.
A page-length key names only its subject: it is looked up in the jars of
the page load that resolved it, which die with that load, while every other
key is looked up in its profile's jars (``partition_jar``).
"""

from __future__ import annotations

from enum import Enum
from urllib.parse import urlsplit

from storagelab.cookies import Jar, add_cookie, host_and_path, matching_cookies, parse_set_cookie
from storagelab.psl import SuffixRuleSet, etld_plus_one
from storagelab.trace import STORAGE_APIS, STORAGE_OPS


class PolicyKind(Enum):
    PERMISSIVE = "permissive"
    BLOCKING = "blocking"
    SITE_KEYED = "site-keyed"
    PAGE_LENGTH = "page-length"


def site_of(url: str, rules: SuffixRuleSet) -> str:
    """eTLD+1 of the URL's host; hosts with no registrable domain (bare
    suffixes, IP addresses) are their own site."""
    host = host_and_path(url)[0]
    if not host:
        raise ValueError(f"URL has no host: {url!r}")
    return etld_plus_one(host, rules) or host


def origin_of(url: str) -> str:
    """The URL's origin serialized as RFC 6454 §6.2 does:
    scheme://host[:port], an IPv6 host in its brackets."""
    parts = urlsplit(url)
    if not parts.hostname:
        raise ValueError(f"URL has no host: {url!r}")
    host = parts.hostname.lower()
    origin = f"{parts.scheme}://[{host}]" if ":" in host else f"{parts.scheme}://{host}"
    if parts.port is not None:
        origin += f":{parts.port}"
    return origin


def resolve_partition(
    policy: PolicyKind, top_site: str, subject_site: str, subject_id: str
) -> tuple[str, ...] | None:
    """Partition key for a frame (script storage) or request destination of
    site ``subject_site`` on a top-level page of site ``top_site``, or None
    when blocked. The subject is first party iff its site is the top site
    (not an intermediate parent's); a third party is keyed by ``subject_id``,
    its site or its origin."""
    if subject_site == top_site:
        return ("first", top_site)
    if policy is PolicyKind.BLOCKING:
        return None
    if policy is PolicyKind.SITE_KEYED:
        return (policy.value, top_site, subject_id)
    return (policy.value, subject_id)


def partition_jar(
    key: tuple[str, ...] | None,
    page_jars: dict[tuple[str, ...], Jar],
    profile_jars: dict[tuple[str, ...], Jar],
) -> Jar | None:
    """The jar of ``key``, created empty on first use: a page-length key's in
    ``page_jars``, the page load's own, and any other key's in
    ``profile_jars``; None for a blocked (None) key."""
    if key is None:
        return None
    jars = page_jars if key[0] == "page-length" else profile_jars
    jar = jars.get(key)
    if jar is None:
        jar = jars[key] = {}
    return jar


def storage_access(
    jar: Jar | None,
    op: str,
    api: str,
    storage_key: str | None = None,
    value: str | None = None,
    *,
    url: str,
    rules: SuffixRuleSet,
    now: float = 0.0,
) -> None:
    """Check one script storage op of the frame at ``url``; only a cookie
    ``set`` or ``delete`` then changes its ``jar`` (None when blocked). A set
    is parsed against the suffix ``rules``; a delete removes the cookies of
    that name that ``url`` can read."""
    if api not in STORAGE_APIS:
        raise ValueError(f"unknown storage api {api!r}")
    if op not in STORAGE_OPS:
        raise ValueError(f"unknown storage op {op!r}")
    if jar is None or api != "cookie" or op == "get":
        return
    if op == "set":
        header = f"{storage_key}={value if value is not None else ''}"
        cookie = parse_set_cookie(header, url, rules, now)
        if cookie is not None:
            add_cookie(jar, cookie)
    else:  # delete
        for cookie in matching_cookies(jar, url, now, storage_key):
            del jar[cookie.name, cookie.domain, cookie.path]
