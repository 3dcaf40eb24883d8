"""Minimal deterministic cookie model (RFC 6265 subset).

Covers Set-Cookie parsing (RFC 6265 section 5.2), domain matching (5.1.3),
default-path computation (5.1.4), the public-suffix check on the Domain
attribute (5.3 step 5) and request retrieval ordering (5.4).
Secure, HttpOnly, and SameSite are parsed and ignored. Time is always an
explicit argument: the replayer supplies virtual time, never the wall clock.
"""

from __future__ import annotations

import re
from typing import NamedTuple
from urllib.parse import urlsplit

from storagelab.psl import SuffixRuleSet, etld_plus_one


class Cookie(NamedTuple):
    name: str
    value: str
    domain: str
    host_only: bool
    path: str
    expiry: float | None = None  # absolute seconds; None = lives with its partition
    created_seq: int = 0


class CookieJar:
    """Cookies keyed by (name, domain, path); at most one per key.

    Re-setting an existing key replaces value and expiry and assigns a fresh
    created_seq (old creation order is not retained).
    """

    def __init__(self) -> None:
        self._cookies: dict[tuple[str, str, str], Cookie] = {}
        self._next_seq = 0

    def add(self, cookie: Cookie) -> None:
        seq = self._next_seq
        self._next_seq += 1
        self._cookies[(cookie.name, cookie.domain, cookie.path)] = cookie._replace(created_seq=seq)

    def remove(self, name: str, domain: str, path: str) -> None:
        self._cookies.pop((name, domain, path), None)

    def clear(self) -> None:
        self._cookies.clear()

    def cookies(self) -> list[Cookie]:
        return list(self._cookies.values())

    def __len__(self) -> int:
        return len(self._cookies)


def domain_match(host: str, cookie_domain: str) -> bool:
    """RFC 6265 section 5.1.3: equality, or suffix match on a label boundary."""
    return host == cookie_domain or host.endswith("." + cookie_domain)


def default_path(uri_path: str) -> str:
    """RFC 6265 section 5.1.4 default-path of a request URI path."""
    if not uri_path.startswith("/") or uri_path.count("/") == 1:
        return "/"
    return uri_path[: uri_path.rindex("/")]


def path_match(request_path: str, cookie_path: str) -> bool:
    if request_path == cookie_path:
        return True
    if request_path.startswith(cookie_path):
        return cookie_path.endswith("/") or request_path[len(cookie_path)] == "/"
    return False


_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}
_DATE_DELIM = re.compile(r"[\x09\x20-\x2f\x3b-\x40\x5b-\x60\x7b-\x7e]+")
_TIME_RE = re.compile(r"^(\d{1,2}):(\d{1,2}):(\d{1,2})$")


def parse_cookie_date(text: str) -> float | None:
    """Tokenizing date parser per RFC 6265 section 5.1.1 (locale-free).

    Returns epoch seconds, or None when the string is not a usable date.
    """
    from datetime import datetime, timezone  # imported here: only Expires needs it

    hour = minute = second = None
    day = month = year = None
    for token in _DATE_DELIM.split(text):
        if not token:
            continue
        if hour is None:
            m = _TIME_RE.match(token)
            if m:
                hour, minute, second = (int(g) for g in m.groups())
                continue
        if day is None and token.isdigit() and len(token) <= 2:
            day = int(token)
            continue
        if month is None and token[:3].lower() in _MONTHS:
            month = _MONTHS[token[:3].lower()]
            continue
        if year is None and token.isdigit() and len(token) in (2, 4):
            year = int(token)
            continue
    if None in (hour, day, month, year):
        return None
    if 70 <= year <= 99:
        year += 1900
    elif 0 <= year <= 69:
        year += 2000
    if year < 1601 or not (1 <= day <= 31) or hour > 23 or minute > 59 or second > 59:
        return None
    try:
        return datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc).timestamp()
    except ValueError:
        return None


def parse_set_cookie(
    header: str, request_url: str, rules: SuffixRuleSet, now: float = 0.0
) -> Cookie | None:
    """Parse one Set-Cookie header value against the request URL.

    Returns None when the cookie must be dropped: an empty name, a Domain
    attribute that does not domain-match the request host, one with an empty
    label, or one that is a public suffix under ``rules``. A public-suffix
    Domain equal to the request host gives a host-only cookie instead. The
    last Domain and Path attributes win (RFC 6265 §5.3 steps 4, 7); ``Domain=.``
    gives a host-only cookie, a Path not starting with ``/`` the default-path.
    Max-Age wins over Expires; unknown attributes are ignored.
    """
    url = urlsplit(request_url)
    request_host = (url.hostname or "").lower()
    if not request_host:
        return None

    pieces = header.split(";")
    first = pieces[0]
    if "=" not in first:
        return None
    name, _, value = first.partition("=")
    name = name.strip()
    value = value.strip()
    if not name or any(ch.isspace() for ch in name):
        return None

    domain_attr: str | None = None
    path_attr: str | None = None
    expires_at: float | None = None
    max_age: int | None = None
    for piece in pieces[1:]:
        attr, _, attr_value = piece.partition("=")
        attr = attr.strip().lower()
        attr_value = attr_value.strip()
        if attr == "domain" and attr_value:  # §5.2.3: strip one leading dot
            domain_attr = attr_value.removeprefix(".").lower()
        elif attr == "path":
            path_attr = attr_value if attr_value.startswith("/") else None
        elif attr == "expires":
            parsed = parse_cookie_date(attr_value)
            if parsed is not None:
                expires_at = parsed
        elif attr == "max-age":
            if re.fullmatch(r"-?\d+", attr_value):
                max_age = int(attr_value)
        # Secure / HttpOnly / SameSite and anything else: ignored.

    domain = request_host
    host_only = True
    if domain_attr:
        if not domain_match(request_host, domain_attr):
            return None
        try:
            public = etld_plus_one(domain_attr, rules) is None
        except ValueError:  # an empty label
            return None
        if not public:
            domain, host_only = domain_attr, False
        elif domain_attr != request_host:
            return None

    if max_age is not None:
        expiry = now if max_age <= 0 else now + max_age
    else:
        expiry = expires_at

    path = path_attr if path_attr is not None else default_path(url.path)
    return Cookie(name=name, value=value, domain=domain, host_only=host_only,
                  path=path, expiry=expiry)


def cookies_for_request(jar: CookieJar, url: str, now: float) -> list[tuple[str, str]]:
    """Cookies to attach to a request, per RFC 6265 section 5.4.

    Expired cookies are purged from the jar. Order: longer path first, then
    earlier created_seq.
    """
    parts = urlsplit(url)
    host = (parts.hostname or "").lower()
    request_path = parts.path or "/"

    for cookie in jar.cookies():
        if cookie.expiry is not None and cookie.expiry <= now:
            jar.remove(cookie.name, cookie.domain, cookie.path)

    matched = []
    for cookie in jar.cookies():
        if cookie.host_only:
            if host != cookie.domain:
                continue
        elif not domain_match(host, cookie.domain):
            continue
        if not path_match(request_path, cookie.path):
            continue
        matched.append(cookie)

    matched.sort(key=lambda c: (-len(c.path), c.created_seq))
    return [(c.name, c.value) for c in matched]
