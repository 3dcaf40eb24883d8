"""Minimal deterministic cookie model (RFC 6265 subset).

Covers Set-Cookie parsing (RFC 6265 section 5.2, and RFC 6265bis's step 1 of
"The Set-Cookie Header Field": a string holding a control character other
than HTAB is ignored), domain matching (5.1.3),
default-path computation (5.1.4), the public-suffix check on the Domain
attribute (5.3 step 5) and request retrieval ordering (5.4). A jar is a
plain dict from a cookie's (name, domain, path) to the cookie, written only
by ``add_cookie``; its order is the cookies' creation order, which retrieval
sorts by after path length, so a cookie carries no creation stamp. A Max-Age
of any length parses (5.2.2): one too large for a float never expires.
Secure, HttpOnly, and SameSite are parsed and ignored. Time is always an
explicit argument: the replayer supplies virtual time, never the wall clock.
"""

from __future__ import annotations

import re
from functools import lru_cache
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


# A cookie jar: at most one cookie per (name, domain, path) key, in creation
# order, the dict's own order. ``add_cookie`` is its only writer.
Jar = dict[tuple[str, str, str], Cookie]


def add_cookie(jar: Jar, cookie: Cookie) -> None:
    """Store ``cookie`` in ``jar``. Re-setting an existing key replaces value
    and expiry and moves the cookie to the end, as if newly created (old
    creation order is not retained)."""
    key = (cookie.name, cookie.domain, cookie.path)
    jar.pop(key, None)
    jar[key] = cookie


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
# The §5.1.1 productions: ASCII digits, then optionally a non-digit and
# anything (``( non-digit *OCTET )``, optional as RFC 6265bis writes it).
_TIME_RE = re.compile(r"([0-9]{1,2}):([0-9]{1,2}):([0-9]{1,2})(?![0-9])")
_DAY_RE = re.compile(r"([0-9]{1,2})(?![0-9])")
_YEAR_RE = re.compile(r"([0-9]{2,4})(?![0-9])")
_MAX_AGE_RE = re.compile(r"-?[0-9]+")
# RFC 6265bis, "The Set-Cookie Header Field", step 1: the CTLs but HTAB.
_CTL_RE = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")
# WSP (RFC 5234): the only characters §5.2 trims from a name, value or attribute.
_WSP = " \t"


def parse_cookie_date(text: str) -> float | None:
    """Tokenizing date parser per RFC 6265 section 5.1.1 (locale-free).

    Returns epoch seconds, or None when the string is not a usable date.
    Numbers are ASCII digits only, so ``²1`` is no day of the month.
    """
    from datetime import datetime, timezone  # imported here: only Expires needs it

    hour = minute = second = None
    day = month = year = None
    for token in _DATE_DELIM.split(text):
        if not token:
            continue
        if hour is None and (m := _TIME_RE.match(token)):
            hour, minute, second = (int(g) for g in m.groups())
            continue
        if day is None and (m := _DAY_RE.match(token)):
            day = int(m[1])
            continue
        if month is None and token[:3].lower() in _MONTHS:
            month = _MONTHS[token[:3].lower()]
            continue
        if year is None and (m := _YEAR_RE.match(token)):
            year = int(m[1])
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


# Bounded so memory stays flat on long traces; URLs recur within a page load.
@lru_cache(maxsize=4096)
def host_and_path(url: str) -> tuple[str, str]:
    """A URL's lowercased host ("" when it has none) and its path."""
    parts = urlsplit(url)
    return (parts.hostname or "").lower(), parts.path


def parse_set_cookie(
    header: str, request_url: str, rules: SuffixRuleSet, now: float = 0.0
) -> Cookie | None:
    """Parse one Set-Cookie header value against the request URL.

    The name, the value and each attribute are trimmed of WSP (SP and HTAB)
    only, as §5.2 says. Returns None when the cookie must be dropped: a
    control character other than HTAB anywhere in ``header`` (RFC 6265bis), an
    empty name or one holding SP or HTAB, a Domain
    attribute that does not domain-match the request host, one with an empty
    label, or one that is a public suffix under ``rules``. A public-suffix
    Domain equal to the request host gives a host-only cookie instead. The
    last Domain and Path attributes win (RFC 6265 §5.3 steps 4, 7); ``Domain=.``
    gives a host-only cookie, a Path not starting with ``/`` the default-path.
    Max-Age wins over Expires; unknown attributes are ignored.
    """
    if _CTL_RE.search(header):
        return None
    request_host, request_path = host_and_path(request_url)
    if not request_host:
        return None

    pieces = header.split(";")
    first = pieces[0]
    if "=" not in first:
        return None
    name, _, value = first.partition("=")
    name = name.strip(_WSP)
    value = value.strip(_WSP)
    if not name or " " in name or "\t" in name:
        return None

    domain_attr: str | None = None
    path_attr: str | None = None
    expires_at: float | None = None
    max_age: float | None = None
    for piece in pieces[1:]:
        attr, _, attr_value = piece.partition("=")
        attr = attr.strip(_WSP).lower()
        attr_value = attr_value.strip(_WSP)
        if attr == "domain" and attr_value:  # §5.2.3: strip one leading dot
            domain_attr = attr_value.removeprefix(".").lower()
        elif attr == "path":
            path_attr = attr_value if attr_value.startswith("/") else None
        elif attr == "expires":
            parsed = parse_cookie_date(attr_value)
            if parsed is not None:
                expires_at = parsed
        elif attr == "max-age":
            # float(), not int(): a digit run too long for a float is
            # +-inf, which never expires or expires at once (§5.2.2).
            if _MAX_AGE_RE.fullmatch(attr_value):
                max_age = float(attr_value)
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

    path = path_attr if path_attr is not None else default_path(request_path)
    return Cookie(name=name, value=value, domain=domain, host_only=host_only,
                  path=path, expiry=expiry)


def matching_cookies(jar: Jar, url: str, now: float,
                     name: str | None = None) -> list[Cookie]:
    """Cookies of ``jar`` that ``url`` can read, per RFC 6265 section 5.4
    step 1: host-only cookies on their own host only, the others on any host
    that domain-matches, and only on a request path that path-matches. Given
    a ``name``, only the cookies of that name. Expired cookies met in the one
    pass over the jar are purged after it. A URL without a host matches
    nothing.
    """
    host, path = host_and_path(url)
    request_path = path or "/"

    matched = []
    expired = []
    for cookie in jar.values():
        if name is not None and cookie.name != name:
            continue
        if cookie.expiry is not None and cookie.expiry <= now:
            expired.append((cookie.name, cookie.domain, cookie.path))
        elif ((host == cookie.domain if cookie.host_only else domain_match(host, cookie.domain))
              and path_match(request_path, cookie.path)):
            matched.append(cookie)
    for key in expired:
        del jar[key]
    return matched


def cookies_for_request(jar: Jar, url: str, now: float) -> list[tuple[str, str]]:
    """Cookies to attach to a request, per RFC 6265 section 5.4: the
    :func:`matching_cookies`, longer path first, then earlier created (the
    sort is stable, and the jar is in creation order).
    """
    matched = matching_cookies(jar, url, now)
    matched.sort(key=lambda c: -len(c.path))
    return [(c.name, c.value) for c in matched]
