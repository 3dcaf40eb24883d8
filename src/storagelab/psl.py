"""Public Suffix List parsing and registrable-domain (eTLD+1) lookup.

Implements the matching algorithm documented at publicsuffix.org: the
prevailing rule is the matching exception rule if any, otherwise the longest
matching rule; a wildcard rule (``*.foo``) matches exactly one extra label;
when nothing matches, the public suffix is the host's last label.

Lookup tests each suffix of the host, longest first, for membership in the
exception, normal and wildcard rule sets: a call costs O(labels) hash
lookups, whatever the size of the list.

Hosts are expected to be ASCII, pre-normalized DNS names with no trailing
dot. IDN/punycode normalization is out of scope; crawl logs arrive already
ASCII-encoded.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple


class PslParseError(ValueError):
    """A rule line the public-suffix file format does not allow."""


class SuffixRuleSet(NamedTuple):
    """Parsed suffix rules, with ``!`` / ``*.`` prefix markers stripped.

    ``wildcard_rules`` holds the base domain of each ``*.x`` rule (``ck`` for
    ``*.ck``); ``exception_rules`` holds ``!``-rules without the marker.
    """

    normal_rules: frozenset[str]
    wildcard_rules: frozenset[str]
    exception_rules: frozenset[str]


_IPV4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


def is_ip_host(host: str) -> bool:
    m = _IPV4_RE.match(host)
    if m:
        return all(int(part) <= 255 for part in m.groups())
    return ":" in host


def _check_rule(rule: str, line_no: int) -> str:
    if any(ch.isspace() for ch in rule):
        raise PslParseError(f"line {line_no}: whitespace inside rule {rule!r}")
    if not rule or any(not label for label in rule.split(".")):
        raise PslParseError(f"line {line_no}: empty label in rule {rule!r}")
    return rule.lower()


def parse_psl(text: str) -> SuffixRuleSet:
    """Parse a document in the standard ``public_suffix_list.dat`` format.

    ``//`` comment lines and blank lines are skipped; remaining lines are one
    rule each. Raises :class:`PslParseError` (naming the line number) for
    rules containing whitespace or empty labels.
    """
    normal: set[str] = set()
    wildcard: set[str] = set()
    exception: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line.startswith("!"):
            exception.add(_check_rule(line[1:], line_no))
        elif line.startswith("*."):
            wildcard.add(_check_rule(line[2:], line_no))
        else:
            normal.add(_check_rule(line, line_no))
    return SuffixRuleSet(frozenset(normal), frozenset(wildcard), frozenset(exception))


def _labels(host: str) -> list[str]:
    if not host:
        raise ValueError("empty host")
    labels = host.split(".")
    if any(not label for label in labels):
        raise ValueError(f"empty label in host {host!r}")
    return labels


def public_suffix(host: str, rules: SuffixRuleSet) -> str:
    """Return the public suffix of ``host`` under ``rules``.

    Exception rules beat wildcard and normal rules; the public suffix of an
    exception match is the exception rule minus its leftmost label. With no
    matching rule the last label is the suffix.
    """
    labels = _labels(host.lower())
    suffixes = [".".join(labels[i:]) for i in range(len(labels))]  # longest first
    for suffix in suffixes:
        if suffix in rules.exception_rules:
            return suffix.partition(".")[2]
    # `*.base` matches base plus exactly one label: the suffix whose parent is base.
    for suffix, parent in zip(suffixes, suffixes[1:] + [None]):
        if suffix in rules.normal_rules or parent in rules.wildcard_rules:
            return suffix
    return labels[-1]  # default rule: the last label


def etld_plus_one(host: str, rules: SuffixRuleSet) -> str | None:
    """Return the registrable domain (public suffix plus one label).

    Returns ``None`` when the host is itself a public suffix. IP-address
    hosts are their own site and are returned unchanged.
    """
    host = host.lower()
    if is_ip_host(host):
        return host
    labels = _labels(host)
    suffix_len = public_suffix(host, rules).count(".") + 1
    if len(labels) <= suffix_len:
        return None
    return ".".join(labels[-(suffix_len + 1):])


# Bundled rule subset: enough for the conformance vectors and the synthetic
# traces. Real runs should pass the full public_suffix_list.dat via --psl.
BUILTIN_PSL = """\
// bundled minimal public suffix rules
com
net
org
io
biz
info
ac
test
example
uk
co.uk
org.uk
ac.uk
gov.uk
uk.com
us
ak.us
k12.ak.us
jp
ac.jp
co.jp
kyoto.jp
ide.kyoto.jp
*.kobe.jp
!city.kobe.jp
*.mm
*.ck
!www.ck
au
com.au
de
fr
"""


@lru_cache(maxsize=1)
def builtin_rules() -> SuffixRuleSet:
    return parse_psl(BUILTIN_PSL)
