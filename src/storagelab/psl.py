"""Public Suffix List parsing and registrable-domain (eTLD+1) lookup.

Implements the matching algorithm documented at publicsuffix.org: the
prevailing rule is the matching exception rule if any, otherwise the longest
matching rule; a wildcard rule (``*.foo``) matches exactly one extra label;
when nothing matches, the public suffix is the host's last label.

Lookup tests each suffix of the host, longest first, for membership in the
exception, normal and wildcard rule sets: a call costs O(labels) hash
lookups, whatever the size of the list.

Parsing takes a rule file in one regex scan: every ``\n``-ended line that is
already a lowercase ASCII rule, with or without a ``!`` or ``*.`` marker, goes
into the rule sets without a per-line Python step. Every other line (comments,
blank, padded, uppercase or IDN rules, rules followed by whitespace and more
text, and lines ended by CRLF or another ``str.splitlines`` break) goes
through the per-line checker, in file order, so its errors name the same line
as a line-by-line parse would. Rules are lowercased in ASCII only.

Hosts are expected to be ASCII, pre-normalized DNS names with no trailing
dot. IDN/punycode normalization is out of scope; crawl logs arrive already
ASCII-encoded.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import compress
from operator import not_
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


# Rules are case-folded in ASCII only: str.lower() also maps some non-ASCII
# letters to ASCII ones (U+212A KELVIN SIGN to "k"), which would make a rule
# name hosts it does not.
_ASCII_LOWER = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz")


def ascii_lower(text: str) -> str:
    """``text`` with A-Z lowercased and every other character kept."""
    return text.translate(_ASCII_LOWER)


# A rule with no empty label, checked in one pass.
_VALID_RULE = re.compile(r"[^.]+(?:\.[^.]+)*").fullmatch


def _check_rule(rule: str, line_no: int) -> str:
    """``rule``, a word with no whitespace, lowercased in ASCII;
    :class:`PslParseError` naming the line for an empty label."""
    if not _VALID_RULE(rule):
        raise PslParseError(f"line {line_no}: empty label in rule {rule!r}")
    return ascii_lower(rule)


def split_rule_lines(pattern: str, text: str) -> tuple[list[list[str]], list[tuple[int, str]]]:
    """Split a rule file into the lines ``pattern`` takes whole and the rest.

    ``pattern`` matches a ``\n``, then one whole line followed by ``\n``,
    and captures parts of it; it is compiled on the first call. Returns one
    list per capture group, holding that group of every line taken, in file
    order, and every other line of ``text.splitlines()`` with its 1-based
    number, in file order. A line is taken only when ``\n`` comes before and
    after it, so the lines on each side of any other break (CRLF, ``\r``,
    ``\x0c``, ``\u2028``, ...) go to the rest.
    """
    scanner = re.compile(pattern)
    # "\n" ends every line, the last one too; the one before the first line
    # lets the pattern start each line with "\n".
    parts = scanner.split("\n" + text + "\n")
    stride = scanner.groups + 1
    gaps = parts[0::stride]  # the text between taken lines: "" or "\n" and the other lines
    others: list[tuple[int, str]] = []
    other_lines = 0
    for index, gap in compress(enumerate(gaps, start=1), gaps):
        lines = (gap[1:] + "\n").splitlines()
        # index - 1 lines were taken before this gap.
        others.extend(enumerate(lines, start=index + other_lines))
        other_lines += len(lines)
    return [parts[group::stride] for group in range(1, stride)], others


# A line that is already a rule: lowercase ASCII labels, no empty label, and
# an optional "!" (exception) or "*." (wildcard) marker.
_RULE_LINE = r"\n(!|\*\.)?([0-9a-z-]+(?:\.[0-9a-z-]+)*)(?=\n)"


def parse_psl(text: str) -> SuffixRuleSet:
    """Parse a document in the standard ``public_suffix_list.dat`` format.

    Each line is read only up to its first whitespace, leading whitespace
    aside, as the publicsuffix.org format says. ``//`` comment lines and
    blank lines are skipped; remaining lines are one rule each. Raises
    :class:`PslParseError` (naming the line number) for a rule with an empty
    label.
    """
    (markers, rules), others = split_rule_lines(_RULE_LINE, text)
    normal = set(compress(rules, map(not_, markers)))  # the unmarked rules
    wildcard: set[str] = set()
    exception: set[str] = set()
    for marker, rule in compress(zip(markers, rules), markers):
        (exception if marker == "!" else wildcard).add(rule)
    for line_no, raw in others:
        words = raw.split(None, 1)
        if not words or words[0].startswith("//"):
            continue
        line = words[0]
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
