"""Small ad-filter rule matcher for flagging advertising frames.

Supports the two rule forms needed to exclude ad frames from the metrics:
``||host^`` domain anchors and plain substring patterns with ``*`` wildcards.
Element hiding (``##``), exceptions (``@@``) and option-suffixed rules
(``$...``) are skipped and counted, never matched.

Parsing takes the list in one regex scan: every ``\n``-ended ``||host^`` line
with a lowercase ASCII host goes into the anchor set without a per-line
Python step. Every other line (comments, ``@@``/``##``/``$`` rules,
substring rules, uppercase or IDN hosts, ``||host^^``, padded lines and lines
ended by CRLF or another ``str.splitlines`` break) goes through the per-line
code in file order, so the skipped count and the order of the substring
rules are those of a line-by-line parse.

The host and each of its suffixes after a ``.`` are looked up in the anchor
set, O(labels) hash lookups however many anchors there are; the substring
rules are compiled on first use into one alternation regex per rule set.
"""

from __future__ import annotations

import re
from functools import cached_property

from storagelab.cookies import host_and_path
from storagelab.psl import ascii_lower, split_rule_lines
from storagelab.record import Record

_HOST_RE = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?(\.[a-z0-9]([a-z0-9-]*[a-z0-9])?)*$")


class AdRuleSet(Record):
    """Domain anchors (frozenset), substring rules (tuple) and the number of
    skipped rules; the substring regex is compiled once, on first use."""

    __slots__ = ("domain_anchor_rules", "substring_rules", "skipped", "__dict__")
    _defaults = {"skipped": 0}

    @cached_property
    def _substring_regex(self) -> re.Pattern[str]:
        return re.compile("|".join(
            ".*".join(re.escape(part) for part in rule.split("*"))
            for rule in self.substring_rules
        ))


# A "||host^" line whose host _HOST_RE takes as it is: lowercase ASCII labels,
# none empty or starting or ending with "-".
_ANCHOR_LINE = r"\n\|\|((?!-)[0-9a-z-]+(?<!-)(?:\.(?!-)[0-9a-z-]+(?<!-))*)\^(?=\n)"


def parse_rules(text: str) -> AdRuleSet:
    """Parse filter rules, one per line; ``!`` lines are comments.

    Returns the retained rules plus a count of skipped (unsupported) rules.
    """
    (hosts,), others = split_rule_lines(_ANCHOR_LINE, text)
    anchors = set(hosts)
    substrings: list[str] = []
    skipped = 0
    for _, raw in others:
        line = raw.strip()
        if not line or line.startswith("!"):
            continue
        if line.startswith("@@") or "##" in line or "$" in line:
            skipped += 1
            continue
        if line.startswith("||"):
            host = ascii_lower(line[2:].rstrip("^"))
            if _HOST_RE.match(host):
                anchors.add(host)
            else:
                skipped += 1
            continue
        substrings.append(line)
    return AdRuleSet(frozenset(anchors), tuple(substrings), skipped)


def is_ad_url(url: str, rules: AdRuleSet) -> bool:
    """True when the URL's host falls under a domain anchor or the full URL
    string matches a substring rule.

    Host matching is case-insensitive; substring rules match the URL string
    case-sensitively. An empty rule set flags nothing, without parsing the URL.
    """
    if not rules.domain_anchor_rules and not rules.substring_rules:
        return False
    labels = host_and_path(url)[0].split(".")
    if any(".".join(labels[i:]) in rules.domain_anchor_rules for i in range(len(labels))):
        return True
    return bool(rules.substring_rules) and rules._substring_regex.search(url) is not None


EMPTY_RULES = AdRuleSet(frozenset(), (), 0)
