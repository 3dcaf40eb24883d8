"""Small ad-filter rule matcher for flagging advertising frames.

Supports the two rule forms needed to exclude ad frames from the metrics:
``||host^`` domain anchors and plain substring patterns with ``*`` wildcards.
Element hiding (``##``), exceptions (``@@``) and option-suffixed rules
(``$...``) are skipped and counted, never matched.

The host and each of its suffixes after a ``.`` are looked up in the anchor
set, O(labels) hash lookups however many anchors there are; the substring
rules are compiled on first use into one alternation regex per rule set.
"""

from __future__ import annotations

import re
from functools import cached_property
from urllib.parse import urlsplit

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


def parse_rules(text: str) -> AdRuleSet:
    """Parse filter rules, one per line; ``!`` lines are comments.

    Returns the retained rules plus a count of skipped (unsupported) rules.
    """
    anchors: set[str] = set()
    substrings: list[str] = []
    skipped = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("!"):
            continue
        if line.startswith("@@") or "##" in line or "$" in line:
            skipped += 1
            continue
        if line.startswith("||"):
            host = line[2:].rstrip("^").lower()
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
    case-sensitively.
    """
    labels = (urlsplit(url).hostname or "").lower().split(".")
    if any(".".join(labels[i:]) in rules.domain_anchor_rules for i in range(len(labels))):
        return True
    return bool(rules.substring_rules) and rules._substring_regex.search(url) is not None


EMPTY_RULES = AdRuleSet(frozenset(), (), 0)
