"""Slow, obviously-correct reference matchers.

These are linear scans over every rule, kept as oracles for the label-walk
lookups in ``storagelab.psl`` and ``storagelab.filterlist``; the hypothesis
tests in ``test_oracles.py`` require both to agree on random rule sets.
"""

from __future__ import annotations

import re
from functools import lru_cache
from urllib.parse import urlsplit

from storagelab.filterlist import AdRuleSet
from storagelab.psl import SuffixRuleSet, is_ip_host


def _labels(host: str) -> list[str]:
    if not host:
        raise ValueError("empty host")
    labels = host.split(".")
    if any(not label for label in labels):
        raise ValueError(f"empty label in host {host!r}")
    return labels


def _matches(rule: str, host_labels: list[str]) -> bool:
    rule_labels = rule.split(".")
    return (
        len(rule_labels) <= len(host_labels)
        and host_labels[len(host_labels) - len(rule_labels) :] == rule_labels
    )


def public_suffix(host: str, rules: SuffixRuleSet) -> str:
    """Return the public suffix of ``host`` under ``rules``.

    Exception rules beat wildcard and normal rules; the public suffix of an
    exception match is the exception rule minus its leftmost label. With no
    matching rule the last label is the suffix.
    """
    labels = _labels(host.lower())

    best_exception: str | None = None
    for rule in rules.exception_rules:
        if _matches(rule, labels):
            if best_exception is None or rule.count(".") > best_exception.count("."):
                best_exception = rule
    if best_exception is not None:
        return ".".join(best_exception.split(".")[1:])

    best_len = 1  # default rule: the last label
    for rule in rules.normal_rules:
        if _matches(rule, labels):
            best_len = max(best_len, len(rule.split(".")))
    # Wildcard `*.base` matches when the host ends with base and has at least
    # one extra label; the matched suffix is base plus that one label.
    for base in rules.wildcard_rules:
        base_labels = base.split(".")
        if len(labels) > len(base_labels) and labels[-len(base_labels):] == base_labels:
            best_len = max(best_len, len(base_labels) + 1)

    return ".".join(labels[-best_len:])


def etld_plus_one(host: str, rules: SuffixRuleSet) -> str | None:
    """Return the registrable domain (public suffix plus one label).

    Returns ``None`` when the host is itself a public suffix. IP-address
    hosts are their own site and are returned unchanged.
    """
    host = host.lower()
    if is_ip_host(host):
        return host
    suffix = public_suffix(host, rules)
    labels = _labels(host)
    suffix_len = len(suffix.split("."))
    if len(labels) <= suffix_len:
        return None
    return ".".join(labels[-(suffix_len + 1):])


@lru_cache(maxsize=4096)
def _substring_regex(rule: str) -> re.Pattern[str]:
    return re.compile(".*".join(re.escape(part) for part in rule.split("*")))


def is_ad_url(url: str, rules: AdRuleSet) -> bool:
    """True when the URL's host falls under a domain anchor or the full URL
    string matches a substring rule.

    Host matching is case-insensitive; substring rules match the URL string
    case-sensitively.
    """
    host = (urlsplit(url).hostname or "").lower()
    for anchor in rules.domain_anchor_rules:
        if host == anchor or host.endswith("." + anchor):
            return True
    return any(_substring_regex(rule).search(url) for rule in rules.substring_rules)
