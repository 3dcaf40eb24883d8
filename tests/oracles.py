"""Slow, obviously-correct reference implementations.

The matchers are linear scans over every rule, kept as oracles for the
label-walk lookups in ``storagelab.psl`` and ``storagelab.filterlist``. The
node-type functions re-parse every edge string and test enum membership
subset by subset, kept as oracles for the bitmask forms in
``storagelab.metrics``. The hypothesis tests in ``test_oracles.py`` require
each pair to agree on random inputs.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence
from urllib.parse import urlsplit

from storagelab.filterlist import AdRuleSet
from storagelab.metrics import OptimizeInstance, OptimizeResult, Score, mean_defined
from storagelab.psl import SuffixRuleSet, is_ip_host
from storagelab.trace import NodeType, edge_endpoint_types


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


def _filter_edges(edges: set[str], node_filter: frozenset[NodeType]) -> set[str]:
    kept = set()
    for edge in edges:
        src, tgt = edge_endpoint_types(edge)
        if src in node_filter and tgt in node_filter:
            kept.add(edge)
    return kept


def _pair_counts(a: frozenset[str], b: frozenset[str]):
    """Per endpoint-type pair: (intersection size, union size) of a vs b."""
    groups_a: dict[tuple[NodeType, NodeType], set[str]] = defaultdict(set)
    groups_b: dict[tuple[NodeType, NodeType], set[str]] = defaultdict(set)
    for edge in a:
        groups_a[edge_endpoint_types(edge)].add(edge)
    for edge in b:
        groups_b[edge_endpoint_types(edge)].add(edge)
    counts = {}
    for pair in set(groups_a) | set(groups_b):
        ga = groups_a.get(pair, set())
        gb = groups_b.get(pair, set())
        counts[pair] = (len(ga & gb), len(ga | gb))
    return counts


def _subset_jaccard(counts, subset: frozenset[NodeType]) -> Score:
    inter = union = 0
    for (src, tgt), (i, u) in counts.items():
        if src in subset and tgt in subset:
            inter += i
            union += u
    if union == 0:
        return None
    return Fraction(inter, union)


def optimize_node_types(
    sample: Sequence[OptimizeInstance],
    *,
    node_types: frozenset[NodeType] = frozenset(NodeType),
) -> OptimizeResult:
    """Brute-force the node-type power set for the subset maximizing the gap
    between the baseline pair's similarity and the contrast's similarity to
    the baseline anchor.

    Undefined scores are excluded from means. Ties prefer smaller subsets,
    then lexicographic type order. Raises ValueError when no subset yields a
    defined score on both sides.
    """
    if not sample:
        raise ValueError("sample must be non-empty")
    baseline_counts = [_pair_counts(i.baseline_a, i.baseline_b) for i in sample]
    contrast_counts = [_pair_counts(i.contrast, i.baseline_a) for i in sample]

    ordered_types = sorted(node_types, key=lambda t: t.value)
    best: tuple[Fraction, frozenset[NodeType], Fraction, Fraction] | None = None
    evaluated = 0
    for size in range(1, len(ordered_types) + 1):
        for combo in combinations(ordered_types, size):
            evaluated += 1
            subset = frozenset(combo)
            base_mean = mean_defined(_subset_jaccard(c, subset) for c in baseline_counts)
            contrast_mean = mean_defined(_subset_jaccard(c, subset) for c in contrast_counts)
            if base_mean is None or contrast_mean is None:
                continue
            separation = base_mean - contrast_mean
            if best is None or separation > best[0]:
                best = (separation, subset, base_mean, contrast_mean)
    if best is None:
        raise ValueError("all similarity scores undefined under every subset")
    separation, subset, base_mean, contrast_mean = best
    return OptimizeResult(subset, separation, base_mean, contrast_mean, evaluated)
