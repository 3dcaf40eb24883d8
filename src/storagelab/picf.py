"""Privacy metrics over the flow table: potentially identifying cookie flows
(PICFs) and the cross-site / cross-time trackability scores they support,
visualized as cumulative-sum curves.

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping, NamedTuple

from storagelab.flows import CookieFlowRecord


class PICF(NamedTuple):
    """A potentially identifying cookie flow: a cookie value long enough to
    be an identifier and seen in exactly one profile."""

    cookie_name: str
    cookie_value: str
    third_party_site: str
    owning_profile: str


def extract_picfs(flows: Iterable[CookieFlowRecord], threshold: int) -> set[PICF]:
    """PICFs of a flow dataset: value length >= threshold and value unique to
    a single profile across all supplied flows."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    profiles_by_value: dict[str, set[str]] = defaultdict(set)
    flows = list(flows)
    for flow in flows:
        profiles_by_value[flow.cookie_value].add(flow.profile)
    picfs = set()
    for flow in flows:
        if len(flow.cookie_value) < threshold:
            continue
        owners = profiles_by_value[flow.cookie_value]
        if len(owners) == 1:
            picfs.add(PICF(flow.cookie_name, flow.cookie_value,
                           flow.third_party_site, next(iter(owners))))
    return picfs


def _matching_flows(picfs: set[PICF], flows: Iterable[CookieFlowRecord]):
    """Pairs of (picf, flow) where the flow transmits that identical PICF."""
    index = {(p.cookie_name, p.cookie_value, p.third_party_site): p for p in picfs}
    for flow in flows:
        picf = index.get((flow.cookie_name, flow.cookie_value, flow.third_party_site))
        if picf is not None:
            yield picf, flow


def cross_site_scores(picfs: set[PICF], flows: Iterable[CookieFlowRecord]) -> dict[str, int]:
    """Per third party: the number of distinct top sites spanned by one
    identical PICF (the maximum over its PICFs).

    A value observed on a single site links nothing across sites, so third
    parties whose every PICF stays on one site do not appear in the map.
    """
    sites_by_picf: dict[PICF, set[str]] = defaultdict(set)
    for picf, flow in _matching_flows(picfs, flows):
        sites_by_picf[picf].add(flow.top_site)
    scores: dict[str, int] = {}
    for picf, sites in sites_by_picf.items():
        if len(sites) >= 2:
            current = scores.get(picf.third_party_site, 0)
            scores[picf.third_party_site] = max(current, len(sites))
    return scores


def cross_time_scores(
    picfs: set[PICF],
    flows: Iterable[CookieFlowRecord],
    *,
    across_iterations_only: bool = False,
) -> dict[str, int]:
    """Per top site: how many third parties repeated an identical PICF in at
    least two distinct visits of that site.

    A visit is one (crawl_iter, visit_seq) observation; with
    ``across_iterations_only`` the repeats must fall in different crawl
    iterations.
    """
    visits: dict[tuple[PICF, str], set[tuple[int, int]]] = defaultdict(set)
    for picf, flow in _matching_flows(picfs, flows):
        visits[(picf, flow.top_site)].add((flow.crawl_iter, flow.visit_seq))
    repeat_parties: dict[str, set[str]] = defaultdict(set)
    for (picf, top_site), seen in visits.items():
        if across_iterations_only:
            repeated = len({crawl_iter for crawl_iter, _ in seen}) >= 2
        else:
            repeated = len(seen) >= 2
        if repeated:
            repeat_parties[top_site].add(picf.third_party_site)
    return {site: len(parties) for site, parties in repeat_parties.items()}


def curve_rows(scores: Mapping[str, int]) -> list[tuple[int, str, int, int]]:
    """Cumulative-sum curve points with their keys: (rank, key, score, running
    sum); keys ordered by descending score, ties broken lexicographically."""
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = []
    total = 0
    for rank, (key, score) in enumerate(ordered, start=1):
        total += score
        rows.append((rank, key, score, total))
    return rows
