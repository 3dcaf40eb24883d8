"""Privacy metrics over the flow table: potentially identifying cookie flows
(PICFs) and the cross-site / cross-time trackability scores they support,
visualized as cumulative-sum curves.

Everything here is a pure function of its inputs, but for the ``metrics
picf``, ``cross-site`` and ``cross-time`` commands at the end, which read
the ``--flows`` files and write the results.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Iterable, Mapping, NamedTuple

from storagelab.artifacts import _at_least, _out_dir, _parse_input, _write_manifest
from storagelab.flows import CookieFlowRecord, read_flows_csv, write_csv


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


# ---------------------------------------------------------------------------
# CLI commands


def _read_all_flows(paths: list[str]):
    entries = {}
    flows = []
    for i, path in enumerate(paths):
        file_flows, entries[f"flows_{i}"] = _parse_input(path, read_flows_csv, "")
        flows.extend(file_flows)
    return flows, entries


def cmd_metrics_picf(args) -> int:
    _at_least(1, threshold=args.threshold)
    flows, entries = _read_all_flows(args.flows)
    picfs = extract_picfs(flows, args.threshold)
    out = _out_dir(args.out)
    write_csv(out / "picfs.csv", [
        ("third_party_site", "cookie_name", "cookie_value", "owning_profile"),
        *sorted((p.third_party_site, p.cookie_name, p.cookie_value, p.owning_profile)
                for p in picfs),
    ])
    _write_manifest(out, args, inputs=entries, outputs=["picfs.csv"])
    return 0


def _curve_command(args, name: str, key_name: str, scores_of) -> int:
    """Write the curve of ``scores_of(picfs, flows)`` over the ``--flows`` files."""
    _at_least(1, threshold=args.threshold)
    flows, entries = _read_all_flows(args.flows)
    scores = scores_of(extract_picfs(flows, args.threshold), flows)
    out = _out_dir(args.out)
    write_csv(out / name, [("rank", key_name, "score", "cumulative"), *curve_rows(scores)])
    _write_manifest(out, args, inputs=entries, outputs=[name],
                    extra={"total": sum(scores.values())})
    return 0


def cmd_metrics_cross_site(args) -> int:
    return _curve_command(args, "cross_site_curve.csv", "third_party_site", cross_site_scores)


def cmd_metrics_cross_time(args) -> int:
    return _curve_command(args, "cross_time_curve.csv", "top_site", partial(
        cross_time_scores, across_iterations_only=args.across_iterations_only))
