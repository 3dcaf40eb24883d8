"""Privacy and compatibility metrics over simulator outputs.

Privacy side: potentially identifying cookie flows (PICFs) and the
cross-site / cross-time trackability scores they support, visualized as
cumulative-sum curves.

Compatibility side: Jaccard similarity of per-frame behavior-edge sets
against a permissive baseline, node-type subset optimization by brute force
over the power set, candidate selection for manual grading, and the grading
arithmetic (agreement, Cohen's kappa, breakage table).

Similarity scores are exact rationals; everything here is a pure function of
its inputs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from storagelab.policy import site_of
from storagelab.psl import SuffixRuleSet
from storagelab.simulator import CookieFlowRecord, FrameRecord, SimOutput
from storagelab.trace import NodeType, edge_endpoint_types

Score = Fraction | None  # None = undefined (both compared sets empty)


# ---------------------------------------------------------------------------
# PICFs and trackability scores


@dataclass(frozen=True)
class PICF:
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


def cumulative_curve(scores: Mapping[str, int]) -> list[tuple[int, int]]:
    """(rank, running sum) points; keys ordered by descending score, ties
    broken lexicographically by key."""
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    points = []
    total = 0
    for rank, (_, score) in enumerate(ordered, start=1):
        total += score
        points.append((rank, total))
    return points


def curve_rows(scores: Mapping[str, int]) -> list[tuple[int, str, int, int]]:
    """Curve points with their keys, for CSV output: (rank, key, score, cum)."""
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = []
    total = 0
    for rank, (key, score) in enumerate(ordered, start=1):
        total += score
        rows.append((rank, key, score, total))
    return rows


# ---------------------------------------------------------------------------
# Behavior-edge similarity


def jaccard(a: set[str], b: set[str]) -> Score:
    """|a & b| / |a | b| as an exact rational; None when both sets are empty."""
    union = len(a | b)
    if union == 0:
        return None
    return Fraction(len(a & b), union)


@dataclass(frozen=True)
class FrameSimilarity:
    page_url: str
    frame_url: str
    crawl_iter: int
    score: Score


def _filter_edges(edges: set[str], node_filter: frozenset[NodeType]) -> set[str]:
    kept = set()
    for edge in edges:
        src, tgt = edge_endpoint_types(edge)
        if src in node_filter and tgt in node_filter:
            kept.add(edge)
    return kept


def _profile_frames(out: SimOutput, profile: str) -> dict[tuple[str, str, int], FrameRecord]:
    views = {}
    for (page_url, frame_url, frame_profile, crawl_iter), record in out.frames.items():
        if frame_profile == profile:
            views[(page_url, frame_url, crawl_iter)] = record
    return views


def frame_similarity(
    base: SimOutput,
    other: SimOutput,
    node_filter: frozenset[NodeType],
    base_profile: str,
    other_profile: str,
) -> list[FrameSimilarity]:
    """Jaccard scores for frame instances present in both outputs.

    Instances are matched by full URL: (page_url, frame_url, crawl_iter).
    Only third-party frames not flagged as ads (on both sides) are compared;
    edges are kept iff both endpoint node types are in ``node_filter``.
    Results follow the canonical instance order.
    """
    base_frames = _profile_frames(base, base_profile)
    other_frames = _profile_frames(other, other_profile)
    results = []
    for key in sorted(set(base_frames) & set(other_frames)):
        a = base_frames[key]
        b = other_frames[key]
        if a.party.value != "third" or b.party.value != "third" or a.is_ad or b.is_ad:
            continue
        score = jaccard(_filter_edges(a.edge_set, node_filter),
                        _filter_edges(b.edge_set, node_filter))
        results.append(FrameSimilarity(key[0], key[1], key[2], score))
    return results


def mean_defined(scores: Iterable[Score]) -> Fraction | None:
    """Mean of the defined scores; None when every score is undefined."""
    defined = [s for s in scores if s is not None]
    if not defined:
        return None
    return sum(defined, Fraction(0)) / len(defined)


def align_curve_inputs(
    baseline: Sequence[FrameSimilarity],
    compared: Sequence[FrameSimilarity],
) -> tuple[list[Score], int, int]:
    """Prepare curve inputs from a baseline pair and a compared pair.

    Instances undefined in both pairs are dropped entirely; the remaining
    compared scores are returned in canonical order together with the count
    of baseline-defined instances (the curve denominator) and the number of
    dropped instances.
    """
    base_by_key = {(s.page_url, s.frame_url, s.crawl_iter): s.score for s in baseline}
    comp_by_key = {(s.page_url, s.frame_url, s.crawl_iter): s.score for s in compared}
    scores: list[Score] = []
    dropped = 0
    for key in sorted(set(base_by_key) | set(comp_by_key)):
        base_score = base_by_key.get(key)
        comp_score = comp_by_key.get(key)
        if base_score is None and comp_score is None:
            dropped += 1
            continue
        scores.append(comp_score)
    baseline_defined = sum(1 for s in base_by_key.values() if s is not None)
    return scores, baseline_defined, dropped


def similarity_curve(scores: Sequence[Score], baseline_max: int) -> list[tuple[int, Fraction]]:
    """Normalized cumulative similarity: (instance rank, cumulative / max).

    Undefined scores contribute 0; ``baseline_max`` is the number of
    instances the baseline pair defined, so 1.0 means perfect similarity on
    every baseline-comparable instance.
    """
    if baseline_max < 0:
        raise ValueError("baseline_max must be >= 0")
    points = []
    total = Fraction(0)
    for rank, score in enumerate(scores, start=1):
        if score is not None:
            total += score
        points.append((rank, total / baseline_max if baseline_max else Fraction(0)))
    return points


# ---------------------------------------------------------------------------
# Node-type subset optimization


@dataclass(frozen=True)
class OptimizeInstance:
    """One frame instance with the three edge sets entering the search."""

    baseline_a: frozenset[str]
    baseline_b: frozenset[str]
    contrast: frozenset[str]


@dataclass(frozen=True)
class OptimizeResult:
    best_subset: frozenset[NodeType]
    separation: Fraction
    baseline_mean: Fraction
    contrast_mean: Fraction
    subsets_evaluated: int


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


def build_optimize_sample(
    permissive: SimOutput,
    contrast: SimOutput,
    baseline_profiles: tuple[str, str],
    contrast_profile: str,
) -> list[OptimizeInstance]:
    """Matched third-party, non-ad frame instances across the three lanes."""
    anchor = _profile_frames(permissive, baseline_profiles[0])
    replica = _profile_frames(permissive, baseline_profiles[1])
    contrasted = _profile_frames(contrast, contrast_profile)
    sample = []
    for key in sorted(set(anchor) & set(replica) & set(contrasted)):
        records = (anchor[key], replica[key], contrasted[key])
        if any(r.party.value != "third" or r.is_ad for r in records):
            continue
        sample.append(OptimizeInstance(
            frozenset(anchor[key].edge_set),
            frozenset(replica[key].edge_set),
            frozenset(contrasted[key].edge_set),
        ))
    return sample


# ---------------------------------------------------------------------------
# Candidate selection and grading arithmetic


@dataclass(frozen=True)
class FrameStat:
    frame_url: str
    n_embedding_pages: int
    n_cookies: int


@dataclass(frozen=True)
class Candidate:
    frame_url: str
    site: str
    n_embedding_pages: int
    n_cookies: int
    score: Fraction


@dataclass(frozen=True)
class CandidateSelection:
    candidates: tuple[Candidate, ...]
    short: bool  # fewer distinct sites available than requested


def harmonic_score(a: int, b: int) -> Fraction:
    if a < 0 or b < 0:
        raise ValueError("counts must be >= 0")
    if a + b == 0:
        return Fraction(0)
    return Fraction(2 * a * b, a + b)


def select_candidates(
    frame_stats: Sequence[FrameStat], k: int, rules: SuffixRuleSet
) -> CandidateSelection:
    """Top-k frame URLs by harmonic mean of embedding-page and cookie counts,
    keeping only the first (best) frame per eTLD+1."""
    scored = sorted(
        frame_stats,
        key=lambda s: (-harmonic_score(s.n_embedding_pages, s.n_cookies), s.frame_url),
    )
    chosen: list[Candidate] = []
    seen_sites: set[str] = set()
    for stat in scored:
        site = site_of(stat.frame_url, rules)
        if site in seen_sites:
            continue
        seen_sites.add(site)
        chosen.append(Candidate(stat.frame_url, site, stat.n_embedding_pages,
                                stat.n_cookies, harmonic_score(stat.n_embedding_pages, stat.n_cookies)))
        if len(chosen) == k:
            break
    return CandidateSelection(tuple(chosen), short=len(chosen) < k)


@dataclass(frozen=True)
class ProfileBreakage:
    broken: int
    n: int
    pct: Fraction


@dataclass(frozen=True)
class GradeStats:
    agreement: Fraction
    kappa: Fraction
    breakage: dict[str, ProfileBreakage]


def grade_stats(grades: Mapping[tuple[str, str], tuple[int, int]]) -> GradeStats:
    """Agreement percentage, Cohen's kappa, and per-profile breakage counts
    over (URL, profile) cells graded 1-3 by two graders.

    A cell is broken when the consensus score (max of the two graders) is
    above 1. Kappa uses expected agreement from the graders' marginal score
    distributions; the degenerate case (expected agreement 1) is defined as
    kappa 1 when observed agreement is also 1 and an error otherwise.
    """
    if not grades:
        raise ValueError("no grade cells supplied")
    n = len(grades)
    agree = 0
    marginal_a = {1: 0, 2: 0, 3: 0}
    marginal_b = {1: 0, 2: 0, 3: 0}
    by_profile: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for (url, profile), (score_a, score_b) in grades.items():
        if score_a not in (1, 2, 3) or score_b not in (1, 2, 3):
            raise ValueError(f"scores must be in 1..3 for cell {(url, profile)!r}")
        if score_a == score_b:
            agree += 1
        marginal_a[score_a] += 1
        marginal_b[score_b] += 1
        by_profile[profile].append((score_a, score_b))

    p_o = Fraction(agree, n)
    p_e = sum(
        (Fraction(marginal_a[k], n) * Fraction(marginal_b[k], n) for k in (1, 2, 3)),
        Fraction(0),
    )
    if p_e == 1:
        if p_o == 1:
            kappa = Fraction(1)
        else:
            raise ValueError("degenerate marginals with imperfect agreement")
    else:
        kappa = (p_o - p_e) / (1 - p_e)

    breakage = {}
    for profile, cells in by_profile.items():
        broken = sum(1 for a, b in cells if max(a, b) > 1)
        breakage[profile] = ProfileBreakage(broken, len(cells), Fraction(broken, len(cells)))
    return GradeStats(agreement=p_o, kappa=kappa, breakage=breakage)
