"""Compatibility metrics over the frames of simulate outputs (the dicts
``storagelab.frames`` reads): Jaccard similarity of per-frame behavior-edge
sets against a permissive baseline, node-type subset optimization by brute
force over the power set, candidate selection for manual grading, and the
grading arithmetic (agreement, Cohen's kappa, breakage table). The privacy
metrics are in ``storagelab.picf``.

An edge is its canonical string. Similarity scores are exact rationals;
everything here is a pure function of its inputs. A candidate's site comes
with its ``FrameStat``, so no replay, partition or PSL code is imported.

Work is done once per distinct edge set, not per frame: ``frame_similarity``
scores each distinct pair of edge-set objects once (the frames reader gives
every record with the same edge list one shared frozenset), and
``optimize_node_types`` scores each distinct sample instance once, weighting
its exact scores by its count.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from storagelab.frames import FrameKey, FrameRecord
from storagelab.trace import _EDGE_MASKS, _TYPE_BIT, NodeType

Score = Fraction | None  # None = undefined (both compared sets empty)


# ---------------------------------------------------------------------------
# Node-type masks
#
# A set of node types is an int with one bit per type (``trace._TYPE_BIT``).
# An edge's mask, the bits of its two endpoint types, comes from the memo in
# ``storagelab.trace`` that the frames reader fills; a filter keeps the edge
# iff its mask has no bit outside the filter's.


def _type_mask(types: Iterable[NodeType]) -> int:
    mask = 0
    for t in types:
        mask |= _TYPE_BIT[t]
    return mask


# ---------------------------------------------------------------------------
# Behavior-edge similarity


def jaccard(a: set[str], b: set[str]) -> Score:
    """|a & b| / |a | b| as an exact rational; None when both sets are empty."""
    union = len(a | b)
    if union == 0:
        return None
    return Fraction(len(a & b), union)


class FrameSimilarity(NamedTuple):
    page_url: str
    frame_url: str
    crawl_iter: int
    score: Score


_ALL_TYPES = _type_mask(NodeType)


def _filter_edges(edges: set[str], mask: int) -> set[str]:
    """The edges whose two endpoint types ``mask`` holds: ``edges`` itself,
    not a copy, when it holds every type."""
    if mask == _ALL_TYPES:
        return edges
    return {edge for edge in edges if not _EDGE_MASKS[edge] & ~mask}


def _profile_frames(frames: dict[FrameKey, FrameRecord],
                    profile: str) -> dict[tuple[str, str, int], FrameRecord]:
    views = {}
    for (page_url, frame_url, frame_profile, crawl_iter), record in frames.items():
        if frame_profile == profile:
            views[(page_url, frame_url, crawl_iter)] = record
    return views


def frame_similarity(
    base: dict[FrameKey, FrameRecord],
    other: dict[FrameKey, FrameRecord],
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
    mask = _type_mask(node_filter)
    base_frames = _profile_frames(base, base_profile)
    other_frames = _profile_frames(other, other_profile)
    # The score of each distinct pair of edge-set objects, by their ids: the
    # frames reader shares one set per distinct edge list, and the records
    # keep every set alive until the call returns, so no id is reused.
    scores: dict[tuple[int, int], Score] = {}
    results = []
    for key in sorted(set(base_frames) & set(other_frames)):
        a = base_frames[key]
        b = other_frames[key]
        if a.party != "third" or b.party != "third" or a.is_ad or b.is_ad:
            continue
        pair = id(a.edge_set), id(b.edge_set)
        if pair not in scores:
            scores[pair] = jaccard(_filter_edges(a.edge_set, mask),
                                   _filter_edges(b.edge_set, mask))
        results.append(FrameSimilarity(key[0], key[1], key[2], scores[pair]))
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


class OptimizeInstance(NamedTuple):
    """One frame instance with the three edge sets entering the search."""

    baseline_a: frozenset[str]
    baseline_b: frozenset[str]
    contrast: frozenset[str]


class OptimizeResult(NamedTuple):
    best_subset: frozenset[NodeType]
    separation: Fraction
    baseline_mean: Fraction
    contrast_mean: Fraction
    subsets_evaluated: int


PairCounts = list[tuple[int, int, int]]  # (edge mask, |a & b|, |a | b|)


def _pair_counts(a: frozenset[str], b: frozenset[str]) -> PairCounts:
    """Intersection and union sizes of a vs b, per edge mask."""
    inter = Counter(map(_EDGE_MASKS.__getitem__, a & b))
    union = Counter(map(_EDGE_MASKS.__getitem__, a | b))
    return [(mask, inter[mask], n) for mask, n in union.items()]


def _subset_jaccard(counts: PairCounts, subset: int) -> Score:
    inter = union = 0
    for mask, i, u in counts:
        if not mask & ~subset:
            inter += i
            union += u
    if union == 0:
        return None
    return Fraction(inter, union)


def _mean_score(weighted: list[tuple[PairCounts, int]], subset: int) -> Fraction | None:
    """The mean of the defined scores under ``subset``, each pair's counted as
    many times as its weight: ``mean_defined`` of the repeated scores."""
    total = Fraction(0)
    defined = 0
    for counts, weight in weighted:
        score = _subset_jaccard(counts, subset)
        if score is not None:
            total += score * weight
            defined += weight
    return total / defined if defined else None


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of ``mask``, the empty one included."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def optimize_node_types(sample: Sequence[OptimizeInstance]) -> OptimizeResult:
    """Brute-force the node-type power set for the subset maximizing the gap
    between the baseline pair's similarity and the contrast's similarity to
    the baseline anchor.

    Undefined scores are excluded from means. Ties prefer smaller subsets,
    then lexicographic type order. Raises ValueError when no subset yields a
    defined score on both sides.

    A subset's scores depend only on which of the sample's endpoint types it
    keeps, so the means are computed once per projection ``subset & used``
    (2^|used| of them) and every subset of the node types is then ranked.
    Equal instances score alike, so each distinct instance is scored once and
    weighted by its count; the means are exact, so they equal those over the
    whole sample.
    """
    if not sample:
        raise ValueError("sample must be non-empty")
    instances = Counter(sample).items()
    baseline_counts = [(_pair_counts(i.baseline_a, i.baseline_b), n) for i, n in instances]
    contrast_counts = [(_pair_counts(i.contrast, i.baseline_a), n) for i, n in instances]

    used = 0
    for counts, _ in baseline_counts + contrast_counts:
        for mask, _, _ in counts:
            used |= mask
    scored: dict[int, tuple[Fraction, Fraction, Fraction] | None] = {}
    for projection in _submasks(used):
        base_mean = _mean_score(baseline_counts, projection)
        contrast_mean = _mean_score(contrast_counts, projection)
        if base_mean is not None and contrast_mean is not None:
            scored[projection] = (base_mean - contrast_mean, base_mean, contrast_mean)
        else:
            scored[projection] = None

    bits = [1 << i for i in range(len(_TYPE_BIT))]  # tie-break order
    best: tuple[tuple[Fraction, Fraction, Fraction], int] | None = None
    evaluated = 0
    for size in range(1, len(bits) + 1):
        for combo in combinations(bits, size):
            evaluated += 1
            subset = sum(combo)
            score = scored[subset & used]
            if score is not None and (best is None or score[0] > best[0][0]):
                best = (score, subset)
    if best is None:
        raise ValueError("all similarity scores undefined under every subset")
    (separation, base_mean, contrast_mean), subset = best
    best_subset = frozenset(t for t, bit in _TYPE_BIT.items() if bit & subset)
    return OptimizeResult(best_subset, separation, base_mean, contrast_mean, evaluated)


def build_optimize_sample(
    permissive: dict[FrameKey, FrameRecord],
    contrast: dict[FrameKey, FrameRecord],
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
        if any(r.party != "third" or r.is_ad for r in records):
            continue
        sample.append(OptimizeInstance(
            frozenset(anchor[key].edge_set),
            frozenset(replica[key].edge_set),
            frozenset(contrasted[key].edge_set),
        ))
    return sample


# ---------------------------------------------------------------------------
# Candidate selection and grading arithmetic


class FrameStat(NamedTuple):
    frame_url: str
    site: str  # the frame URL's eTLD+1
    n_embedding_pages: int
    n_cookies: int


class Candidate(NamedTuple):
    frame_url: str
    site: str
    n_embedding_pages: int
    n_cookies: int
    score: Fraction


class CandidateSelection(NamedTuple):
    candidates: tuple[Candidate, ...]
    short: bool  # fewer distinct sites available than requested


def harmonic_score(a: int, b: int) -> Fraction:
    if a < 0 or b < 0:
        raise ValueError("counts must be >= 0")
    if a + b == 0:
        return Fraction(0)
    return Fraction(2 * a * b, a + b)


def select_candidates(frame_stats: Sequence[FrameStat], k: int) -> CandidateSelection:
    """Top-k frame URLs by harmonic mean of embedding-page and cookie counts,
    keeping only the first (best) frame per site. Raises ValueError for k < 1."""
    if k < 1:
        raise ValueError(f"the number of candidates must be at least 1, got {k}")
    scored = sorted(
        frame_stats,
        key=lambda s: (-harmonic_score(s.n_embedding_pages, s.n_cookies), s.frame_url),
    )
    chosen: list[Candidate] = []
    seen_sites: set[str] = set()
    for stat in scored:
        if stat.site in seen_sites:
            continue
        seen_sites.add(stat.site)
        chosen.append(Candidate(stat.frame_url, stat.site, stat.n_embedding_pages,
                                stat.n_cookies, harmonic_score(stat.n_embedding_pages, stat.n_cookies)))
        if len(chosen) == k:
            break
    return CandidateSelection(tuple(chosen), short=len(chosen) < k)


class ProfileBreakage(NamedTuple):
    broken: int
    n: int
    pct: Fraction


class GradeStats(NamedTuple):
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
