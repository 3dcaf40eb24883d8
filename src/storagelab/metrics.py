"""Compatibility metrics over the frames of simulate outputs (the dicts
``storagelab.frames`` reads): Jaccard similarity of per-frame behavior-edge
sets against a permissive baseline, node-type subset optimization by brute
force over the power set, candidate selection for manual grading, and the
grading arithmetic (agreement, Cohen's kappa, breakage table). The privacy
metrics are in ``storagelab.picf``.

An edge is its canonical string. Similarity scores are exact rationals;
everything here is a pure function of its inputs, but for the CLI commands
at the end (``metrics similarity``, ``optimize``, ``candidates`` and
``kappa``), which read simulate outputs and grades and write the results.
A candidate's site comes with its ``FrameStat``, so no replay, partition or
PSL code is imported; only the ``candidates`` command loads the PSL and
``policy.site_of``.

Work is done once per distinct edge set, not per frame: ``frame_similarity``
scores each distinct pair of edge-set objects once (the frames reader gives
every record with the same edge list one shared frozenset), and
``optimize_node_types`` scores each distinct sample instance once, weighting
its exact scores by its count.
"""

from __future__ import annotations

import csv
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from storagelab.artifacts import (InputError, _at_least, _fnum, _frac, _load_suffix_rules,
                                  _out_dir, _parse_input, _write_json, _write_manifest)
from storagelab.flows import (TraceFormatError, _cells, _csv_table, _json_object, read_flows_csv,
                              write_csv)
from storagelab.frames import FrameKey, FrameRecord, read_frames_jsonl
from storagelab.vocab import _EDGE_MASKS, _TYPE_BIT, OPTIMAL_NODE_TYPES, NodeType, _Memo

Score = Fraction | None  # None = undefined (both compared sets empty)


# ---------------------------------------------------------------------------
# Node-type masks
#
# A set of node types is an int with one bit per type (``vocab._TYPE_BIT``).
# An edge's mask, the bits of its two endpoint types, comes from the memo in
# ``storagelab.vocab`` that the frames reader fills; a filter keeps the edge
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
    """The profile's third-party frames not flagged as ads, the only ones
    compared, by (page_url, frame_url, crawl_iter)."""
    views = {}
    for (page_url, frame_url, frame_profile, crawl_iter), record in frames.items():
        if frame_profile == profile and record.party == "third" and not record.is_ad:
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
        pair = id(a.edge_set), id(b.edge_set)
        if pair not in scores:
            scores[pair] = jaccard(_filter_edges(a.edge_set, mask),
                                   _filter_edges(b.edge_set, mask))
        results.append(FrameSimilarity(key[0], key[1], key[2], scores[pair]))
    return results


def mean_defined(scores: Iterable[Score]) -> Fraction | None:
    """Mean of the defined scores; None when every score is undefined. The
    scores are summed as integers over their least common denominator."""
    defined = [s for s in scores if s is not None]
    if not defined:
        return None
    common = lcm(*{s.denominator for s in defined})
    return Fraction(sum(s.numerator * (common // s.denominator) for s in defined),
                    common * len(defined))


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
    every baseline-comparable instance. Each cumulative sum is an integer
    over the least common denominator of the scores.
    """
    if baseline_max < 0:
        raise ValueError("baseline_max must be >= 0")
    if not baseline_max:
        return [(rank, Fraction(0)) for rank in range(1, len(scores) + 1)]
    common = lcm(*{s.denominator for s in scores if s is not None})
    points = []
    total = 0
    for rank, score in enumerate(scores, start=1):
        if score is not None:
            total += score.numerator * (common // score.denominator)
        points.append((rank, Fraction(total, common * baseline_max)))
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


def _mean_score(weighted: list[tuple[PairCounts, int]], subset: int) -> Fraction | None:
    """The mean of the defined Jaccard scores under ``subset``, each pair's
    counted as many times as its weight: ``mean_defined`` of the repeated
    scores. Each score is |a & b| / |a | b| over the edges ``subset`` keeps,
    undefined when none is kept, and they are summed as integers over the
    least common multiple of the unions."""
    outside = ~subset
    defined = []  # (|a & b|, |a | b|, weight) of each pair with a defined score
    for counts, weight in weighted:
        inter = union = 0
        for mask, i, u in counts:
            if not mask & outside:
                inter += i
                union += u
        if union:
            defined.append((inter, union, weight))
    if not defined:
        return None
    common = lcm(*{union for _, union, _ in defined})
    return Fraction(sum(inter * weight * (common // union) for inter, union, weight in defined),
                    common * sum(weight for _, _, weight in defined))


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


def harmonic_score(a: int, b: int) -> Fraction:
    if a < 0 or b < 0:
        raise ValueError("counts must be >= 0")
    if a + b == 0:
        return Fraction(0)
    return Fraction(2 * a * b, a + b)


def select_candidates(frame_stats: Sequence[FrameStat], k: int) -> list[FrameStat]:
    """The stats of the top-k frame URLs by harmonic mean of embedding-page
    and cookie counts, keeping only the first (best) frame per site: fewer
    than k when fewer sites are left. Raises ValueError for k < 1."""
    if k < 1:
        raise ValueError(f"the number of candidates must be at least 1, got {k}")
    scored = sorted(
        frame_stats,
        key=lambda s: (-harmonic_score(s.n_embedding_pages, s.n_cookies), s.frame_url),
    )
    chosen: list[FrameStat] = []
    seen_sites: set[str] = set()
    for stat in scored:
        if stat.site in seen_sites:
            continue
        seen_sites.add(stat.site)
        chosen.append(stat)
        if len(chosen) == k:
            break
    return chosen


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


# ---------------------------------------------------------------------------
# CLI commands


def _load_sim_dir(path_str: str, with_flows: bool = False):
    """The frames of the simulate output in a directory, its flows (None
    unless ``with_flows``: only then is ``flows.csv`` read), its manifest,
    and the manifest entries (path and sha256) of the files read, by file
    name. A manifest that is not a simulate run's, or names no trace by its
    sha256, is an input error naming the directory."""
    sim_dir = Path(path_str)
    manifest_path = sim_dir / "manifest.json"
    if not manifest_path.is_file():
        raise InputError(f"not a simulation output directory (no manifest): {sim_dir}")
    # Its strings are not checked for surrogates: none reaches an output, and a
    # path from a file name that is not UTF-8 holds one.
    manifest, entry = _parse_input(manifest_path,
                                   lambda fh: _json_object(fh.read(), surrogates=False), None)
    entries = {"manifest.json": entry}
    if manifest.get("command") != "simulate":
        raise InputError(f"{sim_dir}: manifest is not from a simulate run")
    if type(manifest.get("trace_sha256")) is not str:
        raise InputError(f"{sim_dir}: manifest names no trace_sha256")
    flows = None
    if with_flows:
        flows, entries["flows.csv"] = _parse_input(sim_dir / "flows.csv", read_flows_csv, "")
    frames, entries["frames.jsonl"] = _parse_input(sim_dir / "frames.jsonl", read_frames_jsonl,
                                                   None)
    return frames, flows, manifest, entries


def _psl_named(entry) -> str | None:
    """The PSL a manifest's ``psl`` input entry names: "builtin", or its
    file's sha256; None when it names none."""
    if not isinstance(entry, dict):
        return None
    if entry.get("builtin") is True:
        return "builtin"
    sha256 = entry.get("sha256")
    return sha256 if type(sha256) is str else None


def _require_same_trace(a: dict, b: dict, what: str) -> None:
    """An input error unless two simulate manifests name one trace by content."""
    if a.get("trace_sha256") != b.get("trace_sha256"):
        raise InputError(f"{what}: outputs come from different traces")


def _parse_node_filter(value: str) -> frozenset:
    if value == "all":
        return frozenset(NodeType)
    if value == "optimal":
        return OPTIMAL_NODE_TYPES
    names = [name.strip() for name in value.split(",") if name.strip()]
    if not names:
        raise InputError(f"--node-filter names no node type: {value!r}")
    try:
        return frozenset(NodeType(name) for name in names)
    except ValueError as exc:
        raise InputError(f"unknown node type in --node-filter: {exc}") from None


def cmd_metrics_similarity(args) -> int:
    node_filter = _parse_node_filter(args.node_filter)
    permissive, _, perm_manifest, perm_entries = _load_sim_dir(args.permissive)
    compared, _, comp_manifest, comp_entries = _load_sim_dir(args.compared)
    _require_same_trace(perm_manifest, comp_manifest, "similarity")

    baseline = frame_similarity(permissive, permissive, node_filter,
                                args.anchor_profile, args.baseline_profile)
    scores = frame_similarity(permissive, compared, node_filter,
                              args.anchor_profile, args.compared_profile)
    aligned, baseline_defined, dropped = align_curve_inputs(baseline, scores)
    curve = similarity_curve(aligned, baseline_defined)

    out = _out_dir(args.out)
    # The two cells of each distinct score, formatted once.
    cells = _Memo(lambda score: ("", "undefined") if score is None
                  else (_fnum(score), _frac(score)))
    write_csv(out / "similarity_scores.csv", [
        ("page_url", "frame_url", "crawl_iter", "score", "score_exact"),
        *((s.page_url, s.frame_url, s.crawl_iter, *cells[s.score]) for s in scores),
    ])
    write_csv(out / "similarity_curve.csv", [
        ("rank", "cumulative", "cumulative_exact"),
        *((rank, _fnum(value), _frac(value)) for rank, value in curve),
    ])
    mean = mean_defined([s.score for s in scores])
    _write_json(out / "similarity_report.json", {
        "instances": len(aligned),
        "baseline_defined": baseline_defined,
        "dropped_undefined_in_both": dropped,
        "undefined_scored_zero": sum(1 for s in aligned if s is None),
        "mean_defined": _frac(mean),
        "mean_defined_float": None if mean is None else float(mean),
        "final_point": float(curve[-1][1]) if curve else None,
        "node_filter": sorted(t.value for t in node_filter),
    })
    _write_manifest(out, args,
                    inputs={"permissive_manifest": perm_entries,
                            "compared_manifest": comp_entries},
                    outputs=["similarity_scores.csv", "similarity_curve.csv",
                             "similarity_report.json"])
    return 0


def cmd_metrics_optimize(args) -> int:
    import random
    _at_least(0, sample_size=args.sample_size)
    permissive, _, perm_manifest, perm_entries = _load_sim_dir(args.permissive)
    contrast, _, contrast_manifest, contrast_entries = _load_sim_dir(args.contrast)
    _require_same_trace(perm_manifest, contrast_manifest, "optimize")
    profiles = [p.strip() for p in args.baseline_profiles.split(",")]
    if len(profiles) != 2:
        raise InputError("--baseline-profiles must name two profiles, comma-separated")
    sample = build_optimize_sample(permissive, contrast, (profiles[0], profiles[1]),
                                   args.contrast_profile)
    if not sample:
        raise InputError("no comparable third-party frame instances between outputs")
    if args.sample_size and len(sample) > args.sample_size:
        rng = random.Random(args.seed)
        sample = rng.sample(sample, args.sample_size)
    result = optimize_node_types(sample)
    out = _out_dir(args.out)
    _write_json(out / "optimize_report.json", {
        "best_subset": sorted(t.value for t in result.best_subset),
        "separation": _frac(result.separation),
        "separation_float": float(result.separation),
        "baseline_mean": _frac(result.baseline_mean),
        "contrast_mean": _frac(result.contrast_mean),
        "subsets_evaluated": result.subsets_evaluated,
        "sample_size": len(sample),
    })
    _write_manifest(out, args,
                    inputs={"permissive_manifest": perm_entries,
                            "contrast_manifest": contrast_entries},
                    outputs=["optimize_report.json"])
    return 0


def cmd_metrics_candidates(args) -> int:
    from storagelab.policy import site_of
    _at_least(1, top=args.top)
    rules, psl_entry = _load_suffix_rules(args.psl)
    frames, flows, manifest, sim_entries = _load_sim_dir(args.sim, with_flows=True)
    # A frame's site must come from the rules that gave the flows' third_party_site.
    inputs = manifest.get("inputs")
    sim_psl = _psl_named(inputs.get("psl") if isinstance(inputs, dict) else None)
    if sim_psl is None:
        raise InputError(f"{args.sim}: manifest names no PSL")
    if sim_psl != _psl_named(psl_entry):
        raise InputError(f"{args.sim}: its simulate run used another PSL than --psl "
                         "(built in when omitted)")
    pages_by_frame: dict[str, set[str]] = {}
    for (page_url, frame_url, _profile, _iter), record in frames.items():
        if record.party != "third" or record.is_ad:
            continue
        pages_by_frame.setdefault(frame_url, set()).add(page_url)
    cookies_by_site: dict[str, set[tuple[str, str]]] = {}
    for flow in flows:
        cookies_by_site.setdefault(flow.third_party_site, set()).add(
            (flow.cookie_name, flow.cookie_value))
    sites = {frame_url: site_of(frame_url, rules) for frame_url in pages_by_frame}
    stats = [FrameStat(frame_url, sites[frame_url], len(pages_by_frame[frame_url]),
                       len(cookies_by_site.get(sites[frame_url], ())))
             for frame_url in sorted(pages_by_frame)]
    chosen = select_candidates(stats, args.top)
    short = len(chosen) < args.top  # fewer distinct sites than requested
    out = _out_dir(args.out)
    write_csv(out / "candidates.csv", [
        ("rank", "frame_url", "site", "n_embedding_pages", "n_cookies", "score"),
        *((rank, *c, _fnum(harmonic_score(c.n_embedding_pages, c.n_cookies)))
          for rank, c in enumerate(chosen, start=1)),
    ])
    if short:
        print(f"note: only {len(chosen)} distinct-site candidates "
              f"available (requested {args.top})", file=sys.stderr)
    _write_manifest(out, args,
                    inputs={"psl": psl_entry, "sim_manifest": sim_entries},
                    outputs=["candidates.csv"],
                    extra={"short": short})
    return 0


def _read_grades_csv(lines) -> dict[tuple[str, str], tuple[int, int]]:
    grades: dict[tuple[str, str], tuple[int, int]] = {}
    reader = csv.reader(lines)
    header = next(reader, None)
    required = ("url", "profile", "grader_a", "grader_b")
    if header is None or not set(required).issubset(header):
        raise TraceFormatError(f"grades CSV needs columns {sorted(required)}")
    table = _csv_table(header, required, integers=("grader_a", "grader_b"))
    for row in reader:
        if not row:
            continue
        try:
            url, profile, grade_a, grade_b = _cells(row, table)
            if (url, profile) in grades:
                raise TraceFormatError(f"duplicate cell {(url, profile)!r}")
            grades[(url, profile)] = (grade_a, grade_b)
        except ValueError as exc:  # also an integer past int()'s digit limit
            raise TraceFormatError(f"line {reader.line_num}: {exc}") from None
    return grades


def cmd_metrics_kappa(args) -> int:
    grades, entry = _parse_input(args.grades, _read_grades_csv, "")
    stats = grade_stats(grades)
    out = _out_dir(args.out)
    _write_json(out / "grading_report.json", {
        "agreement_pct": float(stats.agreement * 100),
        "agreement_exact": _frac(stats.agreement),
        "cohens_kappa": float(stats.kappa),
        "kappa_exact": _frac(stats.kappa),
        "breakage": {
            profile: {"broken": row.broken, "n": row.n, "pct": float(row.pct * 100)}
            for profile, row in sorted(stats.breakage.items())
        },
    })
    _write_manifest(out, args,
                    inputs={"grades": entry},
                    outputs=["grading_report.json"])
    return 0
