"""Command-line pipelines tying trace generation, simulation, and metrics.

Subcommands write their artifacts plus a ``manifest.json`` echoing the
resolved configuration and input content hashes; reruns with identical
manifests produce byte-identical outputs (no timestamps, sorted keys,
deterministic float formatting).

Exit codes: 0 success, 1 usage, 2 input/parse failure, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from functools import partial
from pathlib import Path

from storagelab import __version__
# etld_plus_one is unused here, but bench/tests checks that the span recorder wraps it
# at this binding. Each command imports the rest of what it runs (see "Start-up and
# exit" in README.md), so a call loads only its own modules.
from storagelab.psl import builtin_rules, etld_plus_one, parse_psl  # noqa: F401

# The values of storagelab.policy.PolicyKind, which only simulate imports.
POLICY_NAMES = ("permissive", "blocking", "site-keyed", "page-length")

DEFAULT_PICF_THRESHOLD = 8


class InputError(Exception):
    """Bad or mismatched input files; maps to exit code 2."""


def _out_dir(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_manifest(out: Path, args: argparse.Namespace, inputs: dict, outputs: list[str],
                    extra: dict | None = None) -> None:
    """The command path and every parsed option (``config``) of ``args``,
    with the input hashes and the names of the files written to ``out``."""
    command = f"{args.command} {args.metric}" if args.command == "metrics" else args.command
    config = {k: v for k, v in vars(args).items() if k not in ("command", "metric", "func")}
    _write_json(out / "manifest.json", {
        "command": command, "config": config, "inputs": inputs, "outputs": outputs,
        "version": __version__, **(extra or {}),
    })


def _not_utf8(path, data: bytes) -> InputError:
    """The error for ``data``, which is not UTF-8, naming the line and column
    of its first bad byte."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line_no = data.count(b"\n", 0, line_start) + 1
        return InputError(f"{path}: line {line_no}: not UTF-8 "
                          f"({exc.reason} at column {exc.start - line_start + 1})")
    return InputError(f"{path}: not UTF-8")


def _parse_input(path, parse, newline: str | None) -> tuple:
    """``parse`` of an input file's text, and the file's manifest entry (path
    and sha256), from one read of the file: the only way a command reads an
    input. ``parse`` gets the text as ``open(path, encoding="utf-8",
    newline=newline)`` would give it, decoded as it reads. A byte that is not
    UTF-8, or any ``ValueError`` of ``parse``, is an input error naming the
    file."""
    file = Path(path)
    if not file.is_file():
        raise InputError(f"input file not found: {file}")
    data = file.read_bytes()
    entry = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    try:
        parsed = parse(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline))
    except UnicodeDecodeError:
        raise _not_utf8(path, data) from None
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    return parsed, entry


def _load_suffix_rules(psl_path: str | None):
    if psl_path is None:
        return builtin_rules(), {"builtin": True}
    return _parse_input(psl_path, lambda fh: parse_psl(fh.read()), "")


def _load_ad_rules(filters_path: str | None):
    from storagelab.filterlist import EMPTY_RULES, parse_rules
    if filters_path is None:
        return EMPTY_RULES, None
    return _parse_input(filters_path, lambda fh: parse_rules(fh.read()), "")


def _at_least(low: int, **flags: int) -> None:
    """An input error naming the first flag whose value is below ``low``;
    each keyword is a flag's name, ``--`` and dashes aside."""
    for name, value in flags.items():
        if value < low:
            raise InputError(f"--{name.replace('_', '-')} must be >= {low}")


def _fnum(value) -> str:
    """Deterministic decimal rendering for CSV/report floats."""
    return repr(float(value))


def _frac(value) -> str | None:
    """An exact fraction as ``n/d``."""
    return None if value is None else f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# gen-trace


def cmd_gen_trace(args) -> int:
    from storagelab.synthetic import (SyntheticSpec, TrackerSpec, default_tracker_sites,
                                      generate_synthetic_trace)
    from storagelab.trace import write_trace
    _at_least(1, sites=args.sites, profiles=args.profiles, pages=args.pages, iters=args.iters)
    _at_least(0, trackers=args.trackers)
    if not 0 <= args.tracker_prob <= 1:
        raise InputError("--tracker-prob must be in [0, 1]")
    trackers = tuple(
        TrackerSpec(site, args.tracker_prob) for site in default_tracker_sites(args.trackers)
    )
    trace = generate_synthetic_trace(SyntheticSpec(
        n_sites=args.sites, trackers=trackers, pages_per_site=args.pages,
        crawl_iters=args.iters, profiles=args.profiles, seed=args.seed))
    out = _out_dir(args.out)
    write_trace(trace, out / "trace.jsonl")
    _write_manifest(out, args, inputs={}, outputs=["trace.jsonl"],
                    extra={"trace_scenario": trace.meta.scenario})
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    from storagelab.policy import PolicyKind
    from storagelab.frames import write_frames_jsonl
    from storagelab.simulator import replay, write_flows_csv
    from storagelab.trace import parse_trace
    rules, psl_entry = _load_suffix_rules(args.psl)
    ads, filters_entry = _load_ad_rules(args.filters)
    trace, trace_entry = _parse_input(args.trace, parse_trace, None)
    output = replay(trace.events, PolicyKind(args.policy), rules, ads,
                    origin_keyed=args.origin_keyed)
    out = _out_dir(args.out)
    write_flows_csv(output.flows, out / "flows.csv")
    write_frames_jsonl(output.frames, out / "frames.jsonl")
    inputs = {"trace": trace_entry, "psl": psl_entry}
    if filters_entry:
        inputs["filters"] = filters_entry
    _write_manifest(
        out, args, inputs=inputs, outputs=["flows.csv", "frames.jsonl"],
        extra={
            "trace_scenario": trace.meta.scenario if trace.meta else None,
            "trace_sha256": trace_entry["sha256"],
        },
    )
    return 0


def _load_sim_dir(path_str: str, with_flows: bool = False):
    """The frames of the simulate output in a directory, its flows (None
    unless ``with_flows``: only then is ``flows.csv`` read), its manifest,
    and the manifest entries (path and sha256) of the files read, by file
    name. A manifest that is not a simulate run's, or names no trace by its
    sha256, is an input error naming the directory."""
    from storagelab.flows import _json_object, read_flows_csv
    from storagelab.frames import read_frames_jsonl
    sim_dir = Path(path_str)
    manifest_path = sim_dir / "manifest.json"
    if not manifest_path.is_file():
        raise InputError(f"not a simulation output directory (no manifest): {sim_dir}")
    manifest, entry = _parse_input(manifest_path, lambda fh: _json_object(fh.read()), None)
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


# ---------------------------------------------------------------------------
# metrics subcommands


def _read_all_flows(paths: list[str]):
    from storagelab.flows import read_flows_csv
    entries = {}
    flows = []
    for i, path in enumerate(paths):
        file_flows, entries[f"flows_{i}"] = _parse_input(path, read_flows_csv, "")
        flows.extend(file_flows)
    return flows, entries


def cmd_metrics_picf(args) -> int:
    from storagelab.flows import write_csv
    from storagelab.picf import extract_picfs
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
    from storagelab.flows import write_csv
    from storagelab.picf import curve_rows, extract_picfs
    _at_least(1, threshold=args.threshold)
    flows, entries = _read_all_flows(args.flows)
    scores = scores_of(extract_picfs(flows, args.threshold), flows)
    out = _out_dir(args.out)
    write_csv(out / name, [("rank", key_name, "score", "cumulative"), *curve_rows(scores)])
    _write_manifest(out, args, inputs=entries, outputs=[name],
                    extra={"total": sum(scores.values())})
    return 0


def cmd_metrics_cross_site(args) -> int:
    from storagelab.picf import cross_site_scores
    return _curve_command(args, "cross_site_curve.csv", "third_party_site", cross_site_scores)


def cmd_metrics_cross_time(args) -> int:
    from storagelab.picf import cross_time_scores
    return _curve_command(args, "cross_time_curve.csv", "top_site", partial(
        cross_time_scores, across_iterations_only=args.across_iterations_only))


def _parse_node_filter(value: str) -> frozenset:
    from storagelab.trace import OPTIMAL_NODE_TYPES, NodeType
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
    from storagelab.flows import write_csv
    from storagelab.metrics import (align_curve_inputs, frame_similarity, mean_defined,
                                    similarity_curve)
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
    write_csv(out / "similarity_scores.csv", [
        ("page_url", "frame_url", "crawl_iter", "score", "score_exact"),
        *((s.page_url, s.frame_url, s.crawl_iter,
           "" if s.score is None else _fnum(s.score),
           "undefined" if s.score is None else _frac(s.score)) for s in scores),
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
    from storagelab.metrics import build_optimize_sample, optimize_node_types
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
    from storagelab.flows import write_csv
    from storagelab.metrics import FrameStat, select_candidates
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
    selection = select_candidates(stats, args.top)
    out = _out_dir(args.out)
    write_csv(out / "candidates.csv", [
        ("rank", "frame_url", "site", "n_embedding_pages", "n_cookies", "score"),
        *((rank, c.frame_url, c.site, c.n_embedding_pages, c.n_cookies, _fnum(c.score))
          for rank, c in enumerate(selection.candidates, start=1)),
    ])
    if selection.short:
        print(f"note: only {len(selection.candidates)} distinct-site candidates "
              f"available (requested {args.top})", file=sys.stderr)
    _write_manifest(out, args,
                    inputs={"psl": psl_entry, "sim_manifest": sim_entries},
                    outputs=["candidates.csv"],
                    extra={"short": selection.short})
    return 0


def _read_grades_csv(lines) -> dict[tuple[str, str], tuple[int, int]]:
    from storagelab.flows import _INTEGER, TraceFormatError, _csv_record, _require
    grades: dict[tuple[str, str], tuple[int, int]] = {}
    reader = csv.reader(lines)
    header = next(reader, None)
    required = {"url", "profile", "grader_a", "grader_b"}
    if header is None or not required.issubset(header):
        raise TraceFormatError(f"grades CSV needs columns {sorted(required)}")
    for row in reader:
        if not row:
            continue
        try:
            url, profile, grade_a, grade_b = _require(
                _csv_record(header, row), "url", "profile", "grader_a", "grader_b")
            cell = (url, profile)
            if cell in grades:
                raise TraceFormatError(f"duplicate cell {cell!r}")
            if not (_INTEGER(grade_a) and _INTEGER(grade_b)):
                raise TraceFormatError(f"non-integer grade in {cell!r}")
            grades[cell] = (int(grade_a), int(grade_b))
        except ValueError as exc:  # also an integer past int()'s digit limit
            raise TraceFormatError(f"line {reader.line_num}: {exc}") from None
    return grades


def cmd_metrics_kappa(args) -> int:
    from storagelab.metrics import grade_stats
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


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="storagelab",
                     description="Replay crawl traces under third-party storage "
                                 "policies and compare privacy/compatibility metrics.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen-trace", help="generate a deterministic synthetic trace")
    gen.add_argument("--sites", type=int, required=True)
    gen.add_argument("--trackers", type=int, default=1, help="number of tracker sites")
    gen.add_argument("--tracker-prob", type=float, default=1.0,
                     help="per-page embedding probability (1.0 = every page)")
    gen.add_argument("--pages", type=int, default=1, help="pages per site")
    gen.add_argument("--iters", type=int, default=1, help="crawl iterations")
    gen.add_argument("--profiles", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--policy", choices=sorted(POLICY_NAMES), default="permissive",
                     help="deprecated, no effect: a scenario has one trace for every policy")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen_trace)

    sim = sub.add_parser("simulate", help="replay a trace under a policy")
    sim.add_argument("--policy", choices=sorted(POLICY_NAMES), required=True)
    sim.add_argument("--trace", required=True)
    sim.add_argument("--psl", default=None, help="public suffix list file (default: builtin)")
    sim.add_argument("--filters", default=None, help="ad filter list file")
    sim.add_argument("--origin-keyed", action="store_true",
                     help="key third-party partitions by origin instead of site")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    metrics = sub.add_parser("metrics", help="compute metrics over simulation outputs")
    msub = metrics.add_subparsers(dest="metric", required=True, parser_class=_Parser)

    picf = msub.add_parser("picf", help="extract potentially identifying cookie flows")
    picf.add_argument("--flows", nargs="+", required=True)
    picf.add_argument("--threshold", type=int, default=DEFAULT_PICF_THRESHOLD)
    picf.add_argument("--out", required=True)
    picf.set_defaults(func=cmd_metrics_picf)

    xsite = msub.add_parser("cross-site", help="cross-site trackability curve")
    xsite.add_argument("--flows", nargs="+", required=True)
    xsite.add_argument("--threshold", type=int, default=DEFAULT_PICF_THRESHOLD)
    xsite.add_argument("--out", required=True)
    xsite.set_defaults(func=cmd_metrics_cross_site)

    xtime = msub.add_parser("cross-time", help="cross-time trackability curve")
    xtime.add_argument("--flows", nargs="+", required=True)
    xtime.add_argument("--threshold", type=int, default=DEFAULT_PICF_THRESHOLD)
    xtime.add_argument("--across-iterations-only", action="store_true",
                       help="count repeats only across crawl iterations")
    xtime.add_argument("--out", required=True)
    xtime.set_defaults(func=cmd_metrics_cross_time)

    simil = msub.add_parser("similarity", help="behavior-edge similarity vs permissive")
    simil.add_argument("--permissive", required=True, help="permissive simulate output dir")
    simil.add_argument("--compared", required=True, help="compared simulate output dir")
    simil.add_argument("--anchor-profile", default="prof0")
    simil.add_argument("--baseline-profile", default="prof1")
    simil.add_argument("--compared-profile", default="prof0")
    simil.add_argument("--node-filter", default="all",
                       help="'all', 'optimal', or comma-separated node types")
    simil.add_argument("--out", required=True)
    simil.set_defaults(func=cmd_metrics_similarity)

    opt = msub.add_parser("optimize", help="brute-force the node-type power set")
    opt.add_argument("--permissive", required=True)
    opt.add_argument("--contrast", required=True)
    opt.add_argument("--baseline-profiles", default="prof0,prof1")
    opt.add_argument("--contrast-profile", default="prof0")
    opt.add_argument("--sample-size", type=int, default=100)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--out", required=True)
    opt.set_defaults(func=cmd_metrics_optimize)

    cand = msub.add_parser("candidates", help="select frames for manual grading")
    cand.add_argument("--sim", required=True, help="simulate output dir")
    cand.add_argument("--psl", default=None)
    cand.add_argument("--top", type=int, default=10)
    cand.add_argument("--out", required=True)
    cand.set_defaults(func=cmd_metrics_candidates)

    kappa = msub.add_parser("kappa", help="grading agreement statistics")
    kappa.add_argument("--grades", required=True, help="CSV: url,profile,grader_a,grader_b")
    kappa.add_argument("--out", required=True)
    kappa.set_defaults(func=cmd_metrics_kappa)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (InputError, OSError, ValueError) as exc:
        print(f"storagelab: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback
        traceback.print_exc()
        return 3


def run() -> None:
    """The command line's entry point: :func:`main` on ``sys.argv``, then the
    end of the process with its exit code, skipping interpreter finalization
    (freeing every object and clearing every module): a call's end takes
    about 1 ms this way, and 10-15 ms with finalization (README "Start-up
    and exit"). Nothing is lost by the skip: a command writes every output inside
    ``with`` or ``write_text``, so each file is closed before ``main``
    returns; storagelab registers no ``atexit`` handler and relies on no
    finalizer; and ``sys.stdout`` and ``sys.stderr`` are flushed here. If a
    flush fails, as into a closed pipe, the process exits the normal way,
    which reports the failure as it always has. ``main`` itself returns, so
    in-process callers keep a normal interpreter."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
