"""The benchmark's workloads: their inputs, CLI pipelines and checks.

Every path a pipeline step names is relative to the repetition directory,
so the manifests the CLI writes, and hence every artifact digest, are the
same in every repetition, run and checkout.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import crawlgen

POLICIES = ("permissive", "blocking", "site-keyed", "page-length")
INPUTS = "../inputs"  # the input directory, seen from where each CLI call runs


@dataclass(frozen=True)
class Step:
    """One CLI call; ``trace`` names the trace a ``simulate`` step replays."""

    kind: str  # "gen" | "simulate" | "metrics" | "setup"
    label: str
    args: tuple[str, ...]
    trace: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    # Writes the input files into a directory; returns the feature counts
    # that must all be non-zero.
    prepare: Callable[[Path, int, dict], dict[str, int]]
    steps: Callable[[int, dict], list[Step]]
    setup_args: tuple[str, ...]  # flags of the set-up ``simulate`` call
    checks: Callable[[Path], list[tuple[str, bool]]]
    scales: dict[str, dict]  # "full" and "smoke"


def _simulate(policy: str, trace: str, *extra: str) -> Step:
    return Step("simulate", f"simulate-{policy}",
                ("simulate", "--policy", policy, "--trace", trace, *extra,
                 "--out", f"sim/{policy}"), trace)


def _gen(policy: str, seed: int, scale: dict) -> Step:
    return Step("gen", f"gen-trace-{policy}",
                ("gen-trace", "--sites", str(scale["sites"]), "--trackers", str(scale["trackers"]),
                 "--tracker-prob", str(scale["tracker_prob"]),
                 "--pages", "2", "--iters", "2", "--profiles", "2",
                 "--seed", str(seed), "--policy", policy, "--out", f"traces/{policy}"))


def _privacy(policy: str) -> list[Step]:
    flows = f"sim/{policy}/flows.csv"
    return [Step("metrics", f"cross-site-{policy}",
                 ("metrics", "cross-site", "--flows", flows, "--out", f"metrics/cross-site/{policy}")),
            Step("metrics", f"cross-time-{policy}",
                 ("metrics", "cross-time", "--flows", flows, "--out", f"metrics/cross-time/{policy}"))]


def _similarity(compared: str, node_filter: str, out: str) -> Step:
    return Step("metrics", f"similarity-{out}",
                ("metrics", "similarity", "--permissive", "sim/permissive", "--compared",
                 f"sim/{compared}", "--node-filter", node_filter, "--out", f"metrics/similarity/{out}"))


def _no_inputs(inputs_dir: Path, seed: int, scale: dict) -> dict[str, int]:
    return {}


# ---------------------------------------------------------------------------
# synthetic-experiment: the README's full experiment with the built-in PSL.


def _synthetic_steps(seed: int, scale: dict) -> list[Step]:
    steps = [_gen(p, seed, scale) for p in POLICIES]
    steps += [_simulate(p, f"traces/{p}/trace.jsonl") for p in POLICIES]
    for p in POLICIES:
        steps += _privacy(p)
    steps += [_similarity(p, "optimal", p) for p in POLICIES[1:]]
    steps.append(Step("metrics", "optimize",
                      ("metrics", "optimize", "--permissive", "sim/permissive",
                       "--contrast", "sim/blocking", "--out", "metrics/optimize")))
    steps.append(Step("metrics", "candidates",
                      ("metrics", "candidates", "--sim", "sim/permissive", "--top", "10",
                       "--out", "metrics/candidates")))
    return steps


def _manifest_total(rep: Path, metric: str, policy: str) -> int:
    return json.loads((rep / "metrics" / metric / policy / "manifest.json").read_text())["total"]


def _final_point(rep: Path, policy: str) -> float:
    report = rep / "metrics" / "similarity" / policy / "similarity_report.json"
    return json.loads(report.read_text())["final_point"]


def _flow_rows(rep: Path, policy: str) -> int:
    with open(rep / "sim" / policy / "flows.csv", encoding="utf-8", newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def _synthetic_checks(rep: Path) -> list[tuple[str, bool]]:
    """The paper's invariants on the four policies. Cookie outcomes that a
    stricter cookie model may change (which cookies are accepted) are not
    pinned."""
    return [
        ("blocking has no flows", _flow_rows(rep, "blocking") == 0),
        ("site-keyed cross-site total is 0", _manifest_total(rep, "cross-site", "site-keyed") == 0),
        ("page-length cross-site total is 0", _manifest_total(rep, "cross-site", "page-length") == 0),
        ("page-length cross-time total is 0", _manifest_total(rep, "cross-time", "page-length") == 0),
        ("permissive cross-time >= site-keyed",
         _manifest_total(rep, "cross-time", "permissive")
         >= _manifest_total(rep, "cross-time", "site-keyed")),
        ("blocking similarity final point < 1", _final_point(rep, "blocking") < 1),
        ("site-keyed similarity final point is 1", _final_point(rep, "site-keyed") == 1),
        ("page-length similarity final point is 1", _final_point(rep, "page-length") == 1),
    ]


# ---------------------------------------------------------------------------
# crawl-fullpsl: a crawl-shaped trace with a full-size PSL and filter list.



def _crawl_prepare(inputs_dir: Path, seed: int, scale: dict) -> dict[str, int]:
    made = crawlgen.make_crawl_inputs(seed, scale["psl_rules"], scale["anchors"])
    (inputs_dir / "psl.dat").write_text(made.psl, encoding="utf-8")
    (inputs_dir / "filters.txt").write_text(made.filters, encoding="utf-8")
    (inputs_dir / "crawl.jsonl").write_text(made.trace, encoding="utf-8")
    return {**made.features.as_dict(), "psl_rules": made.n_psl_rules,
            "filter_anchors": made.n_anchors}


_CRAWL_FLAGS = ("--psl", f"{INPUTS}/psl.dat", "--filters", f"{INPUTS}/filters.txt")


def _crawl_steps(seed: int, scale: dict) -> list[Step]:
    steps = [_simulate(p, f"{INPUTS}/crawl.jsonl", *_CRAWL_FLAGS) for p in POLICIES]
    for p in POLICIES:
        steps += _privacy(p)
    steps.append(Step("metrics", "candidates",
                      ("metrics", "candidates", "--sim", "sim/permissive", "--psl",
                       f"{INPUTS}/psl.dat", "--top", "10", "--out", "metrics/candidates")))
    return steps


def _crawl_checks(rep: Path) -> list[tuple[str, bool]]:
    frames = (rep / "sim" / "permissive" / "frames.jsonl").read_text().splitlines()
    ads = sum(1 for line in frames if json.loads(line)["is_ad"])
    return [("filter list flags ad frames", ads > 0),
            ("filter list leaves non-ad frames", ads < len(frames))]


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="synthetic-experiment",
        prepare=_no_inputs, steps=_synthetic_steps, setup_args=(), checks=_synthetic_checks,
        scales={"full": {"sites": 50, "trackers": 10, "tracker_prob": 0.5},
                "smoke": {"sites": 3, "trackers": 2, "tracker_prob": 0.5}},
    ),
    Workload(
        name="crawl-fullpsl",
        prepare=_crawl_prepare, steps=_crawl_steps, setup_args=_CRAWL_FLAGS,
        checks=_crawl_checks,
        scales={"full": {"psl_rules": 9700, "anchors": 20000},
                "smoke": {"psl_rules": 1500, "anchors": 500}},
    ),
)}
