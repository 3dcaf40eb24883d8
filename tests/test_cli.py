import argparse
import csv
import json
import shutil
from pathlib import Path

import pytest

from storagelab.cli import build_parser, main


def run(*argv) -> int:
    return main([str(a) for a in argv])


def gen_and_simulate(base: Path, policy: str, *, sites=3, trackers=1, iters=2,
                     profiles=2, seed=7) -> tuple[Path, Path]:
    trace_dir = base / f"trace-{policy}"
    sim_dir = base / f"sim-{policy}"
    assert run("gen-trace", "--sites", sites, "--trackers", trackers,
               "--iters", iters, "--profiles", profiles, "--seed", seed,
               "--policy", policy, "--out", trace_dir) == 0
    assert run("simulate", "--policy", policy, "--trace", trace_dir / "trace.jsonl",
               "--out", sim_dir) == 0
    return trace_dir, sim_dir


def snapshot(base: Path) -> dict[str, bytes]:
    return {str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


class TestGenAndSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        trace_dir, sim_dir = gen_and_simulate(tmp_path, "page-length")
        assert (trace_dir / "trace.jsonl").is_file()
        assert (trace_dir / "manifest.json").is_file()
        assert (sim_dir / "flows.csv").is_file()
        assert (sim_dir / "frames.jsonl").is_file()
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["policy"] == "page-length"
        assert manifest["trace_scenario"]

    def test_unknown_policy_is_usage_error(self, tmp_path):
        assert run("simulate", "--policy", "nope", "--trace", tmp_path / "x",
                   "--out", tmp_path / "o") == 1

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        assert run("gen-trace", "--out", tmp_path / "o") == 1

    def test_missing_trace_file_is_input_error(self, tmp_path):
        assert run("simulate", "--policy", "permissive",
                   "--trace", tmp_path / "absent.jsonl", "--out", tmp_path / "o") == 2

    def test_malformed_trace_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type":"visit_start"}\n')
        assert run("simulate", "--policy", "permissive", "--trace", bad,
                   "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("field,bad", [
        ("page_url", 123), ("frame_url", 123), ("dest_url", 123), ("dest_url", ["x"]),
    ])
    def test_non_string_url_is_input_error_naming_the_line(self, tmp_path, capsys, field, bad):
        lines = (Path(__file__).parents[1] / "demo" / "trace.jsonl").read_text().splitlines()
        line_no = next(n for n, line in enumerate(lines, start=1) if f'"{field}"' in line)
        record = json.loads(lines[line_no - 1])
        record[field] = bad
        lines[line_no - 1] = json.dumps(record)
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        assert run("simulate", "--policy", "site-keyed", "--trace", trace,
                   "--out", tmp_path / "o") == 2
        assert f"line {line_no}: field {field!r} must be a string" in capsys.readouterr().err

    def test_zero_sites_is_input_error(self, tmp_path):
        assert run("gen-trace", "--sites", 0, "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--trackers", -1, "--trackers must be >= 0"),
        ("--tracker-prob", -0.1, "--tracker-prob must be in [0, 1]"),
        ("--tracker-prob", 1.5, "--tracker-prob must be in [0, 1]"),
        ("--tracker-prob", "nan", "--tracker-prob must be in [0, 1]"),
        ("--pages", 0, "--pages must be >= 1"),
        ("--iters", 0, "--iters must be >= 1"),
        ("--profiles", 0, "--profiles must be >= 1"),
    ])
    def test_out_of_range_gen_flag_is_input_error_naming_it(
            self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "o"
        assert run("gen-trace", "--sites", 2, flag, value, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_crawl_iter_is_input_error_naming_the_line(self, tmp_path, capsys):
        lines = (Path(__file__).parents[1] / "demo" / "trace.jsonl").read_text().splitlines()
        line_no = next(n for n, line in enumerate(lines, start=1) if '"visit_start"' in line)
        record = json.loads(lines[line_no - 1])
        record["crawl_iter"] = True
        lines[line_no - 1] = json.dumps(record)
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert run("simulate", "--policy", "permissive", "--trace", trace, "--out", out) == 2
        assert f"line {line_no}: field 'crawl_iter' must be an integer" in capsys.readouterr().err
        assert not (out / "flows.csv").exists()

    def test_custom_psl_and_filters(self, tmp_path):
        psl = tmp_path / "psl.dat"
        psl.write_text("// rules\ntest\ncom\n")
        filters = tmp_path / "ads.txt"
        filters.write_text("||tracker0.test^\n")
        trace_dir = tmp_path / "t"
        assert run("gen-trace", "--sites", 2, "--seed", 1, "--out", trace_dir) == 0
        sim_dir = tmp_path / "s"
        assert run("simulate", "--policy", "permissive",
                   "--trace", trace_dir / "trace.jsonl", "--psl", psl,
                   "--filters", filters, "--out", sim_dir) == 0
        frames = [json.loads(line) for line in
                  (sim_dir / "frames.jsonl").read_text().splitlines()]
        assert any(f["is_ad"] for f in frames)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    dirs = {}
    for policy in ("permissive", "blocking", "site-keyed", "page-length"):
        dirs[policy] = gen_and_simulate(base, policy)[1]
    return base, dirs


class TestMetricsCommands:
    def test_picf(self, pipeline):
        base, dirs = pipeline
        out = base / "picf"
        assert run("metrics", "picf", "--flows", dirs["permissive"] / "flows.csv",
                   "--out", out) == 0
        rows = list(csv.DictReader((out / "picfs.csv").open()))
        assert rows and all(len(r["cookie_value"]) >= 8 for r in rows)

    def test_cross_site_curves(self, pipeline):
        base, dirs = pipeline
        for policy, expected_total in [("permissive", 3), ("blocking", 0),
                                       ("site-keyed", 0), ("page-length", 0)]:
            out = base / f"xs-{policy}"
            assert run("metrics", "cross-site", "--flows", dirs[policy] / "flows.csv",
                       "--out", out) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["total"] == expected_total

    def test_cross_time_curves(self, pipeline):
        base, dirs = pipeline
        for policy, expected_total in [("permissive", 3), ("site-keyed", 3),
                                       ("blocking", 0), ("page-length", 0)]:
            out = base / f"xt-{policy}"
            assert run("metrics", "cross-time", "--flows", dirs[policy] / "flows.csv",
                       "--out", out) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["total"] == expected_total

    def test_similarity_with_optimal_preset(self, pipeline):
        base, dirs = pipeline
        out = base / "similarity-blocking"
        assert run("metrics", "similarity", "--permissive", dirs["permissive"],
                   "--compared", dirs["blocking"], "--node-filter", "optimal",
                   "--out", out) == 0
        report = json.loads((out / "similarity_report.json").read_text())
        assert report["node_filter"] == sorted([
            "cookie_jar", "dom_root", "frame_owner", "http_resource",
            "js_builtin", "local_storage", "script", "session_storage"])
        assert report["mean_defined_float"] < 1.0
        curve = (out / "similarity_curve.csv").read_text().splitlines()
        assert curve[0] == "rank,cumulative,cumulative_exact"

    def test_similarity_of_baseline_pair_is_one(self, pipeline):
        base, dirs = pipeline
        out = base / "similarity-baseline"
        assert run("metrics", "similarity", "--permissive", dirs["permissive"],
                   "--compared", dirs["permissive"], "--compared-profile", "prof1",
                   "--out", out) == 0
        report = json.loads((out / "similarity_report.json").read_text())
        assert report["mean_defined_float"] == 1.0
        assert report["final_point"] == 1.0

    def test_similarity_mismatched_traces_rejected(self, pipeline, tmp_path):
        base, dirs = pipeline
        other_sim = gen_and_simulate(tmp_path, "permissive", sites=4, seed=8)[1]
        assert run("metrics", "similarity", "--permissive", dirs["permissive"],
                   "--compared", other_sim, "--out", tmp_path / "out") == 2

    def test_bad_node_filter_rejected(self, pipeline, tmp_path):
        base, dirs = pipeline
        assert run("metrics", "similarity", "--permissive", dirs["permissive"],
                   "--compared", dirs["blocking"], "--node-filter", "martian",
                   "--out", tmp_path / "o") == 2

    def test_optimize(self, pipeline):
        base, dirs = pipeline
        out = base / "optimize"
        assert run("metrics", "optimize", "--permissive", dirs["permissive"],
                   "--contrast", dirs["blocking"], "--out", out) == 0
        report = json.loads((out / "optimize_report.json").read_text())
        assert report["subsets_evaluated"] == 2047
        assert set(report["best_subset"]) & {"cookie_jar", "local_storage", "session_storage"}
        assert report["separation_float"] > 0

    def test_candidates(self, pipeline):
        base, dirs = pipeline
        out = base / "candidates"
        assert run("metrics", "candidates", "--sim", dirs["permissive"],
                   "--top", 10, "--out", out) == 0
        rows = list(csv.DictReader((out / "candidates.csv").open()))
        assert len(rows) == 1  # one tracker site in this pipeline
        assert rows[0]["frame_url"] == "https://tracker0.test/widget.html"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["short"] is True

    @pytest.mark.parametrize("top", [0, -3])
    def test_candidates_top_below_one_is_input_error(self, pipeline, tmp_path, capsys, top):
        base, dirs = pipeline
        out = tmp_path / "o"
        assert run("metrics", "candidates", "--sim", dirs["permissive"],
                   "--top", top, "--out", out) == 2
        assert "at least 1" in capsys.readouterr().err
        assert not (out / "candidates.csv").exists()

    def test_frames_line_missing_field_is_input_error_naming_file_and_line(
            self, pipeline, tmp_path, capsys):
        base, dirs = pipeline
        sim = tmp_path / "sim"
        shutil.copytree(dirs["permissive"], sim)
        lines = (sim / "frames.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        del record["frame_url"]
        lines[2] = json.dumps(record)
        (sim / "frames.jsonl").write_text("\n".join(lines) + "\n")
        assert run("metrics", "candidates", "--sim", sim, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{sim / 'frames.jsonl'}: line 3: missing field 'frame_url'" in err

    @pytest.mark.parametrize("command", ["candidates", "similarity", "optimize"])
    @pytest.mark.parametrize("content,message", [
        ("[]", "record must be a JSON object"),
        ('"simulate"', "record must be a JSON object"),
        ('{"command": "simulate"', "invalid JSON"),
    ])
    def test_bad_manifest_is_input_error_naming_the_file(
            self, pipeline, tmp_path, capsys, command, content, message):
        base, dirs = pipeline
        sim = tmp_path / "sim"
        shutil.copytree(dirs["permissive"], sim)
        (sim / "manifest.json").write_text(content)
        flags = {"candidates": ["--sim", sim],
                 "similarity": ["--permissive", sim, "--compared", dirs["blocking"]],
                 "optimize": ["--permissive", sim, "--contrast", dirs["blocking"]]}[command]
        assert run("metrics", command, *flags, "--out", tmp_path / "o") == 2
        assert f"{sim / 'manifest.json'}: {message}" in capsys.readouterr().err

    def test_short_flow_row_is_input_error_naming_file_and_line(
            self, pipeline, tmp_path, capsys):
        base, dirs = pipeline
        header = (dirs["permissive"] / "flows.csv").read_text().splitlines()[0]
        flows = tmp_path / "flows.csv"
        flows.write_text(header + "\nprof0,1\n")
        assert run("metrics", "cross-site", "--flows", flows, "--out", tmp_path / "o") == 2
        assert f"{flows}: line 2: missing field 'visit_seq'" in capsys.readouterr().err

    def test_long_flow_row_is_input_error_naming_file_and_line(
            self, pipeline, tmp_path, capsys):
        base, dirs = pipeline
        header, row = (dirs["permissive"] / "flows.csv").read_text().splitlines()[:2]
        flows = tmp_path / "flows.csv"
        flows.write_text(f"{header}\n{row},EXTRA\n")
        assert run("metrics", "picf", "--flows", flows, "--out", tmp_path / "o") == 2
        assert f"{flows}: line 2: 8 cells, header has 7" in capsys.readouterr().err

    def test_kappa(self, pipeline, tmp_path):
        grades = tmp_path / "grades.csv"
        with grades.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["url", "profile", "grader_a", "grader_b"])
            cells = [(1, 1)] * 7 + [(2, 2), (3, 3), (1, 2)]
            for i, (a, b) in enumerate(cells):
                writer.writerow([f"https://u{i}.com/", "page-length", a, b])
        out = tmp_path / "kappa"
        assert run("metrics", "kappa", "--grades", grades, "--out", out) == 0
        report = json.loads((out / "grading_report.json").read_text())
        assert report["kappa_exact"] == "31/41"
        assert abs(report["cohens_kappa"] - 31 / 41) < 1e-12
        assert report["agreement_pct"] == 90.0

    def test_kappa_bad_grades_rejected(self, tmp_path):
        grades = tmp_path / "grades.csv"
        grades.write_text("url,profile,grader_a,grader_b\nu,p,5,1\n")
        assert run("metrics", "kappa", "--grades", grades, "--out", tmp_path / "o") == 2

    def test_kappa_short_row_is_input_error_naming_file_and_line(self, tmp_path, capsys):
        grades = tmp_path / "grades.csv"
        grades.write_text("url,profile,grader_a,grader_b\nu0,p,1,1\nu,p\n")
        assert run("metrics", "kappa", "--grades", grades, "--out", tmp_path / "o") == 2
        assert f"{grades}: line 3: missing field 'grader_a'" in capsys.readouterr().err

    def test_kappa_long_row_is_input_error_naming_file_and_line(self, tmp_path, capsys):
        grades = tmp_path / "grades.csv"
        grades.write_text("url,profile,grader_a,grader_b\nu0,p,1,1\nu,p,1,1,3\n")
        assert run("metrics", "kappa", "--grades", grades, "--out", tmp_path / "o") == 2
        assert f"{grades}: line 3: 5 cells, header has 4" in capsys.readouterr().err

    def test_malformed_edge_is_input_error_naming_the_edge(self, pipeline, tmp_path, capsys):
        base, dirs = pipeline
        sim = tmp_path / "sim"
        shutil.copytree(dirs["permissive"], sim)
        lines = (sim / "frames.jsonl").read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record["party"] == "third" and record["profile"] == "prof0" and record["edges"]:
                record["edges"][0] = "nope"
                lines[i] = json.dumps(record)
                break
        (sim / "frames.jsonl").write_text("\n".join(lines) + "\n")
        assert run("metrics", "similarity", "--permissive", sim, "--compared", dirs["blocking"],
                   "--out", tmp_path / "o") == 2
        assert "not a canonical edge: 'nope'" in capsys.readouterr().err


def _put_bad_byte(path: Path) -> Path:
    """Insert a byte that is not UTF-8 at the start of the file's line 2."""
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    path.write_bytes(b"\n".join(lines))
    return path


class TestNonUtf8Input:
    """Each reader names the file and line of a byte that is not UTF-8 (exit 2)."""

    @pytest.mark.parametrize("reader", ["trace", "psl", "filters", "flows", "frames", "grades"])
    def test_input_error_names_file_and_line(self, pipeline, tmp_path, capsys, reader):
        base, dirs = pipeline
        sim = tmp_path / "sim"
        shutil.copytree(dirs["permissive"], sim)
        trace = tmp_path / "trace.jsonl"
        shutil.copy(base / "trace-permissive" / "trace.jsonl", trace)
        (tmp_path / "psl.dat").write_text("com\ntest\nco.uk\n")
        (tmp_path / "ads.txt").write_text("||tracker0.test^\n/ads/\n")
        (tmp_path / "grades.csv").write_text("url,profile,grader_a,grader_b\nu,p,1,1\n")
        simulate = ["simulate", "--policy", "permissive", "--trace", trace]
        path, argv = {
            "trace": (trace, simulate),
            "psl": (tmp_path / "psl.dat", [*simulate, "--psl", tmp_path / "psl.dat"]),
            "filters": (tmp_path / "ads.txt", [*simulate, "--filters", tmp_path / "ads.txt"]),
            "flows": (sim / "flows.csv", ["metrics", "picf", "--flows", sim / "flows.csv"]),
            "frames": (sim / "frames.jsonl", ["metrics", "candidates", "--sim", sim]),
            "grades": (tmp_path / "grades.csv",
                       ["metrics", "kappa", "--grades", tmp_path / "grades.csv"]),
        }[reader]
        _put_bad_byte(path)
        assert run(*argv, "--out", tmp_path / "o") == 2
        assert (f"{path}: line 2: not UTF-8 (invalid start byte at column 1)"
                in capsys.readouterr().err)


def subparser_dests(command: str) -> set[str]:
    """The option dests of the (nested) subparser named by ``command``."""
    parser = build_parser()
    for name in command.split():
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        parser = subparsers.choices[name]
    return {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}


def write_inputs(base: Path, tmp_path: Path) -> dict[str, Path]:
    (tmp_path / "ads.txt").write_text("||tracker0.test^\n")
    (tmp_path / "grades.csv").write_text(
        "url,profile,grader_a,grader_b\nu0,page-length,1,1\nu1,page-length,2,1\n")
    return {"trace": base / "trace-permissive" / "trace.jsonl",
            "ads": tmp_path / "ads.txt", "grades": tmp_path / "grades.csv"}


# Each subcommand with non-default flags, and config values the manifest must echo.
MANIFEST_CASES = {
    "gen-trace": (lambda d, f: ["--sites", 2, "--trackers", 2, "--tracker-prob", 0.5,
                                "--seed", 3, "--policy", "site-keyed"],
                  {"tracker_prob": 0.5, "policy": "site-keyed", "pages": 1}),
    "simulate": (lambda d, f: ["--policy", "page-length", "--trace", f["trace"],
                               "--filters", f["ads"], "--origin-keyed"],
                 {"origin_keyed": True, "psl": None}),
    "metrics picf": (lambda d, f: ["--flows", d["permissive"] / "flows.csv",
                                   d["site-keyed"] / "flows.csv", "--threshold", 4],
                     {"threshold": 4}),
    "metrics cross-site": (lambda d, f: ["--flows", d["permissive"] / "flows.csv"],
                           {"threshold": 8}),
    "metrics cross-time": (lambda d, f: ["--flows", d["site-keyed"] / "flows.csv",
                                         "--across-iterations-only"],
                           {"across_iterations_only": True}),
    "metrics similarity": (lambda d, f: ["--permissive", d["permissive"],
                                         "--compared", d["blocking"],
                                         "--node-filter", "cookie_jar,script"],
                           {"node_filter": "cookie_jar,script"}),
    "metrics optimize": (lambda d, f: ["--permissive", d["permissive"],
                                       "--contrast", d["blocking"], "--sample-size", 0],
                         {"sample_size": 0, "seed": 0}),
    "metrics candidates": (lambda d, f: ["--sim", d["permissive"], "--top", 1],
                           {"top": 1}),
    "metrics kappa": (lambda d, f: ["--grades", f["grades"]], {}),
}


@pytest.mark.parametrize("command", list(MANIFEST_CASES))
def test_manifest_echoes_command_options_and_outputs(pipeline, tmp_path, command):
    base, dirs = pipeline
    files = write_inputs(base, tmp_path)
    flags, echoed = MANIFEST_CASES[command]
    out = tmp_path / "out"
    assert run(*command.split(), *flags(dirs, files), "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert set(manifest["config"]) == subparser_dests(command)
    assert manifest["config"]["out"] == str(out)
    assert echoed.items() <= manifest["config"].items()
    assert sorted(manifest["outputs"]) == sorted(
        p.name for p in out.iterdir() if p.name != "manifest.json")


def run_pipeline(base: Path) -> dict[str, bytes]:
    """One full pipeline into ``base``; returns a byte snapshot of outputs."""
    dirs = {}
    for policy in ("permissive", "blocking", "site-keyed", "page-length"):
        dirs[policy] = gen_and_simulate(base, policy)[1]
    for policy in dirs:
        assert run("metrics", "cross-site", "--flows", dirs[policy] / "flows.csv",
                   "--out", base / f"cross-site-{policy}") == 0
        assert run("metrics", "cross-time", "--flows", dirs[policy] / "flows.csv",
                   "--out", base / f"cross-time-{policy}") == 0
    assert run("metrics", "similarity", "--permissive", dirs["permissive"],
               "--compared", dirs["blocking"], "--node-filter", "optimal",
               "--out", base / "similarity") == 0
    assert run("metrics", "optimize", "--permissive", dirs["permissive"],
               "--contrast", dirs["blocking"], "--out", base / "optimize") == 0
    assert run("metrics", "picf", "--flows", dirs["permissive"] / "flows.csv",
               "--out", base / "picfs") == 0
    assert run("metrics", "candidates", "--sim", dirs["permissive"],
               "--out", base / "candidates") == 0
    return snapshot(base)


def test_pipeline_rerun_is_byte_identical(tmp_path):
    first = run_pipeline(tmp_path)
    second = run_pipeline(tmp_path)
    assert first == second
    assert any(name.endswith("flows.csv") for name in first)
