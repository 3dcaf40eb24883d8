import csv
import json
import shutil
from pathlib import Path

import pytest

from storagelab.cli import main


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

    def test_short_flow_row_is_input_error_naming_file_and_line(
            self, pipeline, tmp_path, capsys):
        base, dirs = pipeline
        header = (dirs["permissive"] / "flows.csv").read_text().splitlines()[0]
        flows = tmp_path / "flows.csv"
        flows.write_text(header + "\nprof0,1\n")
        assert run("metrics", "cross-site", "--flows", flows, "--out", tmp_path / "o") == 2
        assert f"{flows}: line 2: missing field 'visit_seq'" in capsys.readouterr().err

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
