import argparse
import builtins
import csv
import hashlib
import io
import json
import re
import shutil
from collections import Counter
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

    def test_policy_choices_are_the_policy_kinds(self):
        from storagelab.cli import POLICY_NAMES
        from storagelab.policy import PolicyKind
        assert POLICY_NAMES == tuple(p.value for p in PolicyKind)

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

    def test_malformed_trace_line_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type":"visit_start","profile":"p","crawl_iter":1,"tab":"t",'
                       '"page_url":"https://a.com/","visit_seq":1}\n'
                       '{"type":"frame_load","tab":"t","frame_id":"f","frame_url":"https://a.com/"}\n'
                       '{"type":"visit_end"}\n')
        assert run("simulate", "--policy", "permissive", "--trace", bad,
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"storagelab: {bad}: line 3: missing field 'tab'\n"

    def test_non_ascii_digit_in_expires_is_no_date(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"type":"visit_start","profile":"p","crawl_iter":1,"tab":"t",'
            '"page_url":"https://a.com/","visit_seq":1}\n'
            '{"type":"frame_load","tab":"t","frame_id":"f","frame_url":"https://a.com/"}\n'
            '{"type":"http_request","tab":"t","frame_id":"f","dest_url":"https://a.com/",'
            '"response_set_cookies":["id=1; Expires=Wed, \u00b21 Oct 2015 07:28:00 GMT"]}\n'
            '{"type":"visit_end","tab":"t"}\n', encoding="utf-8")
        assert run("simulate", "--policy", "permissive", "--trace", trace,
                   "--out", tmp_path / "o") == 0
        assert capsys.readouterr().err == ""

    def test_malformed_psl_line_names_file_and_line(self, tmp_path, capsys):
        psl = tmp_path / "psl.dat"
        psl.write_text("com\na..b\n")
        trace = tmp_path / "trace.jsonl"
        trace.write_text("")
        assert run("simulate", "--policy", "permissive", "--trace", trace, "--psl", psl,
                   "--out", tmp_path / "o") == 2
        assert (capsys.readouterr().err
                == f"storagelab: {psl}: line 2: empty label in rule 'a..b'\n")

    def test_bad_psl_rule_after_canonical_lines_names_its_line(self, tmp_path, capsys):
        psl = tmp_path / "psl.dat"
        psl.write_text("".join(f"r{i}.com\n" for i in range(4999)) + "a..b\ncom\n")
        trace = tmp_path / "trace.jsonl"
        trace.write_text("")
        assert run("simulate", "--policy", "permissive", "--trace", trace, "--psl", psl,
                   "--out", tmp_path / "o") == 2
        assert (capsys.readouterr().err
                == f"storagelab: {psl}: line 5000: empty label in rule 'a..b'\n")

    def test_set_cookie_with_control_character_sets_nothing(self, tmp_path):
        # RFC 6265bis ignores a set-cookie-string holding a CTL but HTAB, so the
        # later request sends no cookie and the flow table has only its header.
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"type":"visit_start","profile":"p","crawl_iter":1,"tab":"t",'
            '"page_url":"https://a.com/","visit_seq":1}\n'
            '{"type":"frame_load","tab":"t","frame_id":"f","frame_url":"https://t.net/w"}\n'
            '{"type":"http_request","tab":"t","frame_id":"f","dest_url":"https://t.net/",'
            '"response_set_cookies":["uid=a\\rb"]}\n'
            '{"type":"http_request","tab":"t","frame_id":"f","dest_url":"https://t.net/"}\n'
            '{"type":"visit_end","tab":"t"}\n', encoding="utf-8")
        sim = tmp_path / "sim"
        assert run("simulate", "--policy", "permissive", "--trace", trace, "--out", sim) == 0
        assert (sim / "flows.csv").read_text(encoding="utf-8").count("\n") == 1

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_max_age_too_long_for_a_float_keeps_the_cookie(self, tmp_path, capsys, digits):
        # A response's Set-Cookie and a script's cookie set, each with a
        # Max-Age of ``digits`` nines: both cookies never expire, so the
        # later request sends them.
        nines = "9" * digits
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"type":"visit_start","profile":"p","crawl_iter":1,"tab":"t",'
            '"page_url":"https://a.com/","visit_seq":1}\n'
            '{"type":"frame_load","tab":"t","frame_id":"f","frame_url":"https://t.net/w"}\n'
            '{"type":"http_request","tab":"t","frame_id":"f","dest_url":"https://t.net/",'
            f'"response_set_cookies":["uid=1; Max-Age={nines}"]}}\n'
            '{"type":"script_storage","tab":"t","frame_id":"f","api":"cookie","op":"set",'
            f'"key":"sid","value":"2; Max-Age={nines}"}}\n'
            '{"type":"http_request","tab":"t","frame_id":"f","dest_url":"https://t.net/"}\n'
            '{"type":"visit_end","tab":"t"}\n', encoding="utf-8")
        sim = tmp_path / "sim"
        assert run("simulate", "--policy", "permissive", "--trace", trace, "--out", sim) == 0
        assert capsys.readouterr().err == ""
        rows = list(csv.reader(io.StringIO((sim / "flows.csv").read_text(encoding="utf-8"))))
        assert [row[-2:] for row in rows[1:]] == [["uid", "1"], ["sid", "2"]]

    def test_cookie_value_with_carriage_return_reads_back(self, tmp_path, capsys):
        # A flow table from elsewhere may hold a bare "\r" in a cell; the
        # metrics commands read it and write it back quoted.
        from storagelab.flows import CookieFlowRecord
        from storagelab.simulator import write_flows_csv
        flows = tmp_path / "flows.csv"
        write_flows_csv([CookieFlowRecord("p", 1, 1, "a.com", "t.net", "uid", "id\r123456")],
                        flows)
        assert b'"id\r123456"' in flows.read_bytes()
        assert run("metrics", "picf", "--flows", flows, "--out", tmp_path / "m") == 0
        assert capsys.readouterr().err == ""
        assert b',"id\r123456",' in (tmp_path / "m" / "picfs.csv").read_bytes()

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

    def test_policy_does_not_change_the_trace(self, tmp_path):
        """--policy is deprecated and has no effect: a scenario has one trace,
        which every policy replays, and the flag is only echoed."""
        traces = set()
        for policy in ("permissive", "blocking", "site-keyed", "page-length"):
            out = tmp_path / policy
            assert run("gen-trace", "--sites", 3, "--trackers", 2, "--tracker-prob", 0.5,
                       "--iters", 2, "--profiles", 2, "--seed", 4, "--policy", policy,
                       "--out", out) == 0
            traces.add((out / "trace.jsonl").read_bytes())
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["policy"] == policy
            assert "trace_policy" not in manifest
        assert len(traces) == 1

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

    def test_similarity_mismatched_traces_rejected(self, pipeline, tmp_path, capsys):
        base, dirs = pipeline
        other_sim = gen_and_simulate(tmp_path, "permissive", sites=4, seed=8)[1]
        assert run("metrics", "similarity", "--permissive", dirs["permissive"],
                   "--compared", other_sim, "--out", tmp_path / "out") == 2
        assert "similarity: outputs come from different traces" in capsys.readouterr().err

    @pytest.mark.parametrize("command, other_flag", [("similarity", "--compared"),
                                                     ("optimize", "--contrast")])
    def test_manifest_without_trace_sha256_is_input_error_naming_its_directory(
            self, pipeline, tmp_path, capsys, command, other_flag):
        # Two outputs with different frames, whose manifests name no trace:
        # neither can be shown to come from the other's trace.
        base, dirs = pipeline
        sims = []
        for policy in ("permissive", "blocking"):
            sim = tmp_path / policy
            shutil.copytree(dirs[policy], sim)
            (sim / "manifest.json").write_text('{"command": "simulate"}')
            sims.append(sim)
        assert (sims[0] / "frames.jsonl").read_bytes() != (sims[1] / "frames.jsonl").read_bytes()
        assert run("metrics", command, "--permissive", sims[0], other_flag, sims[1],
                   "--out", tmp_path / "o") == 2
        assert f"{sims[0]}: manifest names no trace_sha256" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_outputs_of_traces_generated_for_two_policies_compare(self, pipeline, tmp_path):
        # Each pipeline policy has its own gen-trace call, differing only in --policy.
        base, dirs = pipeline
        manifests = [json.loads((dirs[p] / "manifest.json").read_text())
                     for p in ("permissive", "site-keyed")]
        assert manifests[0]["inputs"]["trace"]["path"] != manifests[1]["inputs"]["trace"]["path"]
        assert run("metrics", "similarity", "--permissive", dirs["permissive"],
                   "--compared", dirs["site-keyed"], "--out", tmp_path / "out") == 0

    def test_bad_node_filter_rejected(self, pipeline, tmp_path):
        base, dirs = pipeline
        assert run("metrics", "similarity", "--permissive", dirs["permissive"],
                   "--compared", dirs["blocking"], "--node-filter", "martian",
                   "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("value", ["", ",", " , "])
    def test_node_filter_naming_no_type_rejected(self, pipeline, tmp_path, capsys, value):
        base, dirs = pipeline
        assert run("metrics", "similarity", "--permissive", dirs["permissive"],
                   "--compared", dirs["blocking"], "--node-filter", value,
                   "--out", tmp_path / "o") == 2
        assert f"--node-filter names no node type: {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_optimize(self, pipeline):
        base, dirs = pipeline
        out = base / "optimize"
        assert run("metrics", "optimize", "--permissive", dirs["permissive"],
                   "--contrast", dirs["blocking"], "--out", out) == 0
        report = json.loads((out / "optimize_report.json").read_text())
        assert report["subsets_evaluated"] == 2047
        assert set(report["best_subset"]) & {"cookie_jar", "local_storage", "session_storage"}
        assert report["separation_float"] > 0

    def test_negative_sample_size_is_input_error_naming_it(self, pipeline, tmp_path, capsys):
        base, dirs = pipeline
        out = tmp_path / "o"
        assert run("metrics", "optimize", "--permissive", dirs["permissive"],
                   "--contrast", dirs["blocking"], "--sample-size", -1, "--out", out) == 2
        assert "--sample-size must be >= 0" in capsys.readouterr().err
        assert not out.exists()

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
        assert "--top must be >= 1" in capsys.readouterr().err
        assert not (out / "candidates.csv").exists()

    def test_candidates_psl_must_be_the_simulate_runs(self, pipeline, tmp_path, capsys):
        # A frame's site and the flows' third_party_site come from one PSL:
        # both built in, or two files with one sha256.
        base, dirs = pipeline
        psl = tmp_path / "psl.dat"
        psl.write_text("com\ntest\nco.uk\n")
        copy = tmp_path / "copy.dat"
        shutil.copy(psl, copy)
        sim = tmp_path / "sim"
        assert run("simulate", "--policy", "permissive", "--trace",
                   base / "trace-permissive" / "trace.jsonl", "--psl", psl, "--out", sim) == 0
        no_psl = tmp_path / "no-psl"
        shutil.copytree(dirs["permissive"], no_psl)
        manifest = json.loads((no_psl / "manifest.json").read_text())
        del manifest["inputs"]["psl"]
        (no_psl / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "o"
        other = "its simulate run used another PSL than --psl (built in when omitted)"
        for sim_dir, flags, message in [(sim, [], other),
                                         (dirs["permissive"], ["--psl", psl], other),
                                         (no_psl, [], "manifest names no PSL")]:
            assert run("metrics", "candidates", "--sim", sim_dir, *flags, "--out", out) == 2
            assert capsys.readouterr().err == f"storagelab: {sim_dir}: {message}\n"
            assert not out.exists()
        assert run("metrics", "candidates", "--sim", sim, "--psl", copy, "--out", out) == 0

    # Each out-of-range count is named before any input is read: every input
    # here is missing, and the error names the flag, not the file.
    @pytest.mark.parametrize("argv,message", [
        (["candidates", "--sim", "missing", "--top", 0], "--top must be >= 1"),
        (["picf", "--flows", "missing.csv", "--threshold", 0], "--threshold must be >= 1"),
        (["cross-site", "--flows", "missing.csv", "--threshold", -2],
         "--threshold must be >= 1"),
        (["cross-time", "--flows", "missing.csv", "--threshold", 0],
         "--threshold must be >= 1"),
        (["optimize", "--permissive", "missing", "--contrast", "missing",
          "--sample-size", -1], "--sample-size must be >= 0"),
    ])
    def test_out_of_range_count_is_named_before_inputs_are_read(
            self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run("metrics", *argv, "--out", "o") == 2
        assert capsys.readouterr().err == f"storagelab: {message}\n"
        assert not (tmp_path / "o").exists()

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
        sim, line_no = _break_first_edge(dirs["permissive"], tmp_path / "sim")
        assert run("metrics", "similarity", "--permissive", sim, "--compared", dirs["blocking"],
                   "--out", tmp_path / "o") == 2
        assert (f"{sim / 'frames.jsonl'}: line {line_no}: not a canonical edge: 'nope'"
                in capsys.readouterr().err)

    def test_optimize_names_the_file_line_and_edge(self, pipeline, tmp_path, capsys):
        base, dirs = pipeline
        sim, line_no = _break_first_edge(dirs["blocking"], tmp_path / "sim")
        assert run("metrics", "optimize", "--permissive", dirs["permissive"], "--contrast", sim,
                   "--out", tmp_path / "o") == 2
        assert (f"{sim / 'frames.jsonl'}: line {line_no}: not a canonical edge: 'nope'"
                in capsys.readouterr().err)

    def test_spaced_edges_are_input_error_naming_the_edge(self, pipeline, tmp_path, capsys):
        """An edge with a space after each comma is the same JSON array, but
        not its canonical string: an input error, not a score of 0."""
        base, dirs = pipeline
        sim = tmp_path / "sim"
        shutil.copytree(dirs["site-keyed"], sim)
        frames = sim / "frames.jsonl"
        records = [json.loads(line) for line in frames.read_text().splitlines()]
        for record in records:
            record["edges"] = [json.dumps(json.loads(edge)) for edge in record["edges"]]
        frames.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        line_no, edge = next((i, r["edges"][0]) for i, r in enumerate(records, 1) if r["edges"])
        assert ", " in edge
        assert run("metrics", "similarity", "--permissive", dirs["permissive"], "--compared", sim,
                   "--out", tmp_path / "o") == 2
        assert (f"{frames}: line {line_no}: not a canonical edge: {edge!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command,key", [("similarity", "permissive_manifest"),
                                             ("optimize", "permissive_manifest"),
                                             ("candidates", "sim_manifest")])
    def test_manifest_records_the_simulate_files_by_content(self, pipeline, tmp_path, command,
                                                            key):
        """Rerunning into the same --out on a truncated frames.jsonl changes
        the manifest, which names each file read with its sha256."""
        base, dirs = pipeline
        sim = tmp_path / "sim"
        shutil.copytree(dirs["permissive"], sim)
        argv = {"similarity": ["--permissive", sim, "--compared", dirs["site-keyed"]],
                "optimize": ["--permissive", sim, "--contrast", dirs["page-length"]],
                "candidates": ["--sim", sim]}[command]
        out = tmp_path / "out"
        manifests = []
        for _ in range(2):
            assert run("metrics", command, *argv, "--out", out) == 0
            manifests.append((out / "manifest.json").read_bytes())
            frames = (sim / "frames.jsonl").read_bytes()
            entries = json.loads(manifests[-1])["inputs"][key]
            assert sorted(entries) == (["flows.csv", "frames.jsonl", "manifest.json"]
                                       if command == "candidates"
                                       else ["frames.jsonl", "manifest.json"])
            assert entries["frames.jsonl"] == {"path": str(sim / "frames.jsonl"),
                                               "sha256": hashlib.sha256(frames).hexdigest()}
            lines = frames.splitlines(keepends=True)
            (sim / "frames.jsonl").write_bytes(b"".join(lines[:len(lines) // 2]))
        assert manifests[0] != manifests[1]

    @pytest.mark.parametrize("command", ["similarity", "optimize"])
    def test_repeated_frame_record_is_input_error_naming_file_and_line(
            self, pipeline, tmp_path, capsys, command):
        base, dirs = pipeline
        sim = tmp_path / "sim"
        shutil.copytree(dirs["blocking"], sim)
        frames = sim / "frames.jsonl"
        lines = frames.read_text().splitlines()
        frames.write_text("\n".join([*lines, lines[0]]) + "\n")
        assert run("metrics", command, "--permissive", dirs["permissive"],
                   "--compared" if command == "similarity" else "--contrast", sim,
                   "--out", tmp_path / "o") == 2
        assert (f"{frames}: line {len(lines) + 1}: duplicate frame record"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["similarity", "optimize"])
    def test_similarity_and_optimize_read_no_flow_table(self, pipeline, tmp_path, command):
        base, dirs = pipeline
        sims = {}
        for policy in ("permissive", "blocking"):
            sims[policy] = tmp_path / policy
            shutil.copytree(dirs[policy], sims[policy])
            (sims[policy] / "flows.csv").unlink()
        other = "--compared" if command == "similarity" else "--contrast"
        outputs = []
        for d in (dirs, sims):
            out = tmp_path / f"out-{len(outputs)}"
            assert run("metrics", command, "--permissive", d["permissive"], other, d["blocking"],
                       "--out", out) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "manifest.json"})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("cell", [" 1_0", "+1", "\u0661", "1.0"])
    def test_integer_cells_in_the_written_form_only(self, pipeline, tmp_path, capsys, cell):
        base, dirs = pipeline
        header, row = (dirs["permissive"] / "flows.csv").read_text().splitlines()[:2]
        profile, _, rest = row.split(",", 2)
        flows = tmp_path / "flows.csv"
        flows.write_text(f"{header}\n{row}\n{profile},{cell},{rest}\n", encoding="utf-8")
        assert run("metrics", "cross-time", "--flows", flows, "--out", tmp_path / "o") == 2
        assert (f"{flows}: line 3: crawl_iter and visit_seq must be integers"
                in capsys.readouterr().err)
        grades = tmp_path / "grades.csv"
        grades.write_text(f"url,profile,grader_a,grader_b\nu,p,1,{cell}\n", encoding="utf-8")
        assert run("metrics", "kappa", "--grades", grades, "--out", tmp_path / "k") == 2
        assert f"{grades}: line 2: non-integer grade in ('u', 'p')" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["flows", "frames", "grades"])
    def test_integer_past_the_digit_limit_is_input_error_naming_the_line(
            self, pipeline, tmp_path, capsys, reader):
        big = "9" * 5000  # past int()'s default limit of 4,300 digits
        base, dirs = pipeline
        if reader == "flows":
            header, row = (dirs["permissive"] / "flows.csv").read_text().splitlines()[:2]
            profile, _, rest = row.split(",", 2)
            path = tmp_path / "flows.csv"
            path.write_text(f"{header}\n{row}\n{profile},{big},{rest}\n")
            argv = ["cross-site", "--flows", path]
        elif reader == "frames":
            sim = tmp_path / "sim"
            shutil.copytree(dirs["permissive"], sim)
            path = sim / "frames.jsonl"
            lines = path.read_text().splitlines()
            lines[2] = re.sub(r'^\{"crawl_iter":[0-9]+', '{"crawl_iter":' + big, lines[2])
            path.write_text("\n".join(lines) + "\n")
            argv = ["similarity", "--permissive", sim, "--compared", dirs["blocking"]]
        else:
            path = tmp_path / "grades.csv"
            path.write_text(f"url,profile,grader_a,grader_b\nu,p,1,1\nv,p,1,{big}\n")
            argv = ["kappa", "--grades", path]
        assert run("metrics", *argv, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{path}: line 3: " in err and "Exceeds the limit (4300 digits)" in err


def _break_first_edge(sim_dir: Path, copy: Path) -> tuple[Path, int]:
    """A copy of ``sim_dir`` whose first compared frame has ``"nope"`` as its
    first edge, and the number of that frame's line."""
    shutil.copytree(sim_dir, copy)
    lines = (copy / "frames.jsonl").read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["party"] == "third" and record["profile"] == "prof0" and record["edges"]:
            record["edges"][0] = "nope"
            lines[i] = json.dumps(record)
            break
    (copy / "frames.jsonl").write_text("\n".join(lines) + "\n")
    return copy, i + 1


def _put_bad_byte(path: Path) -> Path:
    """Insert a byte that is not UTF-8 at the start of the file's line 2."""
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    path.write_bytes(b"\n".join(lines))
    return path


class TestNonUtf8Input:
    """Each reader names the file and line of a byte that is not UTF-8 (exit 2)."""

    @pytest.mark.parametrize("reader", ["trace", "psl", "filters", "flows", "frames", "manifest",
                                        "grades"])
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
            "manifest": (sim / "manifest.json", ["metrics", "candidates", "--sim", sim]),
            "grades": (tmp_path / "grades.csv",
                       ["metrics", "kappa", "--grades", tmp_path / "grades.csv"]),
        }[reader]
        _put_bad_byte(path)
        assert run(*argv, "--out", tmp_path / "o") == 2
        assert (f"{path}: line 2: not UTF-8 (invalid start byte at column 1)"
                in capsys.readouterr().err)


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def subparser_options(command: str) -> list[argparse.Action]:
    """The options, but help, of the (nested) subparser named by ``command``."""
    parser = build_parser()
    for name in command.split():
        parser = _subparsers(parser)[name]
    return [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def cli_commands(parser=None, prefix: str = "") -> list[str]:
    """Every command the CLI runs, nested ones as ``"metrics picf"``."""
    commands = []
    for name, sub in _subparsers(parser or build_parser()).items():
        commands += cli_commands(sub, f"{prefix}{name} ") if _subparsers(sub) else [prefix + name]
    return commands


def subparser_dests(command: str) -> set[str]:
    """The option dests of the (nested) subparser named by ``command``."""
    return {a.dest for a in subparser_options(command)}


def readme_cli_flags() -> dict[str, set[str]]:
    """The flags each command's row of README's CLI reference table lists."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI reference\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z -]+)` \| [^|]* \| (.*) \|$", section, re.MULTILINE)
    return {command: set(re.findall(r"--[a-z][a-z-]*", flags)) for command, flags in rows}


def test_readme_cli_table_lists_each_commands_options():
    """README's CLI reference has a row per command, listing exactly the
    options the parser defines for it, deprecated ones too."""
    listed = readme_cli_flags()
    assert sorted(listed) == sorted(cli_commands())
    for command, flags in listed.items():
        assert flags == {flag for a in subparser_options(command)
                         for flag in a.option_strings}, command


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


# Each subcommand with every kind of input it takes: (flags, the files it reads).
READ_CASES = {
    "gen-trace": lambda d, f: (["--sites", 2], []),
    "simulate": lambda d, f: (["--policy", "permissive", "--trace", f["trace"],
                               "--psl", f["psl"], "--filters", f["ads"]],
                              [f["trace"], f["psl"], f["ads"]]),
    "metrics picf": lambda d, f: (["--flows", d["permissive"] / "flows.csv",
                                   d["blocking"] / "flows.csv"],
                                  [d["permissive"] / "flows.csv", d["blocking"] / "flows.csv"]),
    "metrics cross-site": lambda d, f: (["--flows", d["permissive"] / "flows.csv"],
                                        [d["permissive"] / "flows.csv"]),
    "metrics cross-time": lambda d, f: (["--flows", d["site-keyed"] / "flows.csv"],
                                        [d["site-keyed"] / "flows.csv"]),
    "metrics similarity": lambda d, f: (
        ["--permissive", d["permissive"], "--compared", d["blocking"]],
        [d[p] / name for p in ("permissive", "blocking")
         for name in ("manifest.json", "frames.jsonl")]),
    "metrics optimize": lambda d, f: (
        ["--permissive", d["permissive"], "--contrast", d["blocking"]],
        [d[p] / name for p in ("permissive", "blocking")
         for name in ("manifest.json", "frames.jsonl")]),
    "metrics candidates": lambda d, f: (
        ["--sim", f["psl-sim"], "--psl", f["psl"]],
        [f["psl"], *(f["psl-sim"] / name
                     for name in ("manifest.json", "flows.csv", "frames.jsonl"))]),
    "metrics kappa": lambda d, f: (["--grades", f["grades"]], [f["grades"]]),
}


@pytest.mark.parametrize("command", list(READ_CASES))
def test_each_input_file_is_opened_once(pipeline, tmp_path, monkeypatch, command):
    base, dirs = pipeline
    files = write_inputs(base, tmp_path)
    files["psl"] = tmp_path / "psl.dat"
    files["psl"].write_text("com\ntest\nco.uk\n")
    if command == "metrics candidates":  # candidates reads the PSL its simulate run used
        files["psl-sim"] = tmp_path / "psl-sim"
        assert run("simulate", "--policy", "permissive", "--trace", files["trace"],
                   "--psl", files["psl"], "--out", files["psl-sim"]) == 0
    flags, inputs = READ_CASES[command](dirs, files)
    opened = Counter()
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode and not isinstance(file, int):
            opened[Path(file).resolve()] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    assert run(*command.split(), *flags, "--out", tmp_path / "out") == 0
    monkeypatch.undo()
    read = Counter({path: n for path, n in opened.items()
                    if path.is_relative_to(base.resolve())
                    or path.is_relative_to(tmp_path.resolve())})
    assert read == Counter(Path(path).resolve() for path in inputs)


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
