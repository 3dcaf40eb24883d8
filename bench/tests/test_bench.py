"""Smoke tests of the benchmark itself: ``python3 -m pytest bench/tests``.

Each workload runs at a tiny scale, untraced and traced; the tests check
the reported metric names and units, that no check failed, that tracing
does not change a byte of output, and that the span recorder leaves no
wrapper behind.
"""

from __future__ import annotations

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import crawlgen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric_and_tracing_keeps_bytes(name):
    plain = run.run_benchmark(name, 3, 1, 0, scale="smoke")
    assert plain.failures == [] and plain.failed == 0 and plain.attempted > 0
    assert {k: u for k, (_, u) in plain.metrics.items()} == run.E2E_UNITS
    assert all(v > 0 for v, _ in plain.metrics.values())

    traced = run.run_benchmark(name, 3, 1, 1, scale="smoke")
    assert traced.failures == [] and traced.failed == 0
    assert {k: u for k, (_, u) in traced.metrics.items()} == layers.UNITS
    assert traced.metrics["tracing.spans"][0] > 0
    assert traced.digests == plain.digests
    assert traced.inputs == plain.inputs


def test_span_recorder_wraps_every_binding_and_unwraps():
    modules = [importlib.import_module(f"storagelab.{m}") for m in spans.MODULES]

    def bindings():
        out = {}
        for module in modules:
            for attr, obj in vars(module).items():
                out[(module.__name__, attr)] = obj
                if inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        out[(module.__name__, attr, meth)] = fn
        return out

    before = bindings()
    recorder = spans.Recorder()
    undo = spans.install(recorder)
    try:
        cli = sys.modules["storagelab.cli"]
        simulator = sys.modules["storagelab.simulator"]
        psl = sys.modules["storagelab.psl"]
        # Names imported with ``from ... import`` are wrapped where they are used.
        assert cli.etld_plus_one is psl.etld_plus_one
        assert cli.etld_plus_one.__wrapped__ is before[("storagelab.psl", "etld_plus_one")]
        assert simulator.site_of.__wrapped__ is before[("storagelab.policy", "site_of")]
        assert cli.etld_plus_one("a.b.co.uk", psl.builtin_rules()) == "b.co.uk"
    finally:
        spans.uninstall(undo)
    names = [recorder.names[i] for i in recorder.name_of]
    assert recorder.parent[names.index("psl.public_suffix")] == names.index("psl.etld_plus_one")
    after = bindings()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_crawl_inputs_are_seeded_and_exercise_every_feature():
    a = crawlgen.make_crawl_inputs(7, 1500, 300)
    b = crawlgen.make_crawl_inputs(7, 1500, 300)
    c = crawlgen.make_crawl_inputs(8, 1500, 300)
    assert (a.psl, a.filters, a.trace) == (b.psl, b.filters, b.trace)
    assert a.trace != c.trace
    assert a.n_psl_rules == 1500 and a.n_anchors == 300
    assert all(count > 0 for count in a.features.as_dict().values())


def test_expired_before_reuse_counts_only_cookies_a_later_request_sees_expired():
    def request(host, *headers):
        return {"type": "http_request", "dest_url": f"https://{host}/",
                "response_set_cookies": list(headers)}

    records = [
        request("w.t.com", "a=1; Domain=t.com; Max-Age=2"),   # expired by event 3
        request("x.com", "b=1; Max-Age=1"),                     # never requested again
        request("a.co.uk", "c=1; Domain=co.uk; Max-Age=1"),     # public-suffix Domain: rejected
        request("cdn.t.com"),
        request("a.co.uk"),
    ]
    assert crawlgen._expired_before_reuse(records, {"co.uk"}) == 1


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def test_exits_nonzero_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synthetic-experiment", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no storagelab source" in proc.stderr
