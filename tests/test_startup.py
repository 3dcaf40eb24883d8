"""Each CLI call imports only the modules its command runs (README "Start-up").

Every subcommand runs in a fresh interpreter started without ``site`` (whose
``.pth`` hooks may import anything), which then lists the modules it loaded.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from storagelab.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD = f"""\
import sys
sys.path.insert(0, {str(SRC)!r})
from storagelab.cli import main
code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""

NEVER = {"dataclasses", "inspect", "traceback"}
# Command -> the modules a successful call must not load, besides NEVER.
NOT_LOADED = {
    "gen-trace": {"storagelab.metrics", "storagelab.simulator", "fractions", "random"},
    "simulate": {"storagelab.metrics", "storagelab.synthetic", "fractions", "random"},
    # The privacy metrics read only the flow table.
    **{f"metrics {metric}": {"storagelab.synthetic", "random", "storagelab.metrics",
                             "storagelab.simulator", "storagelab.trace", "storagelab.policy",
                             "storagelab.cookies", "storagelab.filterlist", "fractions"}
       for metric in ("picf", "cross-site", "cross-time")},
    **{f"metrics {metric}": {"storagelab.synthetic", "random"}
       for metric in ("similarity", "candidates", "kappa")},
    "metrics optimize": {"storagelab.synthetic"},
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("startup")
    for policy in ("permissive", "blocking"):
        assert main(["gen-trace", "--sites", "3", "--iters", "2", "--profiles", "2",
                     "--policy", policy, "--out", str(base / f"t-{policy}")]) == 0
        assert main(["simulate", "--policy", policy, "--trace",
                     str(base / f"t-{policy}" / "trace.jsonl"), "--out", str(base / policy)]) == 0
    (base / "psl.dat").write_text("com\ntest\n")
    (base / "ads.txt").write_text("||tracker0.test^\n/ads/\n")
    (base / "grades.csv").write_text("url,profile,grader_a,grader_b\nu,p,1,1\nv,p,2,1\n")
    return base


def _args(command: str, d: Path) -> list:
    return {
        "gen-trace": ["--sites", 2, "--tracker-prob", 0.5],
        "simulate": ["--policy", "page-length", "--trace", d / "t-permissive" / "trace.jsonl",
                     "--psl", d / "psl.dat", "--filters", d / "ads.txt"],
        "metrics picf": ["--flows", d / "permissive" / "flows.csv"],
        "metrics cross-site": ["--flows", d / "permissive" / "flows.csv"],
        "metrics cross-time": ["--flows", d / "permissive" / "flows.csv"],
        "metrics similarity": ["--permissive", d / "permissive", "--compared", d / "blocking"],
        "metrics optimize": ["--permissive", d / "permissive", "--contrast", d / "blocking",
                             "--sample-size", 2],
        "metrics candidates": ["--sim", d / "permissive", "--psl", d / "psl.dat"],
        "metrics kappa": ["--grades", d / "grades.csv"],
    }[command]


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_a_call_loads_only_what_its_command_runs(inputs, tmp_path, command):
    argv = [*command.split(), *_args(command, inputs), "--out", tmp_path / "out"]
    proc = subprocess.run([sys.executable, "-S", "-c", CHILD, *map(str, argv)],
                          capture_output=True, text=True, timeout=120)
    code, *modules = proc.stdout.split()
    assert code == "0", proc.stderr
    assert "storagelab.cli" in modules
    assert (NEVER | NOT_LOADED[command]).isdisjoint(modules)


def test_an_internal_error_still_prints_its_traceback(monkeypatch, capsys):
    import storagelab.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_metrics_kappa", broken)
    assert main(["metrics", "kappa", "--grades", "g.csv", "--out", "o"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err
