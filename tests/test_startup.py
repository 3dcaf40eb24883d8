"""Each CLI call imports only the modules its command runs, and exactly the
``storagelab`` modules README's "Start-up" table lists for it.

Every subcommand runs in a fresh interpreter started without ``site`` (whose
``.pth`` hooks may import anything), which then lists the modules it loaded.
"""

import re
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
REPLAY = {"storagelab.simulator", "storagelab.filterlist"}
PARTITIONS = {"storagelab.policy", "storagelab.cookies"}
# Command -> the modules a successful call must not load, besides NEVER.
NOT_LOADED = {
    "gen-trace": {"storagelab.metrics", "storagelab.simulator", "fractions", "random"},
    "simulate": {"storagelab.metrics", "storagelab.synthetic", "fractions", "random"},
    # The privacy metrics read only the flow table.
    **{f"metrics {metric}": {"storagelab.synthetic", "random", "storagelab.metrics",
                             "storagelab.frames", "storagelab.trace", "fractions",
                             *REPLAY, *PARTITIONS}
       for metric in ("picf", "cross-site", "cross-time")},
    # The compatibility metrics read frames.jsonl through storagelab.frames;
    # only candidates maps a frame URL to its site.
    **{f"metrics {metric}": {"storagelab.synthetic", "random", *REPLAY, *PARTITIONS}
       for metric in ("similarity", "kappa")},
    "metrics optimize": {"storagelab.synthetic", *REPLAY, *PARTITIONS},
    "metrics candidates": {"storagelab.synthetic", "random", *REPLAY},
}
# What every call loads: cli imports the PSL parser for its --psl options.
ALWAYS = {"cli", "psl"}
MODULES = {path.stem for path in (SRC / "storagelab").glob("*.py")} - {"__init__"}


def readme_startup_imports() -> dict[str, set[str]]:
    """The ``storagelab`` modules each command's row of README's "Start-up"
    table names, by command."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Start-up\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for commands, imports in re.findall(r"^\| (`[^|]*`) \| (.*) \|$", section, re.MULTILINE):
        modules = set(re.findall(r"`([a-z]+)`", imports)) & MODULES
        listed.update(dict.fromkeys(re.findall(r"`([a-z -]+)`", commands), modules))
    return listed


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("startup")
    (base / "psl.dat").write_text("com\ntest\n")
    for policy in ("permissive", "blocking"):  # with the PSL that candidates is given
        assert main(["gen-trace", "--sites", "3", "--iters", "2", "--profiles", "2",
                     "--policy", policy, "--out", str(base / f"t-{policy}")]) == 0
        assert main(["simulate", "--policy", policy, "--trace",
                     str(base / f"t-{policy}" / "trace.jsonl"), "--psl", str(base / "psl.dat"),
                     "--out", str(base / policy)]) == 0
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
    loaded = {module[len("storagelab."):] for module in modules
              if module.startswith("storagelab.")}
    assert loaded == ALWAYS | readme_startup_imports()[command]


def test_readme_startup_table_has_a_row_per_command():
    assert sorted(readme_startup_imports()) == sorted(NOT_LOADED)


def test_an_internal_error_still_prints_its_traceback(monkeypatch, capsys):
    import storagelab.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_metrics_kappa", broken)
    assert main(["metrics", "kappa", "--grades", "g.csv", "--out", "o"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err
