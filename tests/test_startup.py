"""Each CLI call imports only the modules its command runs, and exactly the
``storagelab`` modules README's "Start-up and exit" table lists for it.

Every subcommand runs in a fresh interpreter started without ``site`` (whose
``.pth`` hooks may import anything), which then lists the modules it loaded.
``python -m storagelab.cli`` ends through ``cli.run``, which skips interpreter
finalization: its output and exit codes are checked in child processes
whose stdout is block-buffered.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from storagelab.cli import main
from storagelab.flows import FLOW_FIELDS

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
# The partition model, and the PSL that gives it each URL's site.
PARTITIONS = {"storagelab.policy", "storagelab.cookies", "storagelab.psl"}
# The trace event model, whose vocabulary is storagelab.vocab.
TRACE_MODEL = {"storagelab.trace", "storagelab.record"}
# Command -> the modules a successful call must not load, besides NEVER.
NOT_LOADED = {
    "gen-trace": {"storagelab.metrics", "storagelab.simulator", "fractions", "random"},
    "simulate": {"storagelab.metrics", "storagelab.synthetic", "fractions", "random"},
    # The privacy metrics read only the flow table.
    **{f"metrics {metric}": {"storagelab.synthetic", "random", "storagelab.metrics",
                             "storagelab.frames", "storagelab.vocab", "fractions",
                             *TRACE_MODEL, *REPLAY, *PARTITIONS}
       for metric in ("picf", "cross-site", "cross-time")},
    # The compatibility metrics read frames.jsonl through storagelab.frames,
    # and of the trace only its vocabulary; only candidates maps a frame URL
    # to its site, by the PSL.
    **{f"metrics {metric}": {"storagelab.synthetic", "random", *TRACE_MODEL, *REPLAY,
                             *PARTITIONS}
       for metric in ("similarity", "kappa")},
    "metrics optimize": {"storagelab.synthetic", *TRACE_MODEL, *REPLAY, *PARTITIONS},
    "metrics candidates": {"storagelab.synthetic", "random", *TRACE_MODEL, *REPLAY},
}
# What every call loads: the argument table and the file helpers every command uses.
ALWAYS = {"cli", "artifacts"}
MODULES = {path.stem for path in (SRC / "storagelab").glob("*.py")} - {"__init__"}


def readme_startup_imports() -> dict[str, set[str]]:
    """The ``storagelab`` modules each command's row of README's "Start-up
    and exit" table names, by command."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Start-up and exit\n", 1)[1].split("\n## ", 1)[0]
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


# A call run as ``python -m storagelab.cli`` runs, with an audit hook that
# prints the path of each source file compiled. No bytecode cache is read or
# written (an empty PYTHONPYCACHEPREFIX), so every module a call loads is compiled.
COMPILES_CHILD = f"""\
import runpy, sys
def hook(event, args):
    if event == "compile" and str(args[1]).startswith({str(SRC / "storagelab")!r}):
        print("compiled", args[1])
sys.addaudithook(hook)
sys.argv[0] = "storagelab"
runpy.run_module("storagelab.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_a_call_compiles_each_module_once(inputs, tmp_path, command):
    """No module imports ``storagelab.cli``: under ``-m`` that would compile
    and run it a second time, beside ``__main__``."""
    argv = [*command.split(), *_args(command, inputs), "--out", tmp_path / "out"]
    env = dict(_child_env(), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"))
    proc = subprocess.run([sys.executable, "-c", COMPILES_CHILD, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    compiled = Counter(Path(line.split(" ", 1)[1]).stem for line in proc.stdout.splitlines()
                       if line.startswith("compiled "))
    assert ALWAYS <= set(compiled)
    assert max(compiled.values()) == 1, compiled


def test_readme_startup_table_has_a_row_per_command():
    assert sorted(readme_startup_imports()) == sorted(NOT_LOADED)


def test_an_internal_error_still_prints_its_traceback(monkeypatch, capsys):
    import storagelab.metrics as metrics

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(metrics, "cmd_metrics_kappa", broken)
    assert main(["metrics", "kappa", "--grades", "g.csv", "--out", "o"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


# ---------------------------------------------------------------------------
# Exit: ``python -m storagelab.cli`` runs ``cli.run``, which flushes stdio and
# ends the process without finalizing the interpreter.

# An internal error: the lazily imported function a command calls raises, and
# the module then runs as ``python -m`` runs it. The atexit handler shows
# whether the interpreter was finalized.
BROKEN_CHILD = """\
import atexit, runpy, sys
import storagelab.picf
def broken(*args, **kwargs):
    raise RuntimeError("boom")
storagelab.picf.cross_site_scores = broken
atexit.register(print, "interpreter finalized", file=sys.stderr)
sys.argv[0] = "storagelab"
runpy.run_module("storagelab.cli", run_name="__main__", alter_sys=True)
"""


def _child_env() -> dict[str, str]:
    """The environment with ``src`` on the path and stdout block-buffered, as
    it is for any CLI call whose output goes to a pipe or a file."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def _cli(*argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "storagelab.cli", *map(str, argv)],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=_child_env(), timeout=120)


def test_the_console_script_ends_through_run():
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert '\nstoragelab = "storagelab.cli:run"\n' in pyproject.split("[project.scripts]")[1]


def test_help_is_printed_whole_and_exits_0():
    expected = io.StringIO()
    with contextlib.redirect_stdout(expected):
        assert main(["--help"]) == 0
    proc = _cli("--help")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.getvalue(), "")


def test_a_usage_error_exits_1():
    proc = _cli("simulate", "--policy", "permissive")
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: storagelab simulate")
    assert proc.stderr.endswith("error: the following arguments are required: --trace, --out\n")


def test_a_missing_input_exits_2_naming_it(tmp_path):
    missing = tmp_path / "grades.csv"
    proc = _cli("metrics", "kappa", "--grades", missing, "--out", tmp_path / "out")
    assert proc.returncode == 2
    assert proc.stderr == f"storagelab: input file not found: {missing}\n"


def test_an_internal_error_exits_3_with_its_traceback_and_no_finalization(tmp_path):
    flows = tmp_path / "flows.csv"
    flows.write_text(",".join(FLOW_FIELDS) + "\n")
    proc = subprocess.run([sys.executable, "-c", BROKEN_CHILD, "metrics", "cross-site",
                           "--flows", str(flows), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert proc.stderr.endswith("RuntimeError: boom\n")
    assert "interpreter finalized" not in proc.stderr


def test_candidates_prints_its_note(inputs, tmp_path):
    proc = _cli("metrics", "candidates", "--sim", inputs / "permissive",
                "--psl", inputs / "psl.dat", "--top", 1000, "--out", tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"note: only \d+ distinct-site candidates available "
                        r"\(requested 1000\)\n", proc.stderr)
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_help_into_a_closed_pipe_exits_120_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli("--help", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert "BrokenPipeError" in proc.stderr
    assert "Traceback" not in proc.stderr


def _regex_opcodes(pattern: str):
    """The opcode names of ``pattern``'s parse tree, as Python 3.11's ``re``
    parses it."""
    from re import _parser

    stack = [_parser.parse(pattern)]
    while stack:
        item = stack.pop()
        if isinstance(item, _parser.SubPattern):
            stack += item.data
        elif isinstance(item, (list, tuple)):
            if item and type(item[0]).__name__ == "_NamedIntConstant":
                yield str(item[0])
            stack += item


def test_every_module_regex_parses_under_python_3_10():
    """pyproject.toml asks for Python 3.10, whose ``re`` has neither
    possessive quantifiers nor atomic groups (3.11 added both): a pattern
    holding one would not compile there."""
    import importlib
    import pkgutil

    import storagelab

    patterns = {}
    for info in pkgutil.iter_modules(storagelab.__path__):
        module = importlib.import_module(f"storagelab.{info.name}")
        for name, value in vars(module).items():
            compiled = getattr(value, "__self__", value)
            if isinstance(compiled, re.Pattern) and isinstance(compiled.pattern, str):
                patterns[f"{info.name}.{name}"] = compiled.pattern
    assert "frames._WRITER_TAIL" in patterns and "flows._SPACE" in patterns
    from storagelab import flows

    # And the one that is compiled on first use.
    patterns["flows._SURROGATE"] = flows._SURROGATE
    if sys.version_info < (3, 11):
        for pattern in patterns.values():
            re.compile(pattern)  # which 3.10's re refuses for either
        return
    assert {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"} <= set(_regex_opcodes("a*+(?>b)"))
    for name, pattern in patterns.items():
        assert not {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"} & set(_regex_opcodes(pattern)), name
