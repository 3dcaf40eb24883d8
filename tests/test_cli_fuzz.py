"""The CLI turns every malformed input into exit code 2 (or 1 for usage),
never a traceback with exit code 3.

Each example takes one input file of a small valid pipeline, applies one
mutation to one of its lines, and runs every command that reads that file,
in-process.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from storagelab.cli import main

PSL = "// rules\ncom\ntest\n*.wild.test\n!ex.wild.test\n"
FILTERS = "||tracker0.test^\n/ads/\n! comment\n"
GRADES = "url,profile,grader_a,grader_b\nu0,page-length,1,1\nu1,page-length,2,1\n"


def _run(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A valid input of every kind: trace, PSL, filters, grades, and two
    simulate outputs (flows, frames, manifest)."""
    base = tmp_path_factory.mktemp("fuzz")
    (base / "psl.dat").write_text(PSL)
    (base / "ads.txt").write_text(FILTERS)
    (base / "grades.csv").write_text(GRADES)
    for policy in ("permissive", "blocking"):
        assert _run("gen-trace", "--sites", 2, "--trackers", 2, "--iters", 2, "--profiles", 2,
                    "--seed", 3, "--policy", policy, "--out", base / f"t-{policy}")[0] == 0
        assert _run("simulate", "--policy", policy, "--trace", base / f"t-{policy}" / "trace.jsonl",
                    "--out", base / policy)[0] == 0
    for policy in ("permissive", "blocking"):  # one JSON document per line, like the others
        manifest = base / policy / "manifest.json"
        manifest.write_text(json.dumps(json.loads(manifest.read_text())) + "\n")
    shutil.copy(base / "t-permissive" / "trace.jsonl", base / "trace.jsonl")
    return base


# target -> (file under the copied inputs, commands reading it)
def _commands(d: Path) -> dict[str, tuple[Path, list[list]]]:
    sim, other, out = d / "permissive", d / "blocking", d / "out"
    simulate = ["simulate", "--policy", "page-length", "--trace", d / "trace.jsonl", "--out", out]
    metrics_sim = [["metrics", "candidates", "--sim", sim, "--out", out],
                   ["metrics", "similarity", "--permissive", sim, "--compared", other, "--out", out],
                   ["metrics", "optimize", "--permissive", sim, "--contrast", other, "--out", out]]
    return {
        "trace": (d / "trace.jsonl", [simulate]),
        "psl": (d / "psl.dat", [simulate + ["--psl", d / "psl.dat"],
                                ["metrics", "candidates", "--sim", sim, "--psl", d / "psl.dat",
                                 "--out", out]]),
        "filters": (d / "ads.txt", [simulate + ["--filters", d / "ads.txt"]]),
        "grades": (d / "grades.csv", [["metrics", "kappa", "--grades", d / "grades.csv",
                                       "--out", out]]),
        "flows": (sim / "flows.csv", [["metrics", m, "--flows", sim / "flows.csv", "--out", out]
                                      for m in ("picf", "cross-site", "cross-time")]
                  + metrics_sim[:1]),
        "frames": (sim / "frames.jsonl", metrics_sim),
        "manifest": (sim / "manifest.json", metrics_sim),
    }


MUTATIONS = ["delete_field", "change_type", "truncate", "non_object", "bad_header",
             "extra_cells", "non_utf8", "empty"]
OTHER_VALUES = [1, -1, 1.5, True, None, "s", "", [], ["x"], {}, {"a": 1}]


def _mutate(data: bytes, kind: str, draw) -> bytes:
    if kind == "empty":
        return b""
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    if kind == "truncate":
        lines[i] = line[:draw(st.integers(0, max(len(line) - 1, 0)))]
    elif kind == "non_utf8":
        at = draw(st.integers(0, len(line)))
        lines[i] = line[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + line[at:]
    elif kind == "non_object":
        lines[i] = draw(st.sampled_from([b"[]", b"[1,2]", b'"x"', b"3", b"null", b"true"]))
    elif kind == "bad_header":
        lines[0] = draw(st.sampled_from([b"nope", b"a,b", b"url,profile", b"{}", b"\t"]))
    elif kind == "extra_cells":
        lines[i] = line + draw(st.sampled_from([b",x", b",", b',"a,b"']))
    else:  # delete_field / change_type: a JSON key, else a CSV cell
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if isinstance(record, dict) and record:
            key = draw(st.sampled_from(sorted(record)))
            if kind == "delete_field":
                del record[key]
            else:
                record[key] = draw(st.sampled_from(OTHER_VALUES))
            lines[i] = json.dumps(record).encode()
        else:
            cells = line.split(b",")
            j = draw(st.integers(0, len(cells) - 1))
            if kind == "delete_field":
                del cells[j]
            else:
                cells[j] = draw(st.sampled_from([b"True", b"1.5", b"", b"-1", b"x", b'"']))
            lines[i] = b",".join(cells)
    return b"\n".join(lines)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(["trace", "psl", "filters", "grades", "flows", "frames", "manifest"]),
       kind=st.sampled_from(MUTATIONS), data=st.data())
def test_mutated_input_never_exits_3(inputs, target, kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "in"
        shutil.copytree(inputs, d)
        path, commands = _commands(d)[target]
        path.write_bytes(_mutate(path.read_bytes(), kind, data.draw))
        for argv in commands:
            code, err = _run(*argv)
            assert code in (0, 1, 2), f"{target}/{kind}: {argv[:2]} exit {code}\n{err}"
            if kind == "non_utf8":  # an input error that names the file
                assert code == 2 and str(path) in err, f"{target}: {argv[:2]}\n{err}"
