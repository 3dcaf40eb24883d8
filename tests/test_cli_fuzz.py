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
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from storagelab import simulator
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


MUTATIONS = ["delete_field", "change_type", "other_json_type", "nested", "truncate",
             "non_object", "bad_header", "extra_cells", "non_utf8", "empty", "long_number",
             "deep_nesting", "lone_surrogate", "unicode_space"]
# Characters str.strip() takes for whitespace but JSON does not.
UNICODE_SPACES = ["\u00a0", "\u0085", "\u001c", "\u000b", "\u2028", "\u3000"]
OTHER_VALUES = [1, -1, 1.5, True, None, "s", "", [], ["x"], {}, {"a": 1}]
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
                | st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
# A list or object holding at least one value, put where a string is expected.
NESTED = st.lists(JSON_VALUES, min_size=1, max_size=3) | st.dictionaries(
    st.text(max_size=3), JSON_VALUES, min_size=1, max_size=3)


def _slots(value, wanted=object) -> list[tuple]:
    """(container, key) of every value nested in ``value`` that is a ``wanted``."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    slots = []
    for key, inner in items:
        if isinstance(inner, wanted):
            slots.append((value, key))
        slots += _slots(inner, wanted)
    return slots


def _other_type(old, draw):
    """A drawn JSON value whose type differs from ``old``'s (a JSON boolean
    is no number, an integer no float)."""
    return draw(JSON_VALUES.filter(lambda value: type(value) is not type(old)))


def _json_or_none(line: bytes):
    try:
        return json.loads(line)
    except ValueError:
        return None


def _long_attribute(draw) -> str:
    """A Max-Age or Expires attribute whose digit run is too long for a float
    (310) or for int() (4,301)."""
    return (draw(st.sampled_from(["; Max-Age=", "; Expires="]))
            + "9" * draw(st.sampled_from([310, 4301])))


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
    elif kind == "unicode_space":
        space = draw(st.sampled_from(UNICODE_SPACES)).encode()
        lines[i] = draw(st.sampled_from([space + line, line + space]))
    elif kind == "bad_header":
        lines[0] = draw(st.sampled_from([b"nope", b"a,b", b"url,profile", b"{}", b"\t"]))
    elif kind == "extra_cells":
        lines[i] = line + draw(st.sampled_from([b",x", b",", b',"a,b"']))
    elif kind == "long_number":
        # A Max-Age or Expires attribute whose digit run is too long for a
        # float (310) or for int() (4,301), appended to a drawn string that
        # holds "=", as a Set-Cookie string or a query does, of a JSON line.
        # A file with none gets it at the end of a line.
        attribute = _long_attribute(draw)
        records = [_json_or_none(line) for line in lines]
        slots = [(j, container, key) for j, record in enumerate(records)
                 for container, key in _slots(record, str) if "=" in container[key]]
        if slots:
            j, container, key = draw(st.sampled_from(slots))
            container[key] += attribute
            lines[j] = json.dumps(records[j]).encode()
        else:
            lines[i] = line + attribute.encode()
    elif kind in ("deep_nesting", "lone_surrogate"):
        # A value of a JSON line becomes arrays nested deeper than json's
        # scanner recurses, or a string of it gets a lone surrogate (written
        # as its \\u escape). A line with no such value is replaced by the
        # arrays, or gets the escape at its end.
        depth = draw(st.sampled_from([2_000, 100_000]))
        deep = b"[" * depth + b"]" * depth
        record = _json_or_none(line)
        slots = _slots(record, object if kind == "deep_nesting" else str)
        if slots:
            container, key = draw(st.sampled_from(slots))
            if kind == "deep_nesting":
                container[key] = "\0"  # a placeholder for the arrays
                lines[i] = json.dumps(record).encode().replace(b'"\\u0000"', deep)
            else:
                container[key] += draw(st.sampled_from(["\udc80", "\ud800", "\udfff"]))
                lines[i] = json.dumps(record).encode()
        else:
            lines[i] = deep if kind == "deep_nesting" else line + b"\\ud800"
    elif kind in ("other_json_type", "nested"):
        # A value anywhere in a JSON line (nested ones too) becomes a drawn
        # JSON value of another type, or a string becomes a list or object.
        # A CSV or rule line gets the drawn value's JSON text in a cell.
        record = _json_or_none(line)
        slots = _slots(record, str if kind == "nested" else object)
        if slots:
            container, key = draw(st.sampled_from(slots))
            container[key] = (draw(NESTED) if kind == "nested"
                              else _other_type(container[key], draw))
            lines[i] = json.dumps(record).encode()
        else:
            cells = line.split(b",")
            value = draw(NESTED if kind == "nested" else JSON_VALUES)
            cells[draw(st.integers(0, len(cells) - 1))] = json.dumps(value).encode()
            lines[i] = b",".join(cells)
    else:  # delete_field / change_type: a JSON key, else a CSV cell
        record = _json_or_none(line)
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


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target_kind=st.sampled_from([("trace", "deep_nesting"), ("frames", "deep_nesting"),
                                    ("manifest", "deep_nesting"), ("trace", "lone_surrogate"),
                                    ("frames", "lone_surrogate")]), data=st.data())
def test_deep_nesting_or_a_lone_surrogate_is_an_input_error(inputs, target_kind, data):
    """The JSON inputs alone, with a value nested too deeply for json's
    scanner, or a string no UTF-8 output can hold where one would reach an
    output: every command that reads the file exits 2, naming it, and writes
    nothing."""
    target, kind = target_kind
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "in"
        shutil.copytree(inputs, d)
        path, commands = _commands(d)[target]
        path.write_bytes(_mutate(path.read_bytes(), kind, data.draw))
        for argv in commands:
            code, err = _run(*argv)
            assert code == 2 and err.startswith(f"storagelab: {path}: "), \
                f"{target}/{kind}: {argv[:2]} exit {code}\n{err}"
            assert not (d / "out").exists()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(["trace", "frames"]), data=st.data())
def test_a_line_padded_with_non_json_whitespace_is_an_input_error(inputs, target, data):
    """A trace or frames.jsonl line with a no-break space, a NEL or another
    character that str.strip() would take, but JSON does not, before or after
    it (or alone, on the file's last, empty line): every command that reads
    the file exits 2, naming the file and that line."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "in"
        shutil.copytree(inputs, d)
        path, commands = _commands(d)[target]
        before = path.read_bytes().split(b"\n")
        after = _mutate(b"\n".join(before), "unicode_space", data.draw).split(b"\n")
        path.write_bytes(b"\n".join(after))
        (line_no,) = [n for n, (a, b) in enumerate(zip(before, after), start=1) if a != b]
        for argv in commands:
            code, err = _run(*argv)
            assert code == 2 and err.startswith(f"storagelab: {path}: line {line_no}: "), \
                f"{target}: {argv[:2]} exit {code}\n{err}"


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(policy=st.sampled_from(["permissive", "site-keyed", "page-length"]), data=st.data())
def test_a_long_max_age_or_expires_from_a_trace_set_cookie_is_parsed(inputs, policy, data):
    """The trace/``long_number`` pair alone, made to reach the parser: a
    Set-Cookie string of the trace gets a 310- or 4,301-digit Max-Age or
    Expires, and its request loses its ``when``, so that replay applies it
    under a policy that gives every request a jar. ``simulate`` parses that
    header and exits 0."""
    lines = (inputs / "trace.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    slots = [(i, j) for i, record in enumerate(records)
             for j in range(len(record.get("response_set_cookies", ())))]
    i, j = data.draw(st.sampled_from(slots))
    header = records[i]["response_set_cookies"][j] + _long_attribute(data.draw)
    records[i]["response_set_cookies"][j] = header
    records[i].pop("when", None)
    lines[i] = json.dumps(records[i], sort_keys=True, separators=(",", ":"))
    parsed = []
    parse_set_cookie = simulator.parse_set_cookie

    def spy(header, *args):
        parsed.append(header)
        return parse_set_cookie(header, *args)

    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        with mock.patch.object(simulator, "parse_set_cookie", spy):
            code, err = _run("simulate", "--policy", policy, "--trace", trace,
                             "--out", Path(tmp) / "out")
    assert code == 0, err
    assert header in parsed
