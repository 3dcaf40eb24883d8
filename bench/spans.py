"""Span recorder for the traced benchmark run.

It wraps every public function and public method of the ``storagelab``
modules at every module binding (``simulator``, ``policy``, ``metrics`` and
``cli`` import names with ``from ... import``, so patching the defining
module alone would miss most calls). Each call records a span: the
function's name, start, end and parent span. Spans stay in memory and are
written out once, when the CLI call ends. A few functions also have probes
that read counters from their arguments and results at the boundary, such
as the jar size at ``cookies_for_request``.

Run one CLI call under tracing::

    python3 bench/spans.py --out DIR --call-id ID -- simulate --policy ...

with ``src`` on ``PYTHONPATH``. It writes ``DIR/ID.json`` (names, counters)
and ``DIR/ID.bin`` (the span arrays) and exits with the CLI's exit code.
``read_spans`` adds the two files' per-function calls, total and self times
to a ``SpanTotals``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

MODULES = ("psl", "cookies", "filterlist", "policy", "trace", "synthetic",
           "simulator", "metrics", "cli")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Probes: qualified name -> (before, after). ``before(args, kwargs)`` returns
# a state; ``after(counters, state, args, kwargs, result, seconds)`` adds to
# the call's counters.
def _replay_before(args, kwargs):
    trace = _arg(args, kwargs, 0, "trace")
    events = trace.events if hasattr(trace, "events") else trace
    return len(events), _arg(args, kwargs, 1, "policy").value


def _replay_after(c, state, args, kwargs, result, seconds):
    n, policy = state
    c["replay.events"] += n
    c[f"replay.events.{policy}"] += n
    c[f"replay.seconds.{policy}"] += seconds


def _jar_before(args, kwargs):
    return len(_arg(args, kwargs, 0, "jar"))


def _jar_after(c, scanned, args, kwargs, result, seconds):
    c["cookies.scanned"] += scanned
    c["cookies.attached"] += len(result)


def _ephemeral_before(args, kwargs):
    return len(args[0].ephemeral)


def _ephemeral_after(c, present, args, kwargs, result, seconds):
    c["end_page_load.present"] += present
    c["end_page_load.destroyed"] += present - len(args[0].ephemeral)


def _count_result(key):
    def after(c, state, args, kwargs, result, seconds):
        c[key] += bool(result)
    return after


def _count_len(key, index, name):
    def before(args, kwargs):
        return len(_arg(args, kwargs, index, name))

    def after(c, n, args, kwargs, result, seconds):
        c[key] += n
    return before, after


def _result_events(key):
    def after(c, state, args, kwargs, result, seconds):
        c[key] += len(result.events)
    return after


def _trace_events_before(args, kwargs):
    return len(_arg(args, kwargs, 0, "trace").events)


def _dump_after(c, n, args, kwargs, result, seconds):
    c["dump.events"] += n


def _sample_before(args, kwargs):
    return len(_arg(args, kwargs, 0, "sample"))


def _optimize_after(c, n, args, kwargs, result, seconds):
    c["optimize.instance_subsets"] += n * result.subsets_evaluated


def _none(args, kwargs):
    return None


PROBES = {
    "simulator.replay": (_replay_before, _replay_after),
    "cookies.cookies_for_request": (_jar_before, _jar_after),
    "cookies.parse_set_cookie": (_none, _count_result("set_cookie.accepted")),
    "policy.PartitionStore.end_page_load": (_ephemeral_before, _ephemeral_after),
    "filterlist.is_ad_url": (_none, _count_result("is_ad.hits")),
    "trace.parse_trace": (_none, _result_events("parse.events")),
    "trace.dump_trace": (_trace_events_before, _dump_after),
    "synthetic.generate_synthetic_trace": (_none, _result_events("gen.events")),
    "simulator.write_flows_csv": _count_len("flows_written", 0, "flows"),
    "simulator.write_frames_jsonl": _count_len("frames_written", 0, "frames"),
    "metrics.optimize_node_types": (_sample_before, _optimize_after),
}


@dataclass
class Recorder:
    """Spans of one process, as parallel arrays indexed by span id."""

    names: list[str] = field(default_factory=list)
    name_of: array = field(default_factory=lambda: array("i"))
    parent: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    counters: Counter = field(default_factory=Counter)
    stack: list[int] = field(default_factory=lambda: [-1])

    def wrap(self, fn, qualname: str):
        name_index = len(self.names)
        self.names.append(qualname)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        probe = PROBES.get(qualname)
        counters = self.counters

        def open_span() -> int:
            span = len(name_of)
            name_of.append(name_index)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            return span

        if probe is None:
            def traced(*args, **kwargs):
                span = open_span()
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[span] = clock()
                    start[span] = t0
                    stack.pop()
        else:
            before, after = probe

            def traced(*args, **kwargs):
                state = before(args, kwargs)
                span = open_span()
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[span] = t1 = clock()
                    start[span] = t0
                    stack.pop()
                after(counters, state, args, kwargs, result, t1 - t0)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = fn.__doc__
        return traced

    def write(self, out_dir: Path, call_id: str) -> None:
        header = {"call_id": call_id, "names": self.names, "spans": len(self.name_of),
                  "counters": dict(self.counters)}
        (out_dir / f"{call_id}.json").write_text(json.dumps(header, sort_keys=True) + "\n")
        with open(out_dir / f"{call_id}.bin", "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def _public_routines(module):
    """(owner, attribute, function, qualified name) for the module's own
    public functions and its classes' public methods."""
    short = module.__name__.rsplit(".", 1)[1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield obj, meth, fn, f"{short}.{attr}.{meth}"
        elif inspect.isroutine(obj):
            yield module, attr, obj, f"{short}.{attr}"


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every public routine at every binding; return the undo list."""
    modules = [importlib.import_module(f"storagelab.{m}") for m in MODULES]
    wrapped: dict[int, object] = {}
    undo: list[tuple[object, str, object]] = []
    for module in modules:
        for owner, attr, fn, qualname in _public_routines(module):
            wrapped[id(fn)] = recorder.wrap(fn, qualname)
            if owner is not module:  # a method: its class is its only binding
                setattr(owner, attr, wrapped[id(fn)])
                undo.append((owner, attr, fn))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped and not inspect.isclass(obj):
                setattr(module, attr, wrapped[id(obj)])
                undo.append((module, attr, obj))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


@dataclass
class SpanTotals:
    """Per-function totals, summed over the traced CLI calls read into it."""

    n_spans: int = 0
    counters: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    total: Counter = field(default_factory=Counter)
    self_time: Counter = field(default_factory=Counter)
    # The same totals restricted to spans nested inside ``simulator.replay``.
    replay_calls: Counter = field(default_factory=Counter)
    replay_total: Counter = field(default_factory=Counter)
    replay_self: Counter = field(default_factory=Counter)


def read_spans(out_dir: Path, call_id: str, out: SpanTotals) -> None:
    """Load one call's spans into ``out``, with each function's self time:
    its spans' duration minus the part their child spans cover."""
    header = json.loads((out_dir / f"{call_id}.json").read_text())
    n = header["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(out_dir / f"{call_id}.bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    name_of, parent, start, end = arrays
    names = header["names"]
    replay_index = names.index("simulator.replay")
    duration = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    in_replay = bytearray(n)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += duration[i]
            in_replay[i] = in_replay[p] or name_of[p] == replay_index
    out.n_spans += n
    out.counters.update(header["counters"])
    for i in range(n):
        name = names[name_of[i]]
        self_time = duration[i] - child[i]
        out.calls[name] += 1
        out.total[name] += duration[i]
        out.self_time[name] += self_time
        if in_replay[i]:
            out.replay_calls[name] += 1
            out.replay_total[name] += duration[i]
            out.replay_self[name] += self_time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run one storagelab CLI call under tracing")
    parser.add_argument("--out", required=True, type=Path, help="directory for the span files")
    parser.add_argument("--call-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    recorder = Recorder()
    undo = install(recorder)
    cli = importlib.import_module("storagelab.cli")
    try:
        return cli.main(cli_args)
    finally:
        uninstall(undo)
        recorder.write(args.out, args.call_id)


if __name__ == "__main__":
    sys.exit(main())
