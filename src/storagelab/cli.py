"""Command-line pipelines tying trace generation, simulation, and metrics.

Subcommands write their artifacts plus a ``manifest.json`` echoing the
resolved configuration and input content hashes; reruns with identical
manifests produce byte-identical outputs (no timestamps, sorted keys,
deterministic float formatting).

Exit codes: 0 success, 1 usage, 2 input/parse failure, 3 internal error.

This module holds only the argument table, :func:`main` and :func:`run`, as
every call compiles it. Each command's body lives beside the code it drives,
and a call builds the parsers of only the command it names (README
"Start-up and exit").
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

from storagelab.artifacts import InputError

# The values of storagelab.policy.PolicyKind, which only simulate imports.
POLICY_NAMES = ("permissive", "blocking", "site-keyed", "page-length")

DEFAULT_PICF_THRESHOLD = 8

_OUT = ("--out", {"required": True})
_FLOWS = ("--flows", {"nargs": "+", "required": True})
_THRESHOLD = ("--threshold", {"type": int, "default": DEFAULT_PICF_THRESHOLD})

# The command table: name -> (help, what runs it as "module.function" in
# storagelab, its options as (flag, add_argument keywords)); a name whose
# last entry is a table instead names a level of subcommands.
COMMANDS = {
    "gen-trace": ("generate a deterministic synthetic trace", "synthetic.cmd_gen_trace", (
        ("--sites", {"type": int, "required": True}),
        ("--trackers", {"type": int, "default": 1, "help": "number of tracker sites"}),
        ("--tracker-prob", {"type": float, "default": 1.0,
                            "help": "per-page embedding probability (1.0 = every page)"}),
        ("--pages", {"type": int, "default": 1, "help": "pages per site"}),
        ("--iters", {"type": int, "default": 1, "help": "crawl iterations"}),
        ("--profiles", {"type": int, "default": 1}),
        ("--seed", {"type": int, "default": 0}),
        ("--policy", {"choices": sorted(POLICY_NAMES), "default": "permissive",
                      "help": "deprecated, no effect: a scenario has one trace for every "
                              "policy"}),
        ("--out", {"required": True, "help": "output directory"}),
    )),
    "simulate": ("replay a trace under a policy", "simulator.cmd_simulate", (
        ("--policy", {"choices": sorted(POLICY_NAMES), "required": True}),
        ("--trace", {"required": True}),
        ("--psl", {"default": None, "help": "public suffix list file (default: builtin)"}),
        ("--filters", {"default": None, "help": "ad filter list file"}),
        ("--origin-keyed", {"action": "store_true",
                            "help": "key third-party partitions by origin instead of site"}),
        _OUT,
    )),
    "metrics": ("compute metrics over simulation outputs", None, {
        "picf": ("extract potentially identifying cookie flows", "picf.cmd_metrics_picf",
                 (_FLOWS, _THRESHOLD, _OUT)),
        "cross-site": ("cross-site trackability curve", "picf.cmd_metrics_cross_site",
                       (_FLOWS, _THRESHOLD, _OUT)),
        "cross-time": ("cross-time trackability curve", "picf.cmd_metrics_cross_time", (
            _FLOWS, _THRESHOLD,
            ("--across-iterations-only", {"action": "store_true",
                                          "help": "count repeats only across crawl "
                                                  "iterations"}),
            _OUT,
        )),
        "similarity": ("behavior-edge similarity vs permissive",
                       "metrics.cmd_metrics_similarity", (
            ("--permissive", {"required": True, "help": "permissive simulate output dir"}),
            ("--compared", {"required": True, "help": "compared simulate output dir"}),
            ("--anchor-profile", {"default": "prof0"}),
            ("--baseline-profile", {"default": "prof1"}),
            ("--compared-profile", {"default": "prof0"}),
            ("--node-filter", {"default": "all",
                               "help": "'all', 'optimal', or comma-separated node types"}),
            _OUT,
        )),
        "optimize": ("brute-force the node-type power set", "metrics.cmd_metrics_optimize", (
            ("--permissive", {"required": True}),
            ("--contrast", {"required": True}),
            ("--baseline-profiles", {"default": "prof0,prof1"}),
            ("--contrast-profile", {"default": "prof0"}),
            ("--sample-size", {"type": int, "default": 100}),
            ("--seed", {"type": int, "default": 0}),
            _OUT,
        )),
        "candidates": ("select frames for manual grading", "metrics.cmd_metrics_candidates", (
            ("--sim", {"required": True, "help": "simulate output dir"}),
            ("--psl", {"default": None}),
            ("--top", {"type": int, "default": 10}),
            _OUT,
        )),
        "kappa": ("grading agreement statistics", "metrics.cmd_metrics_kappa", (
            ("--grades", {"required": True, "help": "CSV: url,profile,grader_a,grader_b"}),
            _OUT,
        )),
    }),
}


def __getattr__(name: str):
    # bench/tests/test_bench.py checks that the span recorder wraps
    # psl.etld_plus_one at this binding; ROADMAP item 5 points that check at
    # a binding the program uses and deletes this. Resolved on each access,
    # so that a call loads psl only when its command does.
    if name == "etld_plus_one":
        from storagelab.psl import etld_plus_one
        return etld_plus_one
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_commands(parser: argparse.ArgumentParser, table: dict, argv, dest: str) -> None:
    """Add ``table``'s subcommands to ``parser``, the chosen name going to
    ``dest``. When ``argv`` starts with one of its names, argparse can
    dispatch only to that one, so only its parser is built, and the usage
    line still names every command, as the full table's does; otherwise
    every command is built, with all its arguments, so that help and errors
    are the full table's."""
    named = argv[0] if argv and argv[0] in table else None
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_Parser,
                                metavar="{%s}" % ",".join(table) if named else None)
    for name, (help_text, target, options) in table.items():
        if named not in (None, name):
            continue
        command = sub.add_parser(name, help=help_text)
        if isinstance(options, dict):
            _add_commands(command, options, argv[1:] if named else (), "metric")
            continue
        for flag, keywords in options:
            command.add_argument(flag, **keywords)
        command.set_defaults(func=target)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of the command ``argv`` names; every command's when it
    names none. Either one parses ``argv`` the same, with the same help and
    errors."""
    parser = _Parser(prog="storagelab",
                     description="Replay crawl traces under third-party storage "
                                 "policies and compare privacy/compatibility metrics.")
    _add_commands(parser, COMMANDS, argv, "command")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        module, function = args.func.rsplit(".", 1)
        return getattr(importlib.import_module(f"storagelab.{module}"), function)(args)
    except (InputError, OSError, ValueError) as exc:
        print(f"storagelab: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback
        traceback.print_exc()
        return 3


def run() -> None:
    """The command line's entry point: :func:`main` on ``sys.argv``, then the
    end of the process with its exit code, skipping interpreter finalization
    (freeing every object and clearing every module): a call's end takes
    about 1 ms this way, and 10-15 ms with finalization (README "Start-up
    and exit"). Nothing is lost by the skip: a command writes every output inside
    ``with`` or ``write_text``, so each file is closed before ``main``
    returns; storagelab registers no ``atexit`` handler and relies on no
    finalizer; and ``sys.stdout`` and ``sys.stderr`` are flushed here. If a
    flush fails, as into a closed pipe, the process exits the normal way,
    which reports the failure as it always has. ``main`` itself returns, so
    in-process callers keep a normal interpreter."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
