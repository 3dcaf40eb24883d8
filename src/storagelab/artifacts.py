"""The file helpers every command shares: its one way to read an input
(:func:`_parse_input`), its outputs and ``manifest.json``, and its input
errors.

Each command's body lives beside the code it drives (``picf``, ``metrics``,
``simulator``, ``synthetic``) and imports these helpers from here, never from
``storagelab.cli``: under ``python -m storagelab.cli`` that import would
compile and run ``cli`` a second time, and its :class:`InputError` would be
another class than the one ``cli.main`` catches.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

from storagelab import __version__


class InputError(Exception):
    """Bad or mismatched input files; maps to exit code 2."""


def _out_dir(path_str: str) -> Path:
    """The output directory, made if missing, without the ``manifest.json``
    of an earlier run: a command calls this before it writes its first
    output and writes its manifest last, so a call that fails part-way
    leaves a directory that no reader takes for a finished run."""
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_manifest(out: Path, args, inputs: dict, outputs: list[str],
                    extra: dict | None = None) -> None:
    """The command path and every parsed option (``config``) of ``args``,
    with the input hashes and the names of the files written to ``out``."""
    command = f"{args.command} {args.metric}" if args.command == "metrics" else args.command
    config = {k: v for k, v in vars(args).items() if k not in ("command", "metric", "func")}
    _write_json(out / "manifest.json", {
        "command": command, "config": config, "inputs": inputs, "outputs": outputs,
        "version": __version__, **(extra or {}),
    })


def _not_utf8(path, data: bytes) -> InputError:
    """The error for ``data``, which is not UTF-8, naming the line and column
    of its first bad byte."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line_no = data.count(b"\n", 0, line_start) + 1
        return InputError(f"{path}: line {line_no}: not UTF-8 "
                          f"({exc.reason} at column {exc.start - line_start + 1})")
    return InputError(f"{path}: not UTF-8")


def _parse_input(path, parse, newline: str | None) -> tuple:
    """``parse`` of an input file's text, and the file's manifest entry (path
    and sha256), from one read of the file: the only way a command reads an
    input. ``parse`` gets the text as ``open(path, encoding="utf-8",
    newline=newline)`` would give it, decoded as it reads. A byte that is not
    UTF-8, or any ``ValueError`` of ``parse`` or ``csv.Error`` of its CSV
    reader (a cell past the reader's size limit), is an input error naming
    the file."""
    file = Path(path)
    if not file.is_file():
        raise InputError(f"input file not found: {file}")
    data = file.read_bytes()
    try:
        parsed = parse(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline))
    except UnicodeDecodeError:
        raise _not_utf8(path, data) from None
    except (ValueError, csv.Error) as exc:
        raise InputError(f"{path}: {exc}") from None
    return parsed, {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def _load_suffix_rules(psl_path: str | None):
    from storagelab.psl import builtin_rules, parse_psl
    if psl_path is None:
        return builtin_rules(), {"builtin": True}
    return _parse_input(psl_path, lambda fh: parse_psl(fh.read()), "")


def _load_ad_rules(filters_path: str | None):
    from storagelab.filterlist import EMPTY_RULES, parse_rules
    if filters_path is None:
        return EMPTY_RULES, None
    return _parse_input(filters_path, lambda fh: parse_rules(fh.read()), "")


def _at_least(low: int, **flags: int) -> None:
    """An input error naming the first flag whose value is below ``low``;
    each keyword is a flag's name, ``--`` and dashes aside."""
    for name, value in flags.items():
        if value < low:
            raise InputError(f"--{name.replace('_', '-')} must be >= {low}")


def _fnum(value) -> str:
    """Deterministic decimal rendering for CSV/report floats."""
    return repr(float(value))


def _frac(value) -> str | None:
    """An exact fraction as ``n/d``."""
    return None if value is None else f"{value.numerator}/{value.denominator}"
