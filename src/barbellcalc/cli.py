"""
Command-line front door: single theorems, grid sweeps, scenario files.

Exit codes: 0 = every check passed, 1 = a computed value mismatched an
expectation, 2 = invalid input or a hypothesis violation (an empty sweep
included: it checks nothing, so it does not pass).  Every refusal of the
package is a ValueError, printed as one `error:` line; any other
exception is a fault and keeps its traceback.  The CLI has no parameter
or sweep rule of its own: it hands the flags it was given to
run_theorem or run_sweep, which refuse a missing or unexpected one, or a
sweep size out of range, with the HypothesisError a library call gets
(builtin_geometry makes the same check).  Output is byte-deterministic
for fixed arguments (every term order is sorted); sweeps run in
process, one job after another in grid order, and each report's line is
written as the sweep yields it.  If the reader closes the output before
all of it is written (`| head`), the run exits 1 without a traceback.

One parser per process: `build_parser()` builds it on first use and
every later `main` call parses with that same parser, so only the first
call pays for its construction.  Nothing may mutate it after it is
built; argparse keeps no state between `parse_args` calls, and the
tests compare a sequence of in-process calls with fresh interpreters.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections.abc import Iterable, Iterator

from .scenarios import (
    GEOMETRY_BUILDERS,
    THEOREMS,
    HypothesisError,
    Report,
    render_machine,
    render_table,
    run_scenario,
    run_sweep,
    run_theorem,
)

_PARAM_FLAGS = ("k", "l", "n", "m", "p", "q")

# every package error subclasses ValueError, as do json's; OSError is a
# path that cannot be read or written (main catches BrokenPipeError
# first).  Anything else is a fault of the engine and keeps its traceback.
USER_ERRORS = (ValueError, OSError)

# the characters str.splitlines breaks at, escaped in a refusal so that
# one quoting a label or a name from the input stays one error: line
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _emit(lines: Iterable[str], out_path: str | None):
    """Write each line and a newline to out_path, or to stdout, as lines
    yields it, so a sweep's output is never held in memory.  The first
    line is drawn before out_path is opened: a run refused before its
    first line leaves the file untouched."""
    lines = iter(lines)
    head = list(itertools.islice(lines, 1))
    text = (f"{line}\n" for line in itertools.chain(head, lines))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(text)
    else:
        sys.stdout.writelines(text)


def _render(report: Report, fmt: str) -> str:
    return render_machine(report) if fmt == "machine" else render_table(report)


def _cmd_theorem(args) -> int:
    params = {key: getattr(args, key) for key in _PARAM_FLAGS if getattr(args, key) is not None}
    report = run_theorem(args.name, **params)
    _emit([_render(report, args.format)], args.out)
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    reports = run_sweep(args.name, args.max, **({} if args.n is None else {"n": args.n}))
    failed = 0

    def lines() -> Iterator[str]:
        # one line per report as the sweep yields it, the summary last;
        # a sweep refuses before its first report (see run_sweep)
        nonlocal failed
        done = 0
        for report in reports:
            done += 1
            failed += 0 if report.passed else 1
            if args.format == "machine":
                yield render_machine(report)
            else:
                status = "PASS" if report.passed else "FAIL"
                summary = ", ".join(f"{key}={report.params[key]}" for key in sorted(report.params))
                yield f"{status} {report.name} {summary}"
        yield f"{done - failed}/{done} passed"

    _emit(lines(), args.out)
    return 0 if failed == 0 else 1


def _cmd_scenario(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        report = run_scenario(data)
        text = _render(report, args.format)
    except RecursionError:
        # json reads and writes recursively: a file nested deeper than
        # the interpreter's recursion limit fails here
        raise HypothesisError(f"scenario file {args.file} is nested too deeply") from None
    _emit([text], args.out)
    return 0 if report.passed else 1


def _cmd_list(args) -> int:
    lines = ["theorems:"]
    lines += [f"  {name}" for name in sorted(THEOREMS)]
    lines.append("geometries:")
    lines += [f"  {name}" for name in sorted(GEOMETRY_BUILDERS)]
    _emit(lines, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and returned
    by every later one; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="barbellcalc",
        description="equivariant barbell-action computations and their module invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def out(p):
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    def common(p):
        p.add_argument("--format", choices=("table", "machine"), default="table")
        out(p)

    theorem = sub.add_parser("theorem", help="run one theorem reproduction")
    theorem.add_argument("name")
    for flag in _PARAM_FLAGS:
        theorem.add_argument(f"--{flag}", type=int, default=None)
    common(theorem)
    theorem.set_defaults(func=_cmd_theorem)

    sweep = sub.add_parser("sweep", help="run a parameter grid")
    sweep.add_argument("name")
    sweep.add_argument("--n", type=int, default=None)
    sweep.add_argument("--max", type=int, default=None)
    common(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    scenario = sub.add_parser("scenario", help="run a JSON scenario file")
    scenario.add_argument("file")
    common(scenario)
    scenario.set_defaults(func=_cmd_scenario)

    listing = sub.add_parser("list", help="list theorems and geometries")
    out(listing)
    listing.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; send what is still buffered to /dev/null
        # so the interpreter's final flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except USER_ERRORS as exc:
        print(f"error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
