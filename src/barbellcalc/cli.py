"""
Command-line front door: single theorems, grid sweeps, scenario files.

Exit codes: 0 = every check passed, 1 = a computed value mismatched an
expectation, 2 = invalid input or a hypothesis violation (an empty sweep
included: it checks nothing, so it does not pass).  Output is
byte-deterministic for fixed arguments (every term order is sorted);
sweeps run in process, one job after another in grid order.  If the
reader closes the output before all of it is written (`| head`), the
run exits 1 without a traceback.

One parser per process: `build_parser()` builds it on first use and
every later `main` call parses with that same parser, so only the first
call pays for its construction.  Nothing may mutate it after it is
built; argparse keeps no state between `parse_args` calls, and the
tests compare a sequence of in-process calls with fresh interpreters.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import os
import sys
from typing import Iterable, Iterator

from .scenarios import (
    GEOMETRY_BUILDERS,
    THEOREMS,
    HypothesisError,
    Report,
    Theorem,
    render_machine,
    render_table,
    run_scenario,
    run_theorem,
)

_PARAM_FLAGS = ("k", "l", "n", "m", "p", "q")

# Most jobs one sweep runs, checked against the grid's closed-form job
# count before any job is built.  On a 2-vCPU Xeon host 10**4 jobs of
# morsesimple --max 100 took 5.2 s and 21 MB.  A brunnian job reuses
# the one linked-6crit report of its (k, l): --max 16 (9,180 jobs, 136
# reports) at --n 4 took 0.29 s in table format; in machine format,
# where every job line repeats its report (318 MB of output), it took
# 1.8 s.  Each line is written as its report is yielded, so both peak
# at 22 MB (machine format peaked at 326 MB while the lines were kept).
MAX_SWEEP_JOBS = 10_000

# every package error subclasses ValueError; TypeError covers bad
# parameter combinations, KeyError malformed scenario files, OSError a
# path that cannot be read or written (main catches BrokenPipeError first)
USER_ERRORS = (ValueError, TypeError, KeyError, OSError)


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


@functools.cache
def _flags(theorem: Theorem) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The parameter flags a theorem's runner accepts, and those it
    requires, read from its signature (the first parameter is the
    registry key) once per process."""
    params = list(inspect.signature(theorem.runner).parameters.values())[1:]
    accepted = tuple(p.name for p in params if p.name in _PARAM_FLAGS)
    required = tuple(p.name for p in params if p.default is p.empty)
    return accepted, required


def _dashed(names) -> str:
    return " ".join(f"--{name}" for name in names)


def _theorem_params(args) -> dict:
    params = {key: getattr(args, key) for key in _PARAM_FLAGS if getattr(args, key) is not None}
    if args.name not in THEOREMS:
        return params  # run_theorem lists the known theorems
    accepted, required = _flags(THEOREMS[args.name])
    extra = [key for key in params if key not in accepted]
    missing = [key for key in required if key not in params]
    if extra or missing:
        problem = f"unexpected {_dashed(extra)}" if extra else f"missing {_dashed(missing)}"
        note = f" (required: {_dashed(required)})" if required else ""
        raise HypothesisError(f"theorem {args.name} takes {_dashed(accepted)}{note}; {problem}")
    return params


def _cmd_theorem(args) -> int:
    report = run_theorem(args.name, **_theorem_params(args))
    _emit([_render(report, args.format)], args.out)
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    sweeps = {record.sweep.name: record for record in THEOREMS.values() if record.sweep}
    if args.name not in sweeps:
        raise HypothesisError(f"unknown sweep {args.name!r}; choose from {', '.join(sweeps)}")
    theorem = sweeps[args.name]
    if args.n is not None and "n" not in _flags(theorem)[0]:
        takes_n = [name for name, record in sweeps.items() if "n" in _flags(record)[0]]
        raise HypothesisError(f"sweep {args.name} takes no --n; only {', '.join(takes_n)} does")
    top = theorem.sweep.default_max if args.max is None else args.max
    if top < 1:
        raise HypothesisError(f"sweep size must satisfy --max >= 1, got {top}")
    jobs = theorem.sweep.jobs(top)
    if jobs == 0:
        # a grid is empty exactly when its job count is 0: refuse it
        # rather than pass it vacuously
        raise HypothesisError(f"sweep {args.name} --max {top} has no jobs")
    if jobs > MAX_SWEEP_JOBS:
        raise HypothesisError(f"sweep {args.name} --max {top} has up to {jobs} jobs, more than {MAX_SWEEP_JOBS}")
    failed = 0

    def lines() -> Iterator[str]:
        # one line per report as the sweep yields it, the summary last;
        # a sweep refuses before its first report (see Sweep)
        nonlocal failed
        done = 0
        for report in theorem.sweep.reports(theorem.name, theorem.sweep.grid(top, args.n)):
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
    with open(args.file, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    report = run_scenario(data)
    _emit([_render(report, args.format)], args.out)
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
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
