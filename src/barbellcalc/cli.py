"""
Command-line front door: single theorems, grid sweeps, scenario files.

Exit codes: 0 = every check passed, 1 = a computed value mismatched an
expectation, 2 = invalid input or a hypothesis violation.  Output is
byte-deterministic for fixed arguments (every term order is sorted);
sweeps run in process, one job after another in grid order.  If the
reader closes the output before all of it is written (`| head`), the
run exits 1 without a traceback.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

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

_FIELD_FLAGS = {"f2": "F2", "int": "Z"}
_PARAM_FLAGS = ("k", "l", "n", "m", "p", "q")

# every package error subclasses ValueError; TypeError covers bad
# parameter combinations, KeyError malformed scenario files
USER_ERRORS = (ValueError, TypeError, KeyError)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _render(report: Report, fmt: str) -> str:
    return render_machine(report) if fmt == "machine" else render_table(report)


def _flags(theorem: Theorem) -> tuple[list[str], list[str]]:
    """The parameter flags a theorem's runner accepts, and those it
    requires, read from its signature (the first parameter is the
    registry key)."""
    params = list(inspect.signature(theorem.runner).parameters.values())[1:]
    accepted = [p.name for p in params if p.name in _PARAM_FLAGS]
    required = [p.name for p in params if p.default is p.empty]
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
    if args.field is not None and args.name in THEOREMS:
        expected = THEOREMS[args.name].field
        if expected is not None and _FIELD_FLAGS[args.field] != expected:
            raise HypothesisError(
                f"theorem {args.name} is computed over {expected}, not {_FIELD_FLAGS[args.field]}"
            )
    report = run_theorem(args.name, **_theorem_params(args))
    _emit(_render(report, args.format), args.out)
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
    reports = [run_theorem(theorem.name, **params) for params in theorem.sweep.grid(top, args.n)]
    lines = []
    failed = 0
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        failed += 0 if report.passed else 1
        if args.format == "machine":
            lines.append(render_machine(report))
        else:
            summary = ", ".join(f"{key}={report.params[key]}" for key in sorted(report.params))
            lines.append(f"{status} {report.name} {summary}")
    lines.append(f"{len(reports) - failed}/{len(reports)} passed")
    _emit("\n".join(lines), args.out)
    return 0 if failed == 0 else 1


def _cmd_scenario(args) -> int:
    path = args.file or args.scenario
    if not path:
        raise HypothesisError("scenario command needs a file path")
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    report = run_scenario(data)
    _emit(_render(report, args.format), args.out)
    return 0 if report.passed else 1


def _cmd_list(args) -> int:
    lines = ["theorems:"]
    lines += [f"  {name}" for name in sorted(THEOREMS)]
    lines.append("geometries:")
    lines += [f"  {name}" for name in sorted(GEOMETRY_BUILDERS)]
    _emit("\n".join(lines), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barbellcalc",
        description="equivariant barbell-action computations and their module invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "machine"), default="table")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    theorem = sub.add_parser("theorem", help="run one theorem reproduction")
    theorem.add_argument("name")
    for flag in _PARAM_FLAGS:
        theorem.add_argument(f"--{flag}", type=int, default=None)
    theorem.add_argument("--field", choices=("f2", "int"), default=None, help="accepted for symmetry; geometries fix their coefficients")
    common(theorem)
    theorem.set_defaults(func=_cmd_theorem)

    sweep = sub.add_parser("sweep", help="run a parameter grid")
    sweep.add_argument("name")
    sweep.add_argument("--n", type=int, default=None)
    sweep.add_argument("--max", type=int, default=None)
    common(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    scenario = sub.add_parser("scenario", help="run a JSON scenario file")
    scenario.add_argument("file", nargs="?", default=None)
    scenario.add_argument("--scenario", default=None, help="scenario file path")
    common(scenario)
    scenario.set_defaults(func=_cmd_scenario)

    listing = sub.add_parser("list", help="list theorems and geometries")
    common(listing)
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
    except (FileNotFoundError, *USER_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
