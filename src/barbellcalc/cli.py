"""
Command-line front door: single theorems, grid sweeps, scenario files.

Exit codes: 0 = every check passed, 1 = a computed value mismatched an
expectation, 2 = invalid input or a hypothesis violation (an empty sweep
included: it checks nothing, so it does not pass).  Every refusal of the
package is a ValueError, printed as one `error:` line.  A MemoryError is
printed as one `error:` line too, with exit 2: it is the last resort for
an input that outgrows the process's memory before any bound of the
package refuses it.  Any other exception is a fault and keeps its
traceback.  The CLI has no parameter or sweep rule of its own: it hands
the flags it was given to run_theorem or run_sweep, which refuse a
missing or unexpected one, or a sweep size out of range, with the
HypothesisError a library call gets (builtin_geometry makes the same
check).  It applies one limit of barbellcalc.deckgroup's, _MAX_DIGITS,
before a number is read: an integer flag of more digits is refused by
its name, and a scenario file's integer of more digits by the file's
name.  barbellcalc.report renders
every report line, byte-deterministic for fixed arguments (every term
order is sorted); sweeps run in process, one job after another in grid
order, each report's line written as the sweep yields it.  If the
reader closes the output before all of it is written (`| head`), the
run exits 1 without a traceback.

One command table, no argparse: `_COMMANDS` gives each command's
positional, options, help line and runner, and `_parse` reads a line by
argparse's rules (an option by full name or unique prefix, `--opt=value`,
the last of a repeated option wins), so it accepts exactly the lines
argparse accepted; a malformed one exits 2 with one `error:` line, and
`-h` prints help made from the same table.  The table is built once, at
import; a call builds only the chosen command's option names and defaults.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator
from types import SimpleNamespace

from .deckgroup import _MAX_DIGITS, _echo, _too_long
from .report import HypothesisError, render_line, render_machine, render_table
from .scenarios import GEOMETRY_BUILDERS, THEOREMS, run_scenario, run_sweep, run_theorem

_PARAM_FLAGS = ("k", "l", "n", "m", "p", "q")

# every package error subclasses ValueError, as do json's; OSError is a
# path that cannot be read or written (main catches BrokenPipeError
# first).  Anything else but a MemoryError is a fault of the engine and
# keeps its traceback.
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
    head = next(lines, None)
    text = (f"{line}\n" for line in itertools.chain(() if head is None else (head,), lines))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(text)
    else:
        sys.stdout.writelines(text)


_RENDER = {"table": render_table, "machine": render_machine}  # the first is the default


def _cmd_theorem(args) -> int:
    params = {key: value for key, value in vars(args).items() if value is not None and key in _PARAM_FLAGS}
    report = run_theorem(args.name, **params)
    _emit([_RENDER[args.format](report)], args.out)
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    reports = run_sweep(args.name, args.max, **({} if args.n is None else {"n": args.n}))
    verdicts = []

    def lines() -> Iterator[str]:
        # one line per report as the sweep yields it, the summary last;
        # a sweep refuses before its first report (see run_sweep)
        render = render_machine if args.format == "machine" else render_line
        for report in reports:
            verdicts.append(report.passed)
            yield render(report)
        yield f"{sum(verdicts)}/{len(verdicts)} passed"

    _emit(lines(), args.out)
    return 0 if all(verdicts) else 1


def _cmd_scenario(args) -> int:
    def read_int(digits: str) -> int:
        # json.load's reading of each integer, refusing one the package could not report
        if _too_long(digits):
            raise HypothesisError(f"scenario file {_echo(args.file)} has an integer of more than {_MAX_DIGITS} digits")
        return int(digits)

    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_int=read_int)
        report = run_scenario(data)
        text = _RENDER[args.format](report)
    except RecursionError:
        # json reads and writes recursively: a file nested deeper than
        # the interpreter's recursion limit fails here
        raise HypothesisError(f"scenario file {_echo(args.file)} is nested too deeply") from None
    _emit([text], args.out)
    return 0 if report.passed else 1


def _cmd_list(args) -> int:
    lines = ["theorems:", *(f"  {name}" for name in sorted(THEOREMS))]
    _emit([*lines, "geometries:", *(f"  {name}" for name in sorted(GEOMETRY_BUILDERS))], args.out)
    return 0


_FORMAT = {"format": tuple(_RENDER), "out": str}
# command -> (its positional, its options, its help line, its runner); an option's value
# goes through int or str, or is one of a tuple whose first is the default (else None)
_COMMANDS = {
    "theorem": ("name", {**dict.fromkeys(_PARAM_FLAGS, int), **_FORMAT}, "run one theorem reproduction", _cmd_theorem),
    "sweep": ("name", {"n": int, "max": int, **_FORMAT}, "run a parameter grid", _cmd_sweep),
    "scenario": ("file", _FORMAT, "run a JSON scenario file", _cmd_scenario),
    "list": (None, {"out": str}, "list theorems and geometries", _cmd_list),
}


def build_parser() -> dict:
    """The command table main parses with, built once at import."""
    return _COMMANDS


def _option(token: str, names) -> tuple[str | None, str | None] | None:
    """None for a value, else (the name of names token gives in full or as a unique prefix, or None; its '=' value)."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token[:2] == "-h":
        return "help", token[2:] or None
    key, eq, value = token[2:].partition("=")
    found = [] if token[1] != "-" else [key] if key in names else [name for name in names if name.startswith(key)]
    if len(found) > 1:
        raise ValueError(f"ambiguous option {_echo(token)}: it could be --{', --'.join(found)}")
    if found:
        return found[0], value if eq else None
    negative = re.match(r"^-\d+$|^-\d*\.\d+$", token)  # argparse's test
    return None if negative or " " in token else (None, None)


def _parse(table: dict, argv: list[str]) -> tuple[str | None, SimpleNamespace | None]:
    """(command, its arguments), or (command or None, None) for help, for exactly the
    lines argparse accepted.  As there, an unknown option, a surplus value and a missing
    positional are refused last, so that a later -h still prints help."""
    command = slot = filled = None
    names, values, late, dashes, i = {"help": None}, {}, [], False, 0
    while i < len(argv):
        token, i = argv[i], i + 1
        found = None if dashes else _option(token, names)
        if token == "--" and command and not dashes:
            dashes = True  # later tokens are values; argparse kept this one only beside the positional
            late += [token] if not slot or slot in values and filled != i - 1 else []
        elif found is None and command is None:
            if token not in table:
                raise ValueError(f"invalid command {_echo(token)} (choose from {', '.join(table)})")
            command, (slot, options, _, _) = token, table[token]
            names = {"help": None, **options}
            values = {name: kind[0] if type(kind) is tuple else None for name, kind in options.items()}
        elif found is None and slot and slot not in values:
            values[slot], filled = token, i
        elif found is None or found[0] is None:
            late.append(token)
        elif found[0] == "help":
            if found[1] is not None:
                raise ValueError(f"-h/--help takes no value, got {_echo(found[1])}")
            for token in itertools.takewhile("--".__ne__, argv[i:]):
                _option(token, names)  # argparse refused an ambiguous one first
            return command, None
        else:
            (name, value), kind = found, names[found[0]]
            if value is None:
                if i == len(argv) or argv[i] == "--" or _option(argv[i], names):
                    raise ValueError(f"--{name} takes one value")
                value, i = argv[i], i + 1
            if kind is int and _too_long(value) and value.removeprefix("-").isdecimal():
                raise ValueError(f"parameter {name} has more than {_MAX_DIGITS} digits")
            try:
                values[name] = kind[kind.index(value)] if type(kind) is tuple else kind(value)
            except ValueError:
                raise ValueError(f"--{name}: {_echo(value)} is not {'an int' if kind is int else ' or '.join(kind)}")
    if command is None or slot and slot not in values:
        raise ValueError(f"{command}: the {slot} is required" if command else "a command is required")
    if late:
        raise ValueError(f"{command}: unrecognized arguments: {_echo(' '.join(late))}")
    return command, SimpleNamespace(**values)


def _help(table: dict, command: str | None) -> str:
    if command is None:
        rows = "".join(f"\n  {name:<10}{row[2]}" for name, row in table.items())
        return f"usage: barbellcalc [-h] {{{','.join(table)}}} ...\n{rows}"
    slot, options, text, _ = table[command]
    flags = " ".join(f"[--{n} {'{%s}' % ','.join(k) if type(k) is tuple else n.upper()}]" for n, k in options.items())
    return f"usage: barbellcalc {command} [-h] {flags}{f' {slot}' if slot else ''}\n\n{text}"


def main(argv: list[str] | None = None) -> int:
    table = build_parser()
    try:
        command, args = _parse(table, sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_help(table, command))
        code = 0 if args is None else table[command][3](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; send what is still buffered to /dev/null
        # so the interpreter's final flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except MemoryError:
        print("error: out of memory: the input needs more memory than this process may use", file=sys.stderr)
        return 2
    except USER_ERRORS as exc:
        if isinstance(exc, OSError) and exc.filename is not None:  # as str(exc) reads, the path bounded
            exc = f"[Errno {exc.errno}] {exc.strerror}: {_echo(exc.filename)}"
        print(f"error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
