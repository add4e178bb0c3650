"""Every resource cap of barbellcalc, held at its edge.

CAPS has one row per cap, a MAX_* constant of barbellcalc.deckgroup or
barbellcalc.scenarios or deckgroup._MAX_DIGITS: what it bounds, the
costliest calls it admits, calls past it, the address-space limit (as
`ulimit -v` counts it, in KiB) and the time bound every call of the row
runs under, and the time and peak RSS of its first call at the cap.
Each call runs in a fresh interpreter.  At the cap it exits 0 and its
last line holds its text (PASS by default).  Past the cap it exits 2
with empty stdout and one `error:` line of under 300 bytes that names
the cap's value and holds its text; past the one cap that does not
refuse, the call exits 0 and prints its note.  A library call keeps the
CLI's contract (_LIBRARY).  README.md's "Resource caps" table mirrors
CAPS.
"""

import json
import re
import resource
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from test_cli import CLI, ENV

from barbellcalc import deckgroup, scenarios
from barbellcalc.deckgroup import _echo

FILE = "FILE"  # stands for the path of a call's scenario file, in its command line and in what it says

# a library call's contract is the CLI's: PASS and exit 0 when the
# expression holds, one error: line and exit 2 when it raises one of
# the package's refusals, a ValueError
_LIBRARY = """import gc, sys
from barbellcalc import DeckGroup, brunnian_word, builtin_geometry, deckgroup, run_theorem, scenarios
try:
    held = eval(sys.argv[1])
except ValueError as exc:
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(2)
print("PASS" if held else "FAIL")
"""


class Call(NamedTuple):
    size: int  # the quantity the cap bounds, as this call reaches it
    argv: tuple
    says: str  # at the cap, in stdout's last line; past it, in the error: line (or in stdout)
    file: str = ""  # the scenario file's text


def theorem(size, *argv, says="PASS") -> Call:
    return Call(size, (*CLI, *argv), says)


def scenario(size, doc, *flags, says="PASS") -> Call:
    return Call(size, (*CLI, "scenario", FILE, *flags), says, doc if isinstance(doc, str) else json.dumps(doc))


def library(size, expr, says="PASS") -> Call:
    return Call(size, (sys.executable, "-c", _LIBRARY, expr), says)


class Cap(NamedTuple):
    name: str  # module.NAME
    bounds: str
    at: tuple  # the costliest calls the cap admits, the first measured
    past: tuple
    # the first call at the cap (and the memo's loop): median wall time of five runs and peak RSS, from
    # a lean parent process on a 2-vCPU Xeon host with CPython 3.11.7, the interpreter's start included
    measured: str
    kib: int = 150_000
    seconds: float = 10
    refuses: bool = True


def offset_power(iterate: int) -> dict:
    barbell = {"cuff1": "S_h", "cuff2": "S_h", "holonomy": "x1 x2", "offset": "x1 x2", "iterate": iterate}
    return {"geometry": {"name": "sphere_torus_link", "n": 3}, "barbells": [barbell],
            "attaching": ["S_v"], "disks": ["D_v"]}


def free_group_of_rank(rank: int) -> dict:
    return {"geometry": {"group": {"kind": "free", "rank": rank}, "labels": {"S": "sphere", "D": "disk"},
                         "pairings": [["D", "S", [["x1", 1]]]], "attaching": ["S"], "disks": ["D"]}, "barbells": []}


def free_abelian_of_rank(rank: int) -> dict:
    geometry = {"name": "wide", "group": {"kind": "free_abelian", "rank": rank},
                "labels": {"S_h": "sphere", "S_v": "sphere", "D_v": "disk"}}
    return {"geometry": geometry, "barbells": [{"cuff1": "S_h", "cuff2": "S_h"}],
            "attaching": ["S_v"], "disks": ["D_v"]}


def genus(g: int) -> dict:
    return {"geometry": {"name": "genus_g_complement", "g": g}, "barbells": [{"cuff1": "S_h_1", "cuff2": "S_h_2"}]}


NINES = "9" * 5000

CAPS = (
    Cap("deckgroup.MAX_POWER_LETTERS", "letters of a word: parsed, a power or brunnian_word(n)",
        at=(scenario(100_000, offset_power(50_000)),
            library(98_302, "len(brunnian_word(17).value) == 98_302")),
        past=(scenario(100_002, offset_power(50_001), says="power 50001 of a 2-letter word has 100002 letters"),
              scenario(6_000_000, offset_power(3_000_000),
                       says="power 3000000 of a 2-letter word has 6000000 letters, more than 100000"),
              scenario(100_001, {"geometry": {"name": "sphere_torus_link", "n": 2},
                                 "barbells": [{"cuff1": "S_h", "cuff2": "S_h", "holonomy": "x1^100001"}]},
                       says="field 'barbells[0].holonomy': word has more than 100000 letters"),
              library(196_606, "brunnian_word(18)", says="brunnian_word needs 3 * 2^(n-2) - 2 <= 100000 letters"),
              library(3 * 2**64 - 2, "brunnian_word(10**100)", says="got n=100000000000000000...")),  # capped count
        measured="0.10 s, 20 MB"),
    Cap("deckgroup.MAX_FREE_RANK", "rank of a free group: each letter is one code point below a sort key's two",
        at=(scenario(557_054, free_group_of_rank(557_054)),),
        past=(scenario(557_055, free_group_of_rank(557_055), says="free group rank must be <= 557054"),),
        measured="0.09 s, 18 MB"),
    Cap("deckgroup.MAX_FREE_ABELIAN_RANK", "rank of a free abelian group: each element is a tuple of that length",
        at=(scenario(10_000, free_abelian_of_rank(10_000)),
            library(10_000, "DeckGroup('free_abelian', 10**4).n == 10**4")),
        past=(scenario(10_001, free_abelian_of_rank(10_001), says="free abelian rank must be <= 10000, got 10001"),
              scenario(10**9, free_abelian_of_rank(10**9), says="free abelian rank must be <= 10000, got 1000000000"),
              library(10_001, "DeckGroup('free_abelian', 10**4 + 1)", says="got 10001"),
              library(10**9, "DeckGroup('free_abelian', 10**9)", says="got 1000000000")),
        measured="0.09 s, 18 MB"),
    Cap("deckgroup._MAX_DIGITS", "digits of an integer parameter, flag or scenario integer: a report prints it",
        at=(theorem(4000, "theorem", "morsesimple-s3", "--k", NINES[:4000], "--l", "1"),),
        past=(theorem(4001, "theorem", "morsesimple-s3", "--k", NINES[:4001], "--l", "1",
                      says="parameter k has more than 4000 digits"),
              theorem(4300, "theorem", "morsesimple-s3", "--k", NINES[:4300], "--l", "1",
                      says="parameter k has more than 4000 digits"),
              theorem(5000, "theorem", "morsesimple-s3", "--k", NINES, "--l", "1", says="more than 4000 digits"),
              scenario(5000, '{"geometry": {"name": "cyclic_cover", "m": ' + NINES + "}}",
                       says="scenario file FILE has an integer of more than 4000 digits")),
        measured="0.13 s, 18 MB"),
    # the memo of built-in geometries keeps 16 of them: a loop over three
    # times as many genera at the cap stays within 80 MiB, where keeping
    # every geometry would not
    Cap("scenarios.MAX_GENUS", "genus of genus_g_complement, 2g spheres; the geometry memo keeps 16 such",
        at=(scenario(10_000, genus(10_000)),
            library(10_000, "max(len(builtin_geometry('genus_g_complement', g=g).attaching) for g in"
                            " range(9953, 10001)) == 10_000 and scenarios._geometry.cache_info().currsize == 16")),
        past=(scenario(10_001, genus(10_001), says="genus_g_complement needs g <= 10000, got 10001"),
              scenario(10**6, {**genus(10**6), "attaching": ["S_v"], "disks": ["D_v"]},
                       says="genus_g_complement needs g <= 10000, got 1000000")),
        measured="0.30 s, 25 MB; the memo's 0.70 s, 47 MB", kib=81_920),
    Cap("scenarios.MAX_LINKED_WORD_LETTERS", "letters of linked-6crit's bar words w_n^k, k the larger winding number",
        at=(theorem(9988, "theorem", "linked-6crit", "--n", "5", "--k", "454", "--l", "454", "--format", "machine",
                    says='"passed": true'),
            theorem(10_000, "theorem", "linked-6crit", "--n", "2", "--k", "10000", "--l", "9000")),
        past=(theorem(10_010, "theorem", "linked-6crit", "--n", "5", "--k", "455", "--l", "455",
                      says="got n=5 and winding number 455"),
              # the sweep's 766-letter words reach the cap at winding number 14, before any report
              theorem(10_724, "sweep", "brunnian", "--n", "10", "--max", "16", says="got n=10 and winding number 14")),
        measured="0.13 s, 33 MB"),
    Cap("scenarios.MAX_SWEEP_JOBS", "jobs of one sweep, refused after drawing one more, before any runs",
        at=(theorem(10_000, "sweep", "morsesimple", "--max", "100", says="10000/10000 passed"),
            theorem(10_000, "sweep", "higher-dim", "--max", "100", "--format", "machine", says="10000/10000 passed")),
        past=(theorem(10_201, "sweep", "morsesimple", "--max", "101", says="sweep morsesimple --max 101 has more"),
              theorem(10**18, "sweep", "brunnian", "--max", str(10**18), says="sweep brunnian --max 1000000000")),
        measured="0.40 s, 18 MB", seconds=5),
    Cap("scenarios.MAX_DISK_MODEL_COMPONENTS", "components whose constraint model no-brunnian-2disk evaluates",
        at=(theorem(100_000, "theorem", "no-brunnian-2disk", "--n", "100000"),),
        past=(theorem(100_001, "theorem", "no-brunnian-2disk", "--n", "100001",
                      says="n > 100000: the constraint model is not evaluated; computed is the closed form"),
              theorem(10**11, "theorem", "no-brunnian-2disk", "--n", str(10**11), says="n > 100000")),
        measured="0.63 s, 18 MB", refuses=False),
)

_IDS = [cap.name.split(".")[1] for cap in CAPS]


def value(name: str) -> int:
    module, constant = name.split(".")
    return getattr({"deckgroup": deckgroup, "scenarios": scenarios}[module], constant)


def run(call: Call, kib: int, seconds: float, tmp_path) -> tuple[int, str, str]:
    """The call's exit code, stdout and stderr, run in a fresh interpreter under an address-space limit of
    kib KiB and a time bound of seconds."""
    path = tmp_path / "scenario.json"
    path.write_text(call.file)
    argv = [str(path) if arg == FILE else arg for arg in call.argv]

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (kib * 1024, kib * 1024))

    result = subprocess.run(argv, capture_output=True, text=True, env=ENV, timeout=seconds, preexec_fn=limit)
    return result.returncode, result.stdout, result.stderr


def refused(call: Call, code: int, out: str, err: str, says: str):
    """The refusal contract: exit 2, empty stdout, one error: line of under 300 bytes that holds says, no traceback."""
    assert (code, out) == (2, ""), (call.argv[-6:], err)
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 300, err
    assert says in err and "Traceback" not in err, err


@pytest.mark.parametrize("cap", CAPS, ids=_IDS)
def test_calls_at_the_cap_pass_in_time(cap, tmp_path):
    for call in cap.at:
        code, out, err = run(call, cap.kib, cap.seconds, tmp_path)
        assert (code, err) == (0, "") and call.says in out.splitlines()[-1], (call.argv[-6:], out[-300:], err)
        assert cap.refuses or "note:" not in out, out  # the cap that does not refuse notes only calls past it


@pytest.mark.parametrize("cap", CAPS, ids=_IDS)
def test_calls_past_the_cap_name_it(cap, tmp_path):
    cap_value = str(value(cap.name))
    for call in cap.past:
        code, out, err = run(call, cap.kib, cap.seconds, tmp_path)
        says = call.says.replace(FILE, _echo(str(tmp_path / "scenario.json")))
        if not cap.refuses:
            assert (code, err) == (0, "") and out.splitlines()[-1] == "PASS", (call.argv[-6:], err)
            assert says in out and cap_value in says
            continue
        refused(call, code, out, err, says)
        assert cap_value in err, err


def test_every_cap_has_one_row_and_every_row_a_live_cap_its_calls_straddle():
    # a cap is a MAX_* (or _MAX_*) constant assigned in either module
    defined = sorted(f"{module.__name__.split('.')[1]}.{name}" for module in (deckgroup, scenarios)
                     for name in re.findall(r"^(_?MAX_\w+) = ", Path(module.__file__).read_text(), re.M))
    assert sorted(cap.name for cap in CAPS) == defined
    for cap in CAPS:
        top = value(cap.name)
        assert cap.at and cap.past, cap.name
        assert all(call.size <= top for call in cap.at) and all(call.size > top for call in cap.past), cap.name


def test_the_readme_table_mirrors_caps():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for cap in CAPS:
        assert f"| `{cap.name}` | {cap.bounds} | {value(cap.name)} | {cap.measured} |" in readme, cap.name
