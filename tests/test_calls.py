"""Every command line and library call checked out of process, beside the caps.

ACCEPTED and REFUSED hold calls built as CAPS's are (test_caps), each run
by test_caps.run in a fresh interpreter under 150,000 KiB of address space
(as `ulimit -v` counts it) and 20 s.  No call here reaches a cap: each one's
size is 0.  An accepted call exits 0 with empty stderr, and its stdout holds
its text, in which EDGE stands for stdout's start or end.  A refused call
keeps the refusal contract (test_caps.refused).  Together the accepted calls
run every command, theorem and sweep of the registries.  Run against an
installed package, `python -m pytest -o pythonpath= tests/test_caps.py
tests/test_calls.py` checks what a user installs.
"""

import json

import pytest
from test_caps import Call, library, refused, run, scenario, theorem
from test_cli import CLI, SCENARIO_TEXT
from test_report import ESCAPED_SCENARIO, WIDE_SCENARIO

from barbellcalc import cli, run_scenario, run_theorem
from barbellcalc.scenarios import GEOMETRY_BUILDERS, SWEEPS, THEOREMS

KIB, SECONDS = 150_000, 20
EDGE = "\0"
PASSED = '"passed": true'


def machine(report) -> str:
    """The whole stdout of a machine-format call whose record is report's: json.dumps of it, byte for byte."""
    return f"{EDGE}{json.dumps(report.to_machine(), sort_keys=True)}\n{EDGE}"


# a Z[t^-1, t] matrix: negative and non-unit coefficients, signs written
SIGNED = ('{"rendered": "-3t^-1 + 3", "terms": [[[-1], -3], [[0], 3]]}], '
          '[{"rendered": "3t^-1 - 3", "terms": [[[-1], 3], [[0], -3]]}')
LONG_RUN = {"geometry": {"name": "sphere_torus_link", "n": 2},
            "barbells": [{"cuff1": "S_h", "cuff2": "S_h", "holonomy": "x1^5000", "offset": "x2 x1^-3", "iterate": 3},
                         {"cuff1": "S_v", "cuff2": "S_v", "holonomy": "x2^-2 x1^5000"}]}
BIG = str(10**12)

ACCEPTED = (
    theorem(0, "list", says="torus_complement"),
    theorem(0, "theorem", "morsesimple-s3", "--k", "2", "--l", "3"),
    theorem(0, "theorem", "unknots", "--k", "40", "--l", "7", "--format", "machine", says=PASSED),
    theorem(0, "theorem", "simple-5d", "--k", "3", says=SIGNED),
    theorem(0, "theorem", "simple-5d", "--k", "3", "--format", "machine", says=SIGNED),
    theorem(0, "theorem", "higher-dim-knots", "--k", BIG, "--l", "3"),
    theorem(0, "theorem", "genus1-hd", "--k", "100", "--l", "100", "--format", "machine", says=PASSED),
    theorem(0, "theorem", "genus1-hd", "--k", BIG, "--l", BIG),
    library(0, "all((r := run_theorem('genus1-hd', k=200, l=200, h={}, b=b)).passed and r.computed['branch']"
               ".startswith('degenerate') and r.computed['dim_engine'] == dim"  # no h or v: dim = span b
               " for b, dim in (({'3': 1}, 0), ({'0': 1, '3': 1}, 3), ({}, None)))"),
    theorem(0, "theorem", "linked-6crit", "--n", "2", "--k", "1", "--l", "1"),
    theorem(0, "theorem", "linked-6crit", "--n", "7", "--k", "1", "--l", "2", "--format", "machine", says=PASSED),
    library(0, "all(run_theorem('linked-6crit', n=n, k=1, l=1).passed for n in range(2, 14))"),
    library(0, "all(run_theorem('genus1-handlebody', m=m, k=1, l=2).passed for m in range(205, 2205))"
               " and all(run_theorem('simple-knotted-handlebody', k=2, g=g).passed for g in range(2, 201))"),
    # the smallest cover order each key admits
    library(0, "all(run_theorem(key, m=2 * k + 2 * l + 101, k=k, l=l).passed for key in ('less-simple',"
               " 'simple-splitting-spheres', 'genus1-handlebody') for k in range(1, 31) for l in range(31))"),
    # a group and its identity element form a cycle, which the collector breaks
    library(0, "all(run_theorem('less-simple', m=m, k=3, l=5).passed for m in range(1000, 21000)) and gc.collect() >= 0"
               " and sum(kind == deckgroup.CYCLIC for kind, _ in list(deckgroup._GROUPS)) < 100"),
    scenario(0, LONG_RUN),
    scenario(0, WIDE_SCENARIO, says="\nPASS\n" + EDGE),
    scenario(0, WIDE_SCENARIO, "--format", "machine", says=PASSED),
    theorem(0, "theorem", "linked-6crit", "--n", "5", "--k", "2", "--l", "4", "--format", "machine",
            says=machine(run_theorem("linked-6crit", n=5, k=2, l=4))),
    *[scenario(0, doc, "--format", "machine", says=machine(run_scenario(doc)))
      for doc in (WIDE_SCENARIO, ESCAPED_SCENARIO)],
    scenario(0, {**json.loads(SCENARIO_TEXT), "geometry": GEOMETRY_BUILDERS["torus_complement"]()}),
    theorem(0, "theorem", "genus1-handlebody", "--m", BIG, "--k", "1", "--l", "2"),
    theorem(0, "theorem", "less-simple", "--m", "1000", "--k", "3", "--l", "5"),
    theorem(0, "theorem", "simple-splitting-spheres", "--m", "1000", "--k", "3", "--format", "machine", says=PASSED),
    theorem(0, "theorem", "less-simple", "--m", BIG, "--k", "100000", "--l", "99999"),
    theorem(0, "theorem", "less-simple", "--m", BIG, "--k", "7", "--l", "7", "--format", "machine", says=PASSED),
    theorem(0, "theorem", "genus1-handlebody", "--m", "205", "--k", "2", "--l", "2",
            says='expected witnesses: {"mu_dot_D": 1, "x_dot_D": 0, "x_dot_rho_k_D": 0}'),
    theorem(0, "theorem", "circle-splittingspheres", "--k", "2"),
    theorem(0, "theorem", "simple-splitting", "--k", "3", "--l", "1", "--format", "machine", says=PASSED),
    theorem(0, "theorem", "simple-knotted-handlebody", "--k", "2"),
    theorem(0, "theorem", "disks-5dlinked", "--k", "2", "--l", "1"),
    theorem(0, "theorem", "morsesimple3mfd", "--p", "3", "--q", "5"),
    theorem(0, "theorem", "no-brunnian-2disk", "--n", "3"),
    theorem(0, "sweep", "brunnian", "--n", "4", "--max", "16"),
    theorem(0, "sweep", "brunnian", "--n", "7", "--max", "8"),
    theorem(0, "sweep", "brunnian", "--n", "2", "--max", "16", says="\n9180/9180 passed\n" + EDGE),
    theorem(0, "sweep", "brunnian", "--n", "4", "--max", "16", "--format", "machine", says=PASSED),
    theorem(0, "sweep", "morsesimple", "--m", "2"),
    theorem(0, "sweep", "higher-dim", "--max", "3", "--format", "machine", says=PASSED),
    theorem(0, "sweep", "montesinos", "--max", "182", says="9950/9950 passed"),
)

REFUSED = (
    theorem(0, "list", "--out", ".", says="Is a directory: '.'"),
    theorem(0, "theorem", "morsesimple-s3", "--bogus", "1", says="unrecognized arguments: '--bogus 1'"),
    theorem(0, says="a command is required"),
    scenario(0, {"geometry": {"name": "cyclic_cover", "m": 7},
                 "barbells": [{"cuff1": "S_prime", "cuff2": "S", "holonomy": "9" * 5000}]},
             says="field 'barbells[0].holonomy'"),
    scenario(0, {"geometry": {"group": {"kind": "free_abelian", "rank": 1},
                              "labels": {"S": "sphere", "T": "sphere", "D": "disk"},
                              "pairings": [["S", "T", [[[i], 1] for i in range(10**4)]], ["D", "S", [[[0], 1]]]],
                              "attaching": ["S"], "disks": ["D"]}, "barbells": [{"cuff1": "S", "cuff2": "T"}]},
             says="are not disjoint"),
)


@pytest.mark.parametrize("call", ACCEPTED)
def test_accepted_calls_exit_0_with_their_text(call: Call, tmp_path):
    code, out, err = run(call, KIB, SECONDS, tmp_path)
    assert (code, err) == (0, "") and call.says in f"{EDGE}{out}{EDGE}", (call.argv[-6:], out[-300:], err)


@pytest.mark.parametrize("call", REFUSED)
def test_refused_calls_keep_the_contract(call: Call, tmp_path):
    refused(call, *run(call, KIB, SECONDS, tmp_path), call.says)


def test_every_command_theorem_and_sweep_has_an_accepted_call():
    lines = [call.argv[len(CLI):] for call in ACCEPTED if list(call.argv[:len(CLI)]) == CLI]
    assert {line[0] for line in lines} == set(cli._COMMANDS)
    assert {line[1] for line in lines if line[0] == "theorem"} == set(THEOREMS)
    assert {line[1] for line in lines if line[0] == "sweep"} == set(SWEEPS)
