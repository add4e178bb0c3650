import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import barbellcalc
from barbellcalc.deckgroup import GroupError, _echo
from barbellcalc.report import HypothesisError, render_machine
from barbellcalc.scenarios import GEOMETRY_BUILDERS, SWEEPS, THEOREMS, Sweep, parameters

CLI = [sys.executable, "-m", "barbellcalc.cli"]
# the child interpreter imports the same package as the tests
_SRC = os.path.dirname(os.path.dirname(barbellcalc.__file__))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args, timeout=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=ENV, timeout=timeout)


COLD_START_EXCLUDED = {"argparse", "gettext", "locale", "dataclasses", "inspect", "typing"}


def test_cold_start_leaves_out_dataclasses_inspect_and_typing():
    # without site (-S), nothing but the package and its command table can
    # have imported them; dataclasses alone, with inspect, cost about 8 ms
    # at every start, and argparse (with gettext and locale) and building
    # its parser about 7 ms
    probe = ("import sys, barbellcalc.cli as cli; cli.build_parser(); "
             f"print(sorted({COLD_START_EXCLUDED!r} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_parameters_read_from_code_match_the_signature():
    import inspect

    entries = [*THEOREMS.values(), *GEOMETRY_BUILDERS.values(), *(sweep.grid for sweep in SWEEPS.values())]
    for entry in entries:
        for keyed in (False, True):
            params = list(inspect.signature(entry).parameters.values())[keyed:]
            names = tuple(p.name for p in params)
            required = tuple(p.name for p in params if p.default is p.empty)
            defaults = {p.name: p.default for p in params if p.default is not p.empty}
            assert parameters(entry, keyed) == (names, required, defaults), entry.__name__


def test_theorem_pass_exit_zero():
    result = run_cli("theorem", "morsesimple-s3", "--k", "2", "--l", "3")
    assert result.returncode == 0
    assert "dim: 12" in result.stdout
    assert result.stdout.strip().endswith("PASS")


def test_theorem_invalid_hypothesis_exit_two():
    result = run_cli("theorem", "morsesimple-s3", "--k", "0", "--l", "1")
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_unknown_flag_exit_two():
    result = run_cli("theorem", "morsesimple-s3", "--bogus", "1")
    assert result.returncode == 2


def test_polynomial_rendering_in_table_output():
    result = run_cli("theorem", "morsesimple-s3", "--k", "1", "--l", "1")
    assert "t^-3 + t^-1 + 1 + t + t^3" in result.stdout


def test_output_is_byte_deterministic():
    first = run_cli("theorem", "linked-6crit", "--n", "3", "--k", "1", "--l", "2", "--format", "machine")
    second = run_cli("theorem", "linked-6crit", "--n", "3", "--k", "1", "--l", "2", "--format", "machine")
    assert first.stdout == second.stdout and first.returncode == 0


def test_machine_format_round_trips():
    result = run_cli("theorem", "simple-5d", "--k", "2", "--format", "machine")
    record = json.loads(result.stdout)
    rerun = run_cli("theorem", record["theorem"], "--k", str(record["params"]["k"]), "--format", "machine")
    assert rerun.stdout == result.stdout


def test_brunnian_sweep_all_distinguished():
    result = run_cli("sweep", "brunnian", "--n", "3", "--max", "4")
    assert result.returncode == 0
    lines = [line for line in result.stdout.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert lines and all(line.startswith("PASS") for line in lines)


def brunnian_oracle_reports(n, top):
    """The brunnian sweep's jobs rebuilt one at a time: every two distinct
    unordered winding pairs, the linked-6crit report of the first, and
    the verdict of distinguish_brunnian_modules on both."""
    from barbellcalc.report import Report
    from barbellcalc.scenarios import run_theorem
    from oracles import distinguish_brunnian_modules

    pairs = [(k, l) for k in range(1, top + 1) for l in range(k, top + 1)]
    runs = {pair: run_theorem("linked-6crit", n=n, k=pair[0], l=pair[1]) for pair in pairs}
    reports = []
    for i, (k, l) in enumerate(pairs):
        for kp, lp in pairs[i + 1 :]:
            base = runs[k, l]
            verdict = distinguish_brunnian_modules(k, l, kp, lp, n)
            reports.append(Report(
                name="linked-6crit",
                params={"n": n, "k": k, "l": l, "kp": kp, "lp": lp},
                computed={**base.computed, "distinguished": verdict},
                expected=base.expected,
                passed=base.passed and verdict == ({k, l} != {kp, lp}),
                notes=base.notes,
            ))
    return reports


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("top", [2, 3, 4, 5])
def test_brunnian_sweep_verdicts_match_the_pairwise_oracle(n, top, capsys):
    from barbellcalc import cli

    assert cli.main(["sweep", "brunnian", "--n", str(n), "--max", str(top), "--format", "machine"]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    oracle = brunnian_oracle_reports(n, top)
    assert summary == f"{len(oracle)}/{len(oracle)} passed"
    assert [json.loads(line) for line in lines] == [report.to_machine() for report in oracle]
    assert all(record["computed"]["distinguished"] for record in map(json.loads, lines))


@pytest.mark.parametrize("fmt", ["table", "machine"])
def test_brunnian_sweep_output_is_the_oracle_byte_for_byte(fmt):
    from barbellcalc.report import render_machine

    result = run_cli("sweep", "brunnian", "--n", "3", "--max", "4", "--format", fmt)
    lines = []
    for report in brunnian_oracle_reports(3, 4):
        if fmt == "machine":
            lines.append(render_machine(report))
        else:
            summary = ", ".join(f"{key}={report.params[key]}" for key in sorted(report.params))
            lines.append(f"{'PASS' if report.passed else 'FAIL'} linked-6crit {summary}")
    assert result.returncode == 0
    assert result.stdout == "\n".join(lines + ["45/45 passed"]) + "\n"


def test_linked_6crit_decides_one_winding_pair():
    from barbellcalc.scenarios import HypothesisError, run_theorem

    report = run_theorem("linked-6crit", n=3, k=1, l=2)
    assert report.params == {"n": 3, "k": 1, "l": 2} and "distinguished" not in report.computed
    with pytest.raises(HypothesisError, match="theorem linked-6crit takes n, k, l; unexpected 'kp, lp'"):
        run_theorem("linked-6crit", n=3, k=1, l=2, kp=1, lp=3)


@pytest.mark.parametrize("fmt", ["table", "machine"])
@pytest.mark.parametrize("name", ["morsesimple", "higher-dim"])
def test_torus_sweeps_print_the_per_instance_reports_byte_for_byte(name, fmt, capsys):
    # a torus sweep pushes one generic presentation forward; the expected
    # reports run the engine on each job's own geometry (engine_f)
    from barbellcalc import cli
    from barbellcalc.presentations import f2_quotient_dim
    from barbellcalc.report import Report, render_line, render_machine
    from barbellcalc.scenarios import morsesimple_f

    from test_scenarios import engine_f

    def per_instance(k, l):
        f, expected_f = engine_f(k, l), morsesimple_f(k, l)
        dim, expected_dim = f2_quotient_dim([[f]]), 2 * k + 2 * l + 2
        return Report({"f": f, "dim": dim}, {"f": expected_f, "dim": expected_dim},
                      passed=f == expected_f and dim == expected_dim, name=sweep.theorem, params={"k": k, "l": l})

    render = render_machine if fmt == "machine" else render_line
    sweep = SWEEPS[name]
    for top in range(1, 11):
        assert cli.main(["sweep", name, "--max", str(top), "--format", fmt]) == 0
        lines = [render(per_instance(job["k"], job["l"])) for job in sweep.grid(top)]
        assert capsys.readouterr().out == "\n".join(lines + [f"{top * top}/{top * top} passed"]) + "\n", top


def test_sweep_runs_jobs_in_grid_order():
    first = run_cli("sweep", "morsesimple", "--max", "3")
    second = run_cli("sweep", "morsesimple", "--max", "3")
    assert first.returncode == 0 and first.stdout == second.stdout
    expected = [f"PASS morsesimple-s3 k={k}, l={l}" for k in (1, 2, 3) for l in (1, 2, 3)]
    assert first.stdout.splitlines() == expected + ["9/9 passed"]


@pytest.mark.parametrize("top", ["0", "-3"])
def test_sweep_rejects_max_below_one(top):
    result = run_cli("sweep", "morsesimple", "--max", top)
    assert result.returncode == 2
    assert result.stdout == "" and "error:" in result.stderr


@pytest.mark.parametrize("name", ["less-simple", "simple-splitting-spheres", "genus1-handlebody"])
def test_cover_runners_reject_negative_second_winding(name):
    # l < 0 would shrink the bound m > 2k + 2l + 100 below what the argument needs
    result = run_cli("theorem", name, "--m", "3", "--k", "1", "--l", "-50")
    assert result.returncode == 2
    assert result.stdout == "" and "error:" in result.stderr


def test_theorem_rejects_a_flag_it_does_not_take():
    result = run_cli("theorem", "morsesimple-s3", "--k", "1", "--l", "1", "--m", "5")
    assert result.returncode == 2 and result.stdout == ""
    assert "theorem morsesimple-s3 takes k, l; unexpected 'm'" in result.stderr
    assert "_run" not in result.stderr and "Traceback" not in result.stderr


def test_theorem_names_its_missing_flags():
    result = run_cli("theorem", "morsesimple-s3")
    assert result.returncode == 2 and result.stdout == ""
    assert "theorem morsesimple-s3 takes k, l; missing k, l" in result.stderr
    assert "positional" not in result.stderr


def test_sweep_rejects_n_outside_brunnian():
    # --n is a parameter of the brunnian grid alone
    result = run_cli("sweep", "morsesimple", "--max", "2", "--n", "9")
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: sweep morsesimple takes no parameters; unexpected 'n'\n"


def test_branched_cover_order_costs_nothing():
    # the meridian row is read by augmentation, so no cost grows with m
    result = run_cli("theorem", "genus1-handlebody", "--m", "1000000000000", "--k", "3", "--l", "5", timeout=30)
    assert result.returncode == 0 and result.stdout.strip().endswith("PASS")


def test_meridian_is_not_an_attaching_sphere(tmp_path):
    # its row is the norm element, which is never expanded into a matrix
    # entry; the role check refuses it where the geometry is built
    from barbellcalc import GeometryError, run_scenario

    scenario = {"geometry": {"name": "branched_cover", "m": 5}, "attaching": ["mu"], "disks": ["D"]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    result = run_cli("scenario", str(path))
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: attaching label 'mu' is a meridian, not a sphere\n"
    with pytest.raises(GeometryError, match="^attaching label 'mu' is a meridian, not a sphere$"):
        run_scenario(scenario)


def test_brunnian_sweep_is_refused_before_its_jobs_are_built():
    # --max 100 is 12.7 million jobs; the grid used to be listed in full first
    result = run_cli("sweep", "brunnian", "--max", "100", timeout=30)
    assert result.returncode == 2 and result.stdout == ""
    assert "sweep brunnian --max 100 has more than 10000 jobs" in result.stderr


# bench/digests.json pins the stdout sha256 of the benchmark's CLI calls,
# keyed by their argument list; it pins this sweep in machine format.
DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"
SMALL_SWEEP = ["sweep", "brunnian", "--n", "3", "--max", "4"]


def pinned_digest(argv):
    key = hashlib.sha256(json.dumps({"argv": argv, "scenario": None}, sort_keys=True).encode()).hexdigest()[:32]
    return json.loads(DIGESTS.read_text())[key]


def streamed_sweep(monkeypatch, argv):
    """Run a brunnian sweep in process with its reports handed over one
    at a time; return its stdout, and for each report the number of
    lines written before that report was built."""
    import io

    from barbellcalc import cli

    sweep = SWEEPS["brunnian"]
    build = sweep.reports
    out = io.StringIO()
    written = []

    def reports(name, grid):
        for report in build(name, grid):
            written.append(out.getvalue().count("\n"))
            yield report

    monkeypatch.setitem(SWEEPS, "brunnian", Sweep(sweep.theorem, sweep.default_max, sweep.grid, reports))
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(argv) == 0
    return out.getvalue(), written


def test_a_sweep_writes_each_line_before_the_next_report_is_built(monkeypatch):
    machine, written = streamed_sweep(monkeypatch, SMALL_SWEEP + ["--format", "machine"])
    # report i is built after lines 0 .. i-1 are out, the last one included
    assert written == list(range(45))
    assert hashlib.sha256(machine.encode()).hexdigest() == pinned_digest(SMALL_SWEEP + ["--format", "machine"])
    # the table form is pinned through the machine records it summarizes
    records = [json.loads(line) for line in machine.splitlines()[:-1]]
    expected = [
        f"{'PASS' if r['passed'] else 'FAIL'} {r['theorem']} "
        + ", ".join(f"{key}={r['params'][key]}" for key in sorted(r["params"]))
        for r in records
    ]
    table, written = streamed_sweep(monkeypatch, SMALL_SWEEP)
    assert written == list(range(45))
    assert table == "\n".join(expected + ["45/45 passed"]) + "\n"


# No benchmark workload builds a word with a run (a letter repeating its
# neighbour, as in x1^2), so these calls pin such words' sorting and
# rendering: stdout sha256 per format.  The first three were recorded
# before group-ring terms were keyed by canonical values, the last two
# before a ring element's or class's words were sorted and rendered
# together; every word of an n = 2 relator is a run of x1 or has one.
RUNS_SCENARIO = {
    "geometry": {"name": "sphere_torus_link", "n": 2},
    "barbells": [
        {"cuff1": "S_h", "cuff2": "S_h", "holonomy": "x1^50 x2^-70 x1^30", "offset": "x2^2 x1^-3", "iterate": 3},
        {"cuff1": "S_v", "cuff2": "S_v", "holonomy": "x1^3 x2^-1 x1"},
    ],
}
LONG_RUN_SCENARIO = {
    "geometry": {"name": "sphere_torus_link", "n": 2},
    "barbells": [
        {"cuff1": "S_h", "cuff2": "S_h", "holonomy": "x1^5000", "offset": "x2 x1^-3", "iterate": 3},
        {"cuff1": "S_v", "cuff2": "S_v", "holonomy": "x2^-2 x1^5000"},
    ],
}
RUNS_DIGESTS = [  # (argv, table digest, machine digest); a scenario's file holds the document argv names
    (["theorem", "linked-6crit", "--n", "2", "--k", "10", "--l", "12"],
        "33bf95226ccacba1da20e063ea0780e5c00e08305650d3602ed3a8b494979ab7",
        "ab3f9536792c13b5c79d7487eca1c65d1be40e93f24308b10ef1cf8e6f35debe"),
    (["sweep", "brunnian", "--n", "2", "--max", "4"],
        "777286b10b4ec97e0f5566a898bfd11c174bb2d01c4b585052c853f889d76b6b",
        "1850081c479e939fc882b4f8adb70648c9ad290fc6b8c894fc547fde2509b0ac"),
    (["scenario", RUNS_SCENARIO],
        "730d81332d6270e8041ad0cc28c282f11e137fe9100f10c16b78ce30452b5d31",
        "ae82f424c2ac78d0886de5380d8ba6ae262d9ace711d9c1c9f48311cccbfad02"),
    (["theorem", "linked-6crit", "--n", "2", "--k", "10000", "--l", "9000"],
        "c8b3337fbc1782d271cd85f8ca5d47250824c6343a0a03b1de26ed4b3032d4be",
        "3bfa2196b9ad2df2a0af5559d30b217fa6a0e4d89e085994585b6d298f5f9294"),
    (["scenario", LONG_RUN_SCENARIO],
        "95fc334b34c656b0d0f0308b4e3dd8fc36d27e4188f2c030b3a9a3b22504ca4c",
        "7d5f31ec3c4c6b5f08e475575447f53238fbe8a7694f110fd3aea176c7e7fff9"),
]


@pytest.mark.parametrize("argv,table,machine", RUNS_DIGESTS,
                         ids=["linked-6crit", "brunnian", "scenario", "long-linked-6crit", "long-run-scenario"])
def test_words_with_runs_print_their_pinned_bytes(argv, table, machine, tmp_path, capsys):
    from barbellcalc import cli

    if argv[0] == "scenario":
        path = tmp_path / "runs.json"
        path.write_text(json.dumps(argv[1]))
        argv = ["scenario", str(path)]
    for fmt, digest in (("table", table), ("machine", machine)):
        assert cli.main([*argv, "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, fmt


def test_a_refused_sweep_writes_nothing(monkeypatch, capsys, tmp_path):
    # n = 10 words have 766 letters: the letter cap refuses winding number
    # 14, which the grid reaches on its 13th job; no report is built
    from barbellcalc import cli, scenarios

    built = []
    monkeypatch.setattr(scenarios, "_run_linked_6crit", lambda *args: built.append(args))
    target = tmp_path / "out.txt"
    target.write_text("kept\n")
    argv = ["sweep", "brunnian", "--n", "10", "--max", "16"]
    for extra in ([], ["--format", "machine"], ["--out", str(target)]):
        assert cli.main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "got n=10 and winding number 14" in captured.err
    assert built == [] and target.read_text() == "kept\n"


def test_running_out_of_memory_is_one_error_line_and_exit_2(monkeypatch, capsys):
    # the last resort for an input no bound refuses first: no traceback
    from barbellcalc import cli, scenarios

    def exhausted(k: "int", l: "int"):
        raise MemoryError

    monkeypatch.setitem(scenarios.THEOREMS, "morsesimple-s3", exhausted)
    for argv in (["theorem", "morsesimple-s3", "--k", "2", "--l", "3"],
                 ["theorem", "morsesimple-s3", "--k", "2", "--l", "3", "--format", "machine"],
                 ["sweep", "morsesimple", "--max", "3"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: the input needs more memory than this process may use\n"


def test_sweep_job_cap_boundary():
    # montesinos --max 182 has 9,950 coprime (p, q) jobs, --max 183 has
    # 10,069: the cap counts jobs, not (p, q) candidates
    result = run_cli("sweep", "montesinos", "--max", "182", timeout=30)
    assert result.returncode == 0 and result.stdout.endswith("\n9950/9950 passed\n")
    result = run_cli("sweep", "montesinos", "--max", "183", timeout=30)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: sweep montesinos --max 183 has more than 10000 jobs\n"


def test_sweep_job_cap_admits_a_grid_of_exactly_the_cap(monkeypatch, capsys):
    from barbellcalc import cli, scenarios

    monkeypatch.setattr(scenarios, "MAX_SWEEP_JOBS", 9)
    assert cli.main(["sweep", "morsesimple", "--max", "3"]) == 0
    assert capsys.readouterr().out.endswith("9/9 passed\n")
    assert cli.main(["sweep", "morsesimple", "--max", "4"]) == 2
    assert "sweep morsesimple --max 4 has more than 9 jobs" in capsys.readouterr().err


def test_a_brunnian_job_checks_both_of_its_winding_pairs(monkeypatch, capsys):
    # a relator wrong at (3, 3) alone: that pair only ever comes second in
    # a job, and its report used to be built but never counted (15/15 passed)
    from barbellcalc import cli, scenarios

    # the expected relator is the generic relator pushed along x1, x2,
    # x3 -> w^k, w^l, x_n: send x1 and x2 to w, not w^3, at (3, 3)
    push, w = scenarios.push, scenarios.brunnian_word(3)

    def wrong_at_3_3(elem, phi):
        if phi.images[:2] == (w.pow(3).value,) * 2:
            phi = scenarios.GroupMap(phi.source, phi.target, [w, w, phi.target.generator(3)])
        return push(elem, phi)

    monkeypatch.setattr(scenarios, "push", wrong_at_3_3)
    assert cli.main(["theorem", "linked-6crit", "--n", "3", "--k", "3", "--l", "3"]) == 1
    capsys.readouterr()
    assert cli.main(["sweep", "brunnian", "--n", "3", "--max", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 5 and all("kp=3, " in line and "lp=3, " in line for line in failed)
    assert lines[-1] == "10/15 passed"


def sweep_argv(name, top, params):
    """The CLI call of run_sweep(name, top, **params)."""
    argv = ["sweep", name] + ([] if top is None else ["--max", str(top)])
    return argv + [token for key, value in params.items() for token in (f"--{key}", str(value))]


def cli_refusal(argv, capsys) -> str:
    """The stderr of a CLI call that must exit 2 with one error: line."""
    from barbellcalc import cli

    capsys.readouterr()
    assert cli.main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "" and one_error_line(captured.err), argv
    return captured.err


@pytest.mark.parametrize(
    "name,top,params,message",
    [
        ("brunnian", 100, {}, "sweep brunnian --max 100 has more than 10000 jobs"),
        ("morsesimple", 2, {"n": 9}, "sweep morsesimple takes no parameters; unexpected 'n'"),
        ("montesinos", 2, {}, "sweep montesinos --max 2 has no jobs"),
        ("nope", None, {}, "unknown sweep 'nope'; choose from morsesimple, higher-dim, brunnian, montesinos"),
        # a grid is drawn, not listed: any size costs at most 10,001 jobs
        *[(name, 10**18, {}, f"sweep {name} --max {10**18} has more than 10000 jobs") for name in SWEEPS],
    ],
)
def test_run_sweep_refuses_before_it_returns(name, top, params, message, capsys):
    # the library call raises, before any report is built and within a
    # second, the text the CLI prints
    from barbellcalc.scenarios import HypothesisError, run_sweep

    start = time.perf_counter()
    with pytest.raises(HypothesisError) as info:
        run_sweep(name, top, **params)
    assert time.perf_counter() - start < 1
    assert str(info.value) == message
    assert cli_refusal(sweep_argv(name, top, params), capsys) == f"error: {message}\n"


def test_scenario_genus_is_bounded(tmp_path):
    # g = 10**6 took 7.9 s and 539 MB before the bound
    barbell = {"cuff1": "S_h_1", "cuff2": "S_h_2"}
    path = write_scenario(tmp_path, [barbell], geometry={"name": "genus_g_complement", "g": 1000000})
    result = run_cli("scenario", path, timeout=30)
    assert result.returncode == 2 and result.stdout == ""
    assert "genus_g_complement needs g <= 10000, got 1000000" in result.stderr


def test_scenario_free_abelian_rank_is_bounded(tmp_path):
    # the identity of Z^r is an r-tuple: r = 10**9 would take gigabytes
    geometry = {
        "name": "wide",
        "group": {"kind": "free_abelian", "rank": 1000000000},
        "labels": {"S_h": "sphere", "S_v": "sphere", "D_v": "disk"},
    }
    result = run_cli("scenario", write_scenario(tmp_path, [{"cuff1": "S_h", "cuff2": "S_h"}], geometry), timeout=30)
    assert result.returncode == 2 and result.stdout == ""
    assert "free abelian rank must be <= 10000, got 1000000000" in result.stderr


def test_closed_stdout_is_not_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes anything
    try:
        result = subprocess.run(CLI + ["list"], stdout=write_end, stderr=subprocess.PIPE, text=True, env=ENV)
    finally:
        os.close(write_end)
    assert result.returncode in (0, 1, 2)
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


def test_scenario_file_execution(tmp_path):
    payload = {
        "geometry": "torus_complement",
        "barbells": [
            {"cuff1": "S_h", "cuff2": "S_h", "holonomy": [1]},
            {"cuff1": "S_v", "cuff2": "S_v", "holonomy": [1]},
        ],
        "expected": {"dim": 6},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    result = run_cli("scenario", str(path))
    assert result.returncode == 0 and "PASS" in result.stdout
    payload["expected"] = {"dim": 7}
    path.write_text(json.dumps(payload))
    assert run_cli("scenario", str(path)).returncode == 1


def test_scenario_missing_file_exit_two(tmp_path):
    assert run_cli("scenario", str(tmp_path / "nope.json")).returncode == 2


@pytest.mark.parametrize("fmt", ["table", "machine"])
def test_scenarios_nested_near_the_recursion_limit_exit_cleanly(fmt, tmp_path, capsys):
    # an unchecked field nested just shallower than json.load's limit
    # used to pass the load and end in a RecursionError traceback when
    # json.dumps rendered it back
    from barbellcalc import cli

    path = tmp_path / "nested.json"
    limit = sys.getrecursionlimit()
    for depth in range(limit - 80, limit + 5, 3):
        doc = {"geometry": "torus_complement", "attaching": ["S_v"], "disks": ["D_v"]}
        path.write_text(json.dumps(doc)[:-1] + ', "zz": ' + "[" * depth + "]" * depth + "}")
        code = cli.main(["scenario", str(path), "--format", fmt])
        captured = capsys.readouterr()
        assert code in (0, 2), depth
        assert one_error_line(captured.err) if code == 2 else captured.err == "", depth


def test_scenario_malformed_payload_exit_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"geometry": "torus_complement", "barbells": [{"cuff2": "S_h"}]}')
    result = run_cli("scenario", str(path))
    assert result.returncode == 2
    path.write_text("not json at all")
    assert run_cli("scenario", str(path)).returncode == 2


SCENARIO_TEXT = (Path(__file__).resolve().parents[1] / "scenarios" / "torus_k2_l3.json").read_text()


def _inline(fields):
    return '{"geometry": {"name": "x", ' + fields + '}, "barbells": []}'


@pytest.mark.parametrize(
    "text,field",
    [
        ('{"geometry": "torus_complement", "barbells": [{"cuff1": "S_h", "cuff2": "S_h", "signs": [1]}]}',
         "field 'signs'"),
        ('[{"geometry": "torus_complement"}]', "JSON object"),
        ('{"geometry": "torus_complement", "barbells": [{"cuff1": "S_h", "cuff2": "S_h", "holonomy": [1e400]}]}',
         "field 'holonomy'"),
        ('{"geometry": {"name": "genus_g_complement", "g": "3"}, "barbells": []}',
         "geometry genus_g_complement parameter g must be int, got '3'"),
        ('{"geometry": "torus_complement", "barbells": [], "expected": {"matrix": [[5]]}}', "field 'matrix'"),
        ('{"geometry": "torus_complement", "barbells": [{"cuff1": "S_h"}]}', "field 'cuff2'"),
        (_inline('"group": {"kind": "free", "rank": 2}, "labels": ["S_h"]'), "field 'labels'"),
        (_inline('"labels": {"S_h": "sphere"}'), "field 'group'"),
        (_inline('"group": {"kind": "free"}, "labels": {"S_h": "sphere"}'), "field 'rank'"),
        (_inline('"group": {"kind": "free", "rank": "2"}, "labels": {"S_h": "sphere"}'), "field 'rank'"),
        (_inline('"group": {"kind": "cyclic", "modulus": 5}, "labels": {"mu": "meridian"}'), "field 'labels'"),
        (_inline('"group": {"kind": "free", "rank": 2}, "labels": {"S_h": "sphere"}, "pairings": [["S_h"]]'),
         "field 'pairings'"),
        (_inline('"group": {"kind": "free", "rank": 2}, "labels": {"S_h": "sphere", "D": "disk"}, '
                 '"pairings": [["D", "S_h", 5]]'), "field 'pairings'"),
        ('{"geometry": "torus_complement", "barbells": [], "expected": {"dim": "0"}}', "field 'dim'"),
        ('{"geometry": "torus_complement", "barbells": [], "expected": {"dim": 2.0e45}}', "field 'dim'"),
        ('{"geometry": "torus_complement", "barbells": [], "expected": {"dim": true}}', "field 'dim'"),
        ('{"geometry": "torus_complement", "barbells": [{"cuff1": "S_h", "cuff2": "S_h", "holonomy": [1, 2]}]}',
         "field 'barbells[0].holonomy': exponent vector [1, 2] has length 2; Z^1 has rank 1"),
        ('{"geometry": "torus_complement", "barbells": [{"cuff1": "S_h", "cuff2": "S_h"}, '
         '{"cuff1": "S_v", "cuff2": "S_v", "offset": [1, 0, 3]}]}',
         "field 'barbells[1].offset': exponent vector [1, 0, 3] has length 3; Z^1 has rank 1"),
        ('{"geometry": "torus_complement", "barbells": [], "expected": {"matrix": [[[[[1, 2], 1]]]]}}',
         "field 'expected.matrix[0][0]': exponent vector [1, 2] has length 2; Z^1 has rank 1"),
        (_inline('"group": {"kind": "free_abelian", "rank": 2}, "labels": {"S_h": "sphere", "D": "disk"}, '
                 '"pairings": [["D", "S_h", [[[1], 1]]]]'),
         "field 'geometry.pairings[0]': exponent vector [1] has length 1; Z^2 has rank 2"),
        ('{"geometry": {"name": "cyclic_cover"}, "barbells": []}', "geometry cyclic_cover takes m; missing m"),
        ('{"geometry": "cyclic_cover", "barbells": []}', "geometry cyclic_cover takes m; missing m"),
        ('{"geometry": {"name": "torus_complement", "m": 3}, "barbells": []}',
         "geometry torus_complement takes no parameters; unexpected 'm'"),
        # json.load used to end in a RecursionError traceback (exit 1)
        ("[" * 200_000 + "]" * 200_000, "is nested too deeply"),
        # null roles of an inline geometry are none: list(None) raised a TypeError
        (_inline('"group": {"kind": "free", "rank": 1}, "labels": {"S": "sphere", "D": "disk"}, '
                 '"attaching": null, "disks": null'), "scenario needs attaching spheres and belt disks"),
        # a line break quoted from the input used to split the error: line in two
        *[(_inline(f'"group": {{"kind": "free", "rank": 1}}, "labels": {{"S": "sphere"}}, "attaching": ["{label}"]'),
           f"role label '{label}' is not declared") for label in ("x\\ny", "x\\ry", "x\\u2028y")],
        # a misspelt field used to be ignored, and its check with it (PASS, exit 0)
        (SCENARIO_TEXT.replace('"expected"', '"expectd"'),
         "scenario field 'expectd' is unknown; the fields are geometry, barbells, attaching, disks, expected, field"),
        (SCENARIO_TEXT.replace('"dim"', '"dimm"'), "expected field 'dimm' is unknown; the fields are matrix, dim"),
        (SCENARIO_TEXT.replace('"holonomy": [2]', '"holonomy": [2], "iterat": 5'), "barbell field 'iterat' is unknown"),
        (_inline('"group": {"kind": "free", "rank": 1}, "labels": {"S": "sphere"}, "pairing": []'),
         "inline geometry field 'pairing' is unknown"),
        (_inline('"group": {"kind": "free", "rank": 1, "modulo": 3}, "labels": {"S": "sphere"}'),
         "group field 'modulo' is unknown; the fields are kind, rank, modulus"),
        # an unhashable kind ended in a TypeError traceback
        (_inline('"group": {"kind": ["free"], "rank": 1}, "labels": {"S": "sphere"}'), "field 'group'"),
        # an expected dim where none is computed compared None with null (PASS, exit 0)
        (SCENARIO_TEXT.replace('"attaching": ["S_v"]', '"attaching": ["S_v", "S_h"]'),
         "expected field 'dim' needs a 1x1 presentation over F2[t, t^-1], got a 1x2 matrix over F2[Z^1]"),
        ('{"geometry": {"name": "cyclic_cover", "m": 7}, "attaching": ["S"], "disks": ["D"], '
         '"expected": {"dim": null}}',
         "expected field 'dim' needs a 1x1 presentation over F2[t, t^-1], got a 1x1 matrix over Z[Z/7]"),
        ('{"geometry": {"name": "sphere_torus_link", "n": 3}, "expected": {"dim": null}}',
         "expected field 'dim' needs a 1x1 presentation over F2[t, t^-1], got a 1x1 matrix over F2[F_3]"),
        # a role of the wrong kind, or listed twice, was paired like any other (PASS, exit 0)
        (SCENARIO_TEXT.replace('"disks": ["D_v"]', '"disks": ["S_h"]'), "belt disk label 'S_h' is a sphere, not a disk"),
        (SCENARIO_TEXT.replace('"attaching": ["S_v"]', '"attaching": ["D_h"]')
         .replace('"disks": ["D_v"]', '"disks": ["S_h"]'), "attaching label 'D_h' is a disk, not a sphere"),
        (SCENARIO_TEXT.replace('"attaching": ["S_v"]', '"attaching": ["S_v", "S_v"]')
         .replace('"disks": ["D_v"]', '"disks": ["D_v", "D_v"]'), "attaching label 'S_v' is listed twice"),
        (SCENARIO_TEXT.replace('"disks": ["D_v"]', '"disks": ["D_v", "D_v"]'), "belt disk label 'D_v' is listed twice"),
        (_inline('"group": {"kind": "free", "rank": 1}, "labels": {"S": "sphere", "D": "disk"}, '
                 '"attaching": ["D"], "disks": ["D"]'), "attaching label 'D' is a disk, not a sphere"),
        # an integer string past the interpreter's digit limit leaked its message, naming no field
        ('{"geometry": {"name": "sphere_torus_link", "n": 2}, '
         f'"barbells": [{{"cuff1": "S_h", "cuff2": "S_h", "holonomy": "x1^{"9" * 5000}"}}]}}',
         "field 'barbells[0].holonomy': cannot parse a letter of 5003 characters"),
        ('{"geometry": {"name": "sphere_torus_link", "n": 2}, '
         f'"barbells": [{{"cuff1": "S_h", "cuff2": "S_h", "offset": "x{"1" * 5000}"}}]}}',
         "field 'barbells[0].offset': cannot parse a letter of 5001 characters"),
        # a residue string past the digit limit was called no integer residue, echoed whole
        ('{"geometry": {"name": "cyclic_cover", "m": 7}, '
         f'"barbells": [{{"cuff1": "S_prime", "cuff2": "S", "holonomy": "{"9" * 5000}"}}]}}',
         "field 'barbells[0].holonomy': cannot parse a residue of 5000 characters: a number is too long"),
    ],
    ids=["short-signs", "top-level-list", "infinite-holonomy", "string-genus", "bare-matrix-entry", "missing-cuff2",
         "inline-label-list", "inline-missing-group", "inline-missing-rank", "inline-string-rank",
         "inline-meridian", "inline-short-pairing", "inline-bare-pairing-terms",
         "string-dim", "float-dim", "boolean-dim",
         "long-holonomy", "long-offset", "long-expected-term", "short-inline-pairing-term",
         "builtin-missing-parameter", "builtin-name-missing-parameter", "builtin-unexpected-parameter",
         "deep-nesting", "inline-null-roles", "newline-label", "return-label", "separator-label",
         "misspelt-expected", "misspelt-dim", "misspelt-iterate", "misspelt-pairings", "misspelt-modulus",
         "list-kind", "dim-on-1x2", "dim-over-z", "dim-over-free-group", "sphere-as-disk", "disk-as-sphere",
         "attaching-twice", "disk-twice", "inline-disk-as-attaching", "long-exponent", "long-generator",
         "long-residue"],
)
def test_ill_typed_scenarios_name_their_field(text, field, tmp_path, capsys):
    # each of these used to end in a traceback or a bare Python message, or was accepted
    from barbellcalc import cli

    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert cli.main(["scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and field in lines[0]


def test_inline_geometry_null_roles_leave_them_to_the_scenario(tmp_path, capsys):
    # an inline geometry's null attaching is no attaching sphere; the
    # scenario's own roles then decide (this ended in a TypeError traceback)
    from barbellcalc import cli

    path = tmp_path / "scenario.json"
    geometry = {"group": {"kind": "free", "rank": 1}, "labels": {"S": "sphere", "D": "disk"}, "attaching": None}
    path.write_text(json.dumps({"geometry": geometry, "attaching": ["S"], "disks": ["D"]}))
    assert cli.main(["scenario", str(path)]) == 0
    assert capsys.readouterr().err == ""


def one_error_line(err: str) -> bool:
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "geometry,matrix",
    [
        ("genus2_complement", [[[], [], []]]),  # 1 x 3 against the computed 2 x 2: was an IndexError traceback
        ("torus_complement", [[]]),  # 1 x 0 against 1 x 1: used to pass without checking anything
        ("torus_complement", []),
    ],
)
def test_expected_matrix_of_another_shape_fails(geometry, matrix, tmp_path, capsys):
    from barbellcalc import cli

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"geometry": geometry, "barbells": [], "expected": {"matrix": matrix}}))
    assert cli.main(["scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.strip().endswith("FAIL")


def test_paths_that_cannot_be_read_or_written_are_user_errors(tmp_path, capsys):
    # a directory where a file belongs used to end in an IsADirectoryError traceback
    from barbellcalc import cli

    assert cli.main(["list", "--out", str(tmp_path)]) == 2
    assert one_error_line(capsys.readouterr().err)
    assert cli.main(["scenario", str(tmp_path)]) == 2
    assert one_error_line(capsys.readouterr().err)


# One in-process sequence through the one command table: every call
# type, each error exit and --help, each followed by a valid theorem call.
REUSE_SEQUENCE = [
    ["theorem", "morsesimple-s3", "--k", "2", "--l", "3"],
    ["theorem", "higher-dim-knots", "--k", "2", "--l", "3", "--format", "machine"],
    ["sweep", "morsesimple", "--max", "2"],
    ["theorem", "morsesimple-s3", "--k", "1", "--l", "1", "--format", "machine"],
    ["sweep", "brunnian", "--n", "3", "--max", "2", "--format", "machine"],
    ["theorem", "simple-5d", "--k", "2"],
    ["scenario", "scenarios/torus_k2_l3.json"],
    ["theorem", "morsesimple-s3", "--k", "3", "--l", "2"],
    ["list"],
    ["theorem", "unknots", "--k", "2", "--format", "machine"],
    ["theorem", "morsesimple-s3", "--bogus", "1"],
    ["theorem", "morsesimple-s3", "--k", "2", "--l", "2"],
    ["theorem"],
    ["theorem", "higher-dim-knots", "--k", "1", "--l", "2"],
    ["theorem", "--help"],
    ["theorem", "morsesimple-s3", "--k", "2", "--l", "3", "--format", "machine"],
]


def test_reused_parser_matches_fresh_interpreters(monkeypatch, capsys):
    from barbellcalc import cli

    root = README.parent
    monkeypatch.chdir(root)
    for argv in REUSE_SEQUENCE:
        code = cli.main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(CLI + argv, capture_output=True, text=True, env=ENV, cwd=root)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    # the command table is built once, at import: every call parses with
    # that same table, and none constructs an argparse parser
    import argparse

    from barbellcalc import cli

    built, tables = [], []
    init = argparse.ArgumentParser.__init__
    build = cli.build_parser

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recording_build():
        tables.append(build())
        return tables[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli, "build_parser", recording_build)
    monkeypatch.chdir(README.parent)
    cli.main(["list"])
    first = len(built)
    assert first <= 5
    for argv in REUSE_SEQUENCE:
        cli.main(argv)
    capsys.readouterr()
    assert len(built) == first == 0
    assert len(tables) == 1 + len(REUSE_SEQUENCE)
    assert all(table is cli._COMMANDS for table in tables)


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem", "morsesimple-s3", "--k", "1", "--l", "1", "--field", "f2"],
        ["scenario", "--scenario", "scenarios/torus_k2_l3.json"],
        ["list", "--format", "machine"],
    ],
    ids=["theorem-field", "scenario-scenario", "list-format"],
)
def test_removed_options_are_refused(argv, capsys):
    from barbellcalc import cli

    assert cli.main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


# -- the command-line parser against argparse -----------------------------------

PARSE_COMMANDS = ["theorem", "sweep", "scenario", "list", "theo"]  # "theo": no command, nor a prefix of one
PARSE_POSITIONALS = ["morsesimple-s3", "brunnian", "scenarios/torus_k2_l3.json"]
# every option in full and as a unique prefix (in some command: --m is
# theorem's in full and sweep's --max by prefix); "--" before "=value"
# is the empty prefix, ambiguous among every option of a command
PARSE_OPTIONS = ["--k", "--l", "--n", "--m", "--p", "--q", "--max", "--format", "--out", "--ma", "--form", "--f", "--o"]
PARSE_VALUES = ["-1", "0", "7", str(10**12), "1_0", " 4", "9" * 5000, "x", "table", "machine"]
PARSE_BARE = ["--", "-h", "--help", "--he"]
PARSE_ATOMS = PARSE_COMMANDS + PARSE_POSITIONALS + PARSE_OPTIONS + PARSE_VALUES + PARSE_BARE
PARSE_EQUALS = st.builds(
    "{}={}".format, st.sampled_from([*PARSE_OPTIONS, "--", "--help", "--he"]), st.sampled_from(PARSE_VALUES)
)
_PARSE_PIECE = st.one_of(
    st.tuples(st.sampled_from(PARSE_POSITIONALS)),
    st.tuples(st.sampled_from(PARSE_OPTIONS), st.sampled_from(PARSE_VALUES)),
    st.tuples(PARSE_EQUALS),
    st.tuples(st.sampled_from(PARSE_ATOMS)),
)
# mostly a command and pieces after it, sometimes anything in any order
COMMAND_LINES = st.one_of(
    st.builds(
        lambda head, command, pieces: [*head, command, *(token for piece in pieces for token in piece)],
        st.lists(st.sampled_from(PARSE_OPTIONS + PARSE_BARE), max_size=1),
        st.sampled_from(PARSE_COMMANDS),
        st.lists(_PARSE_PIECE, max_size=6),
    ),
    st.lists(st.sampled_from(PARSE_ATOMS), max_size=5),
)


def table_parse(argv):
    """cli._parse's reading: "refused", "help", or the command and its arguments."""
    from barbellcalc import cli

    try:
        command, args = cli._parse(cli.build_parser(), argv)
    except ValueError:
        return "refused"
    return "help" if args is None else {"command": command, **vars(args)}


def argparse_parse(argv):
    """The same reading by the argparse parser the CLI used before."""
    import contextlib
    import io

    from oracles import build_parser

    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return "refused" if exc.code else "help"


@settings(max_examples=600, deadline=None)
@given(argv=COMMAND_LINES)
def test_table_parser_reads_a_line_as_argparse_did(argv):
    # argparse reworked its reading of a bare "--" within the 3.12 and 3.13
    # maintenance series, so a line with one has no single reading to match
    assume("--" not in argv)
    assert table_parse(argv) == argparse_parse(argv), argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=COMMAND_LINES)
def test_a_refused_command_line_is_one_error_line(argv, capsys):
    from barbellcalc import cli

    assume(table_parse(argv) == "refused")
    capsys.readouterr()
    assert cli.main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "" and one_error_line(captured.err) and "Traceback" not in captured.err, argv


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, "theorem", "sweep", "scenario", "list"])
def test_help_names_every_option_of_the_table(command, flag, capsys):
    from barbellcalc import cli

    table = cli.build_parser()
    assert cli.main([command, flag] if command else [flag]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: barbellcalc ")
    names = [f"--{name} " for name in table[command][1]] if command else list(table)
    assert names and all(name in captured.out for name in names), captured.out


@pytest.mark.parametrize(
    "argv,reading",
    [
        # a bare "--" makes every later token a value; as argparse 3.10 to
        # 3.13.0 read it, it is dropped only beside the positional
        (["theorem", "--k", "1", "--", "--l"], {"name": "--l", "k": 1}),
        (["theorem", "x", "--"], {"name": "x"}),
        (["theorem", "--", "-h"], {"name": "-h"}),
        (["theorem", "x", "--k", "1", "--"], "refused"),
        (["list", "--"], "refused"),
        (["--", "theorem", "x"], "refused"),
        # argparse read every token before it acted on --help
        (["theorem", "x", "--help", "--=7"], "refused"),
        # a token with a space, or a negative number, is a value
        (["theorem", "--k x"], {"name": "--k x"}),
        (["theorem", "x", "--out", "- 4"], {"out": "- 4"}),
        (["theorem", "x", "--out", "-1.5"], {"out": "-1.5"}),
    ],
)
def test_readings_the_drawn_lines_miss(argv, reading):
    # each checked against argparse 3.10.13, 3.11.7, 3.12.1 and 3.13.0
    parsed = table_parse(argv)
    if reading == "refused":
        assert parsed == "refused"
    else:
        assert {key: parsed[key] for key in reading} == reading


def test_an_ambiguous_prefix_is_refused_and_an_exact_name_wins():
    from barbellcalc import cli

    table = {"sweep": ("name", {"m": int, "max": int, "mid": int}, "", None)}
    _, args = cli._parse(table, ["sweep", "x", "--m", "1", "--ma", "2"])
    assert vars(args) == {"name": "x", "m": 1, "max": 2, "mid": None}
    with pytest.raises(ValueError, match="ambiguous option '--mi=3': it could be --mid"):
        cli._parse({"sweep": ("name", {"mid": int, "mind": int}, "", None)}, ["sweep", "x", "--mi=3"])


# -- a long value from outside is quoted, bounded ----------------------------------------

LONG = "a" * 10**5
LONG_SCENARIOS = {
    "cyclic holonomy": {"geometry": {"name": "cyclic_cover", "m": 7},
                        "barbells": [{"cuff1": "S_prime", "cuff2": "S", "holonomy": LONG}]},
    "word holonomy": {"geometry": {"name": "sphere_torus_link", "n": 2},
                      "barbells": [{"cuff1": "S_h", "cuff2": "S_h", "holonomy": LONG}]},
    "role label": {"geometry": "torus_complement", "attaching": [LONG]},
    "cuff": {"geometry": "torus_complement", "barbells": [{"cuff1": LONG, "cuff2": "S_h"}]},
    "geometry parameter": {"geometry": {"name": "torus_complement", LONG: 1}},
    "pairing label": {"geometry": {"group": {"kind": "free_abelian", "rank": 1}, "labels": {"S": "sphere"},
                                   "pairings": [[LONG, "S", [[[0], 1]]]]}},
    "label listed twice": {"geometry": {"group": {"kind": "free_abelian", "rank": 1},
                                        "labels": {LONG: "sphere", "D": "disk"}, "attaching": [LONG, LONG]}},
    "geometry name": {"geometry": {"name": LONG, "group": {"kind": "free_abelian", "rank": 1},
                                   "labels": {"S": "sphere", "D": "disk"}}, "field": "int"},
    "vector for a residue": {"geometry": {"name": "cyclic_cover", "m": 7},
                             "barbells": [{"cuff1": "S_prime", "cuff2": "S", "holonomy": list(range(10**4))}]},
    # the row of two cuffs that meet, rendered whole: an 88,960-byte line
    "non-disjoint pairing row": {"geometry": {"group": {"kind": "free_abelian", "rank": 1},
                                              "labels": {"S": "sphere", "T": "sphere", "D": "disk"},
                                              "pairings": [["S", "T", [[[i], 1] for i in range(10**4)]],
                                                           ["D", "S", [[[0], 1]]]],
                                              "attaching": ["S"], "disks": ["D"]},
                                 "barbells": [{"cuff1": "S", "cuff2": "T"}]},
}
# files the CLI refuses by their path, each at a path of about 3.6 KB: a 3,706-byte line
LONG_PATH_FILES = {
    "path of a file with a long integer": '{"geometry": {"name": "cyclic_cover", "m": ' + "9" * 5000 + "}}",
    "path of a file nested too deeply": "[" * 200_000 + "]" * 200_000,
}
LONG_COMMANDS = {
    "theorem": ["theorem", LONG],
    "sweep": ["sweep", LONG],
    "command": [LONG],
    "surplus argument": ["list", LONG],
    "help value": ["list", "-h" + LONG],
    "ambiguous option": ["theorem", "x", "--=" + LONG],
    "file name": ["scenario", "/" + LONG],
    "output file name": ["list", "--out", "/" + LONG],
}


@pytest.mark.parametrize("case", [*LONG_SCENARIOS, *LONG_COMMANDS, *LONG_PATH_FILES])
def test_a_long_outside_value_is_refused_in_one_short_line(case, tmp_path, capsys):
    # each wrote one error: line of 3.7 to 100 KB, quoting the value whole
    from barbellcalc import cli

    argv = LONG_COMMANDS.get(case)
    if argv is None:
        path = tmp_path / "long.json"
        if case in LONG_PATH_FILES:
            path = tmp_path.joinpath(*["d" * 200] * 18, "long.json")
            path.parent.mkdir(parents=True)
        path.write_text(LONG_PATH_FILES[case] if case in LONG_PATH_FILES else json.dumps(LONG_SCENARIOS[case]))
        argv = ["scenario", str(path)]
    capsys.readouterr()
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and one_error_line(err) and len(err.encode()) < 300, err[:400]


# -- scenario fuzzer -----------------------------------------------------------------

JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JUNK = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
GENUS2_SPHERES = ["S_h_1", "S_h_2", "S_v_1", "S_v_2"]
# each geometry's field, disjoint cuff pairs, spheres and disks
FUZZ_GEOMETRIES = {
    "torus_complement": ("f2", [("S_h", "S_h"), ("S_v", "S_v")], ["S_h", "S_v"], ["D_v", "D_h"]),
    "genus2_complement": (
        "int",
        # S_h_i meets S_v_i; every other pair of spheres is disjoint
        [(a, b) for a in GENUS2_SPHERES for b in GENUS2_SPHERES if {a, b} not in ({"S_h_1", "S_v_1"}, {"S_h_2", "S_v_2"})],
        GENUS2_SPHERES,
        ["D_h_1", "D_h_2"],
    ),
}
JUNK_SLOTS = [
    (),
    *[(name,) for name in ("geometry", "barbells", "attaching", "disks", "expected", "field")],
    *[("barbells", name) for name in ("cuff1", "cuff2", "holonomy", "offset", "signs", "iterate")],
    *[("expected", name) for name in ("matrix", "dim")],
]


def well_typed_documents(name):
    field, cuffs, spheres, disks = FUZZ_GEOMETRIES[name]
    element = st.lists(st.integers(-3, 3), min_size=1, max_size=1)
    barbell = st.sampled_from(cuffs).flatmap(
        lambda pair: st.fixed_dictionaries(
            {"cuff1": st.just(pair[0]), "cuff2": st.just(pair[1])},
            optional={
                "holonomy": element,
                "offset": element,
                "signs": st.lists(st.sampled_from([1, -1]), min_size=2, max_size=2),
                "iterate": st.integers(-5, 5).filter(bool),
            },
        )
    )
    term_list = st.lists(st.tuples(element, st.integers(-2, 2)).map(list), max_size=3)
    expected = st.fixed_dictionaries(
        {},
        optional={
            "matrix": st.lists(st.lists(term_list, max_size=3), max_size=3),
            "dim": st.integers(0, 14) | JUNK,
        },
    )
    return st.fixed_dictionaries(
        {"geometry": st.just(name), "barbells": st.lists(barbell, max_size=3), "expected": expected},
        optional={
            "attaching": st.lists(st.sampled_from(spheres), min_size=1, max_size=2, unique=True),
            "disks": st.lists(st.sampled_from(disks), min_size=1, max_size=2, unique=True),
            "field": st.just(field),
        },
    )


def plant(doc, slot, junk):
    """The document with junk in one field (the whole document for the empty slot)."""
    if not slot:
        return junk
    if len(slot) == 1:
        return {**doc, slot[0]: junk}
    parent, name = slot
    if parent == "barbells":
        cuff1, cuff2 = FUZZ_GEOMETRIES[doc["geometry"]][1][0]
        first = doc["barbells"][0] if doc["barbells"] else {"cuff1": cuff1, "cuff2": cuff2}
        return {**doc, "barbells": [{**first, name: junk}, *doc["barbells"][1:]]}
    return {**doc, "expected": {**doc.get("expected", {}), name: junk}}


SCENARIO_DOCUMENTS = st.sampled_from(sorted(FUZZ_GEOMETRIES)).flatmap(well_typed_documents)

# Inline and parameterized geometries, in every shape the schema
# accepts: labels that are not declared or play the wrong role, elements
# of the wrong kind for the group, null roles, boundary group sizes.
INLINE_LABELS = ["S", "T", "D", "E"]
GROUP_SIZES = [-1, 0, 1, 2, 3, 10**12]
INLINE_ELEMENTS = st.integers(-3, 3) | st.sampled_from(["", "1", "x1", "x2^-2 x1", "x1 x1^-1", "y"]) | st.lists(
    st.integers(-3, 3), max_size=3
)
INLINE_TERMS = st.lists(st.tuples(INLINE_ELEMENTS, st.integers(-2, 2)).map(list), max_size=3)
INLINE_ROLES = st.none() | st.lists(st.sampled_from(INLINE_LABELS), max_size=3)
INLINE_GEOMETRIES = st.fixed_dictionaries(
    {
        "group": st.sampled_from(["free", "free_abelian", "cyclic"]).flatmap(
            lambda kind: st.fixed_dictionaries(
                {"kind": st.just(kind), "modulus" if kind == "cyclic" else "rank": st.sampled_from(GROUP_SIZES)}
            )
        ),
        "labels": st.dictionaries(st.sampled_from(INLINE_LABELS), st.sampled_from(["sphere", "disk"]), min_size=1),
    },
    optional={
        "name": st.text(max_size=4),
        "field": st.sampled_from(["f2", "int", "Z"]),
        "pairings": st.lists(
            st.tuples(st.sampled_from(INLINE_LABELS), st.sampled_from(INLINE_LABELS), INLINE_TERMS).map(list),
            max_size=4,
        ),
        "attaching": INLINE_ROLES,
        "disks": INLINE_ROLES,
    },
)
PARAMETERIZED_GEOMETRIES = st.fixed_dictionaries(
    {"name": st.sampled_from(sorted(GEOMETRY_BUILDERS))},
    optional={name: st.sampled_from(GROUP_SIZES) for name in ("m", "g", "n")},
)
GEOMETRY_DOCUMENTS = st.fixed_dictionaries(
    {
        "geometry": INLINE_GEOMETRIES | PARAMETERIZED_GEOMETRIES,
        "barbells": st.lists(
            st.fixed_dictionaries(
                {"cuff1": st.sampled_from(INLINE_LABELS + ["S_h", "S_prime"]),
                 "cuff2": st.sampled_from(INLINE_LABELS + ["S_h", "S_prime"])},
                optional={"holonomy": INLINE_ELEMENTS, "offset": INLINE_ELEMENTS,
                          "iterate": st.integers(-3, 3).filter(bool)},
            ),
            max_size=2,
        ),
    },
    optional={
        "attaching": INLINE_ROLES,
        "disks": INLINE_ROLES,
        "field": st.sampled_from(["f2", "int"]),
        "expected": st.fixed_dictionaries(
            {}, optional={"matrix": st.lists(st.lists(INLINE_TERMS, max_size=2), max_size=2),
                          "dim": st.none() | st.integers(0, 3)}
        ),
    },
)
GEOMETRY_SLOTS = [("geometry", name) for name in ("group", "labels", "pairings", "attaching", "disks", "field", "m")]


def plant_in_geometry(doc, slot, junk):
    """The document with junk in one field of its geometry object."""
    return {**doc, "geometry": {**doc["geometry"], slot[1]: junk}}


def plant_in_group(doc, slot, junk):
    """The document with junk in one field of its inline geometry's group."""
    geometry = doc["geometry"]
    return {**doc, "geometry": {**geometry, "group": {**geometry["group"], slot[1]: junk}}}


# each field of a closed schema with its last letter dropped, a name that
# schema does not declare, planted in a document the schema accepts
ACCEPTED_DOCUMENTS = SCENARIO_DOCUMENTS.filter(
    lambda doc: doc["expected"].get("dim") is None or type(doc["expected"]["dim"]) is int
)
INLINE_DOCUMENTS = GEOMETRY_DOCUMENTS.filter(lambda doc: "labels" in doc["geometry"])
MISSPELT_SLOTS = [
    *[(name[:-1],) for name in ("geometry", "barbells", "attaching", "disks", "expected", "field")],
    *[("barbells", name[:-1]) for name in ("cuff1", "cuff2", "holonomy", "offset", "signs", "iterate")],
    *[("expected", name[:-1]) for name in ("matrix", "dim")],
]
MISSPELT_GEOMETRY_SLOTS = [
    ("geometry", name[:-1]) for name in ("name", "group", "labels", "pairings", "attaching", "disks", "field")
]
MISSPELT_GROUP_SLOTS = [("group", name[:-1]) for name in ("kind", "rank", "modulus")]
MISSPELT_DOCUMENTS = st.one_of(
    st.tuples(st.just(planter), documents, st.sampled_from(slots), JUNK).map(
        lambda drawn: (drawn[0](*drawn[1:]), drawn[2][-1])
    )
    for planter, documents, slots in (
        (plant, ACCEPTED_DOCUMENTS, MISSPELT_SLOTS),
        (plant_in_geometry, INLINE_DOCUMENTS, MISSPELT_GEOMETRY_SLOTS),
        (plant_in_group, INLINE_DOCUMENTS, MISSPELT_GROUP_SLOTS),
    )
)

FUZZED_DOCUMENTS = (
    SCENARIO_DOCUMENTS
    | st.builds(plant, SCENARIO_DOCUMENTS, st.sampled_from(JUNK_SLOTS), JUNK)
    | GEOMETRY_DOCUMENTS
    | st.builds(plant_in_geometry, GEOMETRY_DOCUMENTS, st.sampled_from(GEOMETRY_SLOTS), JUNK)
    | MISSPELT_DOCUMENTS.map(lambda planted: planted[0])
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=FUZZED_DOCUMENTS)
def test_scenario_documents_never_raise(doc, tmp_path, capsys):
    # any document exits 0, 1 or 2; only exit 2 writes to stderr, one error: line
    from barbellcalc import cli

    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main(["scenario", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert one_error_line(err) if code == 2 else err == ""


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(planted=MISSPELT_DOCUMENTS)
def test_misspelt_scenario_fields_are_refused(planted, tmp_path, capsys):
    # any value under a misspelt name exits 2 naming that name; it used
    # to be ignored, and a misspelt expected value passed unchecked
    doc, name = planted
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps(doc))
    assert f"field {name!r} is unknown; the fields are " in cli_refusal(["scenario", str(path)], capsys)


FLAG_VALUES = [-10**12, -1, 0, 1, 2, 3, 5, 205, 10**12]


@pytest.mark.parametrize("key", sorted(THEOREMS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_theorem_flags_pass_or_are_refused(key, data, capsys):
    # every flag a runner takes, drawn from small, boundary and huge values:
    # an accepted input must PASS (exit 0), anything else exits 2 with one
    # error: line, and no call takes more than a few seconds
    from barbellcalc import cli

    takes, required, _ = parameters(THEOREMS[key])
    accepted = [name for name in takes if name in cli._PARAM_FLAGS]
    argv = ["theorem", key]
    for flag in accepted:
        values = st.sampled_from(FLAG_VALUES)
        value = data.draw(values if flag in required else st.none() | values, label=flag)
        if value is not None:
            argv += [f"--{flag}", str(value)]
    capsys.readouterr()
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 2), argv
    assert err == "" if code == 0 else one_error_line(err)
    assert elapsed < 5, argv


# every CLI flag, g (a runner takes it, no flag reaches it), and three
# names no runner takes
LIBRARY_KEYWORDS = ["k", "l", "n", "m", "p", "q", "g", "kp", "lp", "zz"]
# and values of types no flag gives
LIBRARY_VALUES = FLAG_VALUES + [None, "3", 2.5, True]


@pytest.mark.parametrize("key", sorted(THEOREMS))
@settings(max_examples=60, deadline=None)
@given(params=st.dictionaries(st.sampled_from(LIBRARY_KEYWORDS), st.sampled_from(LIBRARY_VALUES), max_size=5))
def test_library_calls_pass_or_are_refused(key, params):
    # the library takes the CLI's rule: any keywords, drawn from the
    # flag values and values of other types, either PASS or raise a
    # ValueError subclass (the CLI's exit 2) that names no private
    # runner; a bad parameter set used to raise a TypeError naming
    # _run_torus_knot()
    from barbellcalc.report import Report
    from barbellcalc.scenarios import run_theorem

    try:
        report = run_theorem(key, **params)
    except ValueError as exc:
        assert "_run" not in str(exc), params
    else:
        assert isinstance(report, Report) and report.passed, params


@pytest.mark.parametrize("name", sorted(SWEEPS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    top=st.sampled_from(LIBRARY_VALUES),
    params=st.fixed_dictionaries({}, optional={"n": st.sampled_from(LIBRARY_VALUES)}),
)
def test_library_sweeps_pass_or_are_refused(name, top, params, capsys):
    # a sweep's iterator yields only passing reports, or the sweep raises
    # a ValueError before its first report: the text of the CLI's error:
    # line, or for a value no flag gives, a refusal that names it; either
    # way within a few seconds
    from barbellcalc.scenarios import run_sweep

    start = time.perf_counter()
    done = 0
    try:
        for report in run_sweep(name, top, **params):
            assert report.passed, (top, params, report.params)
            done += 1
    except ValueError as exc:
        assert done == 0, (top, params)
        sized = {"top": 1 if top is None else top, **params}
        odd = [key for key, value in sized.items() if type(value) is not int]
        if odd:
            # no flag gives it: refused as unexpected, or by its type
            assert "unexpected 'n'" in str(exc) or any(f"parameter {key} must be" in str(exc) for key in odd), exc
        else:
            assert cli_refusal(sweep_argv(name, top, params), capsys) == f"error: {exc}\n"
    assert time.perf_counter() - start < 5, (top, params)


@pytest.mark.parametrize(
    "call,message",
    [
        ({"k": 1}, "theorem morsesimple-s3 takes k, l; missing l"),
        ({"k": 1, "l": 1, "m": 5}, "theorem morsesimple-s3 takes k, l; unexpected 'm'"),
        ({"k": 1, "g": 2, "zz": 0}, "theorem circle-splittingspheres takes k, l (required: k); unexpected 'g, zz'"),
        ({"p": 3, "n": 2}, "theorem morsesimple3mfd takes p, q; unexpected 'n'"),
        # every parameter is listed, flag or not: h, v, b are mappings
        # only a library call gives, and the CLI prints the same text
        ({"k": 100}, "theorem genus1-hd takes k, l, h, v, b (required: k, l); missing l"),
        # a value its annotation does not admit; each of these but True
        # (taken as 1) used to raise a TypeError
        ({"k": None, "l": 1}, "theorem morsesimple-s3 parameter k must be int, got None"),
        ({"k": True, "l": 1}, "theorem morsesimple-s3 parameter k must be int, got True"),
        ({"n": "3", "k": 1, "l": 1}, "theorem linked-6crit parameter n must be int, got '3'"),
        ({"k": 100, "l": 100, "h": [1]}, "theorem genus1-hd parameter h must be Mapping | None, got [1]"),
        ({"top": "3"}, "sweep morsesimple parameter top must be int, got '3'"),
        ({"top": 3, "n": None}, "sweep brunnian parameter n must be int, got None"),
        ({"m": "5"}, "geometry cyclic_cover parameter m must be int, got '5'"),
        # an intersection map's entries: a TypeError traceback, or truncated by int() and PASS
        *[({"k": 100, "l": 100, name: data},
           f"theorem genus1-hd parameter {name} must map integers or decimal strings to JSON integers, "
           f"got entry {entry}")
          for name, data, entry in [
              ("h", {"0": None}, "'0': None"), ("h", {(1,): 1}, "(1,): 1"), ("h", {0.5: 1}, "0.5: 1"),
              ("h", {"0": 1.5}, "'0': 1.5"), ("h", {"0": True}, "'0': True"), ("h", {"a": 1}, "'a': 1"),
              ("v", {" 3": 1}, "' 3': 1"), ("b", {"+1": 1}, "'+1': 1"), ("b", {True: 1}, "True: 1")]],
        # a position past the interpreter's digit limit raised a plain ValueError
        ({"k": 100, "l": 100, "h": {"1" * 5000: 1}}, "theorem genus1-hd parameter h has a position too long to read"),
        ({"k": 100, "l": 100, "b": {"-" + "7" * 5000: 1}},
         "theorem genus1-hd parameter b has a position too long to read"),
        # an integer of more than 4,000 digits: the interpreter's digit-limit message, naming nothing
        ({"k": 100, "l": 100, "h": {10**5000: 1}}, "theorem genus1-hd parameter h has a position too long to read"),
        ({"k": 100, "l": 100, "v": {-(10**4000): 1}}, "theorem genus1-hd parameter v has a position too long to read"),
        ({"k": int("9" * 4300), "l": 1}, "theorem morsesimple-s3 parameter k has more than 4000 digits"),
        ({"m": 10, "k": int("9" * 4300)}, "theorem less-simple parameter k has more than 4000 digits"),
        ({"m": -(10**4000)}, "geometry cyclic_cover parameter m has more than 4000 digits"),
        ({"top": 10**4000}, "sweep morsesimple parameter top has more than 4000 digits"),
        # precedence: an unexpected name before a missing one, and a value's
        # type before its digits, the parameters taken in the order given
        ({"k": 1, "m": 5}, "theorem morsesimple-s3 takes k, l; unexpected 'm'"),
        ({"l": 100, "zz": 1}, "theorem genus1-hd takes k, l, h, v, b (required: k, l); unexpected 'zz'"),
        ({"k": 100, "l": 100, "h": 10**5000},
         "theorem genus1-hd parameter h must be Mapping | None, got <integer of more than 4000 digits>"),
        ({"k": "9" * 5000, "l": 10**5000},
         "theorem morsesimple-s3 parameter k must be int, got '999999999999...9999999999999'"),
        ({"k": 10**5000, "l": "x"}, "theorem morsesimple-s3 parameter k has more than 4000 digits"),
        ({"top": 3, "n": 3, "z": 1}, "sweep brunnian takes n; unexpected 'z'"),
        ({"top": 10**5000, "n": "x"}, "sweep brunnian parameter n must be int, got 'x'"),
        ({"top": "9" * 5000}, "sweep morsesimple parameter top must be int, got '999999999999...9999999999999'"),
        ({"n": 2}, "geometry cyclic_cover takes m; unexpected 'n'"),
        ({"g": "9" * 5000}, "geometry genus_g_complement parameter g must be int, got '999999999999...9999999999999'"),
    ],
)
def test_library_call_names_the_theorem_and_its_parameters(call, message):
    from barbellcalc.scenarios import HypothesisError, builtin_geometry, run_sweep, run_theorem

    kind, name = message.split()[:2]
    run = {"theorem": run_theorem, "sweep": run_sweep, "geometry": builtin_geometry}[kind]
    with pytest.raises(HypothesisError) as info:
        run(name, **call)
    assert str(info.value) == message


def test_parameters_of_up_to_4000_digits_are_read():
    from barbellcalc.report import render_table
    from barbellcalc.scenarios import run_theorem

    k = 10**4000 - 1
    report = run_theorem("morsesimple-s3", k=k, l=1)
    assert report.passed and report.computed["dim"] == 2 * k + 4
    assert f"k={k}" in render_table(report)
    # positions of 4,000 digits, as a decimal string and as an integer
    assert run_theorem("genus1-hd", k=k, l=k, h={str(-(10**3999)): 1}, v={10**3999: 1}).passed


def _coefficient_scenario(row: int, iterate: int) -> dict:
    # an attaching sphere A meeting the cuff S, and a belt disk D meeting T
    # row times: barbell (S, T) iterated gives matrix[0][0] = row * iterate
    labels = {"A": "sphere", "S": "sphere", "T": "sphere", "D": "disk"}
    pairings = [["D", "T", [[[0], row]]], ["A", "S", [[[0], 1]]]]
    geometry = {"group": {"kind": "free_abelian", "rank": 1}, "field": "int", "labels": labels,
                "pairings": pairings, "attaching": ["A"], "disks": ["D"]}
    return {"geometry": geometry, "barbells": [{"cuff1": "S", "cuff2": "T", "iterate": iterate}]}


_NINES = "9" * 5000  # an integer of 5,000 digits, past the interpreter's 4,300


def _exponent_scenario(digits: int) -> dict:
    # a torus barbell whose lift is offset by t^N and iterated N times,
    # N of digits nines: the matrix entry's exponents have about 2 * digits
    nines = int("9" * digits)
    return {"geometry": "torus_complement",
            "barbells": [{"cuff1": "S_h", "cuff2": "S_h", "offset": [nines], "iterate": nines}]}


@pytest.mark.parametrize(
    "call,error,message,cli,cli_message",
    [
        # a refused value quoting an integer of more than 4,300 digits: repr raised the interpreter's ValueError
        (lambda run_theorem, run_scenario: run_theorem("morsesimple-s3", k={10**5000: 1}, l=1), HypothesisError,
         "theorem morsesimple-s3 parameter k must be int, got {<integer of more than 4000 digits>: 1}", None, None),
        (lambda run_theorem, run_scenario: run_theorem("genus1-hd", k=100, l=100, h={0.5: 10**5000}), HypothesisError,
         "theorem genus1-hd parameter h must map integers", None, None),
        (lambda run_theorem, run_scenario: run_scenario(
            {"geometry": "torus_complement", "barbells": [{"cuff1": 10**5000, "cuff2": "S_h"}]}), HypothesisError,
         "barbell field 'cuff1' must be a label string, got <integer of more than 4000 digits>", None, None),
        # a flag of 5,000 digits was echoed whole (a 5,029-byte line) and called not an int
        (lambda run_theorem, run_scenario: run_theorem("morsesimple-s3", k=int(_NINES[:4001]), l=1), HypothesisError,
         "theorem morsesimple-s3 parameter k has more than 4000 digits",
         ["theorem", "morsesimple-s3", "--k", _NINES, "--l", "1"], "error: parameter k has more than 4000 digits"),
        # a file's integer of 5,000 digits: json.load's digit-limit message, naming nothing
        (lambda run_theorem, run_scenario: run_scenario({"geometry": {"name": "cyclic_cover", "m": 10**5000 - 1}}),
         HypothesisError, "geometry cyclic_cover parameter m has more than 4000 digits",
         '{"geometry": {"name": "cyclic_cover", "m": ' + _NINES + "}}",
         "error: scenario file {file} has an integer of more than 4000 digits"),
        # a computed coefficient of more than 4,300 digits ended in the interpreter's message at rendering;
        # the report holds the engine value, and rendering it refuses the value by its field
        (lambda run_theorem, run_scenario: render_machine(run_scenario(_coefficient_scenario(10**200, 10**4200))),
         HypothesisError,
         "computed.matrix[0][0] has an integer of more than",
         json.dumps(_coefficient_scenario(10**3000, 10**3000)),
         "error: computed.matrix[0][0] has an integer of more than"),
        # a computed exponent of about 8,000 digits, from integers of 4,000: the same
        (lambda run_theorem, run_scenario: render_machine(run_scenario(_exponent_scenario(4000))), HypothesisError,
         "computed.matrix[0][0] has an integer of more than",
         json.dumps(_exponent_scenario(4000)), "error: computed.matrix[0][0] has an integer of more than"),
        # an integer word of a free group was read through str, which failed with a plain ValueError
        (lambda run_theorem, run_scenario: run_scenario(
            {"geometry": {"name": "sphere_torus_link", "n": 2},
             "barbells": [{"cuff1": "S_h", "cuff2": "S_h", "holonomy": 10**5000}]}), GroupError,
         "scenario field 'barbells[0].holonomy': an integer element of F_2 must be 1", None, None),
    ],
    ids=["echo-mapping-key", "echo-entry-value", "echo-barbell-field", "cli-flag", "json-file", "computed-coefficient",
         "computed-exponent", "integer-word"],
)
def test_integers_past_the_digit_limit_are_refused_by_name(call, error, message, cli, cli_message, tmp_path, capsys):
    from barbellcalc.scenarios import run_scenario, run_theorem

    with pytest.raises(error) as info:
        call(run_theorem, run_scenario)
    assert type(info.value) is error and str(info.value).startswith(message)
    if cli is None:
        return  # no command line reaches it: flags and files of that many digits are refused first
    path = tmp_path / "scenario.json"
    if isinstance(cli, str):
        path.write_text(cli)
        cli = ["scenario", str(path)]
    err = cli_refusal(cli, capsys)
    assert err.startswith(cli_message.format(file=_echo(str(path))))
    assert len(err.encode()) < 300 and "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [["--p", "1", "--q", "4"], ["--p", "-3", "--q", "5"], ["--p", "3", "--q", "-5"], ["--p", "3"], ["--q", "7"]],
)
def test_morsesimple3mfd_refuses_p_and_q_outside_its_domain(flags, capsys):
    # these used to FAIL, leak a determinant message, or run the report without parameters
    from barbellcalc import cli

    assert cli.main(["theorem", "morsesimple3mfd", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and one_error_line(captured.err)
    assert "--p and --q" in captured.err


@pytest.mark.parametrize("argv", [["brunnian", "--n", "-5", "--max", "1"], ["montesinos", "--max", "2"]])
def test_empty_sweep_is_refused(argv, capsys):
    # an empty grid used to print "0/0 passed" and exit 0 without checking --n
    from barbellcalc import cli

    assert cli.main(["sweep", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and one_error_line(captured.err) and "has no jobs" in captured.err


def test_brunnian_disk_obstruction_is_bounded_for_huge_n():
    # the constraint loop was killed for memory at n = 10**11
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

    start = time.perf_counter()
    result = subprocess.run(
        CLI + ["theorem", "no-brunnian-2disk", "--n", "100000000000"],
        capture_output=True, text=True, env=ENV, timeout=30, preexec_fn=limit_memory,
    )
    assert result.returncode == 0 and result.stdout.strip().endswith("PASS")
    assert time.perf_counter() - start < 10


def test_negative_power_splitting_spheres():
    result = run_cli("theorem", "circle-splittingspheres", "--k", "-2", "--l", "1")
    assert result.returncode == 0
    assert "distinguished: True" in result.stdout


def test_list_names_everything():
    result = run_cli("list")
    assert result.returncode == 0
    for needle in ("morsesimple-s3", "genus1-handlebody", "torus_complement", "branched_cover"):
        assert needle in result.stdout


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.txt"
    result = run_cli("theorem", "no-brunnian-2disk", "--n", "3", "--out", str(target))
    assert result.returncode == 0
    assert "PASS" in target.read_text()


def write_scenario(tmp_path, barbells, geometry="torus_complement"):
    payload = {"geometry": geometry, "barbells": barbells, "attaching": ["S_v"], "disks": ["D_v"]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_huge_theorem_iterate_is_immediate():
    # the iterate used to be applied one correction at a time
    result = run_cli("theorem", "simple-5d", "--k", "100000000", timeout=30)
    assert result.returncode == 0 and result.stdout.strip().endswith("PASS")
    assert "100000000" in result.stdout


def test_huge_scenario_iterate_is_immediate(tmp_path):
    barbell = {"cuff1": "S_h", "cuff2": "S_h", "holonomy": [2], "offset": [1], "iterate": 100000000}
    result = run_cli("scenario", write_scenario(tmp_path, [barbell]), timeout=30)
    assert result.returncode == 0 and result.stdout.strip().endswith("PASS")
    # over F2 an even iterate cancels the correction; the offset's power remains
    assert '"rendered": "t^100000000"' in result.stdout


def test_scenario_crossing_cuffs_exit_two(tmp_path):
    # P[S_h, S_v] = 1 + t: these cuffs meet, so the barbell is not one
    result = run_cli("scenario", write_scenario(tmp_path, [{"cuff1": "S_h", "cuff2": "S_v"}]))
    assert result.returncode == 2 and result.stdout == ""
    assert "barbell cuffs 'S_h' and 'S_v' are not disjoint: P['S_h', 'S_v'] = 1 + t is nonzero" in result.stderr


def test_scenario_word_power_is_bounded(tmp_path):
    barbell = {"cuff1": "S_h", "cuff2": "S_h", "holonomy": "x1 x2", "offset": "x1 x2", "iterate": 3000000}
    path = write_scenario(tmp_path, [barbell], geometry={"name": "sphere_torus_link", "n": 3})
    result = run_cli("scenario", path, timeout=30)
    assert result.returncode == 2 and result.stdout == ""
    assert "power 3000000 of a 2-letter word has 6000000 letters, more than 100000" in result.stderr


@pytest.mark.parametrize("n,k,l", [("2", "10001", "1"), ("3", "1", "2501"), ("14", "1", "1"), ("1000000000", "1", "1")])
def test_linked_6crit_bounds_its_bar_words(n, k, l):
    # n = 14 took 2 s and n = 3, k = 25000 took 9 s before the bound
    result = run_cli("theorem", "linked-6crit", "--n", n, "--k", k, "--l", l, timeout=30)
    assert result.returncode == 2 and result.stdout == ""
    assert "bar words w_n^k must have <= 10000 letters" in result.stderr
    assert f"got n={n} and winding number {max(int(k), int(l))}" in result.stderr


def test_linked_6crit_accepts_the_longest_bar_word():
    result = run_cli("theorem", "linked-6crit", "--n", "2", "--k", "10000", "--l", "1", timeout=30)
    assert result.returncode == 0 and result.stdout.strip().endswith("PASS")


def test_splitting_spheres_projects_before_the_power():
    # x1^k used to be built as a k-letter word and then projected
    args = ("--m", "10000000000", "--k", "1000000000", "--l", "0", "--format", "machine")
    result = run_cli("theorem", "simple-splitting-spheres", *args, timeout=30)
    assert result.returncode == 0
    record = json.loads(result.stdout)
    assert record["computed"]["bar_residues"] == {"1000000000": 1000000000, "0": 0}
    assert record["passed"]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_command_lines() -> list[tuple[str, int | None]]:
    """Each `barbellcalc ...` line of the README with the exit code its
    comment states (None when it states none)."""
    out = []
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("barbellcalc "):
            command, _, comment = line.partition("#")
            code = re.search(r"exit (\d)", comment)
            out.append((command.strip(), int(code.group(1)) if code else None))
    assert out, "the README lists no command lines"
    return out


@pytest.mark.parametrize("line,code", readme_command_lines())
def test_readme_command_lines_exit_as_documented(line, code, monkeypatch, capsys):
    from barbellcalc import cli

    assert code is not None, f"README line {line!r} states no exit code"
    monkeypatch.chdir(README.parent)
    assert cli.main(line.split()[1:]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_readme_names_only_private_helpers_that_exist():
    # every backticked `module._name` of a barbellcalc module resolves there,
    # so a helper removed or renamed takes the README's passage with it
    import importlib
    import pkgutil

    modules = {info.name for info in pkgutil.iter_modules(barbellcalc.__path__)}
    named = {(module, name) for module, name in re.findall(r"`(\w+)\.(_\w+)`", README.read_text(encoding="utf-8"))
             if module in modules}
    assert named, "the README names no private helper"
    missing = [f"{module}.{name}" for module, name in sorted(named)
               if not hasattr(importlib.import_module(f"barbellcalc.{module}"), name)]
    assert missing == []
