import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import barbellcalc

CLI = [sys.executable, "-m", "barbellcalc.cli"]
# the child interpreter imports the same package as the tests
_SRC = os.path.dirname(os.path.dirname(barbellcalc.__file__))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args, timeout=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=ENV, timeout=timeout)


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
    assert "theorem morsesimple-s3 takes --k --l" in result.stderr
    assert "unexpected --m" in result.stderr and "_run" not in result.stderr


def test_theorem_names_its_missing_flags():
    result = run_cli("theorem", "morsesimple-s3")
    assert result.returncode == 2 and result.stdout == ""
    assert "theorem morsesimple-s3 takes --k --l" in result.stderr
    assert "missing --k --l" in result.stderr and "positional" not in result.stderr


def test_sweep_rejects_n_outside_brunnian():
    result = run_cli("sweep", "morsesimple", "--max", "2", "--n", "9")
    assert result.returncode == 2 and result.stdout == ""
    assert "sweep morsesimple takes no --n" in result.stderr


def test_branched_cover_order_costs_nothing():
    # the meridian row is read by augmentation, so no cost grows with m
    result = run_cli("theorem", "genus1-handlebody", "--m", "1000000000000", "--k", "3", "--l", "5", timeout=30)
    assert result.returncode == 0 and result.stdout.strip().endswith("PASS")


def test_meridian_is_not_an_attaching_sphere(tmp_path):
    # its row is the norm element, which is never expanded into a matrix entry
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(
        {"geometry": {"name": "branched_cover", "m": 5}, "attaching": ["mu"], "disks": ["D"]}
    ))
    result = run_cli("scenario", str(path))
    assert result.returncode == 2 and result.stdout == ""
    assert "(mu, D) is a meridian row" in result.stderr and "Traceback" not in result.stderr


def test_brunnian_sweep_is_refused_before_its_jobs_are_built():
    # --max 100 is 12.7 million jobs; the grid used to be listed in full first
    result = run_cli("sweep", "brunnian", "--max", "100", timeout=30)
    assert result.returncode == 2 and result.stdout == ""
    assert "sweep brunnian --max 100 has up to 12748725 jobs, more than 10000" in result.stderr


def test_sweep_job_cap_boundary():
    # montesinos --max 142 has 9,870 (p, q) candidates, --max 143 has 10,011
    assert run_cli("sweep", "montesinos", "--max", "142", timeout=30).returncode == 0
    result = run_cli("sweep", "montesinos", "--max", "143", timeout=30)
    assert result.returncode == 2 and result.stdout == ""
    assert "has up to 10011 jobs, more than 10000" in result.stderr


def test_sweep_job_cap_admits_a_grid_of_exactly_the_cap(monkeypatch, capsys):
    from barbellcalc import cli

    monkeypatch.setattr(cli, "MAX_SWEEP_JOBS", 9)
    assert cli.main(["sweep", "morsesimple", "--max", "3"]) == 0
    assert capsys.readouterr().out.endswith("9/9 passed\n")
    assert cli.main(["sweep", "morsesimple", "--max", "4"]) == 2
    assert "has up to 16 jobs, more than 9" in capsys.readouterr().err


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


def test_scenario_malformed_payload_exit_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"geometry": "torus_complement", "barbells": [{"cuff2": "S_h"}]}')
    result = run_cli("scenario", str(path))
    assert result.returncode == 2
    path.write_text("not json at all")
    assert run_cli("scenario", str(path)).returncode == 2


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
        ('{"geometry": {"name": "genus_g_complement", "g": "3"}, "barbells": []}', "field 'g'"),
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
    ],
    ids=["short-signs", "top-level-list", "infinite-holonomy", "string-genus", "bare-matrix-entry", "missing-cuff2",
         "inline-label-list", "inline-missing-group", "inline-missing-rank", "inline-string-rank",
         "inline-meridian", "inline-short-pairing", "inline-bare-pairing-terms"],
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


def test_negative_power_splitting_spheres():
    result = run_cli("theorem", "circle-splittingspheres", "--k", "-2", "--l", "1")
    assert result.returncode == 0
    assert "distinguished: True" in result.stdout


def test_field_flag_is_validated_per_theorem():
    ok = run_cli("theorem", "morsesimple-s3", "--k", "1", "--l", "1", "--field", "f2")
    assert ok.returncode == 0
    bad = run_cli("theorem", "morsesimple-s3", "--k", "1", "--l", "1", "--field", "int")
    assert bad.returncode == 2


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
    assert "barbell cuffs S_h and S_v are not disjoint: P[S_h,S_v] = 1 + t is nonzero" in result.stderr


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
