import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "barbellcalc.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


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


def test_closed_stdout_is_not_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes anything
    try:
        result = subprocess.run(CLI + ["list"], stdout=write_end, stderr=subprocess.PIPE, text=True)
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
