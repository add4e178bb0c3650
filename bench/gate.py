"""The correctness gate every benchmarked CLI call must pass.

A call fails if it raised, returned an exit code other than 0, wrote to
stderr, or did not report PASS:

* theorem and scenario calls: the table ends in a PASS line, the
  machine record has "passed": true;
* sweeps: every job line passes and the summary reads N/N passed for
  the job count the corpus expects.

Scenario calls must also print the oracle's matrix and dimension, read
from either output format (the scenario file carries them as
`expected` too, so the CLI checks them a second time).  Finally, any
call whose key is in digests.json must reproduce the reference stdout
byte for byte; the table holds every call of the default seed (0),
captured at the commit that defined the benchmark, and the calls with
fixed arguments recur under every seed.
"""

from __future__ import annotations

import hashlib
import json
import os

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
_reference: dict[str, str] | None = None


def reference_digests() -> dict[str, str]:
    global _reference
    if _reference is None:
        with open(DIGESTS_PATH, encoding="utf-8") as handle:
            _reference = json.load(handle)
    return _reference


def sweep_jobs(stdout: str) -> int:
    """N from a sweep's closing "M/N passed" line (0 if absent)."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].endswith(" passed"):
        return 0
    return int(lines[-1].split()[0].split("/")[1])


def _report_passed(call: dict, stdout: str) -> str | None:
    if call["format"] == "machine":
        record = json.loads(stdout)
        if record.get("passed") is not True:
            return "report did not pass"
        computed = record["computed"]
    else:
        lines = stdout.rstrip("\n").splitlines()
        if lines[-1] != "PASS":
            return "report did not end in PASS"
        computed = _table_fields(lines)
    return _matches_oracle(computed, call["oracle"]) if call["kind"] == "scenario" else None


def _table_fields(lines: list[str]) -> dict:
    """The computed matrix and dimension printed by a scenario table."""
    out: dict = {}
    for line in lines:
        if line.startswith("  matrix: "):
            out["matrix"] = json.loads(line[len("  matrix: "):])
        elif line.startswith("  dim: "):
            value = line[len("  dim: "):]
            out["dim"] = None if value == "infinite" else int(value)
    return out


def _matches_oracle(computed: dict, oracle: dict) -> str | None:
    matrix = [[entry["terms"] for entry in row] for row in computed["matrix"]]
    if matrix != oracle["matrix"]:
        return "presentation matrix differs from the oracle"
    if "dim" in oracle and computed.get("dim") != oracle["dim"]:
        return "quotient dimension differs from the oracle"
    return None


def _sweep_passed(call: dict, stdout: str) -> str | None:
    lines = stdout.rstrip("\n").splitlines()
    jobs = call["jobs"]
    if lines[-1] != f"{jobs}/{jobs} passed" or len(lines) != jobs + 1:
        return f"sweep summary {lines[-1]!r}, expected {jobs}/{jobs} passed"
    for line in lines[:-1]:
        ok = json.loads(line).get("passed") is True if call["format"] == "machine" else line.startswith("PASS ")
        if not ok:
            return "a sweep job did not pass"
    return None


def check_call(call: dict, code, raised: str | None, stdout: str, stderr: str) -> tuple[str, str | None]:
    """(sha256 of stdout, failure reason or None)."""
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if raised is not None:
        return digest, f"raised {raised}"
    if code != 0:
        return digest, f"exit code {code}, expected 0: {stderr.strip()[:200]}"
    if stderr:
        return digest, f"wrote to stderr: {stderr.strip()[:200]}"
    try:
        reason = (_sweep_passed if call["kind"] == "sweep" else _report_passed)(call, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        reason = f"unreadable output ({type(exc).__name__}: {exc})"
    if reason is None:
        wanted = reference_digests().get(call["key"])
        if wanted is not None and wanted != digest:
            reason = "stdout differs from the reference digest"
    return digest, reason
