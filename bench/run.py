"""barbellcalc benchmark driver.

    python3 bench/run.py --workload torus-grid --seed 0 --seconds 20 --trace 0

Builds the workload's seeded corpus of CLI calls (and scenario files)
under bench/_work, then measures in fresh interpreters started from
this checkout's src/ (worker.py): one unmeasured start first so
bytecode caches are warm, then, until --seconds are used up, three
set-up-only starts and one pass over the whole corpus at a time.  A
pass is closed loop: one client, each call issued only after the
previous one returned.  BARBELL_THREADS is removed from the workers'
environment, so sweeps use the CLI's default thread count.

--trace 0 reports the end-to-end metrics from untraced passes.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
Every call of every pass goes through the correctness gate (gate.py).

Human-readable lines (environment, metrics with units, failures, and a
`raw` JSON line with the unscaled times and the calibrations) come
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

import corpus  # noqa: E402  (bench/ is the script directory)
from tracer import METRIC_UNITS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_ratio": "1",
}
# Times are reported at a reference speed of the machine.  A pass times
# worker.calibrate(), a fixed slice of interpreted work, before its first
# call, after every 25 ms of calls and after its last call; each call's
# latency is multiplied by CAL_REF_NS over the mean of the calibrations
# around it, and a set-up time by CAL_REF_NS over the calibration just
# after it.  On the shared 2-vCPU host this benchmark was built on, the
# speed of fixed interpreted work drifted by 20-35% (interquartile range
# over one minute); the scaling takes most of that drift out of the
# figures.  The unscaled times are printed too (raw_figures).
CAL_REF_NS = 4_000_000
MIN_PASSES = 3
SETUPS_PER_PASS = 3
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 120  # start no pass after this, whatever --seconds says
RUN_DEADLINE_S = 170  # no worker of a run outlives this


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for name in ("BARBELL_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    return env


def spawn_worker(*args: str, timeout: float = CHILD_TIMEOUT_S) -> dict:
    env = _child_env()
    command = [sys.executable, os.path.join("bench", "worker.py")]
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            command + [args[0], str(spawn_ns), *args[1:]],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker {args[0]} printed no result: {proc.stdout[-500:]!r}") from exc


def _percentiles(latencies_ns: list[float]) -> tuple[float, float]:
    """(p50, p90) in ms of per-call latencies in ns."""
    deciles = statistics.quantiles(latencies_ns, n=10, method="inclusive")
    return statistics.median(latencies_ns) / 1e6, deciles[8] / 1e6


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark run; returns the passes and set-up samples."""
    workdir = os.path.join("bench", "_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        calls = corpus.build(workload, seed, workdir)
        corpus_path = os.path.join(workdir, "corpus.json")
        with open(corpus_path, "w", encoding="utf-8") as handle:
            json.dump(calls, handle)
        spans_path = os.path.join("bench", "_work", f"spans-{workload}.json")  # the last traced pass

        start = time.monotonic()

        def spawn(*args: str) -> dict:
            return spawn_worker(*args, timeout=max(1.0, start + RUN_DEADLINE_S - time.monotonic()))

        spawn("setup")  # unmeasured: writes the bytecode caches a real user has
        setups: list[dict] = []
        plain: list[dict] = []
        traced: list[dict] = []
        while True:
            for _ in range(SETUPS_PER_PASS):
                setups.append(spawn("setup"))
            plain.append(spawn("pass", corpus_path))
            setups.append(plain[-1])
            if trace:
                traced.append(spawn("pass", corpus_path, spans_path))
            elapsed = time.monotonic() - start
            rounds = len(plain)
            enough = rounds >= (1 if trace else MIN_PASSES)
            if (enough and elapsed * (rounds + 1) / rounds > seconds) or elapsed > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"calls": calls, "setups": setups, "plain": plain, "traced": traced}


def _scaled_latencies(result: dict) -> list[float]:
    """Each call's latency at the reference speed, from the mean of the
    calibrations taken just before and just after it."""
    cal, at = result["cal_ns"], result["cal_at"]
    out = []
    j = 0
    for index, latency in enumerate(result["latencies_ns"]):
        while j + 1 < len(at) and at[j + 1] <= index:
            j += 1
        out.append(latency * 2 * CAL_REF_NS / (cal[j] + cal[j + 1]))
    return out


def _speed_factor(result: dict) -> float:
    """Reference-speed time over raw time for a whole pass, weighted by
    where the calls spent their time."""
    return sum(_scaled_latencies(result)) / sum(result["latencies_ns"])


def end_to_end(run: dict, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; scaled=False gives the raw times."""
    plain = run["plain"]
    if scaled:
        latencies = [_scaled_latencies(p) for p in plain]
        walls = [p["wall_ns"] * _speed_factor(p) for p in plain]
        setups = [s["setup_ns"] * CAL_REF_NS / s["setup_cal_ns"] for s in run["setups"]]
    else:
        latencies = [p["latencies_ns"] for p in plain]
        walls = [p["wall_ns"] for p in plain]
        setups = [s["setup_ns"] for s in run["setups"]]
    # each call's latency is its median over the passes, so a host hiccup
    # that hits one call in one pass does not move the tail
    p50, p90 = _percentiles([statistics.median(call) for call in zip(*latencies)])
    attempted, failed = _counts(run)
    return {
        "setup_s": statistics.median(setups) / 1e9,
        "wall_s": statistics.median(walls) / 1e9,
        "call_p50_ms": p50,
        "call_p90_ms": p90,
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in plain) / 1024,
        "pass_ratio": (attempted - failed) / attempted,
    }


def per_layer(run: dict, scaled: bool = True) -> dict[str, float]:
    """Median over traced passes; self times at the reference speed
    (scaled=False gives the raw times)."""
    traced = run["traced"]
    factors = [_speed_factor(p) if scaled else 1.0 for p in traced]
    out = {}
    for name in traced[0]["layers"]:
        if METRIC_UNITS.get(name) == "s":
            out[name] = statistics.median(p["layers"][name] * f for p, f in zip(traced, factors))
        else:  # a count stays a count
            out[name] = statistics.median_low(p["layers"][name] for p in traced)
    traced_wall = statistics.median(p["wall_ns"] * f for p, f in zip(traced, factors))
    out["trace.overhead_ratio"] = traced_wall / (end_to_end(run, scaled)["wall_s"] * 1e9)
    return out


def raw_figures(run: dict, trace: bool) -> dict:
    """The reported times unscaled, and the calibrations they were
    scaled by, so a comparison can check what the scaling did."""
    units = METRIC_UNITS if trace else END_TO_END
    figures = per_layer(run, scaled=False) if trace else end_to_end(run, scaled=False)
    cal = [c for p in run["plain"] + run["traced"] for c in p["cal_ns"]]
    cal += [s["setup_cal_ns"] for s in run["setups"]]
    q1, median, q3 = statistics.quantiles(cal, n=4)
    return {
        "times": {name: value for name, value in figures.items() if units[name] in ("s", "ms")},
        "calibration_ns": {"reference": CAL_REF_NS, "median": median, "iqr_ratio": (q3 - q1) / median,
                           "min": min(cal), "max": max(cal), "samples": len(cal)},
    }


def _counts(run: dict) -> tuple[int, int]:
    passes = run["plain"] + run["traced"]
    attempted = sum(len(p["latencies_ns"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    return attempted, failed


def environment(workload: str, seed: int, run: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "sweep_threads": run["plain"][0]["sweep_threads"],
        "barbell_threads_env": "unset",
        "calls_per_pass": len(run["calls"]),
        "passes": len(run["plain"]),
        "traced_passes": len(run["traced"]),
        "setup_samples": len(run["setups"]),
    }


def _commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (never a parent's)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "barbellcalc")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "barbellcalc", "cli.py")):
        print(f"run.py: no barbellcalc sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted, failed = _counts(run)
    if args.trace:
        metrics = per_layer(run)
        units = METRIC_UNITS
        if set(metrics) != set(units):
            print(f"run.py: traced metrics {sorted(set(metrics) ^ set(units))} do not match the list", file=sys.stderr)
            return 1
    else:
        metrics = end_to_end(run)
        units = END_TO_END
    print("env " + json.dumps(environment(args.workload, args.seed, run), sort_keys=True))
    print(f"calls per pass: {len(run['calls'])}; each call's latency is its median over "
          f"{len(run['plain'])} passes, the percentiles are over the calls")
    for name in sorted(metrics):
        print(f"  {name:36s} {metrics[name]:14.6g} {units[name]}")
    print(f"  {'failed_ratio':36s} {failed / attempted:14.6g} 1   ({failed} of {attempted} calls failed)")
    failures = [f for p in run["plain"] + run["traced"] for f in p["failures"]]
    for index, reason in failures[:10]:
        print(f"FAIL call {index} {' '.join(run['calls'][index]['argv'])}: {reason}")
    print("raw " + json.dumps(raw_figures(run, bool(args.trace)), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
