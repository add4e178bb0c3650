"""One fresh interpreter of a benchmark run.

    python3 bench/worker.py setup <spawn_ns>
    python3 bench/worker.py pass  <spawn_ns> <corpus.json> [<spans.json>]

`spawn_ns` is the parent's time.monotonic_ns() just before it started
this process (CLOCK_MONOTONIC is system-wide).  Set-up ends once
`barbellcalc` is imported and `cli.build_parser()` has built the parser,
which every CLI invocation pays before any computation; nothing else is
imported before that point.  A `pass` then issues every call of the
corpus in order through `barbellcalc.cli.main(argv)` with stdout and
stderr captured, closed loop, and times each call and the whole pass.
With a spans path it first wraps the package with the tracer and
writes the spans there afterwards.  The correctness gate runs after the
timed pass.  The result is one JSON line on stdout.
"""

import gc
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _setup(spawn_ns: int):
    sys.path.insert(0, SRC)
    from barbellcalc import cli

    cli.build_parser()
    return cli, time.monotonic_ns() - spawn_ns


CAL_EVERY_NS = 25_000_000  # calibrate again once this much call time has passed


def calibrate() -> int:
    """Time one fixed slice of pure-Python work that is independent of
    barbellcalc: integer arithmetic and dict updates, then small tuples
    built and sorted with the garbage collector paused, so the state of
    the program's heap does not leak into it.  Its time tracks the
    machine's current speed for interpreted code."""
    start = time.perf_counter_ns()
    table = dict.fromkeys(range(997), 0)
    acc = 0
    for i in range(12000):
        table[i % 997] += i
        acc += (i * i) % 7
    collecting = gc.isenabled()
    gc.disable()
    try:
        runs: dict = {}
        for i in range(2500):
            key = (i % 211, (i * 7) % 13)
            runs[key] = runs.get(key, ())[:3] + (i,)
        sorted(runs.items(), key=lambda item: item[1])
    finally:
        if collecting:
            gc.enable()
    return time.perf_counter_ns() - start


def main() -> int:
    mode, spawn_ns = sys.argv[1], int(sys.argv[2])
    if not os.path.isdir(os.path.join(SRC, "barbellcalc")):
        print(f"worker: no package at {SRC}/barbellcalc", file=sys.stderr)
        return 2
    cli, setup_ns = _setup(spawn_ns)

    import json

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"worker: imported barbellcalc from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"setup_ns": setup_ns, "setup_cal_ns": sorted(calibrate() for _ in range(5))[2]}
    if mode == "pass":
        corpus_path = sys.argv[3]
        spans_path = sys.argv[4] if len(sys.argv) > 4 else None
        result.update(_run_pass(cli, corpus_path, spans_path))
    print(json.dumps(result))
    return 0


def _run_pass(cli, corpus_path: str, spans_path: str | None) -> dict:
    import contextlib
    import io
    import json
    import resource

    from gate import check_call, sweep_jobs

    with open(corpus_path, encoding="utf-8") as handle:
        calls = json.load(handle)
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        cli = sys.modules["barbellcalc.cli"]

    clock = time.perf_counter_ns
    outputs = []
    latencies = []
    cal = [calibrate()]
    cal_at = [0]  # index of the call each calibration preceded
    cal_spent = 0  # time inside calibrations, taken out of the pass's wall time
    since_cal = 0
    start = clock()
    for index, call in enumerate(calls):
        if since_cal >= CAL_EVERY_NS:
            t0 = clock()
            cal.append(calibrate())
            cal_at.append(index)
            cal_spent += clock() - t0
            since_cal = 0
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.trace_id = index
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = cli.main(call["argv"])
                raised = None
            except (Exception, SystemExit) as exc:  # a raising call is a failed call, not a crashed pass
                code, raised = None, f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - t0)
        since_cal += latencies[-1]
        outputs.append((code, raised, out.getvalue(), err.getvalue()))
    wall_ns = clock() - start - cal_spent
    cal.append(calibrate())
    cal_at.append(len(calls))

    failures = []
    digests = []
    for index, (call, (code, raised, stdout, stderr)) in enumerate(zip(calls, outputs)):
        digest, reason = check_call(call, code, raised, stdout, stderr)
        digests.append(digest)
        if reason:
            failures.append([index, reason])
    result = {
        "wall_ns": wall_ns,
        "latencies_ns": latencies,
        "cal_ns": cal,
        "cal_at": cal_at,
        "failures": failures,
        "digests": digests,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "sweep_threads": _sweep_threads(cli),
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.sweep_jobs"] = sum(
            sweep_jobs(stdout) for call, (_, _, stdout, _) in zip(calls, outputs) if call["kind"] == "sweep"
        )
        hits, misses = _cache_counts()
        layers["presentations.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        result["layers"] = layers
        result["cache_misses"] = misses
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans(), handle, separators=(",", ":"))
    return result


def _sweep_threads(cli):
    """The CLI's sweep worker count with BARBELL_THREADS unset, or None
    if the CLI no longer has a thread cap."""
    count = getattr(cli, "_thread_count", None)
    return count() if callable(count) else None


def _cache_counts() -> tuple[int, int]:
    """Hits and misses of the Brunnian relator and image caches."""
    presentations = sys.modules.get("barbellcalc.presentations")
    hits = misses = 0
    for name in ("brunnian_relator", "brunnian_image"):
        info = getattr(getattr(presentations, name, None), "cache_info", None)
        if info is not None:
            stats = info()
            hits += stats.hits
            misses += stats.misses
    return hits, misses


if __name__ == "__main__":
    sys.exit(main())
