"""Checks on the benchmark itself.

    python3 bench/selfcheck.py                    # all checks
    python3 bench/selfcheck.py --record-digests   # rewrite digests.json from seed 0

1. Oracle: the closed form that fills the scenario files' `expected`
   blocks agrees with the per-lift brute force in finite cyclic covers
   Z/m, on small-iterate scenarios with m larger than every exponent
   (a faithful projection) and on the full seed-0 corpus with small m.
2. Determinism: two traced passes of seed 0, each in a fresh
   interpreter, give identical counters.  The metrics in
   tracer.SCHEDULING_DEPENDENT may differ.  Those in
   tracer.CACHE_RACE_DEPENDENT may differ only when the two passes
   missed the Brunnian caches a different number of times (sweep pool
   threads that miss the same key both compute it), and by no more than
   that difference times the most one key of the corpus's Brunnian
   sweep costs to compute from empty caches.
3. Accounting: in every traced pass the per-layer self times sum to no
   more than the traced pass's wall time.
4. Gate: every call of those passes passes the correctness gate,
   including the reference stdout digests.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys

import corpus
import oracle
from run import ROOT, spawn_worker
from tracer import CACHE_RACE_DEPENDENT, METRIC_UNITS, SCHEDULING_DEPENDENT, Tracer
from worker import SRC

SEED = 0  # the seed of digests.json and of every pass checked here


def _project(matrix: list[list[list[int]]], m: int) -> list[list[list[int]]]:
    """Push exponent lists from Z to Z/m, adding coefficients mod 2."""
    out = []
    for row in matrix:
        projected = []
        for entry in row:
            parity: dict[int, int] = {}
            for e in entry:
                parity[e % m] = parity.get(e % m, 0) ^ 1
            projected.append(sorted(r for r, bit in parity.items() if bit))
        out.append(projected)
    return out


def check_oracle() -> list[str]:
    problems = []
    scenarios = []
    for seed in range(20):
        rng = random.Random(f"selfcheck/{seed}")
        for data in corpus.scenario_files(rng)[-8:]:
            for barbell in data["barbells"]:
                barbell["iterate"] = (1 if barbell["iterate"] > 0 else -1) * rng.randint(1, 5)
            scenarios.append((101, data))
    workdir = os.path.join("bench", "_work", f"selfcheck-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        calls = corpus.build("cover-iterates", SEED, workdir)
        for call in calls:
            if call["kind"] == "scenario":
                with open(call["argv"][1], encoding="utf-8") as handle:
                    data = json.load(handle)
                scenarios += [(7, data), (12, data)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for m, scenario in scenarios:
        closed = _project(oracle.closed_form_matrix(scenario), m)
        brute = oracle.per_lift_matrix(scenario, m)
        if closed != brute:
            problems.append(f"oracle: closed form and per-lift brute force differ in Z/{m} on {scenario}")
    print(f"oracle: {len(scenarios)} scenarios compared with the per-lift brute force, {len(problems)} differ")
    return problems


def one_pass(workload: str, traced: bool) -> dict:
    workdir = os.path.join("bench", "_work", f"selfcheck-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        calls = corpus.build(workload, SEED, workdir)
        corpus_path = os.path.join(workdir, "corpus.json")
        with open(corpus_path, "w", encoding="utf-8") as handle:
            json.dump(calls, handle)
        extra = [os.path.join(workdir, "spans.json")] if traced else []
        result = spawn_worker("pass", corpus_path, *extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["calls"] = calls
    return result


def per_miss_work(calls: list[dict]) -> dict[str, int]:
    """For each CACHE_RACE_DEPENDENT counter, the most that computing one
    key of the corpus's Brunnian sweeps from empty caches adds to it:
    the work one extra cache miss can duplicate.  Traced here, in this
    interpreter; no key, no tolerance."""
    keys = set()
    for call in calls:
        argv = call["argv"]
        if argv[:2] == ["sweep", "brunnian"]:
            n, top = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--max") + 1])
            keys |= {(k, l, n) for k in range(1, top + 1) for l in range(k, top + 1)}
    worst = dict.fromkeys(CACHE_RACE_DEPENDENT, 0)
    if not keys:
        return worst
    sys.path.insert(0, SRC)
    import barbellcalc.cli  # noqa: F401  (loads every module the tracer wraps)

    presentations = sys.modules["barbellcalc.presentations"]
    tracer = Tracer()
    tracer.install()
    for key in sorted(keys):
        presentations.brunnian_relator.cache_clear()
        presentations.brunnian_image.cache_clear()
        before = tracer.layer_metrics()
        presentations.brunnian_image(*key)
        after = tracer.layer_metrics()
        for name in worst:
            worst[name] = max(worst[name], after[name] - before[name])
    return worst


def check_traced(workload: str) -> list[str]:
    problems = []
    first, second = one_pass(workload, True), one_pass(workload, True)
    extra_misses = abs(first["cache_misses"] - second["cache_misses"])
    per_miss = per_miss_work(first["calls"]) if extra_misses else {}
    timed = {name for name, unit in METRIC_UNITS.items() if unit == "s"}
    differ = sorted(
        name for name in first["layers"]
        if name not in timed and first["layers"][name] != second["layers"][name]
    )
    def tolerated(name: str) -> bool:
        if name in SCHEDULING_DEPENDENT:
            return True
        a, b = first["layers"][name], second["layers"][name]
        return name in CACHE_RACE_DEPENDENT and abs(a - b) <= extra_misses * per_miss.get(name, 0)

    unexpected = [name for name in differ if not tolerated(name)]
    if unexpected:
        problems.append(f"{workload}: counters differ between two traced passes: "
                        + ", ".join(f"{n} {first['layers'][n]} vs {second['layers'][n]}" for n in unexpected))
    for result in (first, second):
        total = sum(result["layers"][f"{layer}.self_s"] for layer in
                    ("deckgroup", "groupring", "equivariant", "presentations", "intlinalg", "scenarios", "cli"))
        wall = result["wall_ns"] / 1e9
        if total > wall:
            problems.append(f"{workload}: layer self times sum to {total:.4f} s, more than the traced wall {wall:.4f} s")
        for index, reason in result["failures"]:
            problems.append(f"{workload}: call {index} {' '.join(result['calls'][index]['argv'])}: {reason}")
    print(f"{workload}: traced walls {first['wall_ns'] / 1e9:.3f} s and {second['wall_ns'] / 1e9:.3f} s; "
          f"Brunnian cache misses {first['cache_misses']} and {second['cache_misses']}; "
          "counters that differ: " + (", ".join(f"{n} {first['layers'][n]} vs {second['layers'][n]}" for n in differ) or "none"))
    return problems


def record_digests() -> None:
    table = {}
    for workload in corpus.WORKLOADS:
        result = one_pass(workload, False)
        bad = [reason for _, reason in result["failures"] if "reference digest" not in reason]
        if bad:
            raise SystemExit(f"{workload}: refusing to record digests of failing calls: {bad[:3]}")
        for call, digest in zip(result["calls"], result["digests"]):
            table[call["key"]] = digest
    with open(os.path.join("bench", "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(table)} reference digests for seed {SEED}")


def main() -> int:
    parser = argparse.ArgumentParser(description="checks on the benchmark itself")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.record_digests:
        record_digests()
        return 0
    problems = check_oracle()
    for workload in corpus.WORKLOADS:
        problems += check_traced(workload)
    for problem in problems:
        print("PROBLEM " + problem)
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
