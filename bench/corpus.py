"""Seeded corpora of CLI calls, one per workload.

A corpus is a list of calls; each call is a dict with the CLI argument
list (`argv`), its `kind` (theorem, sweep or scenario), the output
`format`, a stable `key` used to look up reference stdout digests, and
what the correctness gate needs: the job count of a sweep, the oracle
matrix of a scenario file.  Every call is expected to exit 0 with a
PASS report.

The seed picks parameters, formats and call order.  Where a call's
cost grows quickly with its parameters (word powers, iterate chains,
cover order), the values are fixed and the seed only orients them
(k, l or l, k) and picks the rest, so every seed asks for about the
same amount of work, the percentiles fall on the same kind of call,
and the run-to-run spread of the figures measures the program, not the
draw.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from oracle import expected_fields

WORKLOADS = ("torus-grid", "brunnian-words", "cover-iterates")


def _key(argv: list[str], scenario: dict | None = None) -> str:
    payload = json.dumps({"argv": argv, "scenario": scenario}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def _call(kind: str, name: str, fmt: str, **params) -> dict:
    argv = [kind, name]
    for flag, value in params.items():
        argv += [f"--{flag}", str(value)]
    if fmt == "machine":
        argv += ["--format", "machine"]
    return {"kind": kind, "argv": argv, "format": fmt, "key": _key(argv)}


def _formats(rng: random.Random, count: int) -> list[str]:
    """Half table, half machine, in seeded order."""
    out = ["table", "machine"] * (count // 2) + ["table"] * (count % 2)
    rng.shuffle(out)
    return out


def _theorem(name: str, fmt: str, **params) -> dict:
    return _call("theorem", name, fmt, **params)


def _sweep(name: str, fmt: str, jobs: int, **params) -> dict:
    return {**_call("sweep", name, fmt, **params), "jobs": jobs}


# ---------------------------------------------------------------------------
# torus-grid: many small jobs over F2[t, t^-1].


def torus_grid(rng: random.Random, workdir: str) -> list[dict]:
    # Small grids: the two sweep threads' interplay under the interpreter
    # lock varies with the host's other load far more than single calls do,
    # so the sweeps are kept to about a third of a pass.
    calls = [
        _sweep("morsesimple", "table", 64, max=8),
        _sweep("higher-dim", "machine", 64, max=8),
    ]
    for name in ("morsesimple-s3", "higher-dim-knots", "unknots"):
        for fmt in _formats(rng, 40):
            calls.append(_theorem(name, fmt, k=rng.randint(1, 40), l=rng.randint(1, 40)))
    # genus1-hd needs k, l >= 100 for its default intersection data
    for fmt in _formats(rng, 40):
        calls.append(_theorem("genus1-hd", fmt, k=rng.randint(100, 160), l=rng.randint(100, 160)))
    return calls


# ---------------------------------------------------------------------------
# brunnian-words: free-group words |w_n| = 4..94 letters.


def _grid(top: int) -> list[tuple[int, int]]:
    return [(k, l) for k in range(1, top + 1) for l in range(k, top + 1)]


# (components n, unordered winding pairs {k, l}); |w_n| = 4, 10, 22, 46, 94
# letters for n = 3..7.  Call cost rises steeply with n and k, so the
# pairs are fixed and the seed picks each pair's order, the formats and
# the call order: the tail above p90 is then the same work for every seed.
_BRUNNIAN_STRATA = (
    (3, _grid(11)),
    (4, _grid(6)),
    (5, _grid(4)),
    (6, [(1, 1), (1, 2)]),
    (7, [(1, 2)]),
    # the large-k tail, where DeckElement.pow is O(k^2 |w|)
    (3, [(88, 96), (92, 100)]),
    (4, [(36, 40)]),
)


def brunnian_words(rng: random.Random, workdir: str) -> list[dict]:
    calls = []
    for n, pairs in _BRUNNIAN_STRATA:
        for (k, l), fmt in zip(pairs, _formats(rng, len(pairs))):
            if rng.random() < 0.5:
                k, l = l, k
            calls.append(_theorem("linked-6crit", fmt, n=n, k=k, l=l))
    # the CLI has no --kp/--lp flags: distinctness tests come from the sweep
    calls.append(_sweep("brunnian", rng.choice(("table", "machine")), 45, n=3, max=4))
    return calls


# ---------------------------------------------------------------------------
# cover-iterates: long correction chains, intlinalg and large-m covers.

# |iterate| of the scenario files' barbells, one tuple per file.  The
# seed picks holonomies, offset values, formats and order; the iteration
# work of each file is fixed by its rank: every other barbell has S_h
# cuffs (S_v otherwise), every third is inverted (the Neumann-series
# path), every other one has an offset, and the matrix shapes cycle.
_SCENARIO_ITERATES = (
    [(1000,), (700,), (500,), (300,), (300,), (200,), (200,), (150,), (150,), (100,), (100,)]
    + [(30,)] * 5 + [(30, 8)] * 20 + [(8, 8)] * 4
)
_SCENARIO_SHAPES = (  # (attaching spheres, belt disks)
    (["S_v"], ["D_v"]),
    (["S_v", "S_h"], ["D_v"]),
    (["S_v"], ["D_v"]),
    (["S_v"], ["D_v", "D_h"]),
    (["S_v", "S_h"], ["D_v", "D_h"]),
)


def _barbell(rng: random.Random, size: int, rank: int) -> dict:
    cuff = ("S_h", "S_v")[rank % 2]
    barbell = {"cuff1": cuff, "cuff2": cuff, "holonomy": rng.choice([h for h in range(-9, 10) if h])}
    barbell["iterate"] = -size if rank % 3 == 1 else size
    if rank % 2 == 0:
        barbell["offset"] = rng.choice((-3, -2, -1, 1, 2, 3))
    return barbell


def scenario_files(rng: random.Random) -> list[dict]:
    """The workload's scenario documents, without their expected values."""
    files = []
    rank = 0
    for index, sizes in enumerate(_SCENARIO_ITERATES):
        barbells = []
        for size in sizes:
            barbells.append(_barbell(rng, size, rank))
            rank += 1
        attaching, disks = _SCENARIO_SHAPES[index % len(_SCENARIO_SHAPES)]
        data = {"geometry": "torus_complement", "barbells": barbells, "attaching": attaching, "disks": disks}
        if rng.random() < 0.5:
            data["field"] = "f2"
        files.append(data)
    return files


def cover_iterates(rng: random.Random, workdir: str) -> list[dict]:
    calls = []
    files = scenario_files(rng)
    for index, (data, fmt) in enumerate(zip(files, _formats(rng, len(files)))):
        data["expected"] = expected_fields(data)
        path = os.path.join(workdir, f"scenario-{index:03d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, sort_keys=True)
        argv = ["scenario", path] + (["--format", fmt] if fmt == "machine" else [])
        key_argv = ["scenario", "<file>"] + argv[2:]
        calls.append({
            "kind": "scenario", "argv": argv, "format": fmt, "key": _key(key_argv, data),
            "oracle": data["expected"],
        })

    # integer iterate chains: cost is linear in the iterates; fixed pairs, seeded order
    for k, fmt in zip([800, 600, 400, 200], _formats(rng, 4)):
        calls.append(_theorem("simple-5d", fmt, k=k))
    for name in ("disks-5dlinked", "simple-knotted-handlebody"):
        for (k, l), fmt in zip([(2000, 300), (1800, 500), (1500, 700), (1200, 1000)], _formats(rng, 4)):
            if rng.random() < 0.5:
                k, l = l, k
            calls.append(_theorem(name, fmt, k=k, l=l))
    for (k, l), fmt in zip([(3000, 0), (2400, 5), (1800, 10), (1200, 20)], _formats(rng, 4)):
        calls.append(_theorem("circle-splittingspheres", fmt, k=k, l=l))

    # covers: the m-term pairing dict of genus1-handlebody sets peak memory
    for m, fmt in zip([100000, 50000, 25000, 10000], _formats(rng, 4)):
        calls.append(_theorem("genus1-handlebody", fmt, m=m, k=rng.randint(1, 20), l=rng.randint(0, 20)))
    # the cheap calls are more than half the corpus, so p50 lies inside them
    for name in ("less-simple", "simple-splitting-spheres"):
        for fmt in _formats(rng, 40):
            calls.append(_theorem(name, fmt, m=rng.randint(1000, 100000), k=rng.randint(1, 50), l=rng.randint(0, 50)))
    return calls


_BUILDERS = {
    "torus-grid": torus_grid,
    "brunnian-words": brunnian_words,
    "cover-iterates": cover_iterates,
}


def build(workload: str, seed: int, workdir: str) -> list[dict]:
    """The workload's calls for this seed, in the order a pass issues
    them; scenario files are written under workdir."""
    rng = random.Random(f"barbellcalc-bench/{workload}/{seed}")
    calls = _BUILDERS[workload](rng, workdir)
    rng.shuffle(calls)
    return calls
