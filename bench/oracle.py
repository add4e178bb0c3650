"""Expected values for torus-complement scenario files, computed without barbellcalc.

The geometry is the universal cover of the unknotted-torus complement:
deck group Z (written t), F2 coefficients, and the pairing table

    P[S_h, S_v] = 1 + t,   P[D_v, S_v] = 1,   P[D_h, S_h] = 1,

with P[b, a] obtained from P[a, b] by t -> t^-1 and every other pairing
zero.  An F2 class is a set of (label, exponent) lifts; adding two
classes is their symmetric difference.

A barbell whose cuffs are one sphere label c (so every pairing among its
cuff lifts vanishes) has correction C with C(C(x)) = 0, and C commutes
with deck translations.  Applying it k times with offset o therefore
gives o^k (x + k C(x)) for either sign of k; over F2 only the parity of
k survives.  `closed_form_matrix` uses that identity.  `per_lift_action`
is the slower check behind it: it composes the action of every single
lift of the barbell in a finite cyclic quotient Z/m, one lift at a
time, and `selfcheck.py` compares the two.
"""

from __future__ import annotations

PAIRINGS = {
    ("S_h", "S_v"): (0, 1),
    ("D_v", "S_v"): (0,),
    ("D_h", "S_h"): (0,),
}


def pairing(a: str, b: str) -> tuple[int, ...]:
    """Exponents of P[a, b] (all coefficients are 1 over F2)."""
    if (a, b) in PAIRINGS:
        return PAIRINGS[(a, b)]
    if (b, a) in PAIRINGS:
        return tuple(-e for e in PAIRINGS[(b, a)])
    return ()


def equivariant_pairing(x: frozenset, b: str) -> set[int]:
    """Exponents g with <x, t^g b~> = 1."""
    out: set[int] = set()
    for label, u in x:
        out ^= {u + e for e in pairing(label, b)}
    return out


def correction(x: frozenset, cuff1: str, cuff2: str, hol: int) -> frozenset:
    out: set = set()
    for u in equivariant_pairing(x, cuff1):
        out ^= {(cuff2, u + hol)}
    for g in equivariant_pairing(x, cuff2):
        out ^= {(cuff1, g - hol)}
    return frozenset(out)


def closed_form_action(x: frozenset, barbell: dict) -> frozenset:
    """o^k (x + k C(x)) for one scenario barbell entry."""
    k = barbell["iterate"]
    shift = barbell.get("offset", 0) * k
    moved = set(x)
    if k % 2:
        moved ^= correction(x, barbell["cuff1"], barbell["cuff2"], barbell["holonomy"])
    return frozenset((label, u + shift) for label, u in moved)


def closed_form_matrix(scenario: dict) -> list[list[list[int]]]:
    """Exponent lists of every presentation-matrix entry: rows are belt
    disks, columns attaching spheres."""
    columns = []
    for sphere in scenario["attaching"]:
        x = frozenset({(sphere, 0)})
        for barbell in scenario["barbells"]:
            x = closed_form_action(x, barbell)
        columns.append([sorted(equivariant_pairing(x, disk)) for disk in scenario["disks"]])
    return [[columns[s][r] for s in range(len(columns))] for r in range(len(scenario["disks"]))]


def expected_fields(scenario: dict) -> dict:
    """The scenario file's `expected` block: matrix term lists in the
    engine's JSON form, plus the F2 quotient dimension of a 1x1 matrix
    (None when the entry is zero)."""
    matrix = closed_form_matrix(scenario)
    out: dict = {"matrix": [[[[[e], 1] for e in entry] for entry in row] for row in matrix]}
    if len(matrix) == 1 and len(matrix[0]) == 1:
        entry = matrix[0][0]
        out["dim"] = max(entry) - min(entry) if entry else None
    return out


# ---------------------------------------------------------------------------
# Per-lift brute force in the finite cyclic cover Z/m.


def _pair_lift(x: set, b: str, u: int, m: int) -> int:
    """<x, t^u b~> in Z/m: the pairing table pushed forward mod m."""
    total = 0
    for label, v in x:
        total += sum(1 for e in pairing(label, b) if (v + e - u) % m == 0)
    return total % 2


def _lift_step(x: set, a: tuple, b: tuple, m: int) -> set:
    """x + <x, a> b + <x, b> a for one lift with cuffs a, b."""
    hit_a = _pair_lift(x, a[0], a[1], m)
    hit_b = _pair_lift(x, b[0], b[1], m)
    out = set(x)
    if hit_a:
        out ^= {b}
    if hit_b:
        out ^= {a}
    return out


def per_lift_action(x: set, barbell: dict, m: int) -> set:
    """Compose the m lifts one at a time, |iterate| times; the inverse
    applies the (involutive over F2) lift maps in reverse order."""
    c1, c2, hol = barbell["cuff1"], barbell["cuff2"], barbell["holonomy"]
    offset = barbell.get("offset", 0)
    lifts = [((c1, u), (c2, (u + hol) % m)) for u in range(m)]
    k = barbell["iterate"]
    out = {(label, u % m) for label, u in x}
    for _ in range(abs(k)):
        if k > 0:
            for a, b in lifts:
                out = _lift_step(out, a, b, m)
            out = {(label, (u + offset) % m) for label, u in out}
        else:
            out = {(label, (u - offset) % m) for label, u in out}
            for a, b in reversed(lifts):
                out = _lift_step(out, a, b, m)
    return out


def per_lift_matrix(scenario: dict, m: int) -> list[list[list[int]]]:
    """The presentation matrix in Z/m by the per-lift brute force."""
    columns = []
    for sphere in scenario["attaching"]:
        x = {(sphere, 0)}
        for barbell in scenario["barbells"]:
            x = per_lift_action(x, barbell, m)
        column = []
        for disk in scenario["disks"]:
            column.append(sorted(u for u in range(m) if _pair_lift(x, disk, u, m)))
        columns.append(column)
    return [[columns[s][r] for s in range(len(columns))] for r in range(len(scenario["disks"]))]
