"""
An exact linear solver over F2 for small dense systems.

Used by the summand-membership tests: deciding whether a class is a
combination of kernel generators on a finite joint support.  Matrices
here have a handful of rows and columns, so textbook mod-2 Gaussian
elimination is plenty.
"""

from __future__ import annotations

Matrix = list[list[int]]


def solve_mod2(a: Matrix, b: list[int]) -> list[int] | None:
    """One solution x of A x = b over F2, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [[v % 2 for v in row] + [b[i] % 2] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        for i in range(rows):
            if i != r and aug[i][c]:
                aug[i] = [(x + y) % 2 for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols]:
            return None
    x = [0] * cols
    for i, c in enumerate(pivots):
        x[c] = aug[i][cols]
    return x
