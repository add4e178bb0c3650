import itertools
import random

from oracles import solve_mod2


def test_mod2_solver_against_enumeration():
    rng = random.Random(13)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        b = [rng.randint(0, 1) for _ in range(rows)]
        got = solve_mod2(a, b)
        solvable = any(
            all(sum(a[i][j] * x[j] for j in range(cols)) % 2 == b[i] for i in range(rows))
            for x in itertools.product((0, 1), repeat=cols)
        )
        assert (got is not None) == solvable
        if got is not None:
            assert all(sum(a[i][j] * got[j] for j in range(cols)) % 2 == b[i] for i in range(rows))
