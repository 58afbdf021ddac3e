import random
import time

import pytest

from convring import CapExceeded, RingContext
from convring.intsolve import solve_mod
from convring.linsolve import enumerate_solutions

Z4 = RingContext(2, 2)
Z8 = RingContext(2, 3)
Z9 = RingContext(3, 2)
Z25 = RingContext(5, 2)


def _holds(ctx, A, b, x):
    return all((sum(a * v for a, v in zip(row, x)) - bi) % ctx.q == 0 for row, bi in zip(A, b))


@pytest.mark.parametrize("ctx", [Z4, Z8, Z9, Z25], ids=lambda c: f"Z{c.q}")
def test_solve_mod_matches_brute_force(ctx):
    rng = random.Random(ctx.q)
    max_n = max(n for n in range(1, 7) if ctx.q**n <= 4096)
    solvable_seen = unsolvable_seen = 0
    for _ in range(80):
        n = rng.randint(1, max_n)
        m = rng.randint(1, 6)
        # entries of every valuation, so that pivots are often non-units
        A = [[ctx.p ** rng.randint(0, ctx.r) * rng.randrange(ctx.q) % ctx.q for _ in range(n)]
             for _ in range(m)]
        if rng.random() < 0.5:
            x0 = [rng.randrange(ctx.q) for _ in range(n)]
            b = [sum(a * v for a, v in zip(row, x0)) % ctx.q for row in A]
        else:
            b = [rng.randrange(ctx.q) for _ in range(m)]
        brute = next(enumerate_solutions(A, b, n, ctx.q, 4096), None)
        x = solve_mod(ctx, A, b)
        assert (x is None) == (brute is None), (A, b)
        if x is None:
            unsolvable_seen += 1
        else:
            solvable_seen += 1
            assert _holds(ctx, A, b, x)
    assert solvable_seen and unsolvable_seen


def test_solve_mod_z25_regression():
    """A 6x5 system on which the integer Smith form blew up."""
    A = [
        [11, 20, 5, 20, 20],
        [15, 5, 0, 23, 5],
        [15, 15, 10, 10, 5],
        [5, 15, 11, 0, 10],
        [10, 4, 10, 17, 20],
        [2, 15, 15, 10, 10],
    ]
    x0 = [3, 14, 0, 7, 22]
    b = [sum(a * v for a, v in zip(row, x0)) % 25 for row in A]
    t0 = time.perf_counter()
    x = solve_mod(Z25, A, b)
    assert time.perf_counter() - t0 < 1.0
    assert x is not None and _holds(Z25, A, b, x)


def test_solve_mod_degenerate_shapes():
    assert solve_mod(Z8, [], []) == []
    assert solve_mod(Z8, [[0, 0]], [0]) == [0, 0]
    assert solve_mod(Z8, [[0, 0]], [4]) is None
    assert solve_mod(Z8, [[4, 0]], [2]) is None
    assert solve_mod(Z8, [[4, 2]], [6]) is not None


def test_enumerate_solutions_cap_and_order():
    with pytest.raises(CapExceeded):
        next(enumerate_solutions([[1, 1]], [0], 2, 4, cap=15))
    got = [tuple(int(v) for v in x) for x in enumerate_solutions([[1, 1]], [0], 2, 4, cap=16)]
    assert got == [(0, 0), (1, 3), (2, 2), (3, 1)]
    # no equations: every candidate is a solution
    assert len(list(enumerate_solutions([], [], 2, 3, cap=9))) == 9
