import random
import time

import pytest

from convring import CapExceeded, RingContext
from convring.intsolve import decompose, solve_mod
from convring.linsolve import enumerate_solutions, rank_mod_p

Z4 = RingContext(2, 2)
Z8 = RingContext(2, 3)
Z9 = RingContext(3, 2)
Z16 = RingContext(2, 4)
Z25 = RingContext(5, 2)
Z27 = RingContext(3, 3)
DECOMPOSITION_RINGS = [Z4, Z8, Z9, Z16, Z25, Z27]


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


def _random_system(ctx, rng, n):
    """An m x n matrix over Z_q, m in 0..6, with entries of every valuation and some zero rows and columns."""
    m = rng.randint(0, 6)
    A = [[ctx.p ** rng.randint(0, ctx.r) * rng.randrange(ctx.q) % ctx.q for _ in range(n)] for _ in range(m)]
    for row in A:
        if rng.random() < 0.1:
            row[:] = [0] * n
    if n and rng.random() < 0.2:
        for row in A:
            row[rng.randrange(n)] = 0
    return A


def _matmul(X, Y, q, inner):
    return [[sum(X[i][k] * Y[k][j] for k in range(inner)) % q for j in range(len(Y[0]) if Y else 0)] for i in range(len(X))]


@pytest.mark.parametrize("ctx", DECOMPOSITION_RINGS, ids=lambda c: f"Z{c.q}")
def test_decompose_is_diagonal_with_invertible_sides(ctx):
    # U A V = diag(p^v_0, ..., p^v_(rank-1), 0, ...), the valuations never
    # decrease, and U and V are invertible mod p (so mod q); shapes include
    # no rows, no columns, zero rows and zero columns
    rng = random.Random(500 + ctx.q)
    for _ in range(150):
        n = rng.randint(0, 6)
        A = _random_system(ctx, rng, n)
        m = len(A)
        dec = decompose(ctx, A, n)
        assert (len(dec.U), len(dec.V)) == (m, n)
        assert all(len(row) == m for row in dec.U) and all(len(row) == n for row in dec.V)
        rank = len(dec.pivots)
        vals = [ctx.val(pv) for pv in dec.pivots]
        assert dec.pivots == [ctx.p**v for v in vals] and vals == sorted(vals) and max(vals, default=0) < ctx.r
        D = [[dec.pivots[i] if i == j and i < rank else 0 for j in range(n)] for i in range(m)]
        assert _matmul(_matmul(dec.U, A, ctx.q, m), dec.V, ctx.q, n) == D
        assert rank_mod_p(dec.U, ctx.p) == m and rank_mod_p(dec.V, ctx.p) == n


@pytest.mark.parametrize("ctx", DECOMPOSITION_RINGS, ids=lambda c: f"Z{c.q}")
def test_decompose_solves_and_counts_like_brute_force(ctx):
    # on systems with q^e <= 2^12, solve_mod finds a solution exactly when
    # brute force does, and a solvable system has p^(sum v_k + r (e - rank))
    # solutions, read off the decomposition
    rng = random.Random(600 + ctx.q)
    max_e = max(e for e in range(1, 13) if ctx.q**e <= 2**12)
    seen = set()
    for _ in range(120):
        e = rng.randint(1, max_e)
        A = _random_system(ctx, rng, e)
        if rng.random() < 0.6:
            x0 = [rng.randrange(ctx.q) for _ in range(e)]
            b = [sum(a * v for a, v in zip(row, x0)) % ctx.q for row in A]
        else:
            b = [rng.randrange(ctx.q) for _ in A]
        brute = list(enumerate_solutions(A, b, e, ctx.q, 2**12))
        x = solve_mod(ctx, A, b)
        assert (x is None) == (not brute), (A, b)
        if x is None:
            seen.add("unsolvable")
            continue
        assert _holds(ctx, A, b, x)
        dec = decompose(ctx, A, e)
        rank = len(dec.pivots)
        count = ctx.p ** (sum(ctx.val(pv) for pv in dec.pivots) + ctx.r * (e - rank))
        assert count == len(brute)
        seen.add("unique" if count == 1 else "list")
    assert seen == {"unsolvable", "unique", "list"}


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
