"""Linear systems over Z_{p^r} by valuation-pivot elimination.

Z_{p^r} is a local ring, so Gaussian elimination stays exact when every
step pivots on an entry of least p-adic valuation in the remaining
submatrix: that entry divides every other entry of its column, and the
entries right of it in its row, up to a unit.  The system is solvable
exactly when each pivot's valuation is at most that of its reduced
right-hand side and every zero row has a zero right-hand side
(Storjohann and Mulders, "Fast algorithms for linear algebra modulo N",
ESA 1998).  Entries stay reduced mod p^r throughout.
"""

from __future__ import annotations

from typing import Sequence

from .ring import RingContext


def solve_mod(ctx: RingContext, data: Sequence[Sequence[int]], b: Sequence[int]):
    """One solution of A x = b over Z_{p^r}, or None when inconsistent."""
    p, q = ctx.p, ctx.q
    m = len(data)
    n = len(data[0]) if m else 0
    rows = [[a % q for a in row] + [bi % q] for row, bi in zip(data, b)]
    order = list(range(n))  # order[j]: the unknown held in column j
    rank = 0
    while rank < min(m, n):
        best = None
        for i in range(rank, m):
            for j in range(rank, n):
                if rows[i][j]:
                    v = ctx.val(rows[i][j])
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, pi, pj = best
        rows[rank], rows[pi] = rows[pi], rows[rank]
        for row in rows:
            row[rank], row[pj] = row[pj], row[rank]
        order[rank], order[pj] = order[pj], order[rank]
        piv = rows[rank]
        inv = pow(piv[rank] // p**v, -1, q)
        for row in rows[rank + 1 :]:
            f = (row[rank] // p**v) * inv % q
            if f:
                row[:] = [(a - f * c) % q for a, c in zip(row, piv)]
        rank += 1
    if any(row[n] for row in rows[rank:]):
        return None
    y = [0] * n
    for k in reversed(range(rank)):
        row = rows[k]
        s = (row[n] - sum(row[j] * y[j] for j in range(k + 1, n))) % q
        v = ctx.val(row[k])
        if ctx.val(s) < v:
            return None
        y[k] = (s // p**v) * pow(row[k] // p**v, -1, q) % q
    x = [0] * n
    for j, var in enumerate(order):
        x[var] = y[j]
    for row, bi in zip(data, b):
        if (sum(a * v for a, v in zip(row, x)) - bi) % q:
            raise AssertionError("valuation-pivot solve produced a non-solution")
    return x
