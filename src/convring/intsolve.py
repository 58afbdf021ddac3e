"""Linear systems over Z_{p^r} by one valuation-pivot decomposition.

Z_{p^r} is a chain ring, so elimination that pivots on an entry of least
p-adic valuation in the remaining submatrix, over rows and columns, ends
in U A V = D: that entry divides every other entry of its row and column
up to a unit, so one row and one column pass clear them both.  U and V
are invertible and D = diag(p^v_0, ..., p^v_(rank-1), 0, ...) (Kaplansky,
"Elementary divisors and modules", 1949; Storjohann and Mulders, "Fast
algorithms for linear algebra modulo N", ESA 1998).  With y = U b, A x = b
is solvable exactly when p^v_k divides y_k for k < rank and y_k = 0 for
k >= rank, and x = V (y / p^v) is then one solution.  The decomposition
reads no right-hand side, so a caller that solves many systems with one
matrix makes it once.  Entries stay reduced mod p^r throughout.
"""

from __future__ import annotations

from operator import floordiv, mod, mul
from typing import NamedTuple, Sequence

from .ring import RingContext


class Decomposition(NamedTuple):
    """U A V = D for an m x n matrix A over Z_q.

    U (m x m) and V (n x n) are invertible mod q, lists of rows with
    entries in [0, q).  D is zero but at (k, k) for k < rank, where it is
    pivots[k] = p^v_k; the valuations v_k never decrease.
    """

    q: int
    U: list[list[int]]
    V: list[list[int]]
    pivots: list[int]

    def solve(self, b: Sequence[int]) -> list[int] | None:
        """One solution x = V (U b / p^v) of A x = b, or None when it has none."""
        q, rank = self.q, len(self.pivots)
        y = [sum(map(mul, row, b)) % q for row in self.U]
        if any(y[rank:]) or any(map(mod, y, self.pivots)):
            return None
        z = list(map(floordiv, y, self.pivots))
        # the free coordinates z_k, k >= rank, are 0: zip stops at rank
        return [sum(map(mul, row, z)) % q for row in self.V]


def decompose(ctx: RingContext, data: Sequence[Sequence[int]], n: int) -> Decomposition:
    """U A V = D for the m x n matrix data over Z_{p^r}, by valuation-pivot elimination.

    Each step takes an entry of least valuation v among the rows and
    columns left (the first one, row by row), swaps it to (k, k), scales
    its row to make it p^v, and clears its column below it and its row
    right of it.  The rows above k are already zero off the diagonal, so
    the column operations change row k alone.  Each row carries its row
    of U on its right, and V records the column operations.  No entry
    left has a valuation below v, so the next search starts at v.
    """
    p, q = ctx.p, ctx.q
    m = len(data)
    # the rows of [A | U], U from the identity
    rows = [[a % q for a in row] + [0] * i + [1] + [0] * (m - 1 - i) for i, row in enumerate(data)]
    cols = [[0] * j + [1] + [0] * (n - 1 - j) for j in range(n)]  # cols[j]: column j of V
    pivots: list[int] = []
    v = 0
    for k in range(min(m, n)):
        hit = None
        while hit is None and v < ctx.r:
            # the first entry of valuation v, none lower being left
            pv1 = p ** (v + 1)
            hit = next(((i, j) for i in range(k, m) for j in range(k, n) if rows[i][j] % pv1), None)
            v += hit is None
        if hit is None:
            break
        pi, pj = hit
        rows[k], rows[pi] = rows[pi], rows[k]
        if pj != k:
            for row in rows:
                row[k], row[pj] = row[pj], row[k]
            cols[k], cols[pj] = cols[pj], cols[k]
        pv, piv = p**v, rows[k]
        inv = pow(piv[k] // pv, -1, q)
        if inv != 1:
            piv = rows[k] = [a * inv % q for a in piv]
        for i in range(k + 1, m):
            f = rows[i][k] // pv
            if f:
                rows[i] = [(a - f * c) % q for a, c in zip(rows[i], piv)]
        for j in range(k + 1, n):
            g = piv[j] // pv
            if g:
                piv[j] = 0
                cols[j] = [(a - g * c) % q for a, c in zip(cols[j], cols[k])]
        pivots.append(pv)
    return Decomposition(q, [row[n:] for row in rows], [list(row) for row in zip(*cols)], pivots)


def solve_mod(ctx: RingContext, data: Sequence[Sequence[int]], b: Sequence[int]):
    """One solution of A x = b over Z_{p^r}, or None when inconsistent."""
    n = len(data[0]) if data else 0
    x = decompose(ctx, data, n).solve(b)
    if x is not None and any((sum(map(mul, row, x)) - bi) % ctx.q for row, bi in zip(data, b)):
        raise AssertionError("valuation-pivot solve produced a non-solution")
    return x
