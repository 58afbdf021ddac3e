"""Constant matrices over Z_{p^r} and exact linear solving over Z_p.

The row-reduction kernel is shared by the plain solver, rank computation,
and the decoder's parametric stage solves (augmented payloads carry either
numbers or affine forms).  It is also the single place where Z_p
multiply-accumulate operations are counted, so decoding cost measurements
all flow through OPS.  The brute-force enumerator behind the decoding
oracle and the distance searches lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import CapExceeded
from .ring import RingContext


class OpCounter:
    """Deterministic multiply-accumulate counter for Z_p eliminations."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += n

    def reset(self):
        self.count = 0


OPS = OpCounter()

_CHUNK = 1 << 14  # candidates per brute-force block


class ConstMatrix:
    """Immutable integer matrix bound to a RingContext."""

    __slots__ = ("ctx", "rows", "cols", "data")

    def __init__(self, ctx: RingContext, data: Sequence[Sequence[int]], cols: int | None = None):
        q = ctx.q
        grid = tuple(tuple(x % q for x in row) for row in data)
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("ragged rows")
        self.ctx = ctx
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else (cols or 0)
        self.data = grid

    @classmethod
    def identity(cls, ctx: RingContext, n: int) -> "ConstMatrix":
        return cls(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, ctx: RingContext, m: int, n: int) -> "ConstMatrix":
        return cls(ctx, [[0] * n for _ in range(m)], cols=n)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def _check(self, other: "ConstMatrix"):
        if self.ctx != other.ctx:
            raise ValueError("mismatched ring contexts")

    def __add__(self, other: "ConstMatrix") -> "ConstMatrix":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix addition")
        return ConstMatrix(
            self.ctx,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            cols=self.cols,
        )

    def __neg__(self) -> "ConstMatrix":
        return ConstMatrix(self.ctx, [[-a for a in row] for row in self.data], cols=self.cols)

    def __matmul__(self, other: "ConstMatrix") -> "ConstMatrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        q = self.ctx.q
        out = []
        for i in range(self.rows):
            ri = self.data[i]
            row = []
            for j in range(other.cols):
                acc = 0
                for k in range(self.cols):
                    acc += ri[k] * other.data[k][j]
                row.append(acc % q)
            out.append(row)
        return ConstMatrix(self.ctx, out, cols=other.cols)

    def mul_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        q = self.ctx.q
        return tuple(sum(a * x for a, x in zip(row, vec)) % q for row in self.data)

    def scale(self, c: int) -> "ConstMatrix":
        return ConstMatrix(self.ctx, [[c * a for a in row] for row in self.data], cols=self.cols)

    def transpose(self) -> "ConstMatrix":
        return ConstMatrix(
            self.ctx,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def proj(self) -> "ConstMatrix":
        return ConstMatrix(self.ctx.residue_field(), self.data, cols=self.cols)

    def vstack(self, other: "ConstMatrix") -> "ConstMatrix":
        self._check(other)
        if other.rows == 0:
            return self
        if self.rows == 0:
            return other
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return ConstMatrix(self.ctx, list(self.data) + list(other.data))

    def __eq__(self, other):
        return (
            isinstance(other, ConstMatrix)
            and self.ctx == other.ctx
            and self.data == other.data
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.data, self.cols, self.ctx.q))

    def __repr__(self):
        return f"ConstMatrix({self.rows}x{self.cols} mod {self.ctx.q}: {self.data})"


def rref_mod_p(
    rows: list[list[int]],
    p: int,
    payloads: list | None = None,
    scale_payload: Callable | None = None,
    submul_payload: Callable | None = None,
) -> list[int]:
    """In-place reduced row echelon form over Z_p; returns pivot columns.

    payloads, when given, is a parallel list transformed by the same row
    operations (scale_payload(x, c) and submul_payload(x, f, y) compute
    c*x and x - f*y in whatever algebra the payload lives in).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pr = -1
        for i in range(r, m):
            if rows[i][col] % p:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        if payloads is not None:
            payloads[r], payloads[pr] = payloads[pr], payloads[r]
        inv = pow(rows[r][col], -1, p)
        if inv != 1:
            rows[r] = [(inv * x) % p for x in rows[r]]
            OPS.add(n - col)
            if payloads is not None:
                payloads[r] = scale_payload(payloads[r], inv)
        for i in range(m):
            if i == r:
                continue
            f = rows[i][col] % p
            if f == 0:
                continue
            ri, rr = rows[i], rows[r]
            rows[i] = [(a - f * b) % p for a, b in zip(ri, rr)]
            OPS.add(n - col + 1)
            if payloads is not None:
                payloads[i] = submul_payload(payloads[i], f, payloads[r])
        pivots.append(col)
        r += 1
        if r == m:
            break
    return pivots


def rank_mod_p(data: Sequence[Sequence[int]], p: int) -> int:
    rows = [list(r) for r in data]
    if not rows:
        return 0
    return len(rref_mod_p(rows, p))


@dataclass(frozen=True)
class AffineSet:
    """An affine subspace of Z_p^e: particular point plus a basis.

    The basis is kept in reduced echelon form so equal sets compare equal
    after canonicalization.  An infeasible system yields feasible=False.
    """

    p: int
    dim: int
    feasible: bool
    particular: tuple[int, ...] = ()
    basis: tuple[tuple[int, ...], ...] = ()

    @classmethod
    def infeasible(cls, p: int, dim: int) -> "AffineSet":
        return cls(p=p, dim=dim, feasible=False)

    @property
    def size(self) -> int:
        return self.p ** len(self.basis) if self.feasible else 0

    def canonical(self) -> "AffineSet":
        if not self.feasible:
            return AffineSet.infeasible(self.p, self.dim)
        rows = [list(b) for b in self.basis]
        pivots = rref_mod_p(rows, self.p) if rows else []
        rows = [r for r in rows if any(x % self.p for x in r)]
        part = [x % self.p for x in self.particular]
        for row, col in zip(rows, pivots):
            f = part[col]
            if f:
                part = [(a - f * b) % self.p for a, b in zip(part, row)]
        return AffineSet(self.p, self.dim, True, tuple(part), tuple(tuple(r) for r in rows))

    def same_set(self, other: "AffineSet") -> bool:
        return self.canonical() == other.canonical()

    def contains(self, point: Sequence[int]) -> bool:
        if not self.feasible or len(point) != self.dim:
            return False
        diff = [(a - b) % self.p for a, b in zip(point, self.particular)]
        rows = [list(b) for b in self.basis] + [diff]
        return rank_mod_p(rows, self.p) == len(self.basis)

    def points(self, cap: int = 1 << 20):
        """Enumerate all members; raises CapExceeded past the cap."""
        if not self.feasible:
            return
        if self.size > cap:
            raise CapExceeded(f"affine set of size {self.size} exceeds cap {cap}")
        stack = [tuple(self.particular)]
        for b in self.basis:
            stack = [
                tuple((x + c * y) % self.p for x, y in zip(pt, b))
                for pt in stack
                for c in range(self.p)
            ]
        seen = set()
        for pt in stack:
            if pt not in seen:
                seen.add(pt)
                yield pt


def solve_mod_p(data: Sequence[Sequence[int]], b: Sequence[int], p: int) -> AffineSet:
    """All solutions of A x = b over Z_p as an AffineSet.

    Infeasibility is a value (feasible=False), not an error.  The basis of
    the solution set has size e - rank(A).
    """
    m = len(data)
    n = len(data[0]) if m else 0
    rows = [list(r) for r in data]
    payloads = [x % p for x in b]

    def pscale(x, c):
        return (x * c) % p

    def psubmul(x, f, y):
        return (x - f * y) % p

    pivots = rref_mod_p(rows, p, payloads, pscale, psubmul) if m else []
    npiv = len(pivots)
    for i in range(npiv, m):
        if payloads[i] % p:
            return AffineSet.infeasible(p, n)
    particular = [0] * n
    for r, col in enumerate(pivots):
        particular[col] = payloads[r] % p
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [0] * n
        vec[free] = 1
        for r, col in enumerate(pivots):
            vec[col] = (-rows[r][free]) % p
        basis.append(tuple(vec))
    return AffineSet(p, n, True, tuple(particular), tuple(basis))


def enumerate_solutions(
    data: Sequence[Sequence[int]], b: Sequence[int], e: int, q: int, cap: int
) -> Iterator[np.ndarray]:
    """Every x in Z_q^e with A x = b (mod q), by brute force over all q^e.

    Candidates are scanned in chunks, in lexicographic order with the last
    coordinate fastest.  Raises CapExceeded when q^e exceeds cap.
    """
    space = q**e
    if space > cap:
        raise CapExceeded(f"enumeration of {q}^{e} candidates exceeds cap {cap}")
    A = np.array(data, dtype=np.int64).reshape(len(data), e)
    rhs = np.array(b, dtype=np.int64)
    for start in range(0, space, _CHUNK):
        stop = min(start + _CHUNK, space)
        rem = np.arange(start, stop, dtype=np.int64)
        cand = np.empty((stop - start, e), dtype=np.int64)
        for pos in range(e - 1, -1, -1):
            cand[:, pos] = rem % q
            rem = rem // q
        yield from cand[((cand @ A.T - rhs) % q == 0).all(axis=1)]


def mccoy_unique(A: ConstMatrix) -> bool:
    """True when consistent systems A x = b over Z_{p^r} have unique solutions.

    Holds exactly when the mod-p projection has full column rank.
    """
    return rank_mod_p(A.proj().data, A.ctx.p) == A.cols
