"""Constant matrices over Z_{p^r} and exact linear solving over Z_p.

The row-reduction kernel rref_mod_p is shared by the plain solver, rank
computation, and the decoder's digit stages.  Right-hand sides and the
decoder's payload forms are augmented columns: they ride along through
the row operations but never hold a pivot.  Odd p reduce list rows; over
Z_2 each row is packed into one int, one byte per entry, and eliminated
by XOR.  rref_mod_p is also the single place where Z_p multiply-accumulate
operations are counted (the same count on both paths), so decoding cost
measurements all flow through OPS.  It can log its row operations, and
replay_rref_log applies a log to one more column without eliminating
again.  The brute-force enumerator behind the decoding oracle and the
distance searches lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def mul_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        q = self.ctx.q
        return tuple(sum(a * x for a, x in zip(row, vec)) % q for row in self.data)

    def proj(self) -> "ConstMatrix":
        return ConstMatrix(self.ctx.residue_field(), self.data, cols=self.cols)

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
    rows: list[list[int]], p: int, ncols: int | None = None, log: list | None = None
) -> list[int]:
    """In-place reduced row echelon form over Z_p; returns pivot columns.

    Pivots are sought only among the first ncols columns (all by default);
    any further columns are augmented ones that ride along through the same
    row operations.  OPS counts the multiply-accumulates of the first ncols
    columns only.  Entries may be any integers; the rows come back reduced
    into [0, p).  Over Z_2 each row is packed into one int, one byte per
    entry, and eliminated by XOR.

    With a log list, the row operations are appended to it, one entry per
    pivot k: (the row swapped into row k, the scale factor of row k, and
    the (row, factor) eliminations row -= factor * row k).  Over Z_2 the
    scale is 1 and the eliminations are the rows of the XOR hits alone.
    replay_rref_log applies them to one more column; keeping the log adds
    no Z_p ops to OPS.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if ncols is None:
        ncols = n
    if p == 2:
        return _rref_mod_2(rows, m, n, ncols, log)
    for i in range(m):
        rows[i] = [x % p for x in rows[i]]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pr = next((i for i in range(r, m) if rows[i][col]), -1)
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][col], -1, p)
        if inv != 1:
            rows[r] = [(inv * x) % p for x in rows[r]]
            OPS.add(ncols - col)
        rr = rows[r]
        elims = []
        for i in range(m):
            f = rows[i][col]
            if f == 0 or i == r:
                continue
            # the pivot row is zero left of col
            ri = rows[i]
            ri[col:] = [(a - f * b) % p for a, b in zip(ri[col:], rr[col:])]
            OPS.add(ncols - col + 1)
            elims.append((i, f))
        if log is not None:
            log.append((pr, inv, elims))
        pivots.append(col)
        r += 1
        if r == m:
            break
    return pivots


def _rref_mod_2(
    rows: list[list[int]], m: int, n: int, ncols: int, log: list | None
) -> list[int]:
    """rref_mod_p over Z_2 on rows packed one byte per entry."""
    packed = [int.from_bytes(bytes([x & 1 for x in row]), "little") for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        bit = 1 << (8 * col)
        pr = next((i for i in range(r, m) if packed[i] & bit), -1)
        if pr < 0:
            continue
        packed[r], packed[pr] = packed[pr], packed[r]
        rr = packed[r]
        hits = []
        for i in range(m):
            if packed[i] & bit and i != r:
                packed[i] ^= rr
                hits.append(i)
        OPS.add(len(hits) * (ncols - col + 1))
        if log is not None:
            log.append((pr, 1, hits))
        pivots.append(col)
        r += 1
        if r == m:
            break
    rows[:] = [list(x.to_bytes(n, "little")) for x in packed]
    return pivots


def replay_rref_log(log: list, column: Sequence[int], p: int) -> list[int]:
    """One more augmented column put through a logged rref_mod_p, reduced into [0, p)."""
    col = [x % p for x in column]
    for k, (pr, inv, elims) in enumerate(log):
        col[k], col[pr] = col[pr], col[k]
        x = col[k] = col[k] * inv % p
        if not x:
            continue
        if p == 2:
            for i in elims:
                col[i] ^= 1
        else:
            for i, f in elims:
                col[i] = (col[i] - f * x) % p
    return col


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
    rows = [list(r) + [x] for r, x in zip(data, b)]
    pivots = rref_mod_p(rows, p, ncols=n)
    npiv = len(pivots)
    if any(rows[i][n] for i in range(npiv, m)):
        return AffineSet.infeasible(p, n)
    particular = [0] * n
    for r, col in enumerate(pivots):
        particular[col] = rows[r][n]
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [0] * n
        vec[free] = 1
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][free] % p
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
