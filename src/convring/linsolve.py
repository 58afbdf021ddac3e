"""Constant matrices over Z_{p^r} and exact linear solving over Z_p.

The row-reduction kernel rref_mod_p is shared by the plain solver and
rank computation, and reduce_stage runs it for the decoder's digit
stages.  Right-hand sides and the decoder's payload forms are augmented
columns: they ride along through the row operations but never hold a
pivot.  Odd p reduce list rows.  Over Z_2 a whole matrix of m rows is
one int, column j the m-bit field at bit j*m and bit j*m + i holding row
i, and each pivot is a fixed handful of big-int operations (_rref_2):
row r is read across every column at once as (M >> r) & spread, and one
product by the pivot column's hit set clears them all.  No mask keeps
the columns left of the pivot out: the rows at and below the pivot row
are zero there.  A digit stage's rows come as a dense integer array, a
slice of its pattern's matrix; the stage packs its coefficient columns
once (StageMatrix) and only its payload columns per pass, as the fields
above column e, both by one np.packbits pass (_pack_2), and reads back
only what the stage uses: the fold row, or the payload and free columns'
entries in the pivot rows.
The elimination kernels are also the single place where Z_p
multiply-accumulate operations are counted, once per elimination and the
same count on both paths, so decoding cost measurements all flow through
OPS.  The brute-force enumerator behind the decoding oracle and the
distance searches lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .config import enumeration_cap
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
    def zeros(cls, ctx: RingContext, m: int, n: int) -> "ConstMatrix":
        return cls(ctx, [[0] * n for _ in range(m)], cols=n)

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

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


def rref_mod_p(rows: list[list[int]], p: int, ncols: int | None = None) -> list[int]:
    """In-place reduced row echelon form over Z_p; returns pivot columns.

    Pivots are sought only among the first ncols columns (all by default);
    any further columns are augmented ones that ride along through the same
    row operations.  OPS counts the multiply-accumulates of the first ncols
    columns only.  Entries may be any integers; the rows come back reduced
    into [0, p).  Over Z_2 the rows are packed into one int, column j in
    bits [j*m, (j+1)*m), eliminated there by _rref_2, then unpacked.  OPS
    is added to once per call.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if ncols is None:
        ncols = n
    if p == 2:
        M, pivots = _rref_2(_pack_2(np.array(rows).reshape(m, n).T), m, n, ncols)
        rows[:] = _unpack_2(M, m, n)
        return pivots
    for i in range(m):
        rows[i] = [x % p for x in rows[i]]
    pivots: list[int] = []
    r = ops = 0
    for col in range(ncols):
        pr = next((i for i in range(r, m) if rows[i][col]), -1)
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][col], -1, p)
        if inv != 1:
            rows[r] = [(inv * x) % p for x in rows[r]]
            ops += ncols - col
        rr = rows[r]
        for i in range(m):
            f = rows[i][col]
            if f == 0 or i == r:
                continue
            # the pivot row is zero left of col
            ri = rows[i]
            ri[col:] = [(a - f * b) % p for a, b in zip(ri[col:], rr[col:])]
            ops += ncols - col + 1
        pivots.append(col)
        r += 1
        if r == m:
            break
    OPS.add(ops)
    return pivots


# A Z_2 matrix of m rows and n columns is one int: column j is the m-bit
# field in bits [j*m, (j+1)*m), bit j*m + i holding row i.  Rows go in as
# an integer array, one np.packbits pass over its transpose, and come out
# through bytes, one parity character per entry, transposed by strided
# slices.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack_2(columns: np.ndarray) -> int:
    """The one-int matrix mod 2 whose column j is row j of a 2-D integer array."""
    # in C order, entry (j, i) is bit j*m + i, little-endian
    bits = np.packbits((columns % 2).astype(bool), axis=None, bitorder="little")
    return int.from_bytes(bits.tobytes(), "little")


def _unpack_2(M: int, m: int, n: int) -> list[list[int]]:
    """The m rows of a one-int matrix of n columns, entries 0 and 1."""
    if not n:
        return [[] for _ in range(m)]
    # reversed, the columns come in order, each rows 0..m-1
    flat = format(M, f"0{m * n}b").encode().translate(_DIGITS)[::-1]
    return [list(flat[i::m]) for i in range(m)]


def _head_bits(x: int, k: int) -> bytes:
    """Bits 0..k-1 of x, entries 0 and 1 (none when k is 0)."""
    # bit k set, the format has exactly k + 1 digits, the first of them 1
    return format(x & ((1 << k) - 1) | 1 << k, "b")[:0:-1].encode().translate(_DIGITS)


def _rref_2(M: int, m: int, n: int, ncols: int) -> tuple[int, list[int]]:
    """rref_mod_p over Z_2 on a one-int matrix; returns it reduced, and the pivot columns.

    spread has bit j*m set for each column j, so (X >> i) & spread is row
    i of a one-int matrix X, its entry in column j at bit j*m.  Multiplied
    by a column c (< 2^m), it puts c in the field of each column where row
    i holds a 1; the terms cannot carry, each in its own field.  A pivot
    in row r clears its column's other rows (the hits) with one such
    product, after a swap of rows r and pr when the pivot sits lower.  No
    column needs masking off: the rows at and below r are zero left of
    the pivot column, so the product leaves those columns alone and turns
    the pivot column into bit r by itself.  It is formed on U, the columns
    from the pivot column on, only to keep the operands short.
    """
    pivots: list[int] = []
    if not m:
        return M, pivots
    field = (1 << m) - 1
    spread = ((1 << m * n) - 1) // field
    r = ops = 0
    for col in range(ncols):
        s = col * m
        U = M >> s
        c = U & field
        low = c >> r
        if not low:
            continue
        if low & 1:
            hits = c ^ 1 << r
            if hits:
                M ^= (U >> r & spread) * hits << s
        else:
            # rows r..pr-1 are zero in the pivot column: swap rows r and
            # pr, then clear the hits with the new row r
            pr = r + (low & -low).bit_length() - 1
            hits = c ^ 1 << pr
            bp = U >> pr & spread
            d = (U >> r & spread) ^ bp
            M ^= (d << r ^ d << pr ^ bp * hits) << s
        ops += hits.bit_count() * (ncols - col + 1)
        pivots.append(col)
        r += 1
        if r == m:
            break
    OPS.add(ops)
    return M, pivots


class StageMatrix:
    """The coefficient rows of one digit stage, kept for every reduce_stage pass.

    rows is a 2-D integer array of m rows over e columns.  Over Z_2 it is
    packed once into one int, column j in bits [j*m, (j+1)*m) (_pack_2);
    over odd p it is kept as the list rows that rref_mod_p's list kernel
    reduces with each pass's payload.  The layout is linsolve's alone.
    """

    __slots__ = ("p", "e", "m", "data")

    def __init__(self, rows: np.ndarray, p: int):
        self.p = p
        self.m, self.e = rows.shape
        self.data = _pack_2(rows.T) if p == 2 else rows.tolist()


class StageReduction(NamedTuple):
    """What a digit stage reads back from reduce_stage, column by column.

    fold is the first dependent row with a nonzero payload, as (row index,
    its payload entries), or None; pays and at_free, read only when fold is
    None (empty otherwise), hold per payload column and per free column its
    entries in the pivot rows.  Entries are in [0, p).
    """

    pivots: list[int]
    free: list[int]
    fold: tuple[int, list[int]] | None
    pays: list[Sequence[int]]
    at_free: list[Sequence[int]]


def reduce_stage(matrix: StageMatrix, payload: np.ndarray) -> StageReduction:
    """rref_mod_p of the stage rows with their payload columns riding along.

    payload is a 2-D integer array holding the payload columns as its
    rows, each one entry per stage row.  Pivots, the reduced rows and OPS
    are rref_mod_p's on the augmented rows; only what the stage
    uses comes back (see StageReduction).  Over Z_2 the payload columns
    are packed as the fields above the stage matrix's e columns, the one
    int is eliminated by _rref_2, and the readback takes the payload and
    free columns' fields, of the pivot rows alone (_head_bits).
    """
    p, e, m = matrix.p, matrix.e, matrix.m
    if p != 2:
        mat = list(map(add, matrix.data, payload.T.tolist()))
        pivots = rref_mod_p(mat, p, ncols=e)
        npiv = len(pivots)
        free = _free(pivots, e)
        for k in range(npiv, m):
            if any(mat[k][e:]):
                return StageReduction(pivots, free, (k, mat[k][e:]), [], [])
        # the pivot rows alone, column by column
        cols = list(zip(*mat[:npiv])) or [()] * (e + len(payload))
        return StageReduction(pivots, free, None, cols[e:], [cols[c] for c in free])
    n = e + len(payload)
    M, pivots = _rref_2(matrix.data | _pack_2(payload) << e * m, m, n, e)
    npiv = len(pivots)
    free = _free(pivots, e)
    field = (1 << m) - 1
    pay = [M >> j * m & field for j in range(e, n)]
    dependent = 0
    for x in pay:
        dependent |= x
    dependent >>= npiv
    if dependent:
        idx = npiv + (dependent & -dependent).bit_length() - 1
        return StageReduction(pivots, free, (idx, [x >> idx & 1 for x in pay]), [], [])
    # the pivot rows alone, of the payload and free columns
    pays = [_head_bits(x, npiv) for x in pay]
    return StageReduction(pivots, free, None, pays, [_head_bits(M >> c * m, npiv) for c in free])


def _free(pivots: list[int], e: int) -> list[int]:
    pivot_set = set(pivots)
    return [c for c in range(e) if c not in pivot_set]


def rank_mod_p(data: Sequence[Sequence[int]], p: int) -> int:
    if not data:
        return 0
    if p == 2:
        n = len(data[0])
        return len(_rref_2(_pack_2(np.array(data).reshape(len(data), n).T), len(data), n, n)[1])
    return len(rref_mod_p([list(r) for r in data], p))


@dataclass(frozen=True)
class AffineSet:
    """An affine subspace of Z_p^e: particular point plus a basis.

    An infeasible system yields feasible=False.
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

    def points(self):
        """Enumerate all members; raises CapExceeded past the enumeration cap."""
        if not self.feasible:
            return
        cap = enumeration_cap()
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
