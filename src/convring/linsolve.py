"""Constant matrices over Z_{p^r} and exact linear solving over Z_p.

The row-reduction kernel rref_mod_p is shared by the plain solver and
rank computation, and reduce_stage runs it for the decoder's digit
stages.  Right-hand sides and the decoder's payload forms are augmented
columns: they ride along through the row operations but never hold a
pivot.  Odd p reduce list rows; over Z_2 the matrix is packed into one
int per column, bit i of column j holding row i, and each pivot makes one
XOR pass over the columns to its right.  A digit stage's rows come as
bands, each row's entries on the one run of columns it reads; the stage
packs its coefficient columns once from the bands (StageMatrix) and only
its payload columns per pass, one column at a time, and reads back only
what the stage uses: the fold row, or the payload and free columns'
entries in the pivot rows.
The elimination kernels are also the single place where Z_p
multiply-accumulate operations are counted (the same count on both
paths), so decoding cost measurements all flow through OPS.  rref_mod_p
can log its row operations, and replay_rref_log applies a log to one more
column without eliminating again.  The brute-force enumerator behind the
decoding oracle and the distance searches lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterator, NamedTuple, Sequence

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


def rref_mod_p(
    rows: list[list[int]], p: int, ncols: int | None = None, log: list | None = None
) -> list[int]:
    """In-place reduced row echelon form over Z_p; returns pivot columns.

    Pivots are sought only among the first ncols columns (all by default);
    any further columns are augmented ones that ride along through the same
    row operations.  OPS counts the multiply-accumulates of the first ncols
    columns only.  Entries may be any integers; the rows come back reduced
    into [0, p).  Over Z_2 the rows are packed into column bitmasks and
    eliminated by XOR (_eliminate_2), then unpacked.

    With a log list, the row operations are appended to it, one entry per
    pivot k: (the row swapped into row k, the scale factor of row k, and
    the (row, factor) eliminations row -= factor * row k).  Over Z_2 the
    scale is 1 and the eliminations are the rows of the XOR hits alone, in
    increasing order.  replay_rref_log applies them to one more column;
    keeping the log adds no Z_p ops to OPS.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if ncols is None:
        ncols = n
    if p == 2:
        cols = _pack_2([((0, n), row) for row in rows], n)
        pivots = _eliminate_2(cols, m, ncols, log)
        rows[:] = _unpack_2(cols, m)
        return pivots
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


# Z_2 matrices are lists of column bitmasks: bit i of column j is row i.
# Rows go in and out through bytes: one parity character per entry, one
# strided slice per column or row.  Rows go in as bands: (span, band), the
# row's entries on the columns a..b-1 of span (a, b) and zero elsewhere; a
# dense row of n entries is the band of span (0, n).
_PARITY = bytes(48 + (b & 1) for b in range(256))  # byte -> b"0" or b"1"
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack_2(bands: Sequence[tuple[tuple[int, int], Sequence[int]]], n: int) -> list[int]:
    """The n column bitmasks of banded rows mod 2."""
    if not bands:
        return [0] * n
    zeros = bytes(n)
    try:
        flat = b"".join([x for (a, b), band in bands for x in (zeros[:a], bytes(band), zeros[b:])])
    except ValueError:  # an entry outside [0, 256)
        flat = b"".join(
            [x for (a, b), band in bands for x in (zeros[:a], bytes([y & 1 for y in band]), zeros[b:])]
        )
    # reversed, column j reads rows m-1..0, most significant bit first
    flat = flat.translate(_PARITY)[::-1]
    return [int(flat[k::n], 2) for k in range(n - 1, -1, -1)]


def _unpack_2(cols: Sequence[int], m: int) -> list[list[int]]:
    """The m rows of column bitmasks, entries 0 and 1."""
    if not m:
        return []
    # reversed, the columns come in order, each rows 0..m-1
    flat = "".join([format(c, f"0{m}b") for c in reversed(cols)]).encode()
    flat = flat.translate(_DIGITS)[::-1]
    return [list(flat[i::m]) for i in range(m)]


def _column_2(col: Sequence[int]) -> int:
    """The bitmask of one column mod 2, bit i holding entry i."""
    try:
        flat = bytes(col)
    except ValueError:  # an entry outside [0, 256)
        flat = bytes([x & 1 for x in col])
    # reversed, the entries read m-1..0, most significant bit first
    return int(flat.translate(_PARITY)[::-1] or b"0", 2)


def _head_bits(x: int, k: int) -> bytes:
    """Rows 0..k-1 of a column bitmask, entries 0 and 1 (none when k is 0)."""
    # bit k set, the format has exactly k + 1 digits, the first of them 1
    return format(x & ((1 << k) - 1) | 1 << k, "b")[:0:-1].encode().translate(_DIGITS)


def _bits(x: int) -> list[int]:
    """The set bits of x, in increasing order."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _eliminate_2(cols: list[int], m: int, ncols: int, log: list | None) -> list[int]:
    """rref_mod_p over Z_2 on m-row column bitmasks, in place; returns pivot columns.

    The rows at and below the next pivot row r are zero left of the pivot
    column, so each pivot touches only the columns to its right, in one
    pass that swaps rows r and pr and XORs the hit set (the pivot column's
    other rows) into every column holding a 1 in row r.
    """
    pivots: list[int] = []
    r = ops = 0
    for col in range(ncols if m else 0):
        c = cols[col]
        low = c >> r
        if not low:
            continue
        pr = r + (low & -low).bit_length() - 1
        pbit = 1 << r
        if pr == r:
            hits = c ^ pbit
            if hits:
                cols[col + 1 :] = [x ^ hits if x & pbit else x for x in cols[col + 1 :]]
        else:
            # rows r..pr-1 are zero in the pivot column; a column's XOR mask
            # is looked up from its bits r and pr (bit pr, after the swap
            # in row r, selects the hits)
            hits = c ^ (1 << pr)
            swap = pbit | 1 << pr
            masks = (0, swap, swap ^ hits, hits)
            pr1 = pr - 1
            cols[col + 1 :] = [x ^ masks[(x >> r & 1) | (x >> pr1 & 2)] for x in cols[col + 1 :]]
        cols[col] = pbit
        ops += hits.bit_count() * (ncols - col + 1)
        if log is not None:
            log.append((pr, 1, _bits(hits)))
        pivots.append(col)
        r += 1
        if r == m:
            break
    OPS.add(ops)
    return pivots


class StageMatrix:
    """The coefficient rows of one digit stage, kept for every reduce_stage pass.

    The m rows over e columns come as bands, (span, band) pairs: a row
    reads only the columns a..b-1 of its span (a, b), and band holds its
    entries there.  Over Z_2 the bands are packed into column bitmasks
    once; over odd p each band is padded once into the tuple row that
    rref_mod_p's list kernel reduces with each pass's payload.  The
    layout is linsolve's alone.
    """

    __slots__ = ("p", "e", "m", "data")

    def __init__(self, bands: Sequence[tuple[tuple[int, int], Sequence[int]]], e: int, p: int):
        self.p, self.e, self.m = p, e, len(bands)
        if p == 2:
            self.data = _pack_2(bands, e)
        else:
            zeros = (0,) * e
            self.data = [zeros[:a] + tuple(band) + zeros[b:] for (a, b), band in bands]


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


def reduce_stage(
    matrix: StageMatrix, payload: Sequence[Sequence[int]], log: list | None = None
) -> StageReduction:
    """rref_mod_p of the stage rows with their payload columns riding along.

    payload holds the payload columns, each one entry per stage row.
    Pivots, the reduced rows, OPS and the log are rref_mod_p's on the
    augmented rows; only what the stage uses comes back (see
    StageReduction).
    """
    p, e, m = matrix.p, matrix.e, matrix.m
    if p != 2:
        mat = list(map(add, matrix.data, zip(*payload)))
        pivots = rref_mod_p(mat, p, ncols=e, log=log)
        npiv = len(pivots)
        free = _free(pivots, e)
        for k in range(npiv, m):
            if any(mat[k][e:]):
                return StageReduction(pivots, free, (k, mat[k][e:]), [], [])
        # the pivot rows alone, column by column
        cols = list(zip(*mat[:npiv])) or [()] * (e + len(payload))
        return StageReduction(pivots, free, None, cols[e:], [cols[c] for c in free])
    cols = matrix.data + list(map(_column_2, payload))
    pivots = _eliminate_2(cols, m, e, log)
    npiv = len(pivots)
    free = _free(pivots, e)
    pay = cols[e:]
    dependent = 0
    for x in pay:
        dependent |= x
    dependent >>= npiv
    if dependent:
        idx = npiv + (dependent & -dependent).bit_length() - 1
        return StageReduction(pivots, free, (idx, [x >> idx & 1 for x in pay]), [], [])
    # the pivot rows alone, of the payload and free columns
    pays = [_head_bits(x, npiv) for x in pay]
    return StageReduction(pivots, free, None, pays, [_head_bits(cols[c], npiv) for c in free])


def _free(pivots: list[int], e: int) -> list[int]:
    pivot_set = set(pivots)
    return [c for c in range(e) if c not in pivot_set]


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
    if not data:
        return 0
    if p == 2:
        n = len(data[0])
        return len(_eliminate_2(_pack_2([((0, n), row) for row in data], n), len(data), n, None))
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
