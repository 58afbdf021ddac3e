"""Polynomials and dense polynomial matrices over Z_{p^r} and Z_p.

Provides exact matrix arithmetic, minimal right kernel bases over Z_p[D]
read from the nullspaces of block-Toeplitz matrices (the structure of the
sliding parity-check matrix) with the Z_p row reduction of linsolve,
unimodular completion from such a basis (which also decides left
primeness), the digit-zero lift from Z_p[D] to Z_{p^r}[D], inversion of
unimodular matrices as a D-adic power series on integer coefficient
matrices, and exact determinants/adjugates over rings with zero divisors.

PolyMatrix.coeff_array gives M_0..M_deg as one integer array.  On such
arrays _convolve is the one block convolution, behind every polynomial
product, and _toeplitz the one block-Toeplitz builder.

Coefficients are plain canonical integers; the owning RingContext decides
the modulus.  The zero polynomial has degree NEG_INF so degree arithmetic
needs no special cases.  Everything here is pure and immutable.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import NotLeftPrime, NotUnimodular
from .intsolve import decompose
from .linsolve import rref_mod_p, solve_mod_p
from .ring import RingContext

NEG_INF = float("-inf")


class Poly:
    """A polynomial in D with coefficients in Z_{p^r}, lowest degree first.

    Canonical form: no trailing zero coefficient unless the polynomial is
    zero (empty coefficient tuple).
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: RingContext, coeffs: Iterable[int] = ()):
        q = ctx.q
        c = [x % q for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.ctx = ctx
        self.coeffs = tuple(c)

    @classmethod
    def const(cls, ctx: RingContext, value: int) -> "Poly":
        return cls(ctx, (value,))

    @classmethod
    def zero(cls, ctx: RingContext) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: RingContext) -> "Poly":
        return cls(ctx, (1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_unit_const(self) -> bool:
        return len(self.coeffs) == 1 and self.ctx.is_unit(self.coeffs[0])

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _check(self, other: "Poly"):
        if self.ctx != other.ctx:
            raise ValueError("mismatched ring contexts")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, (self.coeff(i) + other.coeff(i) for i in range(n)))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, (self.coeff(i) - other.coeff(i) for i in range(n)))

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, (-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.ctx)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(self.ctx, out)

    def scale(self, c: int) -> "Poly":
        return Poly(self.ctx, (c * a for a in self.coeffs))

    def shift(self, k: int) -> "Poly":
        """Multiply by D^k."""
        if self.is_zero:
            return self
        return Poly(self.ctx, (0,) * k + self.coeffs)

    def proj(self) -> "Poly":
        """Coefficientwise projection into Z_p[D], re-canonicalized."""
        return Poly(self.ctx.residue_field(), self.coeffs)

    def lift(self, ctx: RingContext) -> "Poly":
        """Digit-zero lift: read the same coefficients in a larger ring."""
        if ctx.p != self.ctx.p:
            raise ValueError("lift must stay over the same prime")
        return Poly(ctx, self.coeffs)

    def divide_p_power(self, t: int) -> "Poly":
        """Exact division of every coefficient by p^t."""
        pt = self.ctx.p**t
        if any(c % pt for c in self.coeffs):
            raise ValueError("coefficients are not divisible by the requested power")
        return Poly(self.ctx, (c // pt for c in self.coeffs))

    def content_val(self) -> int:
        """Minimum p-adic valuation over coefficients; r for the zero poly."""
        return min((self.ctx.val(c) for c in self.coeffs), default=self.ctx.r)

    def divmod_by(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Polynomial division with remainder; divisor needs a unit lead."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        lead_inv = ctx.inv(other.coeffs[-1])
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(ctx), self
        quot = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            top = rem[k + len(other.coeffs) - 1] % ctx.q
            if top == 0:
                continue
            f = (top * lead_inv) % ctx.q
            quot[k] = f
            for i, b in enumerate(other.coeffs):
                rem[k + i] = (rem[k + i] - f * b) % ctx.q
        return Poly(ctx, quot), Poly(ctx, rem)

    def __eq__(self, other):
        return (
            isinstance(other, Poly) and self.ctx == other.ctx and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.ctx.q))

    def __repr__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}D" if c != 1 else "D")
            else:
                terms.append(f"{c}D^{i}" if c != 1 else f"D^{i}")
        return " + ".join(terms)


class PolyMatrix:
    """Dense matrix of Poly entries sharing one context."""

    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx: RingContext, entries: Sequence[Sequence], cols: int | None = None):
        grid = []
        for row in entries:
            out = []
            for e in row:
                if isinstance(e, Poly):
                    if e.ctx != ctx:
                        raise ValueError("entry context mismatch")
                    out.append(e)
                elif isinstance(e, int):
                    out.append(Poly.const(ctx, e))
                else:
                    out.append(Poly(ctx, e))
            grid.append(tuple(out))
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("ragged rows")
        self.ctx = ctx
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else (cols or 0)
        self.entries = tuple(grid)

    @classmethod
    def identity(cls, ctx: RingContext, n: int) -> "PolyMatrix":
        return cls(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, ctx: RingContext, m: int, n: int) -> "PolyMatrix":
        return cls(ctx, [[0] * n for _ in range(m)], cols=n)

    def __getitem__(self, ij) -> Poly:
        i, j = ij
        return self.entries[i][j]

    @property
    def degree(self):
        return max((e.degree for row in self.entries for e in row), default=NEG_INF)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _check(self, other: "PolyMatrix"):
        if self.ctx != other.ctx:
            raise ValueError("mismatched ring contexts")

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """The product on coefficient arrays: one block convolution, exact, then reduced mod q."""
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        terms = self.cols * (min(max(self.degree, 0), max(other.degree, 0)) + 1)
        dtype = exact_dtype(terms, self.ctx.q)
        A, B = self.coeff_array(dtype), other.coeff_array(dtype)
        # deg B zero coefficients on each side: the convolution's valid part is the whole product
        pad = np.zeros((len(B) - 1, self.rows, self.cols), dtype=dtype)
        prod = _convolve(np.concatenate([pad, A, pad]), B) % self.ctx.q
        return PolyMatrix(self.ctx, prod.transpose(1, 2, 0).tolist(), cols=other.cols)

    def scale(self, c: int) -> "PolyMatrix":
        return PolyMatrix(self.ctx, [[e.scale(c) for e in row] for row in self.entries])

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.ctx,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def proj(self) -> "PolyMatrix":
        f = self.ctx.residue_field()
        return PolyMatrix(f, [[e.proj() for e in row] for row in self.entries], cols=self.cols)

    def lift(self, ctx: RingContext) -> "PolyMatrix":
        return PolyMatrix(ctx, [[e.lift(ctx) for e in row] for row in self.entries], cols=self.cols)

    def vstack(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check(other)
        if other.rows == 0:
            return self
        if self.rows == 0:
            return other
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return PolyMatrix(self.ctx, list(self.entries) + list(other.entries))

    def take_rows(self, start: int, stop: int) -> "PolyMatrix":
        sub = list(self.entries[start:stop])
        return PolyMatrix(self.ctx, sub, cols=self.cols)

    def coeff_array(self, dtype=np.int64) -> np.ndarray:
        """M^0..M^deg (M^0 alone when M is zero) as one (deg + 1) x rows x cols array of dtype."""
        size = max([len(e.coeffs) for row in self.entries for e in row] + [1])
        grid = [[e.coeffs + (0,) * (size - len(e.coeffs)) for e in row] for row in self.entries]
        out = np.array(grid, dtype=dtype).reshape(self.rows, self.cols, size)
        return np.ascontiguousarray(out.transpose(2, 0, 1))

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.ctx == other.ctx
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.entries, self.ctx.q))

    def __repr__(self):
        body = "; ".join(", ".join(repr(e) for e in row) for row in self.entries)
        return f"PolyMatrix({self.rows}x{self.cols} mod {self.ctx.q}: {body})"


def det(M: PolyMatrix) -> Poly:
    """Exact determinant by Laplace expansion with shared minors.

    Works over rings with zero divisors; intended for small matrices.
    """
    if not M.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return Poly.one(M.ctx)
    memo: dict[tuple[int, tuple[int, ...]], Poly] = {}

    def minor(i: int, cols: tuple[int, ...]) -> Poly:
        if i == n:
            return Poly.one(M.ctx)
        key = (i, cols)
        got = memo.get(key)
        if got is not None:
            return got
        acc = Poly.zero(M.ctx)
        for idx, j in enumerate(cols):
            e = M.entries[i][j]
            if e.is_zero:
                continue
            sub = minor(i + 1, cols[:idx] + cols[idx + 1 :])
            term = e * sub
            acc = acc + (term if idx % 2 == 0 else -term)
        memo[key] = acc
        return acc

    return minor(0, tuple(range(n)))


def adjugate(M: PolyMatrix) -> tuple[PolyMatrix, Poly]:
    """(adj(M), det(M)) with adj(M) @ M == det(M) * I, exactly."""
    if not M.is_square:
        raise ValueError("adjugate of a non-square matrix")
    n = M.rows
    ctx = M.ctx
    if n == 0:
        return PolyMatrix.zeros(ctx, 0, 0), Poly.one(ctx)
    d = det(M)
    out = [[Poly.zero(ctx)] * n for _ in range(n)]
    for i in range(n):
        rows = [r for r in range(n) if r != i]
        for j in range(n):
            cols = [c for c in range(n) if c != j]
            sub = PolyMatrix(ctx, [[M.entries[r][c] for c in cols] for r in rows])
            cof = det(sub)
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return PolyMatrix(ctx, out), d


def rank(M: PolyMatrix) -> int:
    """Rank over the fraction field of Z_p[D], by fraction-free elimination."""
    if not M.ctx.is_field:
        raise ValueError("rank is defined over field coefficients; project first")
    work = [list(row) for row in M.entries]
    m, n = M.rows, M.cols
    prev = Poly.one(M.ctx)
    r = 0
    for _ in range(min(m, n)):
        pi = pj = -1
        best = None
        for i in range(r, m):
            for j in range(r, n):
                e = work[i][j]
                if e.is_zero:
                    continue
                if best is None or e.degree < best:
                    best = e.degree
                    pi, pj = i, j
        if best is None:
            break
        work[r], work[pi] = work[pi], work[r]
        for row in work:
            row[r], row[pj] = row[pj], row[r]
        piv = work[r][r]
        for i in range(r + 1, m):
            fi = work[i][r]
            for j in range(r + 1, n):
                num = work[i][j] * piv - fi * work[r][j]
                quot, rem = num.divmod_by(prev)
                assert rem.is_zero
                work[i][j] = quot
            work[i][r] = Poly.zero(M.ctx)
        prev = piv
        r += 1
    return r


def _convolve(x: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The valid part of the block convolution of x with C_0..C_d, unreduced.

    out[t] = sum_j x[t + d - j] @ C[j] for t = 0..len(x) - d - 1; x[t] is a
    row vector or a matrix, and the sums are in x's dtype.  With d zero
    times on each side of x it is the whole product.
    """
    d = len(C) - 1
    steps = len(x) - d
    out = x[d:] @ C[0]
    for j in range(1, d + 1):
        out += x[d - j : d - j + steps] @ C[j]
    return out


def _toeplitz(M: np.ndarray, depth: int) -> np.ndarray:
    """Block-Toeplitz matrix of M = sum_i M_i D^i on vectors of degree <= depth.

    M is the (d + 1) x m x n coefficient array M_0..M_d.  Column j n + c
    holds coefficient j of coordinate c, and row t m + i coefficient t of
    entry i of the product: block (t, j) is M_{t-j}.  The result has M's
    dtype.
    """
    d = len(M) - 1
    m, n = M.shape[1:]
    out = np.zeros((d + depth + 1, m, depth + 1, n), dtype=M.dtype)
    j = np.arange(depth + 1)
    for k, Mk in enumerate(M):
        out[j + k, :, j] = Mk
    return out.reshape((d + depth + 1) * m, (depth + 1) * n)


def _kernel_basis(A: PolyMatrix) -> PolyMatrix:
    """A minimal right kernel basis of A over Z_p[D], as the columns of K.

    The kernel vectors of degree <= delta are the nullspace of A's
    block-Toeplitz matrix of depth delta.  The shifts D^s b of the basis
    vectors b found so far span part of it; one rref of the shifts followed
    by the nullspace vectors, as columns, picks by its pivot columns the
    vectors that extend that span: the basis vectors of degree delta.
    Taking as many as possible at each degree keeps K column reduced, so
    the shifts stay independent.  The search ends at n - rank(A) vectors,
    none of degree above rank(A) deg(A).
    """
    ctx, n, p = A.ctx, A.cols, A.ctx.p
    if A.degree == NEG_INF:
        return PolyMatrix.identity(ctx, n)
    dA, rho = int(A.degree), rank(A)
    coeffs = A.coeff_array()
    found: list[tuple[int, list[int]]] = []  # (degree, coefficients b_0 | ... | b_deg)
    delta = 0
    while len(found) < n - rho:
        if delta > rho * dA:
            raise AssertionError("the kernel basis passed its degree bound")
        T = _toeplitz(coeffs, delta).tolist()
        null = [list(v) for v in solve_mod_p(T, [0] * len(T), p).basis]
        shifts = [
            [0] * (s * n) + b + [0] * ((delta - d - s) * n)
            for d, b in found
            for s in range(delta - d + 1)
        ]
        picked = rref_mod_p([list(col) for col in zip(*shifts, *null)], p)
        found += [(delta, null[j - len(shifts)]) for j in picked if j >= len(shifts)]
        delta += 1
    return PolyMatrix(ctx, [[b[c::n] for _, b in found] for c in range(n)], cols=len(found))


def is_left_prime(A: PolyMatrix) -> bool:
    """True when the k x n matrix (k <= n) over Z_p[D] is left prime.

    Decided by complete_to_unimodular, which succeeds exactly for left prime A.
    """
    try:
        complete_to_unimodular(A)
    except NotLeftPrime:
        return False
    return True


def complete_to_unimodular(A: PolyMatrix) -> PolyMatrix:
    """Rows N making stack(A, N) unimodular over Z_p[D]; A must be left prime.

    The rows are _completion_rows(A), and invert_unimodular decides
    whether the stack is unimodular: NotLeftPrime is raised when A is not
    left prime (or has deficient rank).
    """
    N = _completion_rows(A)
    try:
        invert_unimodular(A.vstack(N))
    except NotUnimodular:
        raise NotLeftPrime("matrix is not left prime; no unimodular completion exists") from None
    return N


def _completion_rows(A: PolyMatrix) -> PolyMatrix:
    """Rows N such that stack(A, N) is unimodular over Z_p[D] exactly when A is left prime.

    With K a minimal right kernel basis of A, N solves N K = I, degree by
    degree on the block-Toeplitz matrix of K^T.  For any right inverse R
    of A, [A; N] [R K] = [[I, 0], [N R, I]], so the square stack is
    unimodular exactly when A is left prime; that is not checked here.
    NotLeftPrime is raised when A has deficient rank.
    """
    if A.rows > A.cols:
        raise ValueError("left primeness needs k <= n")
    if not A.ctx.is_field:
        raise ValueError("completion runs over Z_p[D]; project first")
    ctx, n, p = A.ctx, A.cols, A.ctx.p
    K = _kernel_basis(A)
    ell = K.cols
    if A.rows + ell != n:
        raise NotLeftPrime("matrix has deficient rank; no unimodular completion exists")
    N = PolyMatrix.zeros(ctx, 0, n)
    if ell:
        dK = int(K.degree)
        coeffs = K.transpose().coeff_array()
        # a right prime K has a left inverse of degree below (2 ell - 1) dK
        for dN in range((2 * ell - 1) * dK + 1):
            T = _toeplitz(coeffs, dN).tolist()
            sols = [solve_mod_p(T, [int(t == i) for t in range(len(T))], p) for i in range(ell)]
            if all(s.feasible for s in sols):
                break
        else:
            raise AssertionError("the minimal kernel basis has no polynomial left inverse")
        N = PolyMatrix(ctx, [[s.particular[c::n] for c in range(n)] for s in sols], cols=n)
    return N


def lift_unimodular(U_p: PolyMatrix, ctx: RingContext) -> PolyMatrix:
    """Digit-zero lift of a unimodular matrix over Z_p[D] into Z_{p^r}[D].

    Any lift of a unimodular matrix is unimodular again, so the cheap one
    (all higher digits zero) is used.
    """
    if not U_p.ctx.is_field or U_p.ctx.p != ctx.p:
        raise ValueError("expected a matrix over Z_p[D] for the matching prime")
    if not U_p.is_square:
        raise ValueError("unimodular lifting needs a square matrix")
    if not det(U_p).is_unit_const:
        raise ValueError("input is not unimodular over Z_p[D]")
    return U_p.lift(ctx)


def exact_dtype(terms: int, q: int):
    """numpy dtype that sums `terms` products of residues mod q exactly.

    int64 while terms * (q - 1)^2 fits, Python integers (object) beyond.
    """
    return np.int64 if terms * (q - 1) ** 2 < 2**63 else object


def invert_unimodular(U: PolyMatrix) -> PolyMatrix:
    """Exact polynomial inverse of a unimodular matrix over Z_{p^r}[D].

    Computed as the D-adic power series V = sum_k V_k D^k of U^{-1}: with
    U = sum_j U_j D^j of degree d, V_0 = U_0^{-1} mod p^r and, from U V = I,
    V_k = -V_0 sum_{j=1..min(k,d)} U_j V_{k-j}.  V_0 is Y X from the
    valuation-pivot decomposition X U_0 Y = D (intsolve.decompose), which
    must be the identity: rank n with every pivot 1.  Each term depends on
    the d before it only, so d zero terms in a row end the series.  A unimodular
    U has an inverse of degree at most (n-1)d + (r-1)nd (that of adj(U)
    plus that of det(U)^{-1}); a series still running past it raises.
    The result is checked exactly by one product, U V == I: over a
    commutative ring det U det V = 1 then makes det U a unit, so U has a
    two-sided inverse, and V, a right inverse, is it (V U == I).
    """
    if not U.is_square:
        raise NotUnimodular("only square matrices can be unimodular")
    ctx, n, q = U.ctx, U.rows, U.ctx.q
    d = 0 if U.degree == NEG_INF else int(U.degree)
    dtype = exact_dtype(n * max(d, 1), q)
    coeffs = U.coeff_array(dtype)
    dec = decompose(ctx, coeffs[0].tolist(), n)
    if len(dec.pivots) < n or any(pv != 1 for pv in dec.pivots):
        raise NotUnimodular("U(0) is singular mod p")
    V0 = np.array(dec.V, dtype=dtype).reshape(n, n) @ np.array(dec.U, dtype=dtype).reshape(n, n) % q
    # [U_1 | U_2 | ... | U_d], so U_j meets V_{k-j} in one product
    wide = coeffs[1:].transpose(1, 0, 2).reshape(n, d * n)
    bound = (n - 1) * d + (ctx.r - 1) * n * d
    terms = [V0]
    run = 0
    for k in range(1, bound + d + 1):
        m = min(k, d)
        past = np.concatenate(terms[: -m - 1 : -1])  # V_{k-1}, ..., V_{k-m}
        Vk = -(V0 @ (wide[:, : m * n] @ past % q)) % q
        terms.append(Vk)
        run = run + 1 if not Vk.any() else 0
        if run == d:
            break
    if run < d:
        raise NotUnimodular("the D-adic inverse series does not end: U is not unimodular")
    coeffs = np.array(terms[: len(terms) - run], dtype=dtype).transpose(1, 2, 0).tolist()
    V = PolyMatrix(ctx, coeffs, cols=n)
    ident = PolyMatrix.identity(ctx, n)
    if U @ V != ident:
        raise NotUnimodular("the D-adic inverse series failed to produce an exact inverse")
    return V
