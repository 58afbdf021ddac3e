"""Polynomials and dense polynomial matrices over Z_{p^r} and Z_p.

Provides exact matrix arithmetic, Smith normal form over Z_p[D] with the
transforms U, V and V^{-1}, left-primeness tests, unimodular completion
read from one Smith form (which also decides left primeness), the
digit-zero lift from Z_p[D] to Z_{p^r}[D], inversion of unimodular
matrices as a D-adic power series on integer coefficient matrices, and
exact determinants/adjugates over rings with zero divisors.

Coefficients are plain canonical integers; the owning RingContext decides
the modulus.  The zero polynomial has degree NEG_INF so degree arithmetic
needs no special cases.  Everything here is pure and immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NotLeftPrime, NotUnimodular
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

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix addition")
        return PolyMatrix(
            self.ctx,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.ctx, [[-e for e in row] for row in self.entries])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        zero = Poly.zero(self.ctx)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.is_zero or b.is_zero:
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.ctx, out)

    def scale(self, c: int) -> "PolyMatrix":
        return PolyMatrix(self.ctx, [[e.scale(c) for e in row] for row in self.entries])

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.ctx,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
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

    def coeff_matrix(self, k: int) -> list[list[int]]:
        """The k-th coefficient of every entry, as plain int rows."""
        return [[e.coeff(k) for e in row] for row in self.entries]

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


@dataclass
class SmithForm:
    """U @ A @ V == S with S diagonal, monic invariant factors in a chain.

    U, V are unimodular over Z_p[D]; V_inv is the recorded inverse of V
    (built from the same elementary column operations), whose trailing
    rows complete a left prime A.
    """

    U: PolyMatrix
    S: PolyMatrix
    V: PolyMatrix
    V_inv: PolyMatrix

    @property
    def invariant_factors(self) -> tuple[Poly, ...]:
        k = min(self.S.rows, self.S.cols)
        return tuple(self.S.entries[i][i] for i in range(k))


def smith_form(A: PolyMatrix) -> SmithForm:
    """Smith normal form over the Euclidean domain Z_p[D].

    Classical gcd-driven pivoting: repeatedly move a minimum-degree entry
    to the pivot, clear its row and column by division with remainder, and
    absorb non-divisible trailing entries into the pivot row.
    """
    ctx = A.ctx
    if not ctx.is_field:
        raise ValueError("Smith form is computed over Z_p[D]; project first")
    m, n = A.rows, A.cols
    S = [list(row) for row in A.entries]
    U = [[Poly.const(ctx, 1 if i == j else 0) for j in range(m)] for i in range(m)]
    V = [[Poly.const(ctx, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    Vi = [row[:] for row in V]

    def swap_rows(i, j):
        if i == j:
            return
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i == j:
            return
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    def row_addmul(i, j, f: Poly):
        # row i += f * row j
        if f.is_zero:
            return
        S[i] = [a + f * b for a, b in zip(S[i], S[j])]
        U[i] = [a + f * b for a, b in zip(U[i], U[j])]

    def col_addmul(i, j, f: Poly):
        # col i += f * col j
        if f.is_zero:
            return
        for row in S:
            row[i] = row[i] + f * row[j]
        for row in V:
            row[i] = row[i] + f * row[j]
        Vi[j] = [a - f * b for a, b in zip(Vi[j], Vi[i])]

    def scale_row(i, c: int):
        if c == 1:
            return
        S[i] = [a.scale(c) for a in S[i]]
        U[i] = [a.scale(c) for a in U[i]]

    t = 0
    limit = min(m, n)
    while t < limit:
        pi = pj = -1
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = S[i][j]
                if e.is_zero:
                    continue
                if best is None or e.degree < best:
                    best = e.degree
                    pi, pj = i, j
        if best is None:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if S[i][t].is_zero:
                    continue
                q, rem = S[i][t].divmod_by(S[t][t])
                row_addmul(i, t, -q)
                if not rem.is_zero:
                    swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, n):
                if S[t][j].is_zero:
                    continue
                q, rem = S[t][j].divmod_by(S[t][t])
                col_addmul(j, t, -q)
                if not rem.is_zero:
                    swap_cols(t, j)
                    dirty = True
            if dirty:
                continue
            # pivot must divide everything that remains
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    _, rem = S[i][j].divmod_by(S[t][t])
                    if not rem.is_zero:
                        row_addmul(t, i, Poly.one(ctx))
                        dirty = True
                        break
                if dirty:
                    break
        scale_row(t, ctx.inv(S[t][t].coeffs[-1]))
        t += 1

    return SmithForm(
        U=PolyMatrix(ctx, U),
        S=PolyMatrix(ctx, S),
        V=PolyMatrix(ctx, V),
        V_inv=PolyMatrix(ctx, Vi),
    )


def is_left_prime(A: PolyMatrix) -> bool:
    """True when the k x n matrix (k <= n) over Z_p[D] is left prime.

    Equivalent to all k invariant factors being nonzero constants.
    """
    if A.rows > A.cols:
        raise ValueError("left primeness needs k <= n")
    if not A.ctx.is_field:
        raise ValueError("left primeness is tested over Z_p[D]; project first")
    if A.rows == 0:
        return True
    factors = smith_form(A).invariant_factors
    return all(f.is_unit_const for f in factors)


def complete_to_unimodular(A: PolyMatrix) -> PolyMatrix:
    """Rows N making stack(A, N) unimodular over Z_p[D]; A must be left prime.

    Taken from the recorded Smith data: with U A V = [I | 0], the bottom
    n-k rows of V^{-1} complete A.  The one Smith form decides left
    primeness too: NotLeftPrime is raised when A is not.
    """
    if A.rows > A.cols:
        raise ValueError("left primeness needs k <= n")
    if not A.ctx.is_field:
        raise ValueError("completion runs over Z_p[D]; project first")
    sf = smith_form(A)
    if not all(f.is_unit_const for f in sf.invariant_factors):
        raise NotLeftPrime("matrix is not left prime; no unimodular completion exists")
    n, k = A.cols, A.rows
    N = sf.V_inv.take_rows(k, n)
    stack = A.vstack(N)
    d = det(stack)
    if not d.is_unit_const:
        raise AssertionError("completion contract violated")
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


def _inverse_mod(A: list[list[int]], ctx: RingContext) -> list[list[int]]:
    """Inverse of a square integer matrix mod q by Gauss-Jordan with unit pivots."""
    q = ctx.q
    n = len(A)
    work = [[x % q for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    for c in range(n):
        piv = next((i for i in range(c, n) if ctx.is_unit(work[i][c])), None)
        if piv is None:
            raise NotUnimodular("U(0) is singular mod p")
        work[c], work[piv] = work[piv], work[c]
        inv = ctx.inv(work[c][c])
        prow = work[c] = [x * inv % q for x in work[c]]
        for i in range(n):
            f = work[i][c]
            if i != c and f:
                work[i] = [(x - f * y) % q for x, y in zip(work[i], prow)]
    return [row[n:] for row in work]


def invert_unimodular(U: PolyMatrix) -> PolyMatrix:
    """Exact polynomial inverse of a unimodular matrix over Z_{p^r}[D].

    Computed as the D-adic power series V = sum_k V_k D^k of U^{-1}: with
    U = sum_j U_j D^j of degree d, V_0 = U_0^{-1} mod p^r and, from U V = I,
    V_k = -V_0 sum_{j=1..min(k,d)} U_j V_{k-j}.  Each term depends on the d
    before it only, so d zero terms in a row end the series.  A unimodular
    U has an inverse of degree at most (n-1)d + (r-1)nd (that of adj(U)
    plus that of det(U)^{-1}); a series still running past it raises.
    The result is checked exactly: U V == V U == I.
    """
    if not U.is_square:
        raise NotUnimodular("only square matrices can be unimodular")
    ctx, n, q = U.ctx, U.rows, U.ctx.q
    d = 0 if U.degree == NEG_INF else int(U.degree)
    dtype = exact_dtype(n * max(d, 1), q)
    V0 = np.array(_inverse_mod(U.coeff_matrix(0), ctx), dtype=dtype).reshape(n, n)
    # [U_1 | U_2 | ... | U_d], so U_j meets V_{k-j} in one product
    wide = np.array([U.coeff_matrix(j) for j in range(1, d + 1)], dtype=dtype)
    wide = wide.reshape(d, n, n).transpose(1, 0, 2).reshape(n, d * n)
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
    if U @ V != ident or V @ U != ident:
        raise NotUnimodular("the D-adic inverse series failed to produce an exact inverse")
    return V
