"""Convolutional codes over Z_{p^r}[D] in p-power layered form.

A ConvCode keeps its generator as blocks G_0..G_{r-1} where the assembled
generator stacks p^i G_i and the projected stack has full row rank over
Z_p[D].  Parity-check matrices follow the same layered shape.  Codes can
be built from raw generator rows (reduced here into layered form), from
explicit blocks, or from a parity-check matrix alone (the kernel code).

Construction validates the rank and annihilation contracts eagerly, and
derives the parity degree nu (a given nu must match it), so a ConvCode in
hand is always internally consistent.  Instances are immutable and safe
to share; each computes its scaled parity coefficients H^0..H^nu once.

The sliding-window parity equations are assembled in one place: the
window-equation kernel restricts them to the erased entries of a symbol
table.  Each parity row is read once as its block row H^nu | ... | H^0:
an equation's coefficients are a gather of the erased positions, which
depends only on the pattern, and its right-hand side is one dot product
with the known symbols.  The decoder's window systems and filled-window
check, the sliding window matrix and window membership all use it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Sequence

import numpy as np

from .errors import ConstructionError, NotLeftPrime
from .intsolve import solve_mod
from .linsolve import ConstMatrix
from .polymat import (
    NEG_INF,
    Poly,
    PolyMatrix,
    adjugate,
    complete_to_unimodular,
    exact_dtype,
    invert_unimodular,
    is_left_prime,
    lift_unimodular,
    poly_lcm,
    rank,
    smith_form,
)
from .ring import RingContext


@dataclass(frozen=True)
class ParityCheck:
    """Result of parity-check synthesis.

    h_blocks are the unscaled layers H_0..H_{r-1}; the assembled check
    stacks p^i H_i.  exact_kernel is True when the code equals the kernel
    of the assembled check (the observable case, diagonal factor 1);
    otherwise the code is merely contained in the kernel and p_diag holds
    the common diagonal polynomial.
    """

    h_blocks: tuple[PolyMatrix, ...]
    L: PolyMatrix
    p_diag: tuple[Poly, ...]
    exact_kernel: bool


@dataclass(frozen=True)
class ConvCode:
    """A length-n convolutional code over Z_{p^r} in layered form."""

    ctx: RingContext
    n: int
    k_blocks: tuple[int, ...]
    g_blocks: tuple[PolyMatrix, ...] | None
    h_blocks: tuple[PolyMatrix, ...] | None = None
    nu: int | None = None
    synthesis: ParityCheck | None = None

    def __post_init__(self):
        if self.g_blocks is None and self.h_blocks is None:
            raise ValueError("a code needs a generator or a parity check")
        if self.g_blocks is not None:
            if len(self.g_blocks) != self.ctx.r:
                raise ValueError("expected one generator block per p-power level")
            stack = self.generator_stack().proj()
            if stack.rows and rank(stack) != stack.rows:
                raise ValueError("projected generator stack is not full row rank")
        if self.h_blocks is None:
            if self.nu is not None:
                raise ValueError("nu given for a code without a parity check")
        else:
            nu = len(self._parity_coeffs) - 1
            if self.nu is None:
                object.__setattr__(self, "nu", nu)
            elif self.nu != nu:
                raise ValueError(f"nu = {self.nu} differs from the parity degree {nu}")
            hstack = self.parity_stack().proj()
            if hstack.rows and rank(hstack) != hstack.rows:
                raise ValueError("projected parity stack is not full row rank")
            if self.g_blocks is not None:
                prod = self.parity_matrix() @ self.generator_matrix().transpose()
                if any(not e.is_zero for row in prod.entries for e in row):
                    raise ValueError("parity check does not annihilate the generator")

    # -- shape helpers -------------------------------------------------

    @property
    def k(self) -> int:
        return sum(self.k_blocks)

    @property
    def l_blocks(self) -> tuple[int, ...]:
        """Row counts of the parity layers: l_0 = n - k, l_i = k_{r-i}."""
        r = self.ctx.r
        return (self.n - self.k,) + tuple(self.k_blocks[r - i] for i in range(1, r))

    def generator_stack(self) -> PolyMatrix:
        """The unscaled stack [G_0; ...; G_{r-1}] (k x n)."""
        return _stack(self.ctx, self.n, self.g_blocks)

    def generator_matrix(self) -> PolyMatrix:
        """The assembled generator, level i scaled by p^i."""
        return _stack(self.ctx, self.n, self.g_blocks, scaled=True)

    def parity_stack(self) -> PolyMatrix:
        return _stack(self.ctx, self.n, self.h_blocks)

    def parity_matrix(self) -> PolyMatrix:
        return _stack(self.ctx, self.n, self.h_blocks, scaled=True)

    @cached_property
    def _parity_coeffs(self) -> tuple[ConstMatrix, ...]:
        """Scaled coefficient matrices H^0..H^deg of the assembled parity check."""
        return _coeff_matrices(self.parity_matrix())

    @cached_property
    def _generator_coeffs(self) -> tuple[ConstMatrix, ...]:
        """Scaled coefficient matrices G^0..G^deg of the assembled generator."""
        return _coeff_matrices(self.generator_matrix())

    @cached_property
    def _generator_array(self) -> np.ndarray:
        """G^0..G^deg as one (deg + 1) x k x n array, exact for encode's sums."""
        coeffs = self._generator_coeffs
        dtype = exact_dtype(len(coeffs) * self.k, self.ctx.q)
        return np.array([Gj.data for Gj in coeffs], dtype=dtype).reshape(
            len(coeffs), self.k, self.n
        )

    @cached_property
    def _parity_block_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each assembled parity row ri as its sliding block H^nu[ri] | ... | H^0[ri]."""
        coeffs = self._parity_coeffs[::-1]
        return tuple(sum((Hm.data[ri] for Hm in coeffs), ()) for ri in range(coeffs[0].rows))

    def parity_coeff(self, j: int) -> ConstMatrix:
        """Scaled coefficient matrix of D^j in the assembled parity check."""
        coeffs = self._parity_coeffs
        if 0 <= j < len(coeffs):
            return coeffs[j]
        return ConstMatrix.zeros(self.ctx, coeffs[0].rows, self.n)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_generator(cls, ctx: RingContext, rows: Sequence[Sequence]) -> "ConvCode":
        """Reduce raw generator rows into layered form.

        Level by level: rows whose projection is independent of everything
        accepted so far (over the rational function field) become the next
        layer; dependent rows are cleared against the accepted ones after
        scaling by a lifted common denominator, which is a unit upstream,
        then divided by p and pushed one level down.
        """
        g_rows = [tuple(e if isinstance(e, Poly) else Poly(ctx, e) for e in row) for row in rows]
        if not g_rows:
            raise ValueError("empty generator")
        n = len(g_rows[0])
        if any(len(row) != n for row in g_rows):
            raise ValueError("ragged generator rows")
        blocks: list[list[tuple[Poly, ...]]] = [[] for _ in range(ctx.r)]
        accepted: list[tuple[Poly, ...]] = []  # projections, in acceptance order
        current = list(g_rows)
        for level in range(ctx.r):
            pushed: list[tuple[Poly, ...]] = []
            for w in current:
                w = _reduce_row_against(accepted, w, ctx)
                if w is None:
                    continue
                if all(e.proj().is_zero for e in w):
                    pushed.append(tuple(e.divide_p_power(1) for e in w))
                else:
                    blocks[level].append(w)
                    accepted.append(tuple(e.proj() for e in w))
            current = pushed
        k_blocks = tuple(len(b) for b in blocks)
        g_blocks = tuple(
            PolyMatrix(ctx, blk, cols=n) if blk else PolyMatrix.zeros(ctx, 0, n)
            for blk in blocks
        )
        return cls(ctx=ctx, n=n, k_blocks=k_blocks, g_blocks=g_blocks)

    @classmethod
    def from_blocks(
        cls,
        ctx: RingContext,
        g_blocks: Sequence[PolyMatrix],
        h_blocks: Sequence[PolyMatrix] | None = None,
    ) -> "ConvCode":
        g = tuple(g_blocks)
        n = g[0].cols
        return cls(
            ctx=ctx,
            n=n,
            k_blocks=tuple(b.rows for b in g),
            g_blocks=g,
            h_blocks=tuple(h_blocks) if h_blocks is not None else None,
        )

    @classmethod
    def from_parity_coeffs(
        cls, ctx: RingContext, h_coeffs: Sequence[Sequence[Sequence[int]]]
    ) -> "ConvCode":
        """Build the kernel code of an assembled parity check H^0 + H^1 D + ...

        Rows are assigned to layers by the p-power dividing them.  When the
        projected parity stack is left prime, the generator side is
        recovered by the dual of the synthesis route; otherwise the code
        stays kernel-only (block sizes are still inferred from the layer
        row counts) and generator-side operations are unavailable.
        """
        if not h_coeffs:
            raise ValueError("empty parity check")
        mh = len(h_coeffs[0])
        n = len(h_coeffs[0][0])
        polys = [
            [Poly(ctx, [h_coeffs[j][i][c] for j in range(len(h_coeffs))]) for c in range(n)]
            for i in range(mh)
        ]
        strata = []
        for row in polys:
            v = min((e.content_val() for e in row), default=ctx.r)
            if v >= ctx.r:
                raise ValueError("zero parity row")
            strata.append(v)
        blocks: list[list] = [[] for _ in range(ctx.r)]
        for row, v in zip(polys, strata):
            blocks[v].append([e.divide_p_power(v) for e in row])
        h_blocks = tuple(
            PolyMatrix(ctx, blk, cols=n) if blk else PolyMatrix.zeros(ctx, 0, n)
            for blk in blocks
        )
        try:
            g_blocks, k_blocks = _dual_blocks(ctx, h_blocks, n)
        except NotLeftPrime:
            g_blocks = None
            l_sizes = [blk.rows for blk in h_blocks]
            k_rest = [l_sizes[ctx.r - m] for m in range(1, ctx.r)]
            k0 = n - l_sizes[0] - sum(k_rest)
            if k0 < 0:
                raise ValueError("parity layer sizes exceed the code length")
            k_blocks = tuple([k0] + k_rest)
        return cls(ctx=ctx, n=n, k_blocks=k_blocks, g_blocks=g_blocks, h_blocks=h_blocks)

    def with_parity_check(self) -> "ConvCode":
        """A copy carrying a synthesized parity check (and its metadata)."""
        if self.h_blocks is not None:
            return self
        syn = synthesize_parity_check(self)
        return replace(self, h_blocks=syn.h_blocks, synthesis=syn)

    # -- encode / membership ---------------------------------------------

    def encode(self, inputs: Sequence[Sequence[int]]) -> list[list[int]]:
        """Convolve per-time input k-vectors into stream symbols.

        Output length is len(inputs) + deg(G); entry s is
        sum_j (G^j)^T u^{s-j} over Z_{p^r}.  Computed as deg(G) + 1 block
        products of the input array (reduced mod q) with the generator
        coefficient matrices, summed and reduced once.
        """
        if self.g_blocks is None:
            raise ValueError("code has no generator side")
        for s, u in enumerate(inputs):
            if len(u) != self.k:
                raise ValueError(f"input at time {s} has length {len(u)}, expected {self.k}")
        G = self._generator_array
        q, steps = self.ctx.q, len(inputs)
        u = np.array([[x % q for x in row] for row in inputs], dtype=G.dtype)
        u = u.reshape(steps, self.k)
        out = np.zeros((steps + len(G) - 1, self.n), dtype=G.dtype)
        for j, Gj in enumerate(G):
            out[j : j + steps] += u @ Gj
        return (out % q).tolist()


def _reduce_row_against(accepted, w, ctx: RingContext):
    """Clear w against accepted projected rows over the fraction field.

    Returns None if w reduces to zero, w unchanged if its projection is
    independent of the accepted stack, or the cleared row (still congruent
    to a p-multiple) otherwise.
    """
    if all(e.is_zero for e in w):
        return None
    wp = [e.proj() for e in w]
    if all(e.is_zero for e in wp):
        return w
    if not accepted:
        return w
    fld = ctx.residue_field()
    B = PolyMatrix(fld, accepted)
    combo = _solve_left_rational(B, wp)
    if combo is None:
        return w
    coeff_polys, denom = combo
    denom_l = denom.lift(ctx)
    out = [e * denom_l for e in w]
    for cj, grow in zip(coeff_polys, accepted):
        cjl = cj.lift(ctx)
        if cjl.is_zero:
            continue
        for idx in range(len(out)):
            out[idx] = out[idx] - cjl * grow[idx].lift(ctx)
    if all(e.is_zero for e in out):
        return None
    assert all(e.proj().is_zero for e in out)
    return _reduce_row_against(accepted, tuple(e.divide_p_power(1) for e in out), ctx)


def _solve_left_rational(B: PolyMatrix, w) -> tuple[list[Poly], Poly] | None:
    """Solve c B = w over the fraction field of Z_p[D].

    Returns cleared-denominator coefficients (chat, delta) with
    chat B = delta w, or None when w is independent of B's rows.
    """
    fld = B.ctx
    sf = smith_form(B)
    k = B.rows
    wv = PolyMatrix(fld, [w]) @ sf.V
    z = wv.entries[0]
    factors = sf.invariant_factors
    for j in range(k, B.cols):
        if not z[j].is_zero:
            return None
    assert all(not f.is_zero for f in factors)
    delta = Poly.one(fld)
    for f in factors:
        delta = poly_lcm(delta, f)
    y = []
    for i in range(k):
        scale, rem = delta.divmod_by(factors[i])
        assert rem.is_zero
        y.append(z[i] * scale)
    chat = PolyMatrix(fld, [y]) @ sf.U
    return list(chat.entries[0]), delta


def _coeff_matrices(M: PolyMatrix) -> tuple[ConstMatrix, ...]:
    """The coefficient matrices M^0..M^deg of a polynomial matrix (M^0 alone when zero)."""
    deg = 0 if M.degree == NEG_INF else int(M.degree)
    return tuple(ConstMatrix(M.ctx, M.coeff_matrix(j), cols=M.cols) for j in range(deg + 1))


def _stack(ctx: RingContext, n: int, blocks, scaled: bool = False) -> PolyMatrix:
    """Stack layered blocks top to bottom, level i scaled by p^i when asked."""
    out = PolyMatrix.zeros(ctx, 0, n)
    for i, blk in enumerate(blocks):
        out = out.vstack(blk.scale(ctx.p**i) if scaled else blk)
    return out


def is_observable(code: ConvCode) -> bool:
    """Whether the code admits an exact kernel representation.

    Tested as left primeness of the projected generator stack; codes built
    from a parity check are observable by construction.
    """
    if code.g_blocks is None:
        return True
    stack = code.generator_stack().proj()
    if stack.rows == 0:
        return False
    return is_left_prime(stack)


def synthesize_parity_check(code: ConvCode) -> ParityCheck:
    """Construct layered parity blocks annihilating the generator.

    Observable codes: complete the projected stack to a unimodular matrix,
    lift, invert exactly, and read the layers out of the transposed
    inverse; the kernel then equals the code.  Otherwise the adjugate of a
    nonsingular bordered matrix replaces the inverse and the code is only
    contained in the kernel, with the determinant on the diagonal.
    """
    if code.g_blocks is None:
        raise ValueError("code has no generator side")
    ctx = code.ctx
    n, k, r = code.n, code.k, code.ctx.r
    gstack = code.generator_stack()
    gp = gstack.proj()
    if gp.rows == 0 or rank(gp) != gp.rows:
        raise ConstructionError("generator stack is degenerate")
    observable = is_left_prime(gp)
    if observable:
        W = _unimodular_dual(gstack, ctx)
        p_diag = tuple(Poly.one(ctx) for _ in range(n))
    else:
        M = gstack.vstack(_fraction_field_completion(gp).lift(ctx))
        W, d = adjugate(M.transpose())
        if d.proj().is_zero:
            raise ConstructionError("could not border the generator to a nonsingular matrix")
        p_diag = tuple(d for _ in range(n))
    L, h_blocks = _cut_layers(W, list(code.k_blocks) + [n - k], r)
    return ParityCheck(h_blocks=h_blocks, L=L, p_diag=p_diag, exact_kernel=observable)


def _fraction_field_completion(gp: PolyMatrix) -> PolyMatrix:
    """Standard basis rows extending gp to full rank over the fraction field."""
    fld = gp.ctx
    n = gp.cols
    rows = [list(r) for r in gp.entries]
    have = rank(gp)
    out = []
    for i in range(n):
        if have == n:
            break
        cand = [Poly.const(fld, 1 if j == i else 0) for j in range(n)]
        trial = PolyMatrix(fld, rows + [cand], cols=n)
        if rank(trial) > have:
            rows.append(cand)
            out.append(cand)
            have += 1
    if have != n:
        raise ConstructionError("could not complete to full rank")
    return PolyMatrix(fld, out, cols=n)


def _unimodular_dual(stack: PolyMatrix, ctx: RingContext) -> PolyMatrix:
    """Transposed inverse of stack completed to a unimodular matrix.

    The projection of stack must be left prime; the completion is found
    over Z_p[D] and lifted.
    """
    proj = stack.proj()
    N = complete_to_unimodular(proj)
    M = stack.vstack(lift_unimodular(proj.vstack(N), ctx).take_rows(stack.rows, stack.cols))
    return invert_unimodular(M).transpose()


def _cut_layers(W: PolyMatrix, sizes, r: int):
    """Split W's rows into blocks of the given sizes and read them as layers.

    The first block is returned as is; blocks 1..r-1 become the layers
    r-1..1 and the last block becomes layer 0.
    """
    cuts = [0, *accumulate(sizes)]
    blocks = [W.take_rows(a, b) for a, b in zip(cuts, cuts[1:])]
    return blocks[0], (blocks[r], *reversed(blocks[1:r]))


def _dual_blocks(ctx: RingContext, h_blocks, n: int):
    """Generator blocks of the kernel code of a layered parity check."""
    hstack = _stack(ctx, n, h_blocks)
    if not is_left_prime(hstack.proj()):
        raise NotLeftPrime("parity stack is not left prime; kernel has no layered generator here")
    W = _unimodular_dual(hstack, ctx)
    _, g_blocks = _cut_layers(W, [blk.rows for blk in h_blocks] + [n - hstack.rows], ctx.r)
    return g_blocks, tuple(b.rows for b in g_blocks)


def _window_equations(code: ConvCode, table, lo: int, hi: int):
    """The sliding parity equations of times lo..hi, restricted to erasures.

    table maps times to symbols; None marks an erased entry, and only the
    times lo..hi may hold one.  Times missing from the table read as zero
    symbols, so a window at time 0 with no history entries sees the
    zero state.  Returns (columns, equations): the erased (time, coord)
    pairs in time-major order, and for each time s in lo..hi and each
    assembled parity row ri, in that order, a tuple (s, ri, coeffs, rhs)
    where coeffs are the scaled integer coefficients on the columns and
    rhs is minus the known part, mod q.
    """
    columns = tuple(
        (t, c) for t in range(lo, hi + 1) for c, x in enumerate(table.get(t, ())) if x is None
    )
    m = len(code._parity_block_rows)
    pairs = zip(_window_coeffs(code, columns, lo, hi), _window_rhs(code, table, lo, hi))
    return columns, [(lo + k // m, k % m, acc, rhs) for k, (acc, rhs) in enumerate(pairs)]


def _window_coeffs(code: ConvCode, columns, lo: int, hi: int) -> list[list[int]]:
    """The coefficients of those equations: a gather of the erased positions.

    Equation s reads the nu + 1 symbols ending at time s, which its block
    row H^nu[ri] | ... | H^0[ri] multiplies; a column outside them gets 0.
    Depends only on hi - lo and the columns relative to lo.
    """
    n, nu, block_rows = code.n, code.nu, code._parity_block_rows
    width = (nu + 1) * n
    flat = [(t - lo + nu) * n + c for t, c in columns]
    out = []
    for base in range(0, (hi - lo + 1) * n, n):
        pos = [f - base for f in flat]
        out.extend([brow[j] if 0 <= j < width else 0 for j in pos] for brow in block_rows)
    return out


def _window_rhs(code: ConvCode, table, lo: int, hi: int) -> list[int]:
    """The right-hand sides of those equations, mod q.

    Each is minus one dot product of a block row with the symbols of times
    s - nu..s, erasures read as 0.
    """
    n, q = code.n, code.ctx.q
    width = (code.nu + 1) * n
    zero = (0,) * n
    vec = [x or 0 for t in range(lo - code.nu, hi + 1) for x in table.get(t, zero)]
    return [
        -sum(map(mul, brow, vec[base : base + width])) % q
        for base in range(0, (hi - lo + 1) * n, n)
        for brow in code._parity_block_rows
    ]


def sliding_matrix(code: ConvCode, j: int) -> ConstMatrix:
    """Block lower-triangular window matrix of the parity coefficients.

    Block row s holds [H^s ... H^0] padded with zeros; H^m = 0 for m
    beyond the parity degree.  These are the coefficient rows of an
    all-erased window at time 0 with zero history.
    """
    if code.h_blocks is None:
        raise ValueError("code has no parity side")
    table = {t: [None] * code.n for t in range(j + 1)}
    _, equations = _window_equations(code, table, 0, j)
    return ConstMatrix(code.ctx, [acc for _, _, acc, _ in equations], cols=(j + 1) * code.n)


def is_codeword_window(code: ConvCode, window: Sequence[Sequence[int]]) -> bool:
    """Check the sliding parity equations on a window starting at time 0."""
    if code.h_blocks is None:
        raise ValueError("code has no parity side")
    if any(len(sym) != code.n for sym in window):
        raise ValueError(f"window symbols must have length {code.n}")
    return not any(_window_rhs(code, dict(enumerate(window)), 0, len(window) - 1))


def preimage(code: ConvCode, word: Sequence[Poly]) -> list[Poly] | None:
    """Recover an input with G^T u = word from a kernel member.

    Follows the constructive route of the synthesis: u stacks L w with the
    divided products of the parity layers.  Returns None when the word is
    not in the kernel or a divisibility fails (only possible for codes
    without an exact kernel).
    """
    if code.g_blocks is None:
        raise ValueError("code has no generator side")
    syn = code.synthesis
    if syn is None:
        syn = synthesize_parity_check(code)
    if not syn.exact_kernel:
        return None
    ctx = code.ctx
    r = ctx.r
    wcol = PolyMatrix(ctx, [[e] for e in word])
    parts: list[Poly] = []
    Lw = syn.L @ wcol
    parts.extend(e for (e,) in Lw.entries)
    for m in range(1, r):
        blk = syn.h_blocks[r - m]
        prod = blk @ wcol
        for (e,) in prod.entries:
            if e.content_val() < m:
                return None
            parts.append(e.divide_p_power(m))
    u = parts
    G = code.generator_matrix()
    check = G.transpose() @ PolyMatrix(ctx, [[e] for e in u])
    got = [e for (e,) in check.entries]
    if got != list(word):
        return None
    return u


def module_member(
    ctx: RingContext,
    gen_rows: Sequence[Sequence[Poly]],
    word: Sequence[Poly],
    deg_cap: int = 8,
    shift_cap: int = 0,
) -> bool:
    """Bounded membership of a polynomial word in a row module.

    With shift_cap = 0 this searches for polynomial coefficients u with
    sum u_i row_i = word and deg(u) <= deg_cap: plain membership in the
    module spanned by gen_rows over Z_{p^r}[D].  With shift_cap > 0 a
    match for D^s word (s <= shift_cap) also counts, certifying
    membership in the span over Laurent series.  True is always a
    certificate; False only rules out the search box.
    """
    if not gen_rows:
        return all(e.is_zero for e in word)
    n = len(word)
    kk = len(gen_rows)
    gdeg = max(
        (int(e.degree) for row in gen_rows for e in row if not e.is_zero), default=0
    )
    for s in range(shift_cap + 1):
        target = [e.shift(s) for e in word]
        tdeg = max((int(e.degree) for e in target if not e.is_zero), default=0)
        maxdeg = deg_cap + tdeg
        tlen = maxdeg + gdeg + 1
        rows = []
        rhs = []
        for coord in range(n):
            for dpow in range(tlen):
                row = []
                for ki in range(kk):
                    gpoly = gen_rows[ki][coord]
                    for ud in range(maxdeg + 1):
                        row.append(gpoly.coeff(dpow - ud) if dpow >= ud else 0)
                rows.append(row)
                rhs.append(target[coord].coeff(dpow))
        if solve_mod(ctx, rows, rhs) is not None:
            return True
    return False


def code_member(code: ConvCode, word: Sequence[Poly], deg_cap: int = 8) -> bool:
    """Bounded membership of a word in the code's polynomial row module."""
    if code.g_blocks is None:
        raise ValueError("code has no generator side")
    G = code.generator_matrix()
    return module_member(code.ctx, [list(r) for r in G.entries], word, deg_cap=deg_cap)
