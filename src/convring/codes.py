"""Convolutional codes over Z_{p^r}[D] in p-power layered form.

A ConvCode keeps its generator as blocks G_0..G_{r-1} where the assembled
generator stacks p^i G_i and the projected stack has full row rank over
Z_p[D].  Parity-check matrices follow the same layered shape.  Codes can
be built from raw generator rows (reduced here into layered form), from
explicit blocks, or from a parity-check matrix alone (the kernel code).

Construction validates the layer shapes and the rank and annihilation
contracts eagerly, and derives the parity degree nu (a given nu must
match it), so a ConvCode in hand is always internally consistent.
Instances are immutable in what they define and safe to share.  Each
keeps caches that change no result: its scaled coefficients H^0..H^nu
and G^0..G^deg, once, as arrays, its window arrays per delay, and the
decoder's erasure patterns with their plans, a bounded store that every
window system of the code reads and that holds no stream (decoder).

The sliding-window parity equations are assembled in one place.  Their
coefficients are the window array of a delay T, cached on the code: the
block-Toeplitz sliding parity-check matrix of equation times 0..T over the
symbols of times 0..T, which is the sliding window matrix, and whose column
gather on a window's erased entries is its erased-column system, which
depends only on the pattern.  The right-hand sides of times lo..hi are minus
sum_k H^k x_{s-k} over the known symbols, one block convolution over all
those times at once (the window kernel); the decoder's window systems,
running syndrome and filled-window check and window membership use it.
polymat's _convolve and _toeplitz build both; this module keeps no loop
of its own for either.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import ConstructionError, NotLeftPrime, NotUnimodular
from .intsolve import solve_mod
from .linsolve import ConstMatrix
from .polymat import (
    Poly,
    PolyMatrix,
    _completion_rows,
    _convolve,
    _kernel_basis,
    _toeplitz,
    adjugate,
    exact_dtype,
    invert_unimodular,
    is_left_prime,
    rank,
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
        r, n = self.ctx.r, self.n
        if len(self.k_blocks) != r or min(self.k_blocks) < 0 or self.k > n:
            raise ValueError(f"k_blocks must be {r} nonnegative sizes summing to at most n = {n}")
        for what, blocks, sizes in (
            ("generator", self.g_blocks, self.k_blocks),
            ("parity", self.h_blocks, self.l_blocks),
        ):
            if blocks is not None and [blk.rows for blk in blocks] != list(sizes):
                raise ValueError(f"{what} layers must have {list(sizes)} rows")
        if self.g_blocks is not None:
            stack = self.generator_stack().proj()
            if stack.rows and rank(stack) != stack.rows:
                raise ValueError("projected generator stack is not full row rank")
        if self.h_blocks is None:
            if self.nu is not None:
                raise ValueError("nu given for a code without a parity check")
        else:
            nu = len(self._parity_array) - 1
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
    def _generator_array(self) -> np.ndarray:
        """G^0..G^deg as one (deg + 1) x k x n array, exact for encode's sums."""
        return _coeff_array(self.generator_matrix(), self.k)

    @cached_property
    def _parity_array(self) -> np.ndarray:
        """H^0..H^nu as one (nu + 1) x m x n array, exact for the window kernel's sums."""
        return _coeff_array(self.parity_matrix(), self.n)

    @cached_property
    def _window_arrays(self) -> dict[int, np.ndarray]:
        """The window arrays built so far, per delay T (_window_array)."""
        return {}

    @cached_property
    def _patterns(self) -> OrderedDict:
        """The decoder's erasure patterns of this code, per (T, relative pattern), least recently taken first.

        decoder._kept_pattern fills and bounds it; each entry is value-free,
        read-only, and holds the pattern's plan once a decode has made it.
        """
        return OrderedDict()

    def _window_array(self, T: int) -> np.ndarray:
        """The (T + 1) m x (T + 1) n sliding parity-check matrix of equation and symbol times 0..T.

        Row s * m + ri, for time s and parity row ri, holds H^(s - t)[ri] on
        the n columns of time t, from column t * n, for 0 <= s - t <= nu and
        0 elsewhere.  Built once per T as the equation times 0..T of
        _parity_array's block-Toeplitz matrix of depth T, with its dtype: a
        row reads at most (nu + 1) n nonzero coefficients, so its products
        with residue vectors sum exactly.
        """
        W = self._window_arrays.get(T)
        if W is None:
            H = self._parity_array
            W = self._window_arrays[T] = _toeplitz(H, T)[: (T + 1) * H.shape[1]]
        return W

    def parity_coeff(self, j: int) -> ConstMatrix:
        """Scaled coefficient matrix of D^j in the assembled parity check."""
        H = self._parity_array
        if 0 <= j < len(H):
            return ConstMatrix(self.ctx, H[j].tolist(), cols=self.n)
        return ConstMatrix.zeros(self.ctx, H.shape[1], self.n)

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
        sum_j (G^j)^T u^{s-j} over Z_{p^r}: one block convolution of the
        input array (reduced mod q, deg(G) zero inputs on each side) with
        the generator coefficients, reduced once.
        """
        if self.g_blocks is None:
            raise ValueError("code has no generator side")
        k = self.k
        for s, u in enumerate(inputs):
            if len(u) != k:
                raise ValueError(f"input at time {s} has length {len(u)}, expected {k}")
        G = self._generator_array
        q = self.ctx.q
        u = np.array([[x % q for x in row] for row in inputs], dtype=G.dtype)
        u = u.reshape(len(inputs), k)
        pad = np.zeros((len(G) - 1, k), dtype=G.dtype)
        return (_convolve(np.concatenate([pad, u, pad]), G) % q).tolist()


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
    chat B = delta w, read from a minimal left kernel vector (chat, -delta)
    of the stack [B; w], or None when w is independent of B's rows.
    """
    K = _kernel_basis(B.vstack(PolyMatrix(B.ctx, [w])).transpose())
    if K.cols == 0:
        return None
    v = [row[0] for row in K.entries]
    return v[:-1], -v[-1]


def _coeff_array(M: PolyMatrix, width: int) -> np.ndarray:
    """M's coefficient array, in a dtype that sums (deg + 1) * width products exactly."""
    return M.coeff_array(exact_dtype((max(M.degree, 0) + 1) * width, M.ctx.q))


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

    First the projected stack is completed to a unimodular matrix, lifted
    and inverted exactly, and the layers are read out of the transposed
    inverse; the kernel then equals the code.  The completion, read from a
    minimal kernel basis of the projected stack, also decides
    observability: when the projected stack is not left prime
    (NotLeftPrime), the adjugate of a nonsingular bordered matrix replaces
    the inverse and the code is only contained in the kernel, with the
    determinant on the diagonal.
    """
    if code.g_blocks is None:
        raise ValueError("code has no generator side")
    try:
        return _exact_parity_check(code)
    except NotLeftPrime:
        pass
    ctx = code.ctx
    gstack = code.generator_stack()
    M = gstack.vstack(_fraction_field_completion(gstack.proj()).lift(ctx))
    W, d = adjugate(M.transpose())
    if d.proj().is_zero:
        raise ConstructionError("could not border the generator to a nonsingular matrix")
    L, h_blocks = _cut_layers(W, list(code.k_blocks) + [code.n - code.k], ctx.r)
    return ParityCheck(h_blocks=h_blocks, L=L, p_diag=(d,) * code.n, exact_kernel=False)


def _exact_parity_check(code: ConvCode) -> ParityCheck:
    """The parity check of an observable code, whose kernel equals the code.

    Raises ConstructionError when the generator is empty and NotLeftPrime
    when the code is not observable; the completion decides the latter
    (its stack is unimodular exactly when the projected generator stack is
    left prime), so no separate is_observable is needed.  The projected
    stack has full row rank, as construction checked.
    """
    ctx = code.ctx
    gstack = code.generator_stack()
    if gstack.rows == 0:
        raise ConstructionError("generator stack is degenerate")
    W = _unimodular_dual(gstack, ctx)
    L, h_blocks = _cut_layers(W, list(code.k_blocks) + [code.n - code.k], ctx.r)
    return ParityCheck(h_blocks=h_blocks, L=L, p_diag=(Poly.one(ctx),) * code.n, exact_kernel=True)


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

    The completion rows are found over Z_p[D] and lifted digit zero.  A
    lift is unimodular exactly when its projection is, and the projected
    stack is unimodular exactly when the projection of stack is left
    prime, so the one exact inversion of the lifted stack decides that
    too: NotLeftPrime is raised when it fails.  No determinant is taken.
    """
    N = _completion_rows(stack.proj())
    try:
        return invert_unimodular(stack.vstack(N.lift(ctx))).transpose()
    except NotUnimodular:
        raise NotLeftPrime("stack is not left prime; no unimodular completion exists") from None


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
    W = _unimodular_dual(hstack, ctx)
    _, g_blocks = _cut_layers(W, [blk.rows for blk in h_blocks] + [n - hstack.rows], ctx.r)
    return g_blocks, tuple(b.rows for b in g_blocks)


def _window_rhs(code: ConvCode, symbols: Sequence, lo: int, hi: int) -> list[int]:
    """The right-hand sides of those equations, mod q, per time s in lo..hi and parity row.

    symbols is indexed by time and read in place, None marking an erased
    entry; times outside it read as zero symbols, so a window at time 0
    sees the zero state.  The right-hand side of time s is minus
    sum_k H^k x_{s-k} over k = 0..nu, erasures read as 0: the symbols of
    times lo - nu..hi, reduced mod q, become one array, and its valid
    block convolution with the H^k (transposed) gives all the times at
    once, exact in Python integers where int64 could overflow.  A known
    entry that is not an integer (a bool, a float or a string) raises
    ValueError naming its time, and so do symbols whose lengths do not add
    up to n each, naming the first one that is not of length n.
    """
    n, q, nu = code.n, code.ctx.q, code.nu
    H = code._parity_array
    zero = (0,) * n
    values = [
        v % q if type(v) is int else 0 if v is None else _integer(v, t) % q
        for t in range(lo - nu, hi + 1)
        for v in (symbols[t] if 0 <= t < len(symbols) else zero)
    ]
    if len(values) != (hi - lo + 1 + nu) * n:
        t = next(t for t in range(max(lo - nu, 0), min(hi + 1, len(symbols))) if len(symbols[t]) != n)
        raise ValueError(f"symbol at time {t} has length {len(symbols[t])}")
    x = np.array(values, dtype=H.dtype).reshape(hi - lo + 1 + nu, n)
    # x holds the nu history symbols, so the valid part is exactly times lo..hi
    return (-_convolve(x, H.transpose(0, 2, 1)) % q).ravel().tolist()


def _integer(x, t: int):
    """x, a known entry of the symbol at time t, unless it is not an integer: then ValueError."""
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise ValueError(f"symbol at time {t} has a non-integer entry {x!r}")
    return x


def sliding_matrix(code: ConvCode, j: int) -> ConstMatrix:
    """Block lower-triangular window matrix of the parity coefficients.

    Block row s holds [H^s ... H^0] padded with zeros; H^m = 0 for m
    beyond the parity degree.  These are the coefficient rows of an
    all-erased window at time 0 with zero history: the window array of
    delay j.
    """
    if code.h_blocks is None:
        raise ValueError("code has no parity side")
    return ConstMatrix(code.ctx, code._window_array(j).tolist(), cols=(j + 1) * code.n)


def is_codeword_window(code: ConvCode, window: Sequence[Sequence[int]]) -> bool:
    """Check the sliding parity equations on a window starting at time 0."""
    if code.h_blocks is None:
        raise ValueError("code has no parity side")
    if any(len(sym) != code.n for sym in window):
        raise ValueError(f"window symbols must have length {code.n}")
    return not any(_window_rhs(code, window, 0, len(window) - 1))


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
    # the Toeplitz rows are (time, coord) of sum u_i row_i, in time-major order
    GT = PolyMatrix(ctx, gen_rows).transpose().coeff_array()
    for s in range(shift_cap + 1):
        target = [e.shift(s) for e in word]
        tdeg = max((int(e.degree) for e in target if not e.is_zero), default=0)
        maxdeg = deg_cap + tdeg
        rows = _toeplitz(GT, maxdeg).tolist()
        rhs = [e.coeff(t) for t in range(len(GT) + maxdeg) for e in target]
        if solve_mod(ctx, rows, rhs) is not None:
            return True
    return False


def code_member(code: ConvCode, word: Sequence[Poly], deg_cap: int = 8) -> bool:
    """Bounded membership of a word in the code's polynomial row module."""
    if code.g_blocks is None:
        raise ValueError("code has no generator side")
    G = code.generator_matrix()
    return module_member(code.ctx, [list(r) for r in G.entries], word, deg_cap=deg_cap)
