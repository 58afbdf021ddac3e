"""Erasure list decoding over Z_{p^r} by digitwise recursion.

The erased symbols of a sliding window become unknowns of a linear system
over Z_{p^r}.  Each equation is renormalized by the largest p-power
dividing its coefficients (the power depends on the erasure pattern), and
the unknowns are resolved digit by digit: stage t solves a system over
Z_p for the t-th base-p digits, with right-hand sides derived from the
residuals of the previous stages.

Stage solutions are carried symbolically as integer affine forms in a
growing global parameter vector over Z_p; nothing is enumerated during
the recursion.  Column c's form is its value sum_t p^t f_t recombined over
the stages so far, cols[0][c] + sum_v cols[1 + v][c] x_v mod q: the forms
are kept entry by entry, the constants and each parameter's coefficients
as one list over the erased columns.  Stage t's payload is digit t of
rhs - A G for the column forms G, one array row over the stage rows per
form entry; the rows mod p and their payloads are reduced in one
augmented elimination (linsolve.reduce_stage), the payload riding along
as extra columns.  The stage prepares its rows mod p once and reads back only the
first dependent row with a nonzero payload, or else, per payload and per
free column, its entries in the pivot rows.  Every stage identity (row .
f_t == payload mod p) holds coefficient by coefficient, so it holds for
any integer parameter values.  A rank-deficient stage can leave a dependent
row whose payload is a nonconstant form in earlier parameters: that
constraint is folded by substituting, for one of its parameters, the
integer affine form it dictates in the others.  The constraint then
vanishes identically and the remaining parameters stay free.

The final list is the set of values of the column forms over all
assignments of the live parameters in [0, p); distinct assignments give
distinct windows, so its size is p to the number of live parameters.  Its
first n windows, lexicographically, move only the last k live parameters
(p^k >= n), and are built as one block: the base-p digit vectors of
0..n-1 times those k coefficient lists, plus the constants, in one product
mod q, scattered over the erased columns of n copies of the known symbols.

A window's equations are the block-Toeplitz sliding parity-check matrix
restricted to its erased columns: one column gather of the code's window
array (codes), which depends only on T and on the erasure pattern relative
to the window start; the equations past the last erased time + nu read no
erased entry, so the gather stops there and they are zero rows.
build_window_system makes the pattern once: its erased entries, each row's
stratum (the p-adic valuation of the whole row) and its nonzero rows as
two dense integer matrices, original and renormalized, exact in Python
integers past int64.  The received values enter only through the
right-hand sides, which the window kernel reads from the stream in place
and a window keeps raw, one per equation; the right-hand side of equation
s is minus the syndrome sum_k H^k x_{s-k} of the symbols of times
s - nu..s, erasures read as 0.  A sequential decode computes that syndrome
once, for every time from its first window on, by nu + 1 block products,
subtracts x H^k[:, c] from times i..i+nu as it commits x at (i, c), and
slices each window's right-hand sides out of it.  Each digit stage selects
its rows from the renormalized matrix, and its payload is one product of
the column forms with them; the list check is one product of the column
forms with the original matrix.  A plan and the brute-force oracle read
the original matrix as lists.  The column forms are checked against the
raw rows before a list is enumerated or its values are read.

Whether time i takes one value on every valid window's list depends only
on the pattern as well.  So a sequential decode keeps one store per
call, keyed on the delay and the relative pattern: each window's pattern
part, and its plan, made once, at the pattern's first window, from one
valuation-pivot decomposition U A V = D of the pattern's raw rows
(intsolve.decompose).  It reads no value of the window and is checked
once.  A pattern has a plan when V's time-i rows vanish on the free
directions of the solutions, folding patterns included.  Every window of
a pattern with a plan, the first one included, reads its raw right-hand
sides s with no row object built: it is invalid unless D divides U s,
and otherwise x = V (U s / D) is checked against the raw rows and time i
is committed from it, with no elimination.  Every other window runs
list_decode, whose values are checked where they are read.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from functools import cached_property
from numbers import Integral
from operator import add, mod, mul
from typing import Sequence

import numpy as np

from .codes import ConvCode, _integer, _window_rhs
from .config import enumeration_cap
from .errors import CapExceeded
from .intsolve import Decomposition, decompose
from .linsolve import AffineSet, StageMatrix, enumerate_solutions, reduce_stage
from .polymat import exact_dtype
from .ring import RingContext

Symbol = Sequence[int | None]


# ---------------------------------------------------------------------------
# parameters


class ParamSpace:
    """Z_p-valued parameters and the fold log.

    Each fold eliminates one parameter by an integer affine form in the
    others (events holds (parameter, form) in fold order), so the live
    parameters range freely over [0, p) and every assignment of them is one
    list member.
    """

    __slots__ = ("p", "n_params", "events")

    def __init__(self, p: int):
        self.p = p
        self.n_params = 0
        self.events: list[tuple[int, list[int]]] = []

    def new_param(self) -> int:
        self.n_params += 1
        return self.n_params - 1

    def live(self) -> list[int]:
        folded = {v for v, _ in self.events}
        return [v for v in range(self.n_params) if v not in folded]

    @property
    def size(self) -> int:
        return self.p ** (self.n_params - len(self.events))


# ---------------------------------------------------------------------------
# window systems


@dataclass
class WindowSystem:
    """The erased-column linear system for one decoding window.

    received is the stream the window was built from, kept, not copied, so
    an edit to it before symbols and history are first read shows in the
    filled windows and their check.
    rhs holds the raw right-hand side of each of the pattern's equations,
    in kernel order; the equations themselves are the pattern's.  The
    columns, absolute (time, coord) pairs of the erased entries in
    time-major order, row_rhs, the raw right-hand sides of the pattern's
    nonzero equations as an array of the pattern's dtype, and symbols, the
    window's own read from received, are derived on first read, so a
    window solved by its plan builds none of them.
    """

    code: ConvCode
    i: int
    T: int
    received: Sequence[Symbol] = field(repr=False, compare=False)
    pattern: _Pattern = field(repr=False, compare=False)
    rhs: list[int] = field(repr=False)
    invalid_witness: tuple | None = None

    @property
    def e(self) -> int:
        return len(self.pattern.erased)

    @cached_property
    def columns(self) -> tuple[tuple[int, int], ...]:
        n = self.code.n
        return tuple(divmod(self.i * n + f, n) for f in self.pattern.erased)

    @cached_property
    def row_rhs(self) -> np.ndarray:
        rhs, pattern = self.rhs, self.pattern
        return np.array([rhs[k] for k, _ in pattern.nonzero], dtype=pattern.origs.dtype)

    @cached_property
    def symbols(self) -> list[list[int | None]]:
        """The symbols of times i..i+T in received mod q, erasures None, zero past its end."""
        q, window = self.code.ctx.q, self.received[self.i : self.i + self.T + 1]
        past_end = [[0] * self.code.n for _ in range(self.T + 1 - len(window))]
        return [[x if x is None else x % q for x in sym] for sym in window] + past_end

    def assemble(self, col_values: Sequence[int]) -> list[list[int]]:
        """The window symbols (times i..i+T) with unknowns filled in."""
        i = self.i
        out = [list(sym) for sym in self.symbols]
        for (t, c), x in zip(self.columns, col_values):
            out[t - i][c] = x
        return out

    @cached_property
    def history(self) -> list[list[int]]:
        """Copies of the nu symbols before time i in received, zero outside it."""
        received, zero = self.received, [0] * self.code.n
        times = range(self.i - self.code.nu, self.i)
        return [list(received[t]) if 0 <= t < len(received) else zero for t in times]

    def window_equations_hold(self, window: Sequence[Sequence[int]]) -> bool:
        """Exact parity check of the filled window against the history."""
        nu = self.code.nu
        return not any(_window_rhs(self.code, [*self.history, *window], nu, nu + self.T))


class _Pattern:
    """The value-free part of the window systems of one delay and pattern.

    erased holds the erased entries' flat indices (time - i) * n + coord,
    time-major, which are the window array's columns, and head the coords
    of those at time i, which come first.  The equations, in kernel order
    (time - i, then parity row), are the code's window array gathered on
    the erased columns: only up to the erasure reach, the last erased
    time - i plus nu, as the later ones read no erased entry.  moduli hold
    each one's p^stratum, the stratum the p-adic valuation of the whole
    row: p^stratum = gcd(q, row), q on a row that is zero mod q, those past
    the reach included.  nonzero holds (index, p^stratum) per nonzero
    equation: the rows of a valid window, in order.  origs and coeffs are
    those rows, original and renormalized, as integer arrays, and scales
    their p^stratum.  A row of stratum v takes part in the digit stages t
    with v + t < r, those where p^stratum < p^(r - t).  A sequential
    decode also keeps the pattern's plan here: None until it is made, then
    the _Plan, or False when the pattern has none.
    """

    __slots__ = ("erased", "head", "moduli", "nonzero", "scales", "origs", "coeffs", "plan")

    def __init__(self, code: ConvCode, T: int, erased: Sequence[int]):
        n, q = code.n, code.ctx.q
        self.erased = erased
        self.head = tuple(f for f in erased if f < n)
        reach = min(T, erased[-1] // n + code.nu if erased else 0)
        A = code._window_array(reach)[:, erased]
        moduli = np.gcd(np.gcd.reduce(A, axis=1), q)
        keep = np.flatnonzero(moduli < q)
        self.moduli = moduli.tolist() + [q] * (T - reach) * code._parity_array.shape[1]
        self.scales = moduli[keep]
        self.nonzero = list(zip(keep.tolist(), self.scales.tolist()))
        self.origs = A[keep]
        self.coeffs = self.origs // self.scales[:, None]
        self.plan: _Plan | bool | None = None


class _Syndrome:
    """The right-hand sides of one sequential decode's stream, kept as its times are committed.

    rhs holds, per equation time s in lo..hi and parity row, minus
    sum_k H^k x_{s-k} over the symbols of received, erased entries read as
    0: a window's right-hand sides are one slice of it.  It is computed by
    the window kernel in the first window's build, from that window's
    start to the stream's end (plus T when terminated), and applies only
    to received, the list it was built from.  Committing a value x at
    (i, c) subtracts x H^k[:, c] from the times i + k; the times that
    read an overwritten symbol are recomputed with the kernel.
    """

    __slots__ = ("received", "lo", "hi", "m", "hcols", "rhs")

    def __init__(self, received: list[list[int | None]]):
        self.received = received
        self.rhs: list[int] | None = None

    def window(self, code: ConvCode, i: int, T: int, terminated: bool) -> list[int]:
        """The right-hand sides of the window [i, i+T], computing the syndrome on first use."""
        if self.rhs is None:
            H = code._parity_array
            self.lo, self.hi = i, len(self.received) - 1 + (T if terminated else 0)
            self.m = H.shape[1]
            # per coord c, H^0[:, c] | ... | H^nu[:, c]: a commit's change
            self.hcols = H.transpose(2, 0, 1).reshape(code.n, -1).tolist()
            self.rhs = []
            self.recompute(code, i, self.hi)
        m, lo = self.m, self.lo
        return self.rhs[(i - lo) * m : (i + T + 1 - lo) * m]

    def commit(self, code: ConvCode, i: int, values) -> None:
        """Write the (coord, value) pairs into time i of received, and into the syndrome."""
        q, rhs, sym = code.ctx.q, self.rhs, self.received[i]
        a = (i - self.lo) * self.m
        b = a + len(self.hcols[0])
        for c, x in values:
            sym[c] = x
            rhs[a:b] = [(y - h * x) % q for y, h in zip(rhs[a:b], self.hcols[c])]

    def recompute(self, code: ConvCode, lo: int, hi: int) -> None:
        """Compute the times lo..hi, cut at the syndrome's end, from received with the kernel."""
        m, hi = self.m, min(hi, self.hi)
        self.rhs[(lo - self.lo) * m : (hi + 1 - self.lo) * m] = _window_rhs(code, self.received, lo, hi)


_SYNDROME = "syndrome"  # the store key of a sequential decode's _Syndrome
_BRANCH_BUDGET = 64  # the list members the "branch" policy tries at one time


def _whole(x, name: str) -> int:
    """x as an int, or ValueError naming it when x is not an integer.

    Numpy integers are integers; bools, floats and strings are not.
    """
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, Integral)):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def build_window_system(
    code: ConvCode,
    received: Sequence[Symbol],
    i: int,
    T: int,
    terminated: bool = True,
    store: dict | None = None,
) -> WindowSystem:
    """Assemble the restricted window system for decoding time i with delay T.

    The nu history symbols before time i that the window reads must be
    fully known (an erasure there is a usage error; older symbols are not
    read); times outside the stream are zero when terminated, otherwise
    the window must fit inside the received stream.  An i or T that is not
    an integer, and a known symbol entry that is not one, raise ValueError
    naming the argument or the entry's time.  Each row is
    renormalized by the p-power content of its restricted coefficients; a
    right-hand side with a smaller p-power marks the window invalid, and
    the witness is found here, before any row is built.

    Columns, coefficients and strata depend only on T and on the erasure
    pattern relative to i, so they are built once per pattern and kept in
    store when one is given (keyed on T and the relative pattern); the
    received values enter only through the right-hand sides.  Those come
    from the window kernel, reading received in place, or, in a sequential
    decode, from the running syndrome that its store holds for received; the
    system keeps received, not a copy.
    """
    if code.h_blocks is None:
        raise ValueError("decoding needs a code with a parity side")
    if type(i) is not int or type(T) is not int or i < 0 or T < 0:
        i, T = _whole(i, "window start i"), _whole(T, "delay T")
        if i < 0 or T < 0:
            raise ValueError("window start and delay must be nonnegative")
    L = len(received)
    if not terminated and i + T > L - 1:
        raise ValueError("window exceeds the unterminated stream")
    q, n = code.ctx.q, code.n
    erased: list[int] = []  # (t - i) * n + c per erased entry, time-major
    for t in range(max(i - code.nu, 0), min(i + T + 1, L)):
        sym = received[t]
        if len(sym) != n:
            raise ValueError(f"symbol at time {t} has length {len(sym)}")
        if None in sym:
            if t < i:
                raise ValueError(f"erasure before window start at time {t}")
            erased.extend((t - i) * n + c for c, x in enumerate(sym) if x is None)
    key = (T, tuple(erased))
    store = {} if store is None else store
    pattern = store.get(key)
    if pattern is None:
        pattern = store[key] = _Pattern(code, T, erased)
    syndrome = store.get(_SYNDROME)
    if syndrome is not None and syndrome.received is received:
        rhs = syndrome.window(code, i, T, terminated)
    else:
        rhs = _window_rhs(code, received, i, i + T)
    witness = None
    if any(map(mod, rhs, pattern.moduli)):
        m = len(rhs) // (T + 1)
        k, pv = next((k, pv) for k, (x, pv) in enumerate(zip(rhs, pattern.moduli)) if x % pv)
        witness = ("inconsistent-known" if pv == q else "divisibility", i + k // m, k % m)
    return WindowSystem(code, i, T, received, pattern, rhs, witness)


# ---------------------------------------------------------------------------
# digit stages


@dataclass(frozen=True)
class DigitStage:
    """Reporting record for one digit stage.

    solutions holds the stage's digit-vector family at the all-zero
    assignment of the earlier parameters; its basis size equals
    len(new_params), so the stage count is p**len(new_params) =
    p**(e - rank).
    """

    t: int
    rank: int
    new_params: tuple[int, ...]
    solutions: AffineSet


class _Branch:
    """State of the digit recursion: parameters and the column forms, entry by entry.

    Column c's form is its recombined value sum_t p^t f_t mod q over the
    stages run so far, the integer affine form cols[0][c] + sum_v
    cols[1 + v][c] x_v over all P parameters: cols holds P + 1 lists over
    the e columns, the constants and then one per parameter (a folded
    parameter keeps a zero list).
    """

    __slots__ = ("space", "cols", "stages")

    def __init__(self, space: ParamSpace, cols: list[list[int]]):
        self.space = space
        self.cols = cols
        self.stages: list[DigitStage] = []


def _fold(branch: _Branch, phi: list[int], q: int) -> bool:
    """Fold the mod-p constraint phi == 0 into the parameters.

    phi is a dense form [const, c_0, ...] mod p.  A nonzero constant is a
    contradiction (returns False).  Otherwise the newest parameter v of
    phi, with coefficient lam, is replaced in every column form by the
    integer form -lam^-1 (phi - lam v), lam^-1 taken mod p.  phi then
    vanishes mod p coefficient by coefficient, and every stage identity,
    holding coefficient by coefficient, holds for any integer values of the
    remaining parameters.

    As v is the newest parameter of phi, the stage-u digit forms keep
    involving only parameters of stages <= u: digits 0..u of a window
    depend on those parameters alone and the stage-u ones enter digit u
    through their own free columns.  Hence distinct assignments give
    distinct windows.  (With an older pivot a later parameter would reach
    an earlier digit, and two assignments can meet.)
    """
    k = next((j for j in range(len(phi) - 1, 0, -1) if phi[j]), 0)
    if not k:
        return phi[0] == 0
    lam_inv = pow(phi[k], -1, branch.space.p)
    form = [-lam_inv * c % q for c in phi]
    form[k] = 0
    branch.space.events.append((k - 1, form))
    cols = branch.cols
    at_v = cols[k]
    for j, f in enumerate(form):
        if f:
            cols[j] = [(a + c * f) % q for a, c in zip(cols[j], at_v)]
    cols[k] = [0] * len(at_v)
    return True


def _stage_payload(cols, A: np.ndarray, rhs: np.ndarray, pt: int, q: int) -> np.ndarray:
    """The payload of stage t >= 1: per form entry, digit t of rhs - A G over the stage rows A.

    One product of the column forms with the stage rows; row j of the
    result is form entry j's payload column.
    """
    pays = np.array(cols, dtype=A.dtype) @ A.T
    pays[0] -= rhs
    pays = -pays % q
    # the earlier stage identities hold coefficient by coefficient, so p^t
    # divides every entry
    if (pays % pt).any():
        raise AssertionError(f"stage payload is not divisible by p^t = {pt}")
    return pays // pt


def _run_stage(branch: _Branch, A: np.ndarray, rhs: np.ndarray, t: int, ctx: RingContext):
    """Advance the recursion through digit stage t on its rows A and rhs; an invalid witness or None.

    The stage rows mod p are prepared for elimination once; each pass
    reduces them with their payload, digit t of rhs - A G per form entry,
    riding along.  A dependent row with a nonzero payload is folded and
    the pass repeats.
    """
    p, q = ctx.p, ctx.q
    pt = p**t
    e = A.shape[1]
    matrix = StageMatrix(A, p)
    while True:
        if not t:
            # every form is 0 before stage 0 (whose folds only find
            # contradictions), so the payload is the rhs alone
            payload = rhs[None]
        else:
            payload = _stage_payload(branch.cols, A, rhs, pt, q)
        red = reduce_stage(matrix, payload)
        if red.fold is None:
            break
        # a dependent row whose payload is not zero constrains the parameters
        idx, phi = red.fold
        if not _fold(branch, phi, q):
            return ("stage", t, idx)

    # a pivot column's digit is its payload minus the free columns' share;
    # the existing entries change only at pivot positions with a nonzero digit
    pivots = red.pivots
    for col, pay in zip(branch.cols, red.pays):
        for c, x in zip(pivots, pay):
            if x:
                col[c] = (col[c] + pt * x) % q
    # each free column gets a new parameter: its coefficient list and the
    # stage's basis vector
    new_params, basis = [], []
    for c, at_free in zip(red.free, red.at_free):
        new_params.append(branch.space.new_param())
        col, vec = [0] * e, [0] * e
        for k, x in zip(pivots, at_free):
            if x:
                col[k], vec[k] = -pt * x % q, p - x
        col[c], vec[c] = pt, 1
        branch.cols.append(col)
        basis.append(tuple(vec))
    particular = [0] * e
    for c, x in zip(pivots, red.pays[0]):
        particular[c] = x
    solutions = AffineSet(p, e, True, tuple(particular), tuple(basis))
    branch.stages.append(DigitStage(t, len(pivots), tuple(new_params), solutions))
    return None


# ---------------------------------------------------------------------------
# outcomes


@dataclass
class DecodeOutcome:
    """Result of a window decode: unique, a list, or invalid.

    branches holds the one finished digit recursion (empty when the
    recursion did not run or found the window invalid).
    """

    kind: str  # "unique" | "list" | "invalid"
    system: WindowSystem
    window: list[list[int]] | None = None
    stages: list[DigitStage] = field(default_factory=list)
    list_size: int = 0
    invalid_witness: tuple | None = None
    branches: list[_Branch] = field(default_factory=list)


def list_decode(sys: WindowSystem) -> DecodeOutcome:
    """Run the digit recursion and classify the outcome.

    The list size p^(live parameters) needs no enumeration; the returned
    outcome carries the per-stage reports, and materialize_list enumerates
    the actual windows.
    """
    ctx = sys.code.ctx
    if sys.invalid_witness is not None:
        return DecodeOutcome(kind="invalid", system=sys, invalid_witness=sys.invalid_witness)
    e = sys.e
    if e == 0:
        return DecodeOutcome(
            kind="unique", system=sys, window=sys.assemble(()), list_size=1
        )
    branch = _Branch(ParamSpace(ctx.p), [[0] * e])
    pattern = sys.pattern
    coeffs, scales = pattern.coeffs, pattern.scales
    rhs = sys.row_rhs // scales
    for t in range(ctx.r):
        # the stage rows: those of stratum at most r - 1 - t
        rows_t = scales < ctx.p ** (ctx.r - t)
        witness = _run_stage(branch, coeffs[rows_t], rhs[rows_t], t, ctx)
        if witness is not None:
            return DecodeOutcome(kind="invalid", system=sys, invalid_witness=witness)
    return _outcome(sys, branch)


def _outcome(sys: WindowSystem, branch: _Branch) -> DecodeOutcome:
    """The outcome of a finished recursion; a unique window is checked and filled."""
    size = branch.space.size
    outcome = DecodeOutcome(
        kind="list" if size > 1 else "unique",
        system=sys,
        stages=list(branch.stages),
        list_size=size,
        branches=[branch],
    )
    if size == 1:
        windows, _ = materialize_list(outcome, limit=1)
        outcome.window = windows[0]
    return outcome


# ---------------------------------------------------------------------------
# per-pattern plans


@dataclass(frozen=True)
class _Plan:
    """How the windows of one erasure pattern commit time i: one decomposition of its raw rows.

    dec is intsolve.decompose of the pattern's original rows, U A V = D,
    checked once; rows holds the index of each nonzero equation in the
    window's right-hand sides, and origs its original row as a list, in
    row order: the rows every solution is checked against.
    """

    dec: Decomposition
    rows: list[int]
    origs: list[list[int]]


def _make_plan(sys: WindowSystem) -> _Plan | None:
    """The plan of sys's erasure pattern, from one decomposition of its raw rows; None when it has none.

    The solutions of a valid window are x = V z, z_k fixed mod
    p^(r - v_k) for k < rank and free for k >= rank.  So a time-i column
    takes one value on every valid window's whole list exactly when its
    row of V vanishes on those free directions: V[h, k] p^(r - v_k) = 0
    for k < rank, V[h, k] = 0 beyond.  Those patterns have a plan.  The
    decomposition reads no value of the window, and U A V = D is checked
    once, by one product in exact integers.
    """
    ctx, pattern = sys.code.ctx, sys.pattern
    q, origs = ctx.q, pattern.origs
    m, e = origs.shape
    dec = decompose(ctx, origs.tolist(), e)
    # an entry of U A sums m products of residues, one of (U A mod q) V sums e
    rank, dtype = len(dec.pivots), exact_dtype(max(m, e), q)
    D = np.zeros((m, e), dtype=dtype)
    np.fill_diagonal(D[:rank], dec.pivots)
    U, V = np.array(dec.U, dtype=dtype).reshape(m, m), np.array(dec.V, dtype=dtype).reshape(e, e)
    if not (U @ origs % q @ V % q == D).all():
        raise AssertionError("the pattern's decomposition is not U A V = D")
    for row in dec.V[: len(pattern.head)]:
        if any(row[rank:]) or any(x * (q // pv) % q for x, pv in zip(row, dec.pivots)):
            return None
    return _Plan(dec, [k for k, _ in pattern.nonzero], origs.tolist())


def _plan_values(plan: _Plan, sys: WindowSystem) -> list[int] | None:
    """The erased columns' values on one solution of sys's raw rows, from its pattern's plan; None when sys is invalid.

    s holds the raw right-hand sides of the pattern's nonzero equations,
    read in sys.rhs with no row built, and the solution is x = V (U s /
    p^v).  The window is invalid (list_decode then derives the witness)
    unless p^v_k divides (U s)_k for k < rank and (U s)_k = 0 beyond.  x
    is checked against every raw row, orig . x == s mod q, so the time-i
    values committed from it solve the window.
    """
    if sys.invalid_witness is not None:
        return None
    rhs, q = sys.rhs, sys.code.ctx.q
    s = [rhs[k] for k in plan.rows]
    x = plan.dec.solve(s)
    if x is not None and any((sum(map(mul, orig, x)) - b) % q for orig, b in zip(plan.origs, s)):
        raise AssertionError(_VIOLATION)
    return x


def _planned_decode(
    sys: WindowSystem, counts: PlanCounts
) -> tuple[DecodeOutcome | None, list[int] | None]:
    """list_decode(sys), or the column values that commit time i: (outcome, values).

    A pattern's first window makes its plan (_make_plan).  Every window of
    a pattern with a plan, that one included, solves through it, and the
    outcome is None; a window the plan finds invalid goes to list_decode,
    which derives the witness.  Every window of a pattern without a plan
    runs list_decode.  The path taken is counted in counts.
    """
    pattern = sys.pattern
    first = pattern.plan is None
    if first:
        pattern.plan = _make_plan(sys) or False
    plan = pattern.plan
    values = _plan_values(plan, sys) if plan else None
    if first or not plan:
        counts.first_decodes += 1
    elif values is None:
        counts.fallbacks += 1
    else:
        counts.value_replays += 1
    return (list_decode(sys), None) if values is None else (None, values)


_VIOLATION = "the list violates the parity equations"


def _check_rows(sys: WindowSystem, cols) -> np.ndarray:
    """Raise unless the column forms cols solve every raw row of a valid window, coefficient by coefficient.

    cols holds the constant list and then the parameter lists.  One
    product with the pattern's original rows: the constants must give each
    row's raw right-hand side mod q, and every parameter list must give 0.
    Returns the forms as the array checked, one row per list, in the
    pattern's dtype.
    """
    origs = sys.pattern.origs
    forms = np.array(cols, dtype=origs.dtype)
    prod = forms @ origs.T
    prod[0] -= sys.row_rhs
    if (prod % sys.code.ctx.q).any():
        raise AssertionError(_VIOLATION)
    return forms


def materialize_list(
    outcome: DecodeOutcome, limit: int | None = None
) -> tuple[list[list[list[int]]], bool]:
    """The windows of a decode outcome, verified for the whole list, up to limit.

    Returns (windows, truncated).  Windows come one per assignment of the
    live parameters, lexicographically, and stop after limit (limit 0
    gives none; a negative limit raises ValueError); without a limit a
    list larger than the enumeration cap raises CapExceeded.  truncated is
    true exactly when the list has members that were not returned.  A
    unique outcome's window was proven when the outcome was made, so it is
    returned as it is.  A limit that is not an integer (a float, str or
    bool; numpy integers are integers) raises ValueError too.

    The first count = min(p^k, limit) assignments move only the last k
    live parameters and leave the others 0: member m's values are the
    constants plus X[m] times those k parameter lists, X[m] the base-p
    digits of m, the first of the k parameters slowest.  So the values of
    all count members are one product X F + F_0 mod q of the forms as the
    list check holds them, scattered over the erased columns of count
    copies of the window's known symbols.  With k = 0 (one member) the
    constants fill the window alone.
    """
    if limit is not None:
        limit = _whole(limit, "limit")
        if limit < 0:
            raise ValueError(f"limit must be nonnegative, got {limit}")
    sys = outcome.system
    if outcome.kind == "invalid":
        return [], False
    if limit == 0:
        return [], True
    if outcome.kind == "unique" and outcome.window is not None:
        return [outcome.window], False
    if limit is None:
        limit = enumeration_cap()
        if outcome.list_size > limit:
            raise CapExceeded(f"list of size {outcome.list_size} exceeds cap {limit}")
    p, q = sys.code.ctx.p, sys.code.ctx.q
    (branch,) = outcome.branches
    # every member is the column forms at an integer assignment, so raw rows
    # holding coefficient by coefficient prove the whole list
    forms = _check_rows(sys, branch.cols)
    live, k = branch.space.live(), 0
    while k < len(live) and p**k < limit:
        k += 1
    if not k:
        return [sys.assemble(branch.cols[0])], outcome.list_size > 1
    count = min(p**k, limit)
    # row m holds the base-p digits of m, the first of the k parameters
    # slowest: m itself for one parameter (count <= p); p^j <= p^(k-1) <
    # count, so no power of p leaves int64
    digits = np.arange(count)[:, None]
    if k > 1:
        digits = digits // np.array([p**j for j in range(k - 1, -1, -1)]) % p
    # k products of a digit and a residue and one constant, each below q^2
    forms = forms[[0, *(1 + v for v in live[len(live) - k :])]].astype(exact_dtype(k + 1, q), copy=False)
    known = [0 if x is None else x for sym in sys.symbols for x in sym]
    block = np.empty((count, len(known)), dtype=forms.dtype)
    block[:] = known
    block[:, sys.pattern.erased] = (forms[0] + digits @ forms[1:]) % q
    return block.reshape(count, sys.T + 1, sys.code.n).tolist(), outcome.list_size > count


def oracle_decode(
    code: ConvCode,
    received: Sequence[Symbol],
    i: int,
    T: int,
    terminated: bool = True,
) -> frozenset:
    """Brute-force reference: enumerate every filling of the erased columns.

    Returns the set of window fillings (times i..i+T, as tuples) that
    satisfy the window parity equations exactly.  q^e candidates past the
    enumeration cap raise CapExceeded.
    Candidates solve the raw rows of the window's pattern; each filled
    window is then checked against every equation, those the rows leave
    out included.
    """
    sys = build_window_system(code, received, i, T, terminated=terminated)
    out = set()
    origs, rhs = sys.pattern.origs.tolist(), sys.row_rhs.tolist()
    for x in enumerate_solutions(origs, rhs, sys.e, code.ctx.q, enumeration_cap()):
        window = sys.assemble([int(v) for v in x])
        if sys.window_equations_hold(window):
            out.add(tuple(tuple(sym) for sym in window))
    return frozenset(out)


def project_values(outcome: DecodeOutcome, cols: Sequence[int]) -> dict[int, int] | None:
    """Values of the given columns when they agree across the whole list.

    Exact and symbolic: a column is constant over the list exactly when its
    recombined form has no live parameter, since moving one parameter from
    0 to 1 changes the value by that parameter's nonzero coefficient.  A
    list's forms are checked against the raw rows first, as
    materialize_list checks them; a unique window was checked when its
    outcome was made.
    """
    sys = outcome.system
    if outcome.kind == "invalid":
        return None
    if outcome.kind == "unique":
        flat = {}
        for k, (t, c) in enumerate(sys.columns):
            if k in cols:
                flat[k] = outcome.window[t - sys.i][c]
        return flat
    forms = outcome.branches[0].cols
    _check_rows(sys, forms)
    consts, *params = forms
    values: dict[int, int] = {}
    for col in cols:
        if any(param[col] for param in params):
            return None
        values[col] = consts[col]
    return values


@dataclass
class PlanCounts:
    """How the windows of a sequential decode were decoded; one count per decision.

    first_decodes counts the windows that made their pattern's plan,
    whatever they ran then, and the later list_decode runs of patterns
    with no plan, those whose time i is not the same on every solution.
    value_replays are the later windows that committed time i from their
    pattern's plan, and fallbacks the later windows that the plan found
    invalid and that ran list_decode.
    """

    first_decodes: int = 0
    value_replays: int = 0
    fallbacks: int = 0


@dataclass
class SequentialResult:
    """Per-time decisions of a sequential pass over a received stream."""

    stream: list[list[int | None]]
    decisions: list[tuple]
    halted_at: int | None = None
    last_outcome: DecodeOutcome | None = None
    plan_counts: PlanCounts = field(default_factory=PlanCounts)

    @property
    def complete(self) -> bool:
        return all(all(x is not None for x in sym) for sym in self.stream)


def sequential_decode(
    code: ConvCode,
    received: Sequence[Symbol],
    T: int,
    policy: str = "halt",
    terminated: bool = True,
) -> SequentialResult:
    """Slide a decoding window over the stream, committing one time at a go.

    At each earliest erased time i, the window [i, i+T] is decoded and only
    the coordinates of time i need to be list-unique; on success they are
    substituted and the scan advances.  Policies on a non-unique time:
    "halt" stops and reports the list, "first" substitutes the first list
    element, "branch" tries up to _BRANCH_BUDGET list elements against the
    rest of the stream.  An invalid window after a "first" pick is recorded
    as (i, "invalid-after-guess", j), j the latest picked time: the guess,
    not the received word, may be at fault.  A T that is not an integer
    raises ValueError before the first window, and so does a known entry
    that is not one, anywhere in the stream, naming its time.  A
    halted outcome has derived the symbols and history it reads, so an
    edit to the returned stream does not reach it.

    A store kept for this call, keyed on the delay and the erasure pattern
    relative to i, holds each pattern's window rows and plan: a pattern's
    first window makes the plan, one decomposition U A V = D of the
    pattern's raw rows, which has a plan exactly when time i is the same
    on every solution of every valid window.  Every window of a pattern
    with a plan, the first one included, solves x = V (U s / D) from its
    right-hand sides s, with no row built, and commits time i from it.
    Every other window runs list_decode.  Each committed value comes from
    a column checked against the window's raw rows.  The store
    also holds the call's running syndrome: the first window's build
    computes the right-hand sides of every later equation in one kernel
    call, each commit updates the times it reaches and a "first" pick
    recomputes them, and every window reads its right-hand sides from it.
    Decisions and outcomes equal list_decode's; plan_counts says which
    path each window took.
    """
    if policy not in ("halt", "first", "branch"):
        raise ValueError(f"unknown policy {policy!r}")
    T = _whole(T, "delay T")
    work = [list(sym) for sym in received]
    decisions: list[tuple] = []
    picked = None
    syndrome = _Syndrome(work)
    # per (Tw, pattern relative to i), and the syndrome of work
    patterns: dict = {_SYNDROME: syndrome}
    counts = PlanCounts()

    def next_erased(start: int) -> int | None:
        for t in range(start, len(work)):
            if None in work[t]:
                return t
        return None

    def halted(i: int, outcome: DecodeOutcome) -> SequentialResult:
        # derive what the outcome reads of work now, before the caller can edit it
        sys = outcome.system
        sys.history, sys.symbols
        return SequentialResult(work, decisions, i, outcome, counts)

    i = next_erased(0)
    # the window kernel checks the symbols from the first window's history on
    for t in range(len(work) if i is None else max(i - (code.nu or 0), 0)):
        for x in work[t]:
            if type(x) is not int:
                _integer(x, t)
    while i is not None:
        Tw = T if terminated else min(T, len(work) - 1 - i)
        sys = build_window_system(code, work, i, Tw, terminated=terminated, store=patterns)
        outcome, values = _planned_decode(sys, counts)
        if outcome is not None and outcome.kind == "invalid":
            verdict = (i, "invalid") if picked is None else (i, "invalid-after-guess", picked)
            decisions.append(verdict)
            return halted(i, outcome)
        # the columns are time-major, so time i's come first
        head = sys.pattern.head
        if outcome is not None:
            got = project_values(outcome, range(len(head)))
            values = None if got is None else [got[k] for k in range(len(head))]
        if values is not None:
            syndrome.commit(code, i, zip(head, values))
            decisions.append((i, "unique"))
            i = next_erased(i + 1)
            continue
        if policy == "halt":
            decisions.append((i, "list", outcome.list_size))
            return halted(i, outcome)
        windows, _ = materialize_list(outcome, limit=_BRANCH_BUDGET if policy == "branch" else 1)
        if policy == "first":
            window = windows[0]
            # a terminated window's times past the stream end are not stream symbols
            for t, sym in zip(range(i, len(work)), window):
                work[t] = list(sym)
            # the equations of times i..i+Tw+nu read the rewritten symbols
            syndrome.recompute(code, i, i + Tw + code.nu)
            decisions.append((i, "picked-first", outcome.list_size))
            picked = i
            i = next_erased(i + 1)
            continue
        # policy == "branch": try candidates against the remaining stream
        for window in windows:
            trial = [list(sym) for sym in work]
            for t, sym in zip(range(i, len(trial)), window):
                trial[t] = list(sym)
            sub = sequential_decode(
                code, trial, T, policy="halt", terminated=terminated
            )
            if sub.complete:
                decisions.append((i, "branched", outcome.list_size))
                decisions.extend(sub.decisions)
                total = PlanCounts(*map(add, astuple(counts), astuple(sub.plan_counts)))
                return SequentialResult(stream=sub.stream, decisions=decisions, plan_counts=total)
        decisions.append((i, "list", outcome.list_size))
        return halted(i, outcome)
    return SequentialResult(stream=work, decisions=decisions, plan_counts=counts)
