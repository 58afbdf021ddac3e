"""Erasure list decoding over Z_{p^r} by digitwise recursion.

The erased symbols of a sliding window become unknowns of a linear system
over Z_{p^r}.  Each equation is renormalized by the largest p-power
dividing its coefficients (the power depends on the erasure pattern), and
the unknowns are resolved digit by digit: stage t solves a system over
Z_p for the t-th base-p digits, with right-hand sides derived from the
residuals of the previous stages.

Stage solutions are carried symbolically as integer affine forms in a
growing global parameter vector over Z_p; nothing is enumerated during
the recursion.  Each column keeps one dense form [const, c_0, ..., c_{P-1}]
mod q: its value sum_t p^t f_t recombined over the stages so far.  Stage
t's payload is digit t of rhs - A G for the column forms G; the rows mod p
and their payloads are reduced in one augmented elimination, payload
entries riding along as extra columns.  Every stage identity (row . f_t
== payload mod p) holds coefficient by coefficient, so it holds for any
integer parameter values.  A rank-deficient stage can leave a dependent
row whose payload is a nonconstant form in earlier parameters: that
constraint is folded by substituting, for one of its parameters, the
integer affine form it dictates in the others.  The constraint then
vanishes identically and the remaining parameters stay free.

The final list is the set of values of the column forms over all
assignments of the live parameters in [0, p); distinct assignments give
distinct windows, so its size is p to the number of live parameters.

The window equations come from the one window-equation kernel in codes,
in two parts.  Columns, coefficients, strata and renormalized rows depend
only on T and on the erasure pattern relative to the window start, and
build_window_system makes them once per pattern; the received values
enter only through one dot product per row, its right-hand side.  The
column forms are checked once against the raw rows, and the brute-force
oracle enumerates against them.

Pivots, folds and the parameter part of every form depend only on the
pattern as well.  So a sequential decode keeps one store per call, keyed
on the delay and the relative pattern: each window's pattern part, and
the plan made from a fold-free pattern's second window, with each stage's
row transform.  Later windows replay only the constant column, with no
elimination; each replayed list is then checked against the raw rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from operator import mul
from typing import Iterator, Sequence

from .codes import ConvCode, _window_coeffs, _window_rhs
from .config import enumeration_cap
from .errors import CapExceeded, InvalidReceived
from .linsolve import AffineSet, ConstMatrix, enumerate_solutions, mccoy_unique, rref_mod_p
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

    def assignments(self) -> Iterator[tuple[int, ...]]:
        """All assignments of the live parameters, lexicographically.

        Each is the value vector over all parameters; folded ones read 0.
        """
        live = self.live()
        values = [0] * self.n_params
        for combo in itertools.product(range(self.p), repeat=len(live)):
            for v, x in zip(live, combo):
                values[v] = x
            yield tuple(values)


# ---------------------------------------------------------------------------
# window systems


@dataclass(frozen=True)
class ErasurePattern:
    """Erased coordinate indices per time, sorted; e is the total count."""

    by_time: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def from_received(cls, received: Sequence[Symbol]) -> "ErasurePattern":
        out = []
        for t, sym in enumerate(received):
            coords = tuple(c for c, x in enumerate(sym) if x is None)
            if coords:
                out.append((t, coords))
        return cls(by_time=tuple(out))

    @property
    def e(self) -> int:
        return sum(len(coords) for _, coords in self.by_time)

    def times(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.by_time)


@dataclass(frozen=True)
class WindowRow:
    """One renormalized parity equation restricted to the erased columns.

    The original scaled equation is coeffs * p^stratum (same for rhs); the
    renormalized coefficients contain a unit.  The equation constrains the
    unknowns mod p^(r - stratum), so it takes part in digit stages
    t <= r - 1 - stratum.
    """

    time: int
    h_row: int
    stratum: int
    coeffs: tuple[int, ...]
    rhs: int
    orig_coeffs: tuple[int, ...]
    orig_rhs: int


@dataclass
class WindowSystem:
    """The erased-column linear system for one decoding window."""

    code: ConvCode
    i: int
    T: int
    columns: tuple[tuple[int, int], ...]  # (time, coord), time-major
    rows: list[WindowRow]
    table: dict[int, list[int | None]]  # window + needed history symbols
    invalid_witness: tuple | None = None
    pattern: _Pattern | None = field(default=None, repr=False, compare=False)

    @property
    def e(self) -> int:
        return len(self.columns)

    def scaled_matrix(self) -> ConstMatrix:
        return ConstMatrix(
            self.code.ctx, [row.orig_coeffs for row in self.rows], cols=self.e
        )

    def assemble(self, col_values: Sequence[int]) -> list[list[int]]:
        """The window symbols (times i..i+T) with unknowns filled in."""
        lookup = dict(zip(self.columns, col_values))
        out = []
        for t in range(self.i, self.i + self.T + 1):
            sym = list(self.table[t])
            for c in range(len(sym)):
                if sym[c] is None:
                    sym[c] = lookup[(t, c)]
            out.append(sym)
        return out

    def window_equations_hold(self, window: Sequence[Sequence[int]]) -> bool:
        """Exact parity check of the filled window against the history."""
        i, hi = self.i, self.i + self.T
        table = {t: self.table[t] for t in range(i - self.code.nu, i)}
        table.update(zip(range(i, hi + 1), window))
        return not any(_window_rhs(self.code, table, i, hi))


class _Pattern:
    """The value-free part of the window systems of one delay and pattern.

    columns are the erased (time - i, coord) pairs; equations hold, per
    parity equation in kernel order, (time - i, h_row, stratum, p^stratum,
    renormalized coeffs, orig coeffs).  A sequential decode also counts its
    windows of the pattern and keeps the pattern's plan here.
    """

    __slots__ = ("columns", "equations", "sightings", "plan")

    def __init__(self, code: ConvCode, T: int, erased: Sequence[int]):
        ctx, n = code.ctx, code.n
        m = len(code._parity_block_rows)
        self.columns = tuple(divmod(f, n) for f in erased)
        self.equations = []
        for k, acc in enumerate(_window_coeffs(code, self.columns, 0, T)):
            v = ctx.val(gcd(ctx.q, *acc))  # least valuation over the row; r for a zero row
            pv, orig = ctx.p**v, tuple(acc)
            coeffs = tuple(a // pv for a in acc) if v else orig
            self.equations.append((k // m, k % m, v, pv, coeffs, orig))
        self.sightings = 0
        self.plan: _Plan | None = None


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
    the window must fit inside the received stream.  Each row is
    renormalized by the p-power content of its restricted coefficients; a
    right-hand side with a smaller p-power marks the window invalid.

    Columns, coefficients and strata depend only on T and on the erasure
    pattern relative to i, so they are built once per pattern and kept in
    store when one is given (keyed on T and the relative pattern); the
    received values enter only through one right-hand side per row.
    """
    if code.h_blocks is None:
        raise ValueError("decoding needs a code with a parity side")
    ctx = code.ctx
    if i < 0 or T < 0:
        raise ValueError("window start and delay must be nonnegative")
    L = len(received)
    if not terminated and i + T > L - 1:
        raise ValueError("window exceeds the unterminated stream")
    q, r, n = ctx.q, ctx.r, code.n
    table: dict[int, list[int | None]] = {}
    erased: list[int] = []  # (t - i) * n + c per erased entry, time-major
    for t in range(i - code.nu, i + T + 1):
        if not 0 <= t < L:
            table[t] = [0] * n
            continue
        sym = received[t]
        if len(sym) != n:
            raise ValueError(f"symbol at time {t} has length {len(sym)}")
        if None in sym:
            if t < i:
                raise ValueError(f"erasure before window start at time {t}")
            erased.extend((t - i) * n + c for c, x in enumerate(sym) if x is None)
        table[t] = [x if x is None else x % q for x in sym]
    key = (T, tuple(erased))
    store = {} if store is None else store
    pattern = store.get(key)
    if pattern is None:
        pattern = store[key] = _Pattern(code, T, erased)
    rows: list[WindowRow] = []
    witness = None
    for (s, ri, v, pv, coeffs, orig), rhs in zip(
        pattern.equations, _window_rhs(code, table, i, i + T)
    ):
        if v >= r:
            if rhs and witness is None:
                witness = ("inconsistent-known", i + s, ri)
        elif rhs % pv:
            if witness is None:
                witness = ("divisibility", i + s, ri)
        else:
            rows.append(WindowRow(i + s, ri, v, coeffs, rhs // pv, orig, rhs))
    return WindowSystem(
        code=code,
        i=i,
        T=T,
        columns=tuple((i + dt, c) for dt, c in pattern.columns),
        rows=rows,
        table=table,
        invalid_witness=witness,
        pattern=pattern,
    )


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
    """State of the digit recursion: parameters and one form per column.

    forms[col] is the column's recombined value sum_t p^t f_t mod q over
    the stages run so far, as a dense integer list [const, c_0, ...,
    c_{P-1}] over all P parameters (a folded parameter keeps coefficient 0).
    """

    __slots__ = ("space", "forms", "stages")

    def __init__(self, space: ParamSpace, e: int):
        self.space = space
        self.forms: list[list[int]] = [[0] for _ in range(e)]
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
    for g in branch.forms:
        c = g[k]
        if c:
            g[:] = [(a + c * x) % q for a, x in zip(g, form)]
            g[k] = 0
    return True


def _run_stage(
    branch: _Branch, rows_t: list[WindowRow], t: int, e: int, ctx: RingContext, track=None
):
    """Advance the recursion through digit stage t; an invalid witness or None.

    Each pass is one augmented elimination: the stage rows mod p, followed
    by their payload digit t of rhs - A G as dense columns over [const,
    params].  A dependent row with a nonzero payload is folded and the pass
    repeats.  With a track list, an identity block rides along as further
    columns, and the last pass's pivots, row transform mod p and stage
    report are appended to track.
    """
    p, q = ctx.p, ctx.q
    pt = p**t
    while True:
        entries = list(zip(*branch.forms))  # one tuple over the columns per form entry
        end = e + len(entries)
        mat = []
        for j, row in enumerate(rows_t):
            R = [-sum(map(mul, row.coeffs, col)) % q for col in entries]
            R[0] = (R[0] + row.rhs) % q
            # the earlier stage identities hold coefficient by coefficient,
            # so p^t divides R identically
            assert not any(x % pt for x in R)
            mat.append([*row.coeffs, *(x // pt for x in R)])
            if track is not None:
                mat[-1].extend(int(k == j) for k in range(len(rows_t)))
        pivots = rref_mod_p(mat, p, ncols=e)
        # a dependent row whose payload is not zero constrains the parameters
        idx = next((k for k in range(len(pivots), len(mat)) if any(mat[k][e:end])), None)
        if idx is None:
            break
        if not _fold(branch, mat[idx][e:end], q):
            return ("stage", t, idx)

    # free columns get new parameters; a pivot column's digit is its
    # payload minus the free columns' share
    pivot_set = set(pivots)
    free = [c for c in range(e) if c not in pivot_set]
    new_params = tuple(branch.space.new_param() for _ in free)
    grow = [0] * len(free)
    for g in branch.forms:
        g.extend(grow)
    for c, v in zip(free, new_params):
        branch.forms[c][1 + v] = pt
    particular = [0] * e
    basis = [[0] * e for _ in free]
    for ridx, col in enumerate(pivots):
        row = mat[ridx]
        f = row[e:end] + [-row[c] % q for c in free]
        g = branch.forms[col]
        g[:] = [(a + pt * x) % q for a, x in zip(g, f)]
        particular[col] = row[e]
        for vec, c in zip(basis, free):
            vec[col] = -row[c] % p
    for vec, c in zip(basis, free):
        vec[c] = 1
    branch.stages.append(
        DigitStage(
            t=t,
            rank=len(pivots),
            new_params=new_params,
            solutions=AffineSet(p, e, True, tuple(particular), tuple(map(tuple, basis))),
        )
    )
    if track is not None:
        track.append((pivots, [row[end:] for row in mat], branch.stages[-1]))
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
    return _decode(sys)


def _decode(sys: WindowSystem, track=None) -> DecodeOutcome:
    """list_decode, with each stage's pivots, row transform and report added to track."""
    ctx = sys.code.ctx
    if sys.invalid_witness is not None:
        return DecodeOutcome(kind="invalid", system=sys, invalid_witness=sys.invalid_witness)
    e = sys.e
    if e == 0:
        return DecodeOutcome(
            kind="unique", system=sys, window=sys.assemble(()), list_size=1
        )
    branch = _Branch(ParamSpace(ctx.p), e)
    for t in range(ctx.r):
        rows_t = [row for row in sys.rows if row.stratum <= ctx.r - 1 - t]
        witness = _run_stage(branch, rows_t, t, e, ctx, track)
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
    """The value-free half of a fold-free recursion for one erasure pattern.

    Per stage its pivots, row transform mod p and report; then the final
    parameter part of every column form.
    """

    stages: list[tuple[list[int], list[list[int]], DigitStage]]
    params: list[tuple[int, ...]]


def _compile(sys: WindowSystem) -> tuple[DecodeOutcome, _Plan | None]:
    """list_decode(sys), and the plan of its pattern unless it folded or is invalid."""
    track: list = []
    outcome = _decode(sys, track)
    if not outcome.branches or outcome.branches[0].space.events:
        return outcome, None
    return outcome, _Plan(track, [tuple(g[1:]) for g in outcome.branches[0].forms])


def _replay(plan: _Plan, sys: WindowSystem) -> DecodeOutcome | None:
    """list_decode(sys) from its pattern's plan, with no elimination.

    Each stage transforms digit t of rhs - A G on the constant column
    alone.  None when the window is invalid (list_decode then derives the
    witness).  Every replayed list passes the row check of materialize_list.
    """
    if sys.invalid_witness is not None:
        return None
    ctx = sys.code.ctx
    p, q, e = ctx.p, ctx.q, sys.e
    consts = [0] * e
    branch = _Branch(ParamSpace(p), e)
    for pivots, transform, stage in plan.stages:
        pt = p**stage.t
        digits = [
            (row.rhs - sum(map(mul, row.coeffs, consts))) % q // pt
            for row in sys.rows
            if row.stratum <= ctx.r - 1 - stage.t
        ]
        reduced = [sum(map(mul, tf, digits)) % p for tf in transform]
        if any(reduced[len(pivots) :]):
            return None
        particular = [0] * e
        for x, col in zip(reduced, pivots):
            particular[col] = x
            consts[col] = (consts[col] + pt * x) % q
        solutions = AffineSet(p, e, True, tuple(particular), stage.solutions.basis)
        branch.stages.append(DigitStage(stage.t, stage.rank, stage.new_params, solutions))
    branch.space.n_params = len(plan.params[0])
    branch.forms = [[c, *g] for c, g in zip(consts, plan.params)]
    outcome = _outcome(sys, branch)
    if outcome.kind == "list":
        materialize_list(outcome, limit=1)  # the row check of the whole list
    return outcome


def materialize_list(
    outcome: DecodeOutcome, limit: int | None = None
) -> tuple[list[list[list[int]]], bool]:
    """The windows of a decode outcome, verified for the whole list, up to limit.

    Returns (windows, truncated).  Windows come one per assignment of the
    live parameters, lexicographically, and stop after limit; without a
    limit a list larger than the enumeration cap raises CapExceeded.
    """
    sys = outcome.system
    if outcome.kind == "invalid":
        return [], False
    if outcome.kind == "unique" and outcome.window is not None and not outcome.branches:
        return [outcome.window], False
    if limit is None:
        limit = enumeration_cap()
        if outcome.list_size > limit:
            raise CapExceeded(f"list of size {outcome.list_size} exceeds cap {limit}")
    q = sys.code.ctx.q
    (branch,) = outcome.branches
    # every member is the column forms at an integer assignment, so raw rows
    # holding coefficient by coefficient prove the whole list
    entries = list(zip(*branch.forms))
    for row in sys.rows:
        R = [sum(map(mul, row.orig_coeffs, col)) % q for col in entries]
        if (R[0] - row.orig_rhs) % q or any(R[1:]):
            raise AssertionError("the list violates the parity equations")
    windows = []
    for values in itertools.islice(branch.space.assignments(), max(limit, 1)):
        x = (1, *values)
        windows.append(sys.assemble([sum(map(mul, g, x)) % q for g in branch.forms]))
    return windows, outcome.list_size > len(windows)


def try_unique_decode(sys: WindowSystem) -> list[list[int]] | None:
    """The unique filled window, or None when the list has several members.

    Raises InvalidReceived when the window system is inconsistent (the
    received word cannot be a codeword).
    """
    if sys.invalid_witness is not None:
        raise InvalidReceived(f"window is inconsistent: {sys.invalid_witness}")
    if sys.e == 0:
        return sys.assemble(())
    if not mccoy_unique(sys.scaled_matrix()):
        return None
    outcome = list_decode(sys)
    if outcome.kind == "invalid":
        raise InvalidReceived(f"window is inconsistent: {outcome.invalid_witness}")
    assert outcome.kind == "unique"
    return outcome.window


def oracle_decode(
    code: ConvCode,
    received: Sequence[Symbol],
    i: int,
    T: int,
    cap: int | None = None,
    terminated: bool = True,
) -> frozenset:
    """Brute-force reference: enumerate every filling of the erased columns.

    Returns the set of window fillings (times i..i+T, as tuples) that
    satisfy the window parity equations exactly.  Capped at q^e candidates.
    Candidates solve the window's raw rows; each filled window is then
    checked against every equation, those the rows leave out included.
    """
    cap = enumeration_cap() if cap is None else cap
    sys = build_window_system(code, received, i, T, terminated=terminated)
    A = [row.orig_coeffs for row in sys.rows]
    b = [row.orig_rhs for row in sys.rows]
    out = set()
    for x in enumerate_solutions(A, b, sys.e, code.ctx.q, cap):
        window = sys.assemble([int(v) for v in x])
        if sys.window_equations_hold(window):
            out.add(tuple(tuple(sym) for sym in window))
    return frozenset(out)


def project_values(outcome: DecodeOutcome, cols: Sequence[int]) -> dict[int, int] | None:
    """Values of the given columns when they agree across the whole list.

    Exact and symbolic: a column is constant over the list exactly when its
    recombined form has no live parameter, since moving one parameter from
    0 to 1 changes the value by that parameter's nonzero coefficient.
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
    (branch,) = outcome.branches
    values: dict[int, int] = {}
    for col in cols:
        const, *coeffs = branch.forms[col]
        if any(coeffs):
            return None
        values[col] = const
    return values


@dataclass
class SequentialResult:
    """Per-time decisions of a sequential pass over a received stream."""

    stream: list[list[int | None]]
    decisions: list[tuple]
    halted_at: int | None = None
    last_outcome: DecodeOutcome | None = None

    @property
    def complete(self) -> bool:
        return all(all(x is not None for x in sym) for sym in self.stream)


def sequential_decode(
    code: ConvCode,
    received: Sequence[Symbol],
    T: int,
    policy: str = "halt",
    terminated: bool = True,
    branch_budget: int = 64,
) -> SequentialResult:
    """Slide a decoding window over the stream, committing one time at a go.

    At each earliest erased time i, the window [i, i+T] is decoded and only
    the coordinates of time i need to be list-unique; on success they are
    substituted and the scan advances.  Policies on a non-unique time:
    "halt" stops and reports the list, "first" substitutes the first list
    element, "branch" tries list elements against the rest of the stream
    within a bounded budget.  An invalid window after a "first" pick is
    recorded as (i, "invalid-after-guess", j), j the latest picked time:
    the guess, not the received word, may be at fault.

    A store kept for this call, keyed on the delay and the erasure pattern
    relative to i, holds each pattern's window rows and plan: later windows
    of a pattern assemble only their right-hand sides and replay its second
    window's eliminations on the constant column; folding patterns and
    invalid windows run list_decode.  Outcomes equal list_decode's.
    """
    if policy not in ("halt", "first", "branch"):
        raise ValueError(f"unknown policy {policy!r}")
    work = [list(sym) for sym in received]
    decisions: list[tuple] = []
    picked = None
    patterns: dict[tuple, _Pattern] = {}  # per (Tw, pattern relative to i)

    def next_erased(start: int) -> int | None:
        for t in range(start, len(work)):
            if any(x is None for x in work[t]):
                return t
        return None

    t0 = 0
    while True:
        i = next_erased(t0)
        if i is None:
            return SequentialResult(stream=work, decisions=decisions)
        Tw = T if terminated else min(T, len(work) - 1 - i)
        sys = build_window_system(code, work, i, Tw, terminated=terminated, store=patterns)
        pattern = sys.pattern
        if pattern.sightings == 1:
            outcome, pattern.plan = _compile(sys)
        else:
            outcome = (pattern.plan and _replay(pattern.plan, sys)) or list_decode(sys)
        pattern.sightings += 1
        if outcome.kind == "invalid":
            verdict = (i, "invalid") if picked is None else (i, "invalid-after-guess", picked)
            decisions.append(verdict)
            return SequentialResult(
                stream=work, decisions=decisions, halted_at=i, last_outcome=outcome
            )
        target_cols = [k for k, (t, _) in enumerate(sys.columns) if t == i]
        got = project_values(outcome, target_cols)
        if got is not None:
            for k, (t, c) in enumerate(sys.columns):
                if k in got:
                    work[t][c] = got[k]
            decisions.append((i, "unique"))
            t0 = i + 1
            continue
        if policy == "halt":
            decisions.append((i, "list", outcome.list_size))
            return SequentialResult(
                stream=work, decisions=decisions, halted_at=i, last_outcome=outcome
            )
        windows, _ = materialize_list(outcome, limit=branch_budget if policy == "branch" else 1)
        if policy == "first":
            window = windows[0]
            # a terminated window's times past the stream end are not stream symbols
            for t, sym in zip(range(i, len(work)), window):
                work[t] = list(sym)
            decisions.append((i, "picked-first", outcome.list_size))
            picked = i
            t0 = i + 1
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
                return SequentialResult(stream=sub.stream, decisions=decisions)
        decisions.append((i, "list", outcome.list_size))
        return SequentialResult(
            stream=work, decisions=decisions, halted_at=i, last_outcome=outcome
        )
