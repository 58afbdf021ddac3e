"""Erasure list decoding over Z_{p^r} by digitwise recursion.

The erased symbols of a sliding window become unknowns of a linear system
over Z_{p^r}.  Each equation is renormalized by the largest p-power
dividing its coefficients (the power depends on the erasure pattern), and
the unknowns are resolved digit by digit: stage t solves a system over
Z_p for the t-th base-p digits, with right-hand sides derived from the
residuals of the previous stages.

Stage solutions are carried symbolically as integer affine forms in a
growing global parameter vector over Z_p; nothing is enumerated during
the recursion.  When a residual must be divisible by p^t but is not
identically so, the offending digit yields a linear constraint on the
parameters; folding a constraint eliminates one parameter and introduces
a bounded carry variable so that all remaining forms stay exact.  In the
rare case a constraint lands on carry variables only, the decode splits
into branches over that carry's finite range.

The final list is the set of all digit recombinations over the surviving
parameter assignments; its size is the product of the per-stage solution
counts whenever no constraint fired.

The window equations themselves come from the one window-equation kernel
in codes: build_window_system renormalizes its rows, a filled window is
checked against it, and the brute-force oracle enumerates against its
raw rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from typing import Iterator, Sequence

from .codes import ConvCode, _window_equations
from .config import enumeration_cap
from .errors import CapExceeded, InvalidReceived
from .linsolve import AffineSet, ConstMatrix, enumerate_solutions, mccoy_unique, rref_mod_p
from .ring import RingContext

Symbol = Sequence[int | None]


# ---------------------------------------------------------------------------
# affine forms over a growing parameter vector


class LinForm:
    """const + sum coeff_v * v, reduced mod m; variables are Z_p digits."""

    __slots__ = ("m", "const", "coeffs")

    def __init__(self, m: int, const: int = 0, coeffs: dict[int, int] | None = None):
        self.m = m
        self.const = const % m
        cc: dict[int, int] = {}
        if coeffs:
            for v, c in coeffs.items():
                c %= m
                if c:
                    cc[v] = c
        self.coeffs = cc

    def copy(self) -> "LinForm":
        return LinForm(self.m, self.const, dict(self.coeffs))

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def scale(self, c: int) -> "LinForm":
        return LinForm(self.m, self.const * c, {v: k * c for v, k in self.coeffs.items()})

    def sub_mul(self, f: int, other: "LinForm") -> "LinForm":
        """self - f * other."""
        const = self.const - f * other.const
        cc = dict(self.coeffs)
        for v, c in other.coeffs.items():
            cc[v] = cc.get(v, 0) - f * c
        return LinForm(self.m, const, cc)

    def subst(self, var: int, value: int) -> "LinForm":
        c = self.coeffs.get(var)
        if c is None:
            return self
        cc = dict(self.coeffs)
        del cc[var]
        return LinForm(self.m, self.const + c * value, cc)

    def evaluate(self, values: dict[int, int]) -> int:
        acc = self.const
        for v, c in self.coeffs.items():
            acc += c * values[v]
        return acc % self.m

    def val(self, p: int, r: int) -> int:
        """Minimum p-adic valuation over the constant and all coefficients."""
        best = r
        for x in itertools.chain((self.const,), self.coeffs.values()):
            x %= self.m
            if x == 0:
                continue
            v = 0
            while x % p == 0 and v < best:
                x //= p
                v += 1
            if v < best:
                best = v
                if best == 0:
                    return 0
        return best

    def digit(self, p: int, level: int) -> "LinForm":
        """The level-th base-p digit form; needs valuation >= level."""
        pt = p**level
        assert self.const % pt == 0 and all(c % pt == 0 for c in self.coeffs.values())
        return LinForm(
            p,
            (self.const // pt) % p,
            {v: (c // pt) % p for v, c in self.coeffs.items()},
        )

    def as_mod(self, m: int) -> "LinForm":
        return LinForm(m, self.const, dict(self.coeffs))

    def rewrite(self, ev: "_Elim") -> "LinForm":
        """Eliminate ev.pivot using the constraint behind ev, exactly.

        On the surviving assignments the value is unchanged; the carry
        variable ev.slack absorbs the base-p wraparound.
        """
        sigma = self.coeffs.get(ev.pivot)
        if sigma is None:
            return self
        m = self.m
        lam_inv = pow(ev.lam % m, -1, m)
        const = ev.lam * self.const - sigma * ev.alpha
        cc: dict[int, int] = {}
        for v, c in self.coeffs.items():
            if v != ev.pivot:
                cc[v] = ev.lam * c
        for v, c in ev.support:
            if v != ev.pivot:
                cc[v] = cc.get(v, 0) - sigma * c
        cc[ev.slack] = cc.get(ev.slack, 0) + sigma * ev.p
        return LinForm(m, const * lam_inv, {v: c * lam_inv for v, c in cc.items()})

    def __repr__(self):
        parts = [str(self.const)] + [f"{c}*c{v}" for v, c in sorted(self.coeffs.items())]
        return f"({' + '.join(parts)} mod {self.m})"


@dataclass(frozen=True)
class _Elim:
    p: int
    pivot: int
    lam: int
    support: tuple[tuple[int, int], ...]  # (var, coeff mod p), pivot included
    alpha: int
    slack: int


@dataclass(frozen=True)
class _Fix:
    var: int
    value: int


class ParamSpace:
    """Z_p-valued parameters, carry variables, and the elimination log."""

    __slots__ = ("p", "kinds", "his", "eliminated", "events")

    def __init__(self, p: int):
        self.p = p
        self.kinds: list[str] = []
        self.his: list[int] = []
        self.eliminated: set[int] = set()
        self.events: list = []

    def clone(self) -> "ParamSpace":
        out = ParamSpace(self.p)
        out.kinds = list(self.kinds)
        out.his = list(self.his)
        out.eliminated = set(self.eliminated)
        out.events = list(self.events)
        return out

    def new_free(self) -> int:
        self.kinds.append("free")
        self.his.append(self.p - 1)
        return len(self.kinds) - 1

    def new_slack(self, hi: int) -> int:
        self.kinds.append("slack")
        self.his.append(hi)
        return len(self.kinds) - 1

    def all_frees(self) -> list[int]:
        return [i for i, k in enumerate(self.kinds) if k == "free"]

    def live_frees(self) -> list[int]:
        return [
            i
            for i, k in enumerate(self.kinds)
            if k == "free" and i not in self.eliminated
        ]

    @property
    def has_fixes(self) -> bool:
        return any(isinstance(ev, _Fix) for ev in self.events)

    def replay(self, assign: dict[int, int]) -> dict[int, int] | None:
        """Extend an all-frees valuation with the carries, or None if excluded.

        An assignment survives when every folded constraint evaluates to
        zero mod p (which also makes each carry an exact division) and all
        carry fixes match.  Each event only references parameters and
        earlier carries, so one chronological pass suffices.
        """
        values = dict(assign)
        p = self.p
        for ev in self.events:
            if isinstance(ev, _Elim):
                s = ev.alpha
                for v, c in ev.support:
                    s += c * values[v]
                if s % p:
                    return None
                values[ev.slack] = s // p
            else:
                if values[ev.var] != ev.value:
                    return None
        return values

    def assignments(self, cap: int) -> Iterator[dict[int, int]]:
        """Surviving valuations, parameters enumerated lexicographically."""
        frees = self.all_frees()
        total = self.p ** len(frees)
        if total > cap:
            raise CapExceeded(f"parameter space of size {total} exceeds cap {cap}")
        for combo in itertools.product(range(self.p), repeat=len(frees)):
            values = self.replay(dict(zip(frees, combo)))
            if values is not None:
                yield values

    def count(self, cap: int) -> int:
        """Number of surviving assignments.

        Every fold pins exactly one parameter as a function of the rest,
        so without carry fixes the count is p to the live parameters.
        """
        if not self.has_fixes:
            return self.p ** len(self.live_frees())
        return sum(1 for _ in self.assignments(cap))


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
        _, equations = _window_equations(self.code, table, i, hi)
        return all(rhs == 0 for *_, rhs in equations)


def build_window_system(
    code: ConvCode,
    received: Sequence[Symbol],
    i: int,
    T: int,
    terminated: bool = True,
) -> WindowSystem:
    """Assemble the restricted window system for decoding time i with delay T.

    The nu history symbols before time i that the window reads must be
    fully known (an erasure there is a usage error; older symbols are not
    read); times outside the stream are zero when terminated, otherwise
    the window must fit inside the received stream.  Each row is
    renormalized by the p-power content of its restricted coefficients; a
    right-hand side with a smaller p-power marks the window invalid.
    """
    if code.h_blocks is None:
        raise ValueError("decoding needs a code with a parity side")
    ctx = code.ctx
    if i < 0 or T < 0:
        raise ValueError("window start and delay must be nonnegative")
    L = len(received)
    if not terminated and i + T > L - 1:
        raise ValueError("window exceeds the unterminated stream")
    q, r = ctx.q, ctx.r
    table: dict[int, list[int | None]] = {}
    for t in range(i - code.nu, i + T + 1):
        if not 0 <= t < L:
            table[t] = [0] * code.n
            continue
        sym = received[t]
        if len(sym) != code.n:
            raise ValueError(f"symbol at time {t} has length {len(sym)}")
        if t < i and None in sym:
            raise ValueError(f"erasure before window start at time {t}")
        table[t] = [x if x is None else x % q for x in sym]
    columns, equations = _window_equations(code, table, i, i + T)
    rows: list[WindowRow] = []
    witness = None
    for s, ri, acc, rhs in equations:
        v = ctx.val(gcd(q, *acc))  # least valuation over the row; r for a zero row
        if v >= r:
            if rhs and witness is None:
                witness = ("inconsistent-known", s, ri)
            continue
        if ctx.val(rhs) < v:
            if witness is None:
                witness = ("divisibility", s, ri)
            continue
        pv = ctx.p**v
        rows.append(
            WindowRow(
                time=s,
                h_row=ri,
                stratum=v,
                coeffs=tuple(a // pv for a in acc),
                rhs=rhs // pv,
                orig_coeffs=tuple(acc),
                orig_rhs=rhs,
            )
        )
    return WindowSystem(
        code=code,
        i=i,
        T=T,
        columns=columns,
        rows=rows,
        table=table,
        invalid_witness=witness,
    )


# ---------------------------------------------------------------------------
# digit stages


@dataclass(frozen=True)
class DigitStage:
    """Reporting record for one digit stage.

    solutions holds the stage's digit-vector family at the reference fiber
    (earlier parameters zeroed); its basis size equals len(new_params), so
    the stage count is p**len(new_params) = p**(e - rank) when no
    constraint fired.
    """

    t: int
    rank: int
    new_params: tuple[int, ...]
    solutions: AffineSet | None


class _Branch:
    __slots__ = ("space", "stage_forms", "stages")

    def __init__(self, space: ParamSpace):
        self.space = space
        self.stage_forms: list[list[LinForm]] = []
        self.stages: list[DigitStage] = []

    def clone(self) -> "_Branch":
        out = _Branch(self.space.clone())
        out.stage_forms = [[f.copy() for f in forms] for forms in self.stage_forms]
        out.stages = list(self.stages)
        return out

    def rewrite_all(self, ev: _Elim):
        self.stage_forms = [
            [f.rewrite(ev) for f in forms] for forms in self.stage_forms
        ]

    def subst_all(self, var: int, value: int):
        self.stage_forms = [
            [f.subst(var, value) for f in forms] for forms in self.stage_forms
        ]


def _fold(branch: _Branch, phi: LinForm):
    """Fold the mod-p constraint phi == 0 into the parameter space.

    Returns "ok" (vacuous), "folded" (one parameter eliminated, all forms
    rewritten), "invalid", or ("split", carry_var).
    """
    space = branch.space
    p = space.p
    support = sorted((v, c % p) for v, c in phi.coeffs.items() if c % p)
    if not support:
        return "ok" if phi.const % p == 0 else "invalid"
    frees = [v for v, _ in support if space.kinds[v] == "free" and v not in space.eliminated]
    if not frees:
        return ("split", support[0][0])
    pivot = frees[0]
    lam = phi.coeffs[pivot] % p
    alpha = phi.const % p
    hi = (alpha + sum(c * space.his[v] for v, c in support)) // p
    slack = space.new_slack(hi)
    ev = _Elim(p=p, pivot=pivot, lam=lam, support=tuple(support), alpha=alpha, slack=slack)
    space.eliminated.add(pivot)
    space.events.append(ev)
    branch.rewrite_all(ev)
    return "folded"


def _run_stage(branch: _Branch, rows_t: list[WindowRow], t: int, e: int, ctx: RingContext):
    """Advance one branch through digit stage t.

    Returns ("ok", None), ("invalid", witness) or ("split", var).
    """
    p, r, q = ctx.p, ctx.r, ctx.q
    space = branch.space
    while True:
        payloads: list[LinForm] = []
        outcome = None
        for row in rows_t:
            R = LinForm(q, row.rhs)
            for col, a in enumerate(row.coeffs):
                if a == 0:
                    continue
                for u in range(t):
                    f = branch.stage_forms[u][col]
                    if f.is_const and f.const == 0:
                        continue
                    R = R.sub_mul((a * p**u) % q, f)
            while True:
                v = R.val(p, r)
                if v >= t:
                    break
                res = _fold(branch, R.digit(p, v))
                if res == "invalid":
                    return ("invalid", ("digit", t, row.time, row.h_row, v))
                if isinstance(res, tuple):
                    return res
                if res == "folded":
                    outcome = "restart"
                    break
                raise AssertionError("constraint folding made no progress")
            if outcome == "restart":
                break
            payloads.append(R.digit(p, t))
        if outcome == "restart":
            continue

        mat = [[c % p for c in row.coeffs] for row in rows_t]
        pl = [f.copy() for f in payloads]
        if mat:
            pivots = rref_mod_p(
                mat,
                p,
                pl,
                lambda x, c: x.scale(c),
                lambda x, f, y: x.sub_mul(f, y),
            )
        else:
            pivots = []
        restart = False
        for idx in range(len(pivots), len(mat)):
            phi = pl[idx]
            if phi.is_const and phi.const % p == 0:
                continue
            res = _fold(branch, phi)
            if res == "invalid":
                return ("invalid", ("stage", t, idx))
            if isinstance(res, tuple):
                return res
            restart = True
            break
        if restart:
            continue

        pivot_set = set(pivots)
        free_cols = [c for c in range(e) if c not in pivot_set]
        new_params = [space.new_free() for _ in free_cols]
        var_of = dict(zip(free_cols, new_params))
        forms: list[LinForm] = []
        for col in range(e):
            if col in var_of:
                forms.append(LinForm(q, 0, {var_of[col]: 1}))
            else:
                ridx = pivots.index(col)
                f = pl[ridx].as_mod(q)
                for fc in free_cols:
                    a = mat[ridx][fc] % p
                    if a:
                        f = f.sub_mul(a, LinForm(q, 0, {var_of[fc]: 1}))
                forms.append(f)
        branch.stage_forms.append(forms)

        # report the stage family at the first surviving reference fiber
        affine = None
        for values in space.assignments(cap=1 << 30):
            particular = tuple(f.evaluate(values) % p for f in forms)
            basis = tuple(
                tuple(f.coeffs.get(var, 0) % p for f in forms) for var in new_params
            )
            affine = AffineSet(p, e, True, particular, basis)
            break
        branch.stages.append(
            DigitStage(t=t, rank=len(pivots), new_params=tuple(new_params), solutions=affine)
        )
        return ("ok", None)


# ---------------------------------------------------------------------------
# outcomes


@dataclass
class DecodeOutcome:
    """Result of a window decode: unique, a list, or invalid."""

    kind: str  # "unique" | "list" | "invalid"
    system: WindowSystem
    window: list[list[int]] | None = None
    stages: list[DigitStage] = field(default_factory=list)
    list_size: int = 0
    invalid_witness: tuple | None = None
    branches: list[_Branch] = field(default_factory=list)

    @property
    def stage_counts(self) -> list[int]:
        p = self.system.code.ctx.p
        return [p ** len(st.new_params) for st in self.stages]


def list_decode(sys: WindowSystem, cap: int | None = None) -> DecodeOutcome:
    """Run the digit recursion and classify the outcome.

    The returned outcome carries the per-stage reports of the primary
    branch; materialize_list enumerates the actual windows.
    """
    cap = enumeration_cap() if cap is None else cap
    code = sys.code
    ctx = code.ctx
    if sys.invalid_witness is not None:
        return DecodeOutcome(kind="invalid", system=sys, invalid_witness=sys.invalid_witness)
    e = sys.e
    if e == 0:
        return DecodeOutcome(
            kind="unique", system=sys, window=sys.assemble(()), list_size=1
        )
    branches = [_Branch(ParamSpace(ctx.p))]
    witness = None
    for t in range(ctx.r):
        rows_t = [row for row in sys.rows if row.stratum <= ctx.r - 1 - t]
        survivors: list[_Branch] = []
        work = list(branches)
        while work:
            br = work.pop(0)
            status, info = _run_stage(br, rows_t, t, e, ctx)
            if status == "ok":
                survivors.append(br)
            elif status == "invalid":
                witness = info
            else:  # split on a carry variable
                var = info
                for value in range(br.space.his[var] + 1):
                    clone = br.clone()
                    clone.space.events.append(_Fix(var=var, value=value))
                    clone.subst_all(var, value)
                    work.append(clone)
        branches = survivors
        if not branches:
            return DecodeOutcome(
                kind="invalid", system=sys, invalid_witness=witness or ("empty", t)
            )
    kept: list[_Branch] = []
    total = 0
    for br in branches:
        cnt = br.space.count(cap)
        if cnt:
            kept.append(br)
            total += cnt
    if total == 0:
        return DecodeOutcome(kind="invalid", system=sys, invalid_witness=("empty", ctx.r))
    stages = kept[0].stages
    outcome = DecodeOutcome(
        kind="list" if total > 1 else "unique",
        system=sys,
        stages=list(stages),
        list_size=total,
        branches=kept,
    )
    if total == 1:
        windows, _ = materialize_list(outcome, limit=1)
        outcome.window = windows[0]
    return outcome


def materialize_list(
    outcome: DecodeOutcome, limit: int | None = None
) -> tuple[list[list[list[int]]], bool]:
    """All windows of a decode outcome, kernel-verified, up to limit.

    Returns (windows, truncated).  Windows merge the known symbols with
    each digit recombination of the erased columns.
    """
    sys = outcome.system
    if outcome.kind == "invalid":
        return [], False
    if outcome.kind == "unique" and outcome.window is not None and not outcome.branches:
        return [outcome.window], False
    cap = enumeration_cap() if limit is None else max(limit, 1)
    ctx = sys.code.ctx
    p, q, r = ctx.p, ctx.q, ctx.r
    windows = []
    truncated = False

    def emit():
        for br in outcome.branches:
            for values in br.space.assignments(cap=enumeration_cap()):
                cols = []
                for col in range(sys.e):
                    total = 0
                    for t in range(r):
                        total += p**t * br.stage_forms[t][col].evaluate(values)
                    cols.append(total % q)
                window = sys.assemble(cols)
                if not sys.window_equations_hold(window):
                    raise AssertionError("materialized window violates the parity equations")
                yield window

    for window in emit():
        if len(windows) == cap:
            truncated = True
            break
        windows.append(window)
    return windows, truncated


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
    """
    cap = enumeration_cap() if cap is None else cap
    sys = build_window_system(code, received, i, T, terminated=terminated)
    _, equations = _window_equations(code, sys.table, i, i + T)
    # a row with no coefficient and rhs 0 holds for every candidate
    raw = [(acc, rhs) for _, _, acc, rhs in equations if rhs or any(acc)]
    A = [acc for acc, _ in raw]
    b = [rhs for _, rhs in raw]
    out = set()
    for x in enumerate_solutions(A, b, sys.e, code.ctx.q, cap):
        window = sys.assemble([int(v) for v in x])
        if sys.window_equations_hold(window):
            out.add(tuple(tuple(sym) for sym in window))
    return frozenset(out)


def project_values(
    outcome: DecodeOutcome, cols: Sequence[int], cap: int = 4096
) -> dict[int, int] | None:
    """Values of the given columns when they agree across the whole list.

    Symbolic when possible; otherwise enumerates up to cap windows and
    reports None on the first disagreement (or when truncated).
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
    ctx = sys.code.ctx
    p, q, r = ctx.p, ctx.q, ctx.r
    symbolic: dict[int, int] = {}
    heavy = False
    for col in cols:
        vals = set()
        for br in outcome.branches:
            combined = LinForm(q)
            for t in range(r):
                combined = combined.sub_mul((-(p**t)) % q, br.stage_forms[t][col])
            if not combined.is_const:
                heavy = True
                break
            vals.add(combined.const % q)
        if heavy or len(vals) != 1:
            heavy = True
            break
        symbolic[col] = vals.pop()
    if not heavy:
        return symbolic
    seen: dict[int, int] | None = None
    count = 0
    for br in outcome.branches:
        for values in br.space.assignments(cap=enumeration_cap()):
            count += 1
            if count > cap:
                return None
            got = {}
            for col in cols:
                total = 0
                for t in range(r):
                    total += p**t * br.stage_forms[t][col].evaluate(values)
                got[col] = total % q
            if seen is None:
                seen = got
            elif seen != got:
                return None
    return seen


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
    within a bounded budget.
    """
    if policy not in ("halt", "first", "branch"):
        raise ValueError(f"unknown policy {policy!r}")
    work = [list(sym) for sym in received]
    decisions: list[tuple] = []

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
        sys = build_window_system(code, work, i, Tw, terminated=terminated)
        outcome = list_decode(sys)
        if outcome.kind == "invalid":
            decisions.append((i, "invalid"))
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
            for t in range(sys.i, sys.i + sys.T + 1):
                work[t] = list(window[t - sys.i])
            decisions.append((i, "picked-first", outcome.list_size))
            t0 = i + 1
            continue
        # policy == "branch": try candidates against the remaining stream
        for window in windows:
            trial = [list(sym) for sym in work]
            for t in range(sys.i, sys.i + sys.T + 1):
                trial[t] = list(window[t - sys.i])
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
