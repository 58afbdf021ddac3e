"""Weight and distance computations for layered convolutional codes.

Column distances enumerate windowed kernel members by brute force (the
capped numpy enumerator of linsolve) and the bounded free-distance search
enumerates inputs, which keeps both independent of the decoder.  The erasure-capability checks test
column subsets of the window matrix for linear dependence over Z_{p^r}
and evaluate the weaker mod-p span condition separately, since the latter
is necessary but not sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import inf
from typing import Sequence

import numpy as np

from .codes import ConvCode, sliding_matrix
from .config import enumeration_cap
from .errors import CapExceeded
from .linsolve import enumerate_solutions, rank_mod_p


def column_distance(code: ConvCode, j: int) -> int:
    """Minimum window weight over kernel members with nonzero first symbol.

    Computed from the parity-check window, so for codes without an exact
    kernel this is the kernel-based quantity.
    """
    if code.h_blocks is None:
        raise ValueError("code has no parity side")
    n = code.n
    H = sliding_matrix(code, j)
    best = None
    for row in enumerate_solutions(H.data, [0] * H.rows, H.cols, code.ctx.q, enumeration_cap()):
        if not row[:n].any():
            continue
        wt = int(np.count_nonzero(row))
        if best is None or wt < best:
            best = wt
            if best == 1:
                break
    if best is None:
        raise ValueError("no windowed kernel member has a nonzero first symbol")
    assert best >= 1
    return best


def free_distance_bounded(code: ConvCode, max_degree: int) -> tuple[float, bool]:
    """(bound, exact) minimum weight over codewords of input degree <= max_degree.

    The bound is the exact minimum over the searched inputs; exact is True
    when no deeper codeword can weigh less, certified by a column-distance
    lower bound on all continuations.  The zero code yields (inf, True).
    """
    if code.g_blocks is None:
        raise ValueError("code has no generator side")
    cap = enumeration_cap()
    ctx = code.ctx
    q = ctx.q
    k = code.k
    if k == 0:
        return inf, True
    width = k * (max_degree + 1)
    space = q**width
    if space > cap:
        raise CapExceeded(f"input enumeration {q}^{width} exceeds cap {cap}")
    best = None
    for flat in range(1, space):
        rem = flat
        inputs = []
        for _ in range(max_degree + 1):
            sym = []
            for _ in range(k):
                sym.append(rem % q)
                rem //= q
            inputs.append(sym)
        stream = code.encode(inputs)
        wt = sum(1 for sym in stream for x in sym if x)
        if wt == 0:
            continue
        if best is None or wt < best:
            best = wt
            if best == 1:
                break
    if best is None:
        return inf, True
    exact = False
    if code.h_blocks is not None:
        try:
            lower = column_distance(code, max_degree)
            exact = best <= lower
        except (CapExceeded, ValueError):
            exact = False
    return best, exact


@dataclass(frozen=True)
class CapabilityReport:
    """Outcome of the erasure-capability equivalences at window j, level d."""

    j: int
    d: int
    independent_ok: bool
    dependent_witness: tuple[int, ...] | None
    span_condition_ok: bool

    @property
    def confirms(self) -> bool:
        return self.independent_ok and self.dependent_witness is not None


def _columns_dependent(cols: Sequence[Sequence[int]], p: int) -> bool:
    """Dependence over Z_{p^r}: some nontrivial combination vanishes.

    Equivalent to the mod-p projection lacking full column rank.
    """
    mat = [[col[i] % p for col in cols] for i in range(len(cols[0]))]
    return rank_mod_p(mat, p) < len(cols)


def erasure_capability(code: ConvCode, j: int, d: int) -> CapabilityReport:
    """Check the window-matrix column conditions behind d-1 erasure recovery.

    independent_ok: every (d-1)-column subset touching the first n columns
    is independent over Z_{p^r}.  dependent_witness: some d-subset touching
    the first n columns that is dependent.  span_condition_ok: no first-n
    column of the mod-p window matrix lies in the span of any other d-2
    columns (necessary, not sufficient).
    """
    if code.h_blocks is None:
        raise ValueError("code has no parity side")
    cap = enumeration_cap()
    H = sliding_matrix(code, j)
    p = code.ctx.p
    ncols = H.cols
    n = code.n
    cols = [H.col(c) for c in range(ncols)]

    def touching(size):
        count = 0
        for subset in combinations(range(ncols), size):
            if subset[0] >= n:
                break
            count += 1
            if count > cap:
                raise CapExceeded("column subset enumeration exceeds cap")
            yield subset

    independent_ok = True
    if d >= 2:
        for subset in touching(d - 1):
            if _columns_dependent([cols[c] for c in subset], p):
                independent_ok = False
                break
    dependent_witness = None
    for subset in touching(d):
        if _columns_dependent([cols[c] for c in subset], p):
            dependent_witness = subset
            break
    span_ok = True
    if d >= 2:
        proj = [[x % p for x in col] for col in cols]
        for target in range(n):
            for others in combinations([c for c in range(ncols) if c != target], d - 2):
                mat = [[proj[c][i] for c in others] for i in range(len(cols[0]))]
                aug = [row + [proj[target][i]] for i, row in enumerate(mat)]
                if rank_mod_p(mat, p) == rank_mod_p(aug, p):
                    span_ok = False
                    break
            if not span_ok:
                break
    return CapabilityReport(
        j=j,
        d=d,
        independent_ok=independent_ok,
        dependent_witness=dependent_witness,
        span_condition_ok=span_ok,
    )
