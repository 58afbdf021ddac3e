"""Exact arithmetic in Z_{p^r} and its residue field Z_p.

Residues are stored as canonical integers in [0, p^r) and every operation
reduces eagerly, so results are bit-exact across platforms.  A RingContext
carries the modulus data and offers int-level helpers; Zq wraps a residue
together with its context for operator-style use.  All values here are
immutable plain data and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import NotAUnit

_NATIVE_MAX = 2**63 - 1


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class RingContext:
    """Modulus data (p, r) with q = p^r cached.

    p must be prime and q must fit a native 64-bit integer; construction
    fails otherwise.  r == 1 gives the residue field Z_p.
    """

    p: int
    r: int
    q: int = field(default=0, compare=False)

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.r < 1:
            raise ValueError(f"r = {self.r} must be at least 1")
        q = self.p**self.r
        if q > _NATIVE_MAX:
            raise ValueError(f"modulus p^r = {q} exceeds the native integer width")
        object.__setattr__(self, "q", q)

    @property
    def is_field(self) -> bool:
        return self.r == 1

    def residue_field(self) -> "RingContext":
        """The context of Z_p, the field this ring projects onto."""
        return self if self.r == 1 else RingContext(self.p, 1)

    def is_unit(self, a: int) -> bool:
        return a % self.p != 0

    def inv(self, a: int) -> int:
        a %= self.q
        if a % self.p == 0:
            raise NotAUnit(f"{a} is divisible by {self.p}, not a unit mod {self.q}")
        return pow(a, -1, self.q)

    def proj(self, a: int) -> int:
        """Projection into Z_p."""
        return a % self.p

    def val(self, a: int) -> int:
        """p-adic valuation of a residue; the zero residue gets r."""
        a %= self.q
        if a == 0:
            return self.r
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def digits(self, a: int) -> tuple[int, ...]:
        """Base-p digit vector of length r, lowest digit first."""
        a %= self.q
        out = []
        for _ in range(self.r):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_digits(self, digits: Sequence[int]) -> int:
        if len(digits) != self.r:
            raise ValueError(f"expected {self.r} digits, got {len(digits)}")
        acc = 0
        for d in reversed(digits):
            if not 0 <= d < self.p:
                raise ValueError(f"digit {d} out of range [0, {self.p})")
            acc = acc * self.p + d
        return acc


class Zq:
    """A residue of Z_{p^r} bound to its RingContext."""

    __slots__ = ("value", "ctx")

    def __init__(self, value: int, ctx: RingContext):
        self.value = value % ctx.q
        self.ctx = ctx

    def _coerce(self, other) -> "Zq":
        if isinstance(other, Zq):
            if other.ctx != self.ctx:
                raise ValueError(f"mismatched ring contexts: {self.ctx} vs {other.ctx}")
            return other
        if isinstance(other, int):
            return Zq(other, self.ctx)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return Zq(self.value + other.value, self.ctx)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Zq(self.value - other.value, self.ctx)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return Zq(self.value * other.value, self.ctx)

    __rmul__ = __mul__

    def __neg__(self):
        return Zq(-self.value, self.ctx)

    def inverse(self) -> "Zq":
        return Zq(self.ctx.inv(self.value), self.ctx)

    def is_unit(self) -> bool:
        return self.ctx.is_unit(self.value)

    def digits(self) -> tuple[int, ...]:
        return self.ctx.digits(self.value)

    def proj(self) -> int:
        return self.ctx.proj(self.value)

    def __int__(self) -> int:
        return self.value

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.ctx.q
        return isinstance(other, Zq) and self.ctx == other.ctx and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.ctx.p, self.ctx.r))

    def __repr__(self):
        return f"Zq({self.value} mod {self.ctx.q})"


def p_adic_expand(a: Zq) -> tuple[int, ...]:
    """Digit vector of a, lowest power of p first; length is exactly r."""
    return a.digits()


def reconstruct(ctx: RingContext, digits: Sequence[int]) -> Zq:
    """Inverse of p_adic_expand."""
    return Zq(ctx.from_digits(digits), ctx)


def order(vec: Iterable[Zq | int], ctx: RingContext | None = None) -> int:
    """Smallest s with p^s v = 0 componentwise; the zero vector gets 0.

    Equals r exactly when some component is a unit.
    """
    values = []
    for x in vec:
        if isinstance(x, Zq):
            if ctx is None:
                ctx = x.ctx
            elif ctx != x.ctx:
                raise ValueError("mismatched ring contexts in vector")
            values.append(x.value)
        else:
            values.append(x)
    if ctx is None:
        raise ValueError("cannot infer a ring context from an empty plain vector")
    best = 0
    for v in values:
        best = max(best, ctx.r - ctx.val(v))
    return best
