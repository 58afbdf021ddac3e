"""Exact arithmetic in Z_{p^r} and its residue field Z_p.

Residues are stored as canonical integers in [0, p^r) and every operation
reduces eagerly, so results are bit-exact across platforms.  A RingContext
carries the modulus data and the int-level helpers the rest of the package
uses: units, inverses and p-adic valuations.  Contexts are immutable plain
data and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotAUnit

_NATIVE_MAX = 2**63 - 1
_NATIVE_BITS = 63
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Primality by a small-prime screen, then deterministic Miller-Rabin to bases 2..37.

    Exact below 3.1 * 10^23, which covers every p of a native modulus.
    """
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
        # p^r >= 2^(r (bits(p) - 1)): too wide a modulus is rejected before
        # the power is taken
        if self.r * (self.p.bit_length() - 1) >= _NATIVE_BITS or self.p**self.r > _NATIVE_MAX:
            raise ValueError(f"modulus p^r = {self.p}^{self.r} exceeds the native integer width")
        object.__setattr__(self, "q", self.p**self.r)

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
