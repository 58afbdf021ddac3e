import json
import time

import pytest

from convring import ConvCode, NotAUnit, RingContext, files
from convring.cli import main
from convring.ring import _is_prime

RINGS = [RingContext(2, 3), RingContext(3, 2), RingContext(2, 2), RingContext(5, 1)]


def test_context_validation():
    with pytest.raises(ValueError):
        RingContext(4, 2)
    with pytest.raises(ValueError):
        RingContext(2, 0)
    with pytest.raises(ValueError):
        RingContext(2, 64)  # q would overflow the native width
    assert RingContext(2, 3).q == 8
    assert RingContext(3, 2).residue_field() == RingContext(3, 1)


@pytest.mark.parametrize("ctx", RINGS)
def test_invert_unit_exhaustive(ctx):
    for a in range(ctx.q):
        if a % ctx.p:
            inv = ctx.inv(a)
            assert 0 <= inv < ctx.q
            assert a * inv % ctx.q == 1
        else:
            with pytest.raises(NotAUnit):
                ctx.inv(a)


def test_invert_unit_golden():
    z8 = RingContext(2, 3)
    z9 = RingContext(3, 2)
    assert z8.inv(3) == 3  # 9 = 1 mod 8
    assert z8.inv(1) == 1
    assert z9.inv(2) == 5  # extended-Euclid oracle: 10 = 1 mod 9


def _timed(fn):
    start = time.perf_counter()
    try:
        return fn()
    finally:
        assert time.perf_counter() - start < 1.0


def test_primality_is_exact_on_small_numbers():
    # the small-prime screen and Miller-Rabin agree with trial division
    trial = [n for n in range(2000) if n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))]
    assert [n for n in range(2000) if _is_prime(n)] == trial
    # strong pseudoprimes to the first bases, and Carmichael numbers
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 561, 41041):
        assert not _is_prime(n)


def test_large_prime_builds_quickly():
    # trial division up to sqrt(p) would take minutes here
    ctx = _timed(lambda: RingContext(2**61 - 1, 1))
    assert ctx.q == 2**61 - 1 and ctx.is_field


@pytest.mark.parametrize("p, r", [(2, 10**30), (2**127 - 1, 1), (2**61 - 1, 2)])
def test_too_wide_modulus_raises_quickly(p, r):
    # the width is checked before p^r is computed, and a large p is tested
    # by Miller-Rabin, not trial division
    with pytest.raises(ValueError, match="native integer width"):
        _timed(lambda: RingContext(p, r))


@pytest.mark.parametrize("p, r", [(2, 10**30), (2**127 - 1, 1)])
def test_check_rejects_too_wide_code_file(tmp_path, p, r):
    doc = files.code_to_json(ConvCode.from_parity_coeffs(RingContext(2, 1), [[[1, 1]]]))
    doc.update(p=p, r=r)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert _timed(lambda: main(["check", "--code", str(path)])) == 2
