import pytest

from convring import NotAUnit, RingContext

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
