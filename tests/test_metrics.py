import math
import random

import pytest

from convring import (
    CapExceeded,
    ConvCode,
    RingContext,
    column_distance,
    erasure_capability,
    free_distance_bounded,
)
from tests.conftest import random_kernel_code

Z4 = RingContext(2, 2)
Z2 = RingContext(2, 1)


class TestColumnDistance:
    def test_z9_kernel_example(self, kernel_code_z9):
        # witnessed by the weight-2 window ((0,0,3), (0,0,2))
        assert column_distance(kernel_code_z9, 1) == 2
        window = [[0, 0, 3], [0, 0, 2]]
        from convring import is_codeword_window

        assert is_codeword_window(kernel_code_z9, window)

    def test_repetition_style_z4(self):
        code = ConvCode.from_parity_coeffs(Z4, [[[1, 3]]])
        assert column_distance(code, 0) == 2

    def test_positive(self, kernel_code_z9):
        for j in range(2):
            assert column_distance(kernel_code_z9, j) >= 1

    def test_cap(self, kernel_code_z9, monkeypatch):
        # CONVRING_CAP is the one enumeration bound; there is no cap keyword
        monkeypatch.setenv("CONVRING_CAP", "10")
        with pytest.raises(CapExceeded):
            column_distance(kernel_code_z9, 1)
        with pytest.raises(TypeError):
            column_distance(kernel_code_z9, 1, cap=10)

    def test_monotone_in_j(self):
        rng = random.Random(5)
        checked = 0
        while checked < 4:
            code = random_kernel_code(rng, Z4, 3, [1, rng.randrange(0, 2)], 1)
            if code is None:
                continue
            try:
                d0 = column_distance(code, 0)
                d1 = column_distance(code, 1)
            except ValueError:
                continue
            assert d0 <= d1
            checked += 1


class TestFreeDistance:
    def test_zero_code_is_infinite(self, z4):
        code = ConvCode.from_parity_coeffs(
            z4, [[[1, 0], [0, 1]]]
        )  # n=2, parity rows force k=1... use generator-free route
        # build an explicit k=0 code instead
        from convring.polymat import PolyMatrix

        empty = ConvCode(
            ctx=z4,
            n=2,
            k_blocks=(0, 0),
            g_blocks=(PolyMatrix.zeros(z4, 0, 2), PolyMatrix.zeros(z4, 0, 2)),
        )
        d, exact = free_distance_bounded(empty, 2)
        assert d == math.inf and exact

    def test_identity_code(self):
        code = ConvCode.from_generator(Z2, [[[1], [0]], [[0], [1]]])
        code = code.with_parity_check()
        d, exact = free_distance_bounded(code, 1)
        assert d == 1
        assert exact

    def test_small_z4_matches_exhaustive(self):
        rng = random.Random(9)
        code = None
        while code is None or code.g_blocks is None:
            code = random_kernel_code(rng, Z4, 3, [1, 1], 1)
        d, _ = free_distance_bounded(code, 2)
        # exhaustive codeword oracle over the same input degree range
        best = None
        q, k = 4, code.k
        width = k * 3
        for flat in range(1, q**width):
            rem = flat
            u = []
            for _ in range(3):
                sym = []
                for _ in range(k):
                    sym.append(rem % q)
                    rem //= q
                u.append(sym)
            stream = code.encode(u)
            wt = sum(1 for s in stream for x in s if x)
            if wt and (best is None or wt < best):
                best = wt
        assert d == best


class TestErasureCapability:
    def test_z9_nonimplication(self, kernel_code_z9):
        # the mod-p span condition holds at d=3 yet the distance is only 2
        rep3 = erasure_capability(kernel_code_z9, 1, 3)
        assert rep3.span_condition_ok
        assert not rep3.confirms
        assert not rep3.independent_ok
        rep2 = erasure_capability(kernel_code_z9, 1, 2)
        assert rep2.confirms

    def test_identity_window_never_dependent(self, z4):
        code = ConvCode.from_parity_coeffs(
            z4, [[[1, 0], [0, 1]]]
        )
        for d in (1, 2):
            rep = erasure_capability(code, 0, d)
            assert rep.independent_ok
            assert rep.dependent_witness is None

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_column_distance(self, seed):
        rng = random.Random(20 + seed)
        code = None
        while code is None:
            code = random_kernel_code(rng, Z4, 3, [1, rng.randrange(0, 2)], 1)
        for j in (0, 1):
            try:
                d = column_distance(code, j)
            except ValueError:
                continue
            rep = erasure_capability(code, j, d)
            assert rep.confirms, (j, d)
            if d > 1:
                worse = erasure_capability(code, j, d + 1)
                assert not worse.independent_ok
