import random
import time
from operator import mul

import numpy as np
import pytest

from convring import (
    ConstructionError,
    ConvCode,
    Poly,
    PolyMatrix,
    RingContext,
    code_member,
    is_codeword_window,
    is_observable,
    module_member,
    preimage,
    rank,
    sliding_matrix,
    synthesize_parity_check,
)
from convring import codes, polymat
from convring.cli import generate_code
from convring.codes import _solve_left_rational, _window_rhs
from tests.conftest import random_kernel_code
from tests.corpus.regenerate import RINGS
from tests.corpus.regenerate import code as corpus_code

Z8 = RingContext(2, 3)
Z9 = RingContext(3, 2)
Z4 = RingContext(2, 2)
Z2 = RingContext(2, 1)

WORD0 = [5, 5, 0, 6, 0]
WORD1 = [6, 6, 4, 3, 6]
WORD2 = [2, 1, 1, 2, 0]


def scaled_rows(code):
    out = []
    for i, blk in enumerate(code.g_blocks):
        for row in blk.entries:
            out.append([e.scale(code.ctx.p**i) for e in row])
    return out


class TestLayering:
    def test_already_layered_is_kept(self, z8):
        code = ConvCode.from_generator(z8, [[[1], [0], [1, 1]], [[2], [2], [0]]])
        assert code.k_blocks == (1, 1, 0)
        # same row module both ways (scaled rows against raw rows)
        raw = [
            (Poly(z8, [1]), Poly.zero(z8), Poly(z8, [1, 1])),
            (Poly(z8, [2]), Poly(z8, [2]), Poly.zero(z8)),
        ]
        for row in scaled_rows(code):
            assert module_member(z8, raw, row, deg_cap=4, shift_cap=2)
        gens = scaled_rows(code)
        for row in raw:
            assert module_member(z8, gens, list(row), deg_cap=4, shift_cap=2)

    def test_module_member_target_above_generator_degree(self, z8):
        # generators of degree 1, words of degree 4: the search box grows
        # with the target's degree, so deg_cap = 0 still finds u of degree 3
        gens = [[Poly(z8, [1]), Poly(z8, [0, 1]), Poly.zero(z8)], [Poly.zero(z8), Poly(z8, [2]), Poly(z8, [1, 1])]]
        u = [Poly(z8, [2, 0, 0, 1]), Poly(z8, [1, 0, 3])]
        word = [u[0] * gens[0][c] + u[1] * gens[1][c] for c in range(3)]
        assert max(e.degree for e in word) == 4
        assert module_member(z8, gens, word, deg_cap=0)
        # with 4 added to the first coordinate, u_1 is pinned by the third
        # (1 + D is monic) and the second then differs by 4D
        off = [word[0] + Poly.const(z8, 4), *word[1:]]
        assert not module_member(z8, gens, off, deg_cap=3, shift_cap=1)

    def test_worked_z9_layering(self, nonexact_code_z9, z9):
        code = nonexact_code_z9
        assert code.k_blocks == (1, 1)
        assert code.g_blocks[0].entries[0] == tuple(Poly(z9, [1, 1]) for _ in range(3))
        assert code.g_blocks[1].entries[0] == (
            Poly(z9, [1]),
            Poly(z9, [1]),
            Poly.zero(z9),
        )

    def test_scaled_duplicate_row_absorbed(self, z8):
        code = ConvCode.from_generator(z8, [[[1], [0], [1]], [[2], [0], [2]]])
        assert code.k_blocks == (1, 0, 0)

    def test_fraction_field_dependence_absorbed(self, z4):
        # second row is p/D times the first in the Laurent sense
        code = ConvCode.from_generator(z4, [[[0, 1], [0]], [[2], [0]]])
        assert code.k_blocks == (1, 0)
        stack = code.generator_stack().proj()
        assert rank(stack) == 1

    def test_projected_stack_always_full_rank(self, z8):
        rng = random.Random(11)
        for _ in range(25):
            rows = [
                [[rng.randrange(8) for _ in range(rng.randrange(1, 3))] for _ in range(3)]
                for _ in range(rng.randrange(1, 4))
            ]
            if all(all(all(c == 0 for c in pol) for pol in row) for row in rows):
                continue
            code = ConvCode.from_generator(z8, rows)
            stack = code.generator_stack().proj()
            if stack.rows:
                assert rank(stack) == stack.rows


class TestObservability:
    def test_systematic_is_observable(self, z4):
        code = ConvCode.from_generator(z4, [[[1], [0], [0]], [[0], [1], [0]]])
        assert is_observable(code)

    def test_worked_z9_not_observable(self, nonexact_code_z9):
        assert not is_observable(nonexact_code_z9)

    def test_kernel_code_observable(self, kernel_code_z8):
        assert is_observable(kernel_code_z8)


class TestSynthesis:
    def test_systematic_parity(self):
        code = ConvCode.from_generator(Z2, [[[1], [0], [0]], [[0], [1], [0]]])
        syn = synthesize_parity_check(code)
        assert syn.exact_kernel
        code = code.with_parity_check()
        H = code.parity_matrix()
        assert H.rows == 1
        G = code.generator_matrix()
        prod = H @ G.transpose()
        assert all(e.is_zero for row in prod.entries for e in row)

    def test_nonexact_kernel_contains_code(self, nonexact_code_z9, z9):
        syn = synthesize_parity_check(nonexact_code_z9)
        assert not syn.exact_kernel
        assert all(not g.is_zero for g in syn.p_diag)
        code = nonexact_code_z9.with_parity_check()
        H = code.parity_matrix()
        G = code.generator_matrix()
        prod = H @ G.transpose()
        assert all(e.is_zero for row in prod.entries for e in row)
        # witness: the all-ones word is annihilated yet is not in the code
        ones = PolyMatrix(z9, [[1], [1], [1]])
        assert all(e.is_zero for (e,) in (H @ ones).entries)
        assert not code_member(code, [Poly.const(z9, 1)] * 3, deg_cap=6)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_observable_contracts(self, seed):
        rng = random.Random(600 + seed)
        ctx = rng.choice([Z4, Z8, Z9])
        n = rng.randrange(2, 5)
        code = None
        for _ in range(40):
            rows = [
                [[rng.randrange(ctx.q) for _ in range(rng.randrange(1, 3))] for _ in range(n)]
                for _ in range(rng.randrange(1, n))
            ]
            try:
                cand = ConvCode.from_generator(ctx, rows)
            except ValueError:
                continue
            if cand.k and cand.k < n and is_observable(cand):
                code = cand
                break
        if code is None:
            pytest.skip("no observable sample found")
        code = code.with_parity_check()
        H = code.parity_matrix()
        G = code.generator_matrix()
        prod = H @ G.transpose()
        assert all(e.is_zero for row in prod.entries for e in row)
        hp = code.parity_stack().proj()
        assert rank(hp) == hp.rows
        # random codewords are annihilated and their inputs can be recovered
        for _ in range(3):
            u = [
                [rng.randrange(ctx.q) for _ in range(code.k)]
                for _ in range(rng.randrange(1, 3))
            ]
            stream = code.encode(u)
            word = [
                Poly(ctx, [stream[t][c] for t in range(len(stream))]) for c in range(n)
            ]
            hw = H @ PolyMatrix(ctx, [[e] for e in word])
            assert all(e.is_zero for (e,) in hw.entries)
            assert preimage(code, word) is not None

    def test_degenerate_generator_rejected(self, z4):
        code = ConvCode.from_generator(z4, [[[1], [1]]])
        object.__setattr__(code, "g_blocks", (PolyMatrix.zeros(z4, 0, 2),) * 2)
        object.__setattr__(code, "k_blocks", (0, 0))
        with pytest.raises(ConstructionError):
            synthesize_parity_check(code)


class TestOneKernelBasisPerCompletion:
    """Completion decides left primeness itself, so no separate test runs first."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        inner = polymat._kernel_basis

        def counted(A):
            calls.append(A)
            return inner(A)

        monkeypatch.setattr(polymat, "_kernel_basis", counted)
        return calls

    def test_synthesis_of_observable_code(self, kernel_calls):
        full = generate_code(p=2, r=2, n=4, k_blocks=[1, 0], deg=1, seed=7)
        code = ConvCode(ctx=full.ctx, n=full.n, k_blocks=full.k_blocks, g_blocks=full.g_blocks)
        kernel_calls.clear()
        syn = synthesize_parity_check(code)
        assert len(kernel_calls) == 1
        assert syn == full.synthesis and syn.exact_kernel

    def test_synthesis_of_non_observable_code(self, kernel_calls, nonexact_code_z9):
        syn = synthesize_parity_check(nonexact_code_z9)
        assert len(kernel_calls) == 1
        assert not syn.exact_kernel
        code = nonexact_code_z9.with_parity_check()
        prod = code.parity_matrix() @ code.generator_matrix().transpose()
        assert all(e.is_zero for row in prod.entries for e in row)

    def test_left_prime_parity_check(self, kernel_calls, kernel_code_z8, z8):
        coeffs = [kernel_code_z8.parity_coeff(m).data for m in range(3)]
        assert ConvCode.from_parity_coeffs(z8, coeffs) == kernel_code_z8
        assert len(kernel_calls) == 1
        assert kernel_code_z8.g_blocks is not None

    def test_not_left_prime_parity_check_is_kernel_only(self, kernel_calls, z4):
        code = ConvCode.from_parity_coeffs(z4, [[[1, 1, 0]], [[1, 1, 0]]])
        assert len(kernel_calls) == 1
        assert code.g_blocks is None and code.k_blocks == (2, 0)

    def test_one_inversion_per_parity_check_code(self, monkeypatch, kernel_code_z8, z8):
        # the lifted stack's exact inversion decides left primeness, so a
        # code built from a left prime parity check inverts one matrix
        calls = []
        inner = polymat.invert_unimodular

        def counted(U):
            calls.append(U)
            return inner(U)

        monkeypatch.setattr(polymat, "invert_unimodular", counted)
        monkeypatch.setattr(codes, "invert_unimodular", counted)
        coeffs = [kernel_code_z8.parity_coeff(m).data for m in range(3)]
        assert ConvCode.from_parity_coeffs(z8, coeffs) == kernel_code_z8
        assert len(calls) == 1
        # random degree-1 checks of two rows over n = 4, left prime or not
        rng, outcomes = random.Random(5), set()
        for ctx in (Z4, Z8, Z9):
            for _ in range(8):
                h = [[[rng.randrange(ctx.q) for _ in range(4)] for _ in range(2)] for _ in range(2)]
                calls.clear()
                code = ConvCode.from_parity_coeffs(ctx, h)
                assert len(calls) == 1
                outcomes.add(code.g_blocks is not None)
        assert outcomes == {True, False}

    def test_tall_parity_check_rejected(self, z4):
        with pytest.raises(ValueError, match="left primeness needs k <= n"):
            ConvCode.from_parity_coeffs(z4, [[[1, 0], [0, 1], [1, 1]]])


class TestKernelReconstruction:
    def test_block_sizes_from_strata(self, kernel_code_z8):
        assert kernel_code_z8.k_blocks == (2, 1, 1)
        assert kernel_code_z8.l_blocks == (1, 1, 1)
        assert kernel_code_z8.nu == 2

    def test_parity_annihilates_generator(self, kernel_code_z8):
        H = kernel_code_z8.parity_matrix()
        G = kernel_code_z8.generator_matrix()
        prod = H @ G.transpose()
        assert all(e.is_zero for row in prod.entries for e in row)

    def test_z9_kernel_code(self, kernel_code_z9):
        assert kernel_code_z9.k_blocks == (1, 0)
        assert kernel_code_z9.nu == 1

    def test_nu_derived_and_validated(self, kernel_code_z8):
        code = kernel_code_z8
        fields = dict(ctx=code.ctx, n=code.n, k_blocks=code.k_blocks, g_blocks=code.g_blocks,
                      h_blocks=code.h_blocks)
        assert ConvCode(**fields).nu == 2
        assert ConvCode(**fields, nu=2) == code
        for wrong in (0, 1, 3):
            with pytest.raises(ValueError):
                ConvCode(**fields, nu=wrong)
        with pytest.raises(ValueError):
            ConvCode(ctx=code.ctx, n=code.n, k_blocks=code.k_blocks, g_blocks=code.g_blocks, nu=2)

    def test_parity_coeff_beyond_degree_is_zero(self, kernel_code_z8):
        assert kernel_code_z8.parity_coeff(3).data == ((0,) * 5,) * 3
        assert kernel_code_z8.parity_coeff(-1).data == ((0,) * 5,) * 3


class TestSlidingWindow:
    def test_j0_is_first_coefficient(self, kernel_code_z8):
        S = sliding_matrix(kernel_code_z8, 0)
        assert S.data == kernel_code_z8.parity_coeff(0).data

    def test_worked_window_blocks(self, kernel_code_z8):
        S = sliding_matrix(kernel_code_z8, 1)
        h0 = kernel_code_z8.parity_coeff(0).data
        h1 = kernel_code_z8.parity_coeff(1).data
        for i in range(3):
            assert S.data[i] == h0[i] + (0,) * 5
            assert S.data[3 + i] == h1[i] + h0[i]

    def test_padding_beyond_degree(self, kernel_code_z8):
        nu = kernel_code_z8.nu
        S = sliding_matrix(kernel_code_z8, nu + 2)
        bottom = S.data[-3:]
        # bottom block row reads [0 H^nu ... H^0]
        for i in range(3):
            assert bottom[i][:5] == (0,) * 5
            for m in range(nu + 1):
                col0 = (nu + 2 - m) * 5
                assert bottom[i][col0 : col0 + 5] == kernel_code_z8.parity_coeff(m).data[i]

    def test_toeplitz_embedding(self, kernel_code_z9):
        S2 = sliding_matrix(kernel_code_z9, 2)
        S1 = sliding_matrix(kernel_code_z9, 1)
        for i in range(S1.rows):
            assert S2.data[i][: S1.cols] == S1.data[i]

    @pytest.mark.parametrize("p, r", RINGS, ids=[f"z{p**r}" for p, r in RINGS])
    def test_window_array_layout(self, p, r):
        # on the corpus codes the window array of delay T is the sliding
        # matrix, with no history columns: block (s, t) is H^(s - t) for
        # 0 <= s - t <= nu and zero elsewhere; the codes are built afresh, so
        # that the corpus still counts their construction's Z_p ops
        for nu in (1, 2):
            code = corpus_code.__wrapped__(p, r, nu)
            H, n = code._parity_array, code.n
            m = H.shape[1]
            for T in range(5):
                W = code._window_array(T)
                assert W.shape == ((T + 1) * m, (T + 1) * n)
                for s in range(T + 1):
                    for t in range(T + 1):
                        block = W[s * m : (s + 1) * m, t * n : (t + 1) * n]
                        assert (block == (H[s - t] if 0 <= s - t <= nu else 0)).all()
                assert sliding_matrix(code, T).data == tuple(map(tuple, W.tolist()))


def coeff_matrices(M):
    """The coefficient matrices M^0..M^deg of a polynomial matrix, read from its entries."""
    return [[[e.coeff(j) for e in row] for row in M.entries] for j in range(int(max(M.degree, 0)) + 1)]


def as_sequence(table, n):
    """The symbols of a table as a sequence indexed by time from 0, a missing time a zero symbol."""
    return [table.get(t, [0] * n) for t in range(max(table, default=-1) + 1)]


def reference_window_equations(code, table, lo, hi):
    """The window-equation kernel, coordinate by coordinate.

    Returns the erased (time, coord) columns of times lo..hi, time-major,
    and per time s and parity row ri a tuple (s, ri, coeffs, rhs): the
    scaled coefficients on all the columns and minus the known part, mod
    q.  Times missing from the table read as zero.
    """
    q = code.ctx.q
    coeffs = coeff_matrices(code.parity_matrix())
    columns = []
    col_of = {}  # erased times: column index per coord
    for t in range(lo, hi + 1):
        sym = table.get(t)
        if sym is None or None not in sym:
            continue
        idx = col_of[t] = []
        for c, x in enumerate(sym):
            if x is None:
                idx.append(len(columns))
                columns.append((t, c))
            else:
                idx.append(None)
    e = len(columns)
    equations = []
    for s in range(lo, hi + 1):
        terms = [
            (Hm, table[s - m], col_of.get(s - m))
            for m, Hm in enumerate(coeffs)
            if s - m in table
        ]
        for ri in range(len(coeffs[0])):
            acc = [0] * e
            rhs = 0
            for Hm, sym, idx in terms:
                hrow = Hm[ri]
                if idx is None:
                    rhs -= sum(map(mul, hrow, sym))
                    continue
                for a, x, k in zip(hrow, sym, idx):
                    if k is None:
                        rhs -= a * x
                    else:
                        acc[k] = a
            equations.append((s, ri, acc, rhs % q))
    return tuple(columns), equations


class TestWindowKernel:
    @pytest.mark.parametrize("ctx", [Z4, Z8, Z9, RingContext(5, 2)], ids=lambda c: f"z{c.q}")
    def test_matches_reference(self, ctx):
        # random tables: with or without the history before lo (times before
        # 0 are outside the sequence and read as zero symbols), with or
        # without missing times in lo..hi, entries unreduced (negative or at
        # least q), erasures absent, sparse, dense or covering the window
        rng = random.Random(ctx.q)
        q = ctx.q
        checked = 0
        for trial in range(64):
            n = rng.randint(2, 5)
            lsizes = [rng.randint(1, n - 1)] + [rng.randint(0, 1) for _ in range(ctx.r - 1)]
            code = random_kernel_code(rng, ctx, n, lsizes, rng.randint(0, 2))
            if code is None:
                continue
            lo = rng.randint(0, 3)
            hi = lo + rng.randint(0, 3)
            rate = (0.0, 0.3, 0.7, 1.0)[trial % 4]
            history = trial // 4 % 2 == 0
            missing = {rng.randint(lo, hi)} if trial // 8 % 2 else set()
            table = {}
            for t in range(lo if not history else max(lo - code.nu, 0), hi + 1):
                if t in missing:
                    continue
                sym = [rng.randrange(-q, 2 * q) for _ in range(n)]
                if t >= lo:
                    sym = [None if rng.random() < rate else x for x in sym]
                table[t] = sym
            columns, equations = reference_window_equations(code, table, lo, hi)
            e = len(columns)
            # the window array gathered on the erased columns, relative to lo
            m = sum(code.l_blocks)
            gathered = code._window_array(hi - lo)[:, [(t - lo) * n + c for t, c in columns]]
            assert gathered.shape == ((hi - lo + 1) * m, e)
            padded = [(lo + k // m, k % m, row) for k, row in enumerate(gathered.tolist())]
            rhs = _window_rhs(code, as_sequence(table, n), lo, hi)
            assert len(rhs) == len(padded)
            assert [(*eq, x) for eq, x in zip(padded, rhs)] == equations
            checked += 1
        assert checked >= 48

    def test_wide_modulus_sums_exactly(self):
        # q = (2^31 - 1)^2: nu + 1 block products of residues overflow int64,
        # so the kernel sums Python integers, over a range whose history and
        # window miss times, with unreduced entries
        ctx = RingContext(2**31 - 1, 2)
        q = ctx.q
        rng = random.Random(31)
        code = random_kernel_code(rng, ctx, 3, [1, 1], 2)
        assert code.nu == 2 and code._parity_array.dtype == object
        for trial in range(8):
            table = {}
            for t in range(8):
                if t in (1, 5) and trial % 2:
                    continue
                sym = [rng.randrange(-q, 2 * q) for _ in range(3)]
                if t >= 2:
                    sym = [None if rng.random() < 0.3 else x for x in sym]
                table[t] = sym
            columns, equations = reference_window_equations(code, table, 2, 7)
            rhs = _window_rhs(code, as_sequence(table, 3), 2, 7)
            assert rhs == [eq[-1] for eq in equations]
            assert all(isinstance(x, int) and 0 <= x < q for x in rhs)

    @pytest.mark.parametrize("ctx", [Z4, Z8, Z9, RingContext(5, 2)], ids=lambda c: f"z{c.q}")
    def test_unreduced_entries_read_mod_q(self, ctx):
        # negative entries, entries at least q and entries past int64 give
        # the right-hand sides of their residues
        rng = random.Random(7 * ctx.q)
        q = ctx.q
        code = next(
            c
            for c in iter(lambda: random_kernel_code(rng, ctx, 4, [2] + [1] * (ctx.r - 1), 2), 0)
            if c is not None
        )
        for _ in range(16):
            reduced = {
                t: [None if t >= 2 and rng.random() < 0.3 else rng.randrange(q) for _ in range(4)]
                for t in range(0, 7)
            }
            raw = {
                t: [x if x is None else x + q * rng.choice([-3, -1, 1, 5, 2**64]) for x in sym]
                for t, sym in reduced.items()
            }
            _, equations = reference_window_equations(code, reduced, 2, 6)
            raw, reduced = as_sequence(raw, 4), as_sequence(reduced, 4)
            assert _window_rhs(code, raw, 2, 6) == _window_rhs(code, reduced, 2, 6)
            assert _window_rhs(code, raw, 2, 6) == [eq[-1] for eq in equations]

    def test_multi_time_range_with_missing_history(self, kernel_code_z8):
        # lo..hi spans many times; history and window times absent from the
        # table read as zero symbols, and so do the times past the end of the
        # sequence when the table misses the last ones
        code = kernel_code_z8
        rng = random.Random(3)
        for missing in ({3, 4}, {5}, {9, 10, 20}, {21, 22, 23, 24}, set()):
            table = {
                t: [None if t >= 5 and rng.random() < 0.2 else rng.randrange(-8, 16) for _ in range(5)]
                for t in range(3, 25)
                if t not in missing
            }
            _, equations = reference_window_equations(code, table, 5, 24)
            assert _window_rhs(code, as_sequence(table, 5), 5, 24) == [eq[-1] for eq in equations]


class TestWindowMembership:
    def test_zero_window(self, kernel_code_z8):
        assert is_codeword_window(kernel_code_z8, [[0] * 5] * 3)

    def test_worked_window_is_valid(self, kernel_code_z8):
        assert is_codeword_window(kernel_code_z8, [WORD0, WORD1, WORD2])

    def test_perturbed_window_fails(self, kernel_code_z8):
        for t in range(3):
            for c in range(5):
                window = [list(WORD0), list(WORD1), list(WORD2)]
                window[t][c] = (window[t][c] + 1) % 8
                assert not is_codeword_window(kernel_code_z8, window)

    def test_unreduced_entries(self, kernel_code_z8):
        # entries shifted by multiples of q, negative or at least q, are read
        # as their residues
        shifts = [-16, -8, 8, 24, 8 * 2**64]
        for k in range(15):
            window = [
                [x + shifts[(k + 3 * t + c) % 5] for c, x in enumerate(sym)]
                for t, sym in enumerate([WORD0, WORD1, WORD2])
            ]
            assert is_codeword_window(kernel_code_z8, window)
            window[k // 5][k % 5] += 1
            assert not is_codeword_window(kernel_code_z8, window)

    def test_malformed_window_rejected(self, kernel_code_z8, nonexact_code_z9):
        with pytest.raises(ValueError):
            is_codeword_window(kernel_code_z8, [[0] * 4])
        with pytest.raises(ValueError):
            is_codeword_window(nonexact_code_z9, [[0] * 3])

    def test_encoded_prefix_windows(self, kernel_code_z8):
        rng = random.Random(13)
        for _ in range(5):
            u = [[rng.randrange(8) for _ in range(4)] for _ in range(3)]
            stream = kernel_code_z8.encode(u)
            for j in range(len(stream)):
                assert is_codeword_window(kernel_code_z8, stream[: j + 1])


class TestPreimage:
    def test_worked_preimage_roundtrip(self, kernel_code_z8, z8):
        rng = random.Random(17)
        u = [[rng.randrange(8) for _ in range(4)] for _ in range(2)]
        stream = kernel_code_z8.encode(u)
        word = [Poly(z8, [s[c] for s in stream]) for c in range(5)]
        got = preimage(kernel_code_z8, word)
        assert got is not None
        G = kernel_code_z8.generator_matrix()
        back = G.transpose() @ PolyMatrix(z8, [[e] for e in got])
        assert [e for (e,) in back.entries] == word

    def test_non_kernel_word_rejected(self, kernel_code_z8, z8):
        word = [Poly.const(z8, 1)] + [Poly.zero(z8)] * 4
        assert preimage(kernel_code_z8, word) is None


def reference_encode(code, inputs):
    """Entry-by-entry convolution sum_j (G^j)^T u^{s-j} mod q."""
    coeffs = coeff_matrices(code.generator_matrix())
    q = code.ctx.q
    out = [[0] * code.n for _ in range(len(inputs) + len(coeffs) - 1)]
    for s, u in enumerate(inputs):
        for j, Gj in enumerate(coeffs):
            tgt = out[s + j]
            for row_idx, grow in enumerate(Gj):
                uv = u[row_idx]
                if uv % q == 0:
                    continue
                for c in range(code.n):
                    tgt[c] += uv * grow[c]
    return [[x % q for x in row] for row in out]


P31 = 2**31 - 1  # (p - 1)^2 is just under 2^62


class TestEncode:
    @pytest.mark.parametrize(
        "p, r, n, k_blocks, deg, seed",
        [
            (2, 2, 4, [1, 1], 2, 1),  # Z_4
            (2, 3, 5, [1, 1, 1], 1, 2),  # Z_8
            (3, 2, 4, [2, 1], 2, 3),  # Z_9
            (5, 2, 3, [1, 1], 1, 4),  # Z_25
        ],
    )
    def test_matches_reference(self, p, r, n, k_blocks, deg, seed):
        code = generate_code(p, r, n, k_blocks, deg, seed)
        q = code.ctx.q
        assert code._generator_array.dtype == np.int64
        rng = random.Random(seed)
        for steps in (0, 1, 2, 7):
            u = [[rng.randrange(q) for _ in range(code.k)] for _ in range(steps)]
            got = code.encode(u)
            assert got == reference_encode(code, u)
            assert len(got) == steps + code.generator_matrix().degree
            assert all(type(x) is int for row in got for x in row)
        # entries outside [0, q) act through their residues
        u = [[rng.randrange(-3 * q, 3 * q) for _ in range(code.k)] for _ in range(5)]
        u.append([q] * code.k)
        u.append([-(10**30) - 1] * code.k)
        got = code.encode(u)
        assert got == reference_encode(code, u)
        assert got == code.encode([[x % q for x in row] for row in u])

    def test_wrong_length_rejected(self, kernel_code_z8):
        with pytest.raises(ValueError, match="input at time 1 has length 3"):
            kernel_code_z8.encode([[0] * 4, [1, 2, 3]])
        with pytest.raises(ValueError):
            kernel_code_z8.encode([[0] * 5])

    @pytest.mark.parametrize("deg, dtype", [(1, np.int64), (2, object)])
    def test_int64_bound(self, deg, dtype):
        # deg + 1 products of (q - 1)^2: 2^63 - 2^34 + 8 at deg 1, past 2^63 at deg 2
        ctx = RingContext(P31, 1)
        code = ConvCode.from_generator(ctx, [[[P31 - 1] * (deg + 1), [P31 - 1]]])
        assert code._generator_array.dtype == dtype
        u = [[P31 - 1]] * 4 + [[-1]]
        assert code.encode(u) == reference_encode(code, u)

    def test_wide_modulus_uses_python_integers(self):
        # q = (2^31 - 1)^2 puts one product of residues near 2^124
        ctx = RingContext(P31, 2)
        q = ctx.q
        code = ConvCode.from_generator(
            ctx, [[[q - 1, 5, q - 2], [3, q - 1]], [[q - 7], [1, 0, q - 1]]]
        )
        assert code.h_blocks is None and code.k == 2
        assert code._generator_array.dtype == object
        rng = random.Random(31)
        for steps in (0, 3):
            u = [[rng.randrange(-q, 2 * q) for _ in range(2)] for _ in range(steps)]
            got = code.encode(u)
            assert got == reference_encode(code, u)
            assert all(type(x) is int and 0 <= x < q for row in got for x in row)


def test_inverse_start_finishes_quickly():
    # spec 123 of the code-design workload on seed 1: the unimodular matrix it
    # inverts once had a 6 x 6 Z_3[D] projection of degree 28, on which a
    # gcd-driven (Smith form) inverse start ran for over a minute
    t0 = time.perf_counter()
    code = generate_code(p=3, r=2, n=6, k_blocks=[1, 4], deg=2, seed=928865527)
    assert time.perf_counter() - t0 < 5
    prod = code.parity_matrix() @ code.generator_matrix().transpose()
    assert all(e.is_zero for row in prod.entries for e in row)


def test_high_degree_completion_builds_quickly():
    # a completion that never reduced degrees gave this 4 x 8 degree-4 stack
    # rows of degree 594 and did not finish in 40 s
    n, r = 8, 2
    t0 = time.perf_counter()
    code = generate_code(p=2, r=r, n=n, k_blocks=[2, 2], deg=4, seed=7)
    assert time.perf_counter() - t0 < 1
    prod = code.parity_matrix() @ code.generator_matrix().transpose()
    assert all(e.is_zero for row in prod.entries for e in row)
    gp = code.generator_stack().proj()
    d = int(gp.vstack(polymat.complete_to_unimodular(gp)).degree)
    # invert_unimodular's bound on the inverse, from which H is read
    assert code.nu <= (n - 1) * d + (r - 1) * n * d


@pytest.mark.parametrize("ctx", [Z2, RingContext(3, 1)], ids=["z2", "z3"])
def test_solve_left_rational(ctx):
    B = PolyMatrix(ctx, [[1, [0, 1], 0, [1, 1]], [0, 1, [1, 1], 1]])
    rng = random.Random(ctx.p)
    for _ in range(5):
        c = PolyMatrix(ctx, [[[rng.randrange(ctx.p) for _ in range(3)] for _ in range(2)]])
        w = list((c @ B).entries[0])
        chat, delta = _solve_left_rational(B, w)
        assert not delta.is_zero
        assert list((PolyMatrix(ctx, [chat]) @ B).entries[0]) == [delta * x for x in w]
    # the first two coordinates of a row combination pin it to zero
    free = PolyMatrix(ctx, [[0, 0, 0, 1]])
    assert rank(B.vstack(free)) == 3
    assert _solve_left_rational(B, list(free.entries[0])) is None
