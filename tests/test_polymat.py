import random
from itertools import combinations

import pytest

from convring import (
    NotLeftPrime,
    NotUnimodular,
    Poly,
    PolyMatrix,
    RingContext,
    adjugate,
    complete_to_unimodular,
    det,
    invert_unimodular,
    is_left_prime,
    lift_unimodular,
    rank,
    rank_mod_p,
)
from convring import polymat
from convring.polymat import NEG_INF, _kernel_basis

Z8 = RingContext(2, 3)
Z9 = RingContext(3, 2)
Z2 = RingContext(2, 1)
Z3 = RingContext(3, 1)
Z4 = RingContext(2, 2)
Z5 = RingContext(5, 1)
Z25 = RingContext(5, 2)
ZW = RingContext(2**31 - 1, 2)  # (2^31 - 1)^2: products overflow int64


def rand_poly(rng, ctx, deg):
    return Poly(ctx, [rng.randrange(ctx.q) for _ in range(deg + 1)])


def rand_matrix(rng, ctx, m, n, deg):
    return PolyMatrix(ctx, [[rand_poly(rng, ctx, deg) for _ in range(n)] for _ in range(m)])


def sparse_matrix(rng, ctx, m, n, deg):
    """An m x n matrix whose entries have random degrees up to deg, a third of them zero; deg -1 gives zeros."""
    if deg < 0:
        return PolyMatrix.zeros(ctx, m, n)
    entries = [
        [Poly.zero(ctx) if rng.random() < 1 / 3 else rand_poly(rng, ctx, rng.randrange(deg + 1)) for _ in range(n)]
        for _ in range(m)
    ]
    return PolyMatrix(ctx, entries, cols=n)


def naive_matmul(A, B):
    """The product entry by entry on Poly arithmetic: the reference for the coefficient-array product."""
    ctx = A.ctx
    zero = Poly.zero(ctx)
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = zero
            for k in range(A.cols):
                a = A[i, k]
                b = B[k, j]
                if a.is_zero or b.is_zero:
                    continue
                acc = acc + a * b
            row.append(acc)
        out.append(row)
    return PolyMatrix(ctx, out, cols=B.cols)


class TestPoly:
    def test_canonical_form(self):
        p = Poly(Z8, [1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert Poly(Z8, [0, 0]).is_zero
        assert Poly(Z8, []).degree == NEG_INF

    def test_mul_against_schoolbook(self):
        rng = random.Random(0)
        for _ in range(50):
            a = rand_poly(rng, Z9, rng.randrange(4))
            b = rand_poly(rng, Z9, rng.randrange(4))
            prod = a * b
            for k in range(8):
                want = sum(a.coeff(i) * b.coeff(k - i) for i in range(k + 1)) % 9
                assert prod.coeff(k) == want

    def test_divmod_over_field(self):
        rng = random.Random(1)
        for _ in range(50):
            a = rand_poly(rng, Z3, rng.randrange(5))
            b = rand_poly(rng, Z3, rng.randrange(3))
            if b.is_zero:
                continue
            q, r = a.divmod_by(b)
            assert q * b + r == a
            assert r.degree < b.degree or r.is_zero

    def test_divide_p_power(self):
        p = Poly(Z8, [4, 2, 6])
        assert p.divide_p_power(1).coeffs == (2, 1, 3)
        with pytest.raises(ValueError):
            p.divide_p_power(2)


class TestMatrixOps:
    def test_identity_product(self):
        rng = random.Random(2)
        A = rand_matrix(rng, Z8, 3, 3, 2)
        I = PolyMatrix.identity(Z8, 3)
        assert I @ A == A
        assert A @ I == A

    def test_scalar_poly_product(self):
        A = PolyMatrix(Z8, [[[3]]])
        f = PolyMatrix(Z8, [[[1, 1]]])
        assert (f @ A)[0, 0] == Poly(Z8, [3, 3])

    def test_matmul_against_naive(self):
        rng = random.Random(3)
        for _ in range(20):
            A = rand_matrix(rng, Z9, 2, 3, 2)
            B = rand_matrix(rng, Z9, 3, 2, 2)
            assert A @ B == naive_matmul(A, B)

    @pytest.mark.parametrize("ctx", [Z4, Z8, Z9, Z25, ZW], ids=["z4", "z8", "z9", "z25", "wide"])
    @pytest.mark.parametrize(
        "shape",
        # rows x inner x cols, degrees of A and B; degree -1 is the zero matrix
        [
            (2, 3, 2, 2, 2),
            (3, 2, 4, 0, 3),
            (1, 4, 1, 4, 0),
            (2, 2, 3, 1, 5),
            (2, 3, 2, -1, 2),
            (2, 3, 2, 3, -1),
            (0, 3, 2, 1, 1),
            (2, 3, 0, 1, 1),
            (2, 0, 3, -1, -1),
            (0, 0, 0, -1, -1),
        ],
        ids=str,
    )
    def test_matmul_matches_reference(self, ctx, shape):
        m, k, n, da, db = shape
        rng = random.Random(ctx.q + 7 * sum(shape))
        for _ in range(3):
            A, B = sparse_matrix(rng, ctx, m, k, da), sparse_matrix(rng, ctx, k, n, db)
            got = A @ B
            assert (got.rows, got.cols) == (m, n)
            assert got == naive_matmul(A, B)

    @pytest.mark.parametrize("m, n", [(3, 0), (0, 3), (0, 0), (2, 3), (1, 1)])
    def test_transpose_keeps_shape(self, m, n):
        # a matrix with no columns transposes to one with no rows and m
        # columns; entries move to their mirrored places
        A = sparse_matrix(random.Random(m * 10 + n), Z8, m, n, 2)
        At = A.transpose()
        assert (At.rows, At.cols) == (n, m)
        assert all(At[j, i] == A[i, j] for i in range(m) for j in range(n))
        assert At.transpose() == A
        assert (At @ PolyMatrix.zeros(Z8, m, 2)).cols == 2

    def test_dimension_mismatch(self):
        A = rand_matrix(random.Random(4), Z8, 2, 3, 1)
        with pytest.raises(ValueError):
            _ = A @ A

    def test_projection(self):
        A = PolyMatrix(Z8, [[[5, 2]], [[2]]])
        Ap = A.proj()
        assert Ap[0, 0] == Poly(Z2, [1])
        assert Ap[1, 0].is_zero
        B = PolyMatrix(Z9, [[[3, 6]]])
        assert B.proj()[0, 0].is_zero  # digit oracle: both coefficients vanish


def poly_gcd(a, b):
    """Monic gcd over Z_p[D] by Euclid; zero when both are zero."""
    while not b.is_zero:
        a, b = b, a.divmod_by(b)[1]
    return a if a.is_zero else a.scale(a.ctx.inv(a.coeffs[-1]))


def minors(A, i):
    """All i x i minors of A, by Laplace det."""
    return [
        det(PolyMatrix(A.ctx, [[A[r, c] for c in S] for r in R]))
        for R in combinations(range(A.rows), i)
        for S in combinations(range(A.cols), i)
    ]


def invariant_factors(A):
    """The nonzero Smith invariant factors of A over Z_p[D], from minors alone.

    The determinantal divisor d_i is the monic gcd of the i x i minors, and
    the i-th invariant factor is d_i / d_{i-1}; the divisors must form a chain.
    """
    out, prev = [], Poly.one(A.ctx)
    for i in range(1, min(A.rows, A.cols) + 1):
        d = Poly.zero(A.ctx)
        for m in minors(A, i):
            d = poly_gcd(d, m)
        if d.is_zero:
            break
        f, rem = d.divmod_by(prev)
        assert rem.is_zero
        out.append(f)
        prev = d
    return out


def column_degrees(K):
    return [max(int(e.degree) for e in col if not e.is_zero) for col in K.transpose().entries]


def assert_minimal_kernel(A, K, rho):
    """K is a column reduced basis of A's right kernel, of n - rho columns."""
    assert K.rows == A.cols and K.cols == A.cols - rho
    assert all(e.is_zero for row in (A @ K).entries for e in row)
    if not K.cols:
        return
    degs = column_degrees(K)
    lead = [[K[i, j].coeff(d) for j, d in enumerate(degs)] for i in range(K.rows)]
    assert rank_mod_p(lead, A.ctx.p) == K.cols
    if rho == A.rows:
        # Forney: the minimal indices of the kernel of a full row rank A sum
        # to the top degree of its maximal minors less that of their gcd
        full = [m for m in minors(A, rho) if not m.is_zero]
        g = Poly.zero(A.ctx)
        for m in full:
            g = poly_gcd(g, m)
        assert sum(degs) == max(m.degree for m in full) - g.degree


class TestSmith:
    """Smith invariants, read from minors alone (by det), against the kernel basis and primeness."""

    def test_fixed_diagonal(self):
        A = PolyMatrix(Z2, [[[1], [0]], [[0], [0, 1]]])
        assert invariant_factors(A) == [Poly.one(Z2), Poly(Z2, [0, 1])]
        assert _kernel_basis(A).cols == 0
        assert not is_left_prime(A)

    def test_rank_deficient(self):
        A = PolyMatrix(Z2, [[[0, 1], [0, 1]], [[0], [0]]])
        assert invariant_factors(A) == [Poly(Z2, [0, 1])]
        assert _kernel_basis(A) == PolyMatrix(Z2, [[1], [1]])
        with pytest.raises(NotLeftPrime, match="deficient rank"):
            complete_to_unimodular(A)

    def test_worked_stack_over_z3(self):
        # gcd of 2x2 minors is 1+D, so the second factor is not a unit
        G = PolyMatrix(Z3, [[[1, 1], [1, 1], [1, 1]], [[1], [1], [0]]])
        assert invariant_factors(G) == [Poly.one(Z3), Poly(Z3, [1, 1])]
        assert_minimal_kernel(G, _kernel_basis(G), 2)
        assert not is_left_prime(G)

    @pytest.mark.parametrize("seed", range(12))
    def test_contract_and_chain(self, seed):
        rng = random.Random(seed)
        ctx = rng.choice([Z2, Z3])
        A = rand_matrix(rng, ctx, rng.randrange(1, 4), rng.randrange(1, 4), 2)
        factors = invariant_factors(A)
        assert_minimal_kernel(A, _kernel_basis(A), len(factors))
        if A.rows <= A.cols:
            prime = len(factors) == A.rows and all(f.is_unit_const for f in factors)
            assert is_left_prime(A) == prime

    @pytest.mark.parametrize("seed", range(6))
    def test_invariant_under_elementary_ops(self, seed):
        rng = random.Random(100 + seed)
        ctx = Z3
        A = rand_matrix(rng, ctx, 2, 3, 1)
        base = invariant_factors(A)
        left, right = random_unimodular(rng, ctx, 2) @ A, A @ random_unimodular(rng, ctx, 3)
        assert invariant_factors(left) == base == invariant_factors(right)
        assert is_left_prime(left) == is_left_prime(A) == is_left_prime(right)
        # a row operation keeps the kernel, so its minimal degrees too
        assert sorted(column_degrees(_kernel_basis(left))) == sorted(
            column_degrees(_kernel_basis(A))
        )


class TestKernelBasis:
    @pytest.mark.parametrize("ctx", [Z2, Z3, Z5], ids=["z2", "z3", "z5"])
    @pytest.mark.parametrize("shape", [(1, 3), (2, 4), (3, 3), (4, 2), (2, 5)])
    def test_random_full_rank(self, ctx, shape):
        rng = random.Random(ctx.p * 100 + shape[0] * 10 + shape[1])
        for _ in range(3):
            A = rand_matrix(rng, ctx, *shape, rng.randrange(3))
            assert_minimal_kernel(A, _kernel_basis(A), len(invariant_factors(A)))

    @pytest.mark.parametrize("ctx", [Z2, Z3, Z5], ids=["z2", "z3", "z5"])
    def test_rank_deficient_products(self, ctx):
        rng = random.Random(ctx.p)
        for m, rho, n in [(2, 1, 3), (3, 2, 4), (4, 2, 3)]:
            A = rand_matrix(rng, ctx, m, rho, 1) @ rand_matrix(rng, ctx, rho, n, 1)
            factors = invariant_factors(A)
            assert len(factors) <= rho
            assert_minimal_kernel(A, _kernel_basis(A), len(factors))

    def test_zero_and_empty(self):
        for A in (PolyMatrix.zeros(Z3, 2, 3), PolyMatrix.zeros(Z3, 0, 3)):
            assert _kernel_basis(A) == PolyMatrix.identity(Z3, 3)

    def test_shifted_dependency(self):
        # the kernel of [D, 1] is spanned by [1, -D], up to a unit
        A = PolyMatrix(Z5, [[[0, 1], [1]]])
        K = _kernel_basis(A)
        assert K in [PolyMatrix(Z5, [[[c]], [[0, -c]]]) for c in range(1, 5)]


class TestPrimenessCompletion:
    def test_identity_padding_is_left_prime(self):
        A = PolyMatrix(Z3, [[[1], [0], [0]], [[0], [1], [0]]])
        assert is_left_prime(A)
        N = complete_to_unimodular(A)
        assert det(A.vstack(N)).is_unit_const

    def test_worked_stack_not_left_prime(self):
        G = PolyMatrix(Z3, [[[1, 1], [1, 1], [1, 1]], [[1], [1], [0]]])
        assert not is_left_prime(G)
        with pytest.raises(NotLeftPrime):
            complete_to_unimodular(G)

    def test_tall_matrix_rejected(self):
        A = PolyMatrix(Z3, [[[1], [0]], [[0], [1]], [[1], [1]]])
        for check in (is_left_prime, complete_to_unimodular):
            with pytest.raises(ValueError, match="needs k <= n"):
                check(A)

    def test_coprime_pair(self):
        A = PolyMatrix(Z3, [[[1, 1], [1]]])
        assert is_left_prime(A)
        N = complete_to_unimodular(A)
        assert det(A.vstack(N)).is_unit_const

    @pytest.mark.parametrize("seed", range(10))
    def test_completion_contract_random(self, seed):
        rng = random.Random(200 + seed)
        ctx = rng.choice([Z2, Z3])
        for _ in range(20):
            A = rand_matrix(rng, ctx, 2, 3, 1)
            if is_left_prime(A):
                break
        else:
            pytest.skip("no left prime sample found")
        N = complete_to_unimodular(A)
        d = det(A.vstack(N))
        assert d.is_unit_const

    @pytest.mark.parametrize("ctx", [Z2, Z3, Z5], ids=["z2", "z3", "z5"])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_of_unimodular_are_left_prime(self, ctx, seed):
        rng = random.Random(600 + seed)
        n = rng.randrange(2, 5)
        k = rng.randrange(1, n + 1)
        A = random_unimodular(rng, ctx, n).take_rows(0, k)
        assert is_left_prime(A)
        N = complete_to_unimodular(A)
        assert N.rows == n - k and det(A.vstack(N)).is_unit_const

    @pytest.mark.parametrize("ctx", [Z2, Z3, Z5], ids=["z2", "z3", "z5"])
    @pytest.mark.parametrize("seed", range(4))
    def test_nonconstant_left_factor_is_not_left_prime(self, ctx, seed):
        rng = random.Random(700 + seed)
        n = rng.randrange(2, 5)
        k = rng.randrange(1, n + 1)
        # F has determinant c (D - a) for a unit c, so F A keeps the factor D - a
        a = rng.randrange(ctx.p)
        diag = [[[-a, 1] if i == j == 0 else int(i == j) for j in range(k)] for i in range(k)]
        F = random_unimodular(rng, ctx, k) @ PolyMatrix(ctx, diag)
        A = F @ random_unimodular(rng, ctx, n).take_rows(0, k)
        assert not det(F).is_unit_const
        assert not is_left_prime(A)
        with pytest.raises(NotLeftPrime):
            complete_to_unimodular(A)


def random_unimodular(rng, ctx, n, ops=6):
    """Product of elementary matrices over a field context."""
    M = PolyMatrix.identity(ctx, n)
    for _ in range(ops):
        rows = [list(r) for r in PolyMatrix.identity(ctx, n).entries]
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and n > 1:
            rows[i][i], rows[i][j] = Poly.zero(ctx), Poly.one(ctx)
            rows[j][j], rows[j][i] = Poly.zero(ctx), Poly.one(ctx)
        elif kind == 1 and n > 1:
            rows[i][j] = rand_poly(rng, ctx, rng.randrange(3))
        else:
            rows[i][i] = Poly.const(ctx, rng.randrange(1, ctx.p))
        M = M @ PolyMatrix(ctx, rows)
    return M


class TestLifting:
    def test_identity_lift(self):
        I = PolyMatrix.identity(Z2, 2)
        L = lift_unimodular(I, Z8)
        assert L == PolyMatrix.identity(Z8, 2)

    def test_fixed_lift_has_inverse(self):
        U = PolyMatrix(Z2, [[[1], [1]], [[1], [0]]])
        L = lift_unimodular(U, Z8)
        V = invert_unimodular(L)
        assert L @ V == PolyMatrix.identity(Z8, 2)
        assert V @ L == PolyMatrix.identity(Z8, 2)

    def test_elementary_inverse(self):
        # row operation matrix E(i, j, f) inverts to E(i, j, -f)
        f = Poly(Z8, [3, 5])
        E = PolyMatrix(Z8, [[Poly.one(Z8), f], [Poly.zero(Z8), Poly.one(Z8)]])
        V = invert_unimodular(E)
        assert V == PolyMatrix(Z8, [[Poly.one(Z8), -f], [Poly.zero(Z8), Poly.one(Z8)]])

    @pytest.mark.parametrize("seed", range(10))
    def test_random_lift_invert(self, seed):
        rng = random.Random(300 + seed)
        ring = rng.choice([Z8, Z9])
        fld = ring.residue_field()
        n = rng.randrange(2, 4)
        U = random_unimodular(rng, fld, n)
        L = lift_unimodular(U, ring)
        V = invert_unimodular(L)
        assert L @ V == PolyMatrix.identity(ring, n)
        assert V @ L == PolyMatrix.identity(ring, n)
        # projection direction: a ring unimodular always projects unimodular
        assert det(V.proj()).is_unit_const

    def test_non_unimodular_rejected(self):
        bad = PolyMatrix(Z2, [[[0, 1], [0]], [[0], [1]]])  # det = D
        with pytest.raises(ValueError):
            lift_unimodular(bad, Z8)
        with pytest.raises(NotUnimodular):
            invert_unimodular(bad.lift(Z8))
        # unit determinant mod p is required, not just nonzero det
        two = PolyMatrix(Z8, [[[2]]])
        with pytest.raises(NotUnimodular):
            invert_unimodular(two)


def unit_poly(rng, ctx, deg):
    """A unit c + p w(D) of Z_{p^r}[D] (a constant over Z_p) and its inverse."""
    c = rng.randrange(1, ctx.p) + ctx.p * rng.randrange(ctx.q // ctx.p)
    u = Poly(ctx, [c] + [ctx.p * rng.randrange(ctx.q) for _ in range(deg)])
    # u = c (1 + x) with every coefficient of x divisible by p, so x^r = 0
    cinv = ctx.inv(c)
    x = (u - Poly.const(ctx, c)).scale(cinv)
    inv = term = Poly.one(ctx)
    for _ in range(1, ctx.r):
        term = term * -x
        inv = inv + term
    return u, inv.scale(cinv)


def unimodular_with_inverse(rng, ctx, n, ops):
    """Product of elementary, unit-scaling and swap matrices, and its inverse."""
    M = Minv = PolyMatrix.identity(ctx, n)
    for _ in range(ops):
        E = [list(r) for r in PolyMatrix.identity(ctx, n).entries]
        Einv = [list(r) for r in E]
        kind = rng.randrange(3) if n > 1 else 1
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0:
            f = rand_poly(rng, ctx, rng.randrange(3))
            E[i][j], Einv[i][j] = f, -f
        elif kind == 1:
            E[i][i], Einv[i][i] = unit_poly(rng, ctx, rng.randrange(3))
        else:
            for rows in (E, Einv):
                rows[i], rows[j] = rows[j], rows[i]
        M = M @ PolyMatrix(ctx, E)
        Minv = PolyMatrix(ctx, Einv) @ Minv
    return M, Minv


class TestInverse:
    def test_unit_poly_inverse(self):
        rng = random.Random(5)
        for ctx in (Z4, Z8, Z9, Z25, Z5):
            u, v = unit_poly(rng, ctx, 2)
            assert u * v == Poly.one(ctx)
        one_plus_pd = Poly(Z9, [1, 3])
        assert invert_unimodular(PolyMatrix(Z9, [[one_plus_pd]])) == PolyMatrix(
            Z9, [[Poly(Z9, [1, -3])]]
        )

    @pytest.mark.parametrize("ctx", [Z4, Z8, Z9, Z25, Z5], ids=["z4", "z8", "z9", "z25", "z5"])
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_known_inverse(self, ctx, n):
        rng = random.Random(ctx.q * 10 + n)
        M, Minv = unimodular_with_inverse(rng, ctx, n, 2 * n + 2)
        assert invert_unimodular(M) == Minv
        assert invert_unimodular(Minv) == M

    def test_wide_modulus(self):
        # q = (2^31 - 1)^2: coefficient products overflow int64
        ctx = RingContext(2**31 - 1, 2)
        M, Minv = unimodular_with_inverse(random.Random(17), ctx, 3, 8)
        assert polymat.exact_dtype(3, ctx.q) is object
        assert invert_unimodular(M) == Minv

    def test_constant_and_empty(self):
        rng = random.Random(9)
        M, Minv = unimodular_with_inverse(rng, Z8, 3, 4)
        M0 = PolyMatrix(Z8, M.coeff_array()[0].tolist())
        V0 = invert_unimodular(M0)
        assert V0.degree == 0 and M0 @ V0 == PolyMatrix.identity(Z8, 3)
        assert invert_unimodular(PolyMatrix.zeros(Z8, 0, 0)) == PolyMatrix.zeros(Z8, 0, 0)

    def test_uses_no_determinants(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("determinant computed")

        monkeypatch.setattr(polymat, "det", refuse)
        monkeypatch.setattr(polymat, "adjugate", refuse)
        M, Minv = unimodular_with_inverse(random.Random(3), Z25, 4, 8)
        assert invert_unimodular(M) == Minv

    @pytest.mark.parametrize(
        "ctx, entries",
        [
            (Z8, [[[1], [1]], [[1], [1, 1]]]),  # U(0) singular, det = D
            (Z9, [[[3, 1]]]),  # U(0) = 3 is not a unit
            (Z9, [[[0, 1]]]),  # U = D
            (Z25, [[[5], [1]], [[0, 1], [5]]]),  # U(0) = [[5, 1], [0, 5]]
        ],
    )
    def test_singular_start_rejected(self, ctx, entries):
        U = PolyMatrix(ctx, entries)
        assert not det(PolyMatrix(ctx, U.coeff_array()[0].tolist())).is_unit_const
        with pytest.raises(NotUnimodular, match="singular"):
            invert_unimodular(U)

    @pytest.mark.parametrize(
        "ctx, entries",
        [
            (Z2, [[[1, 1]]]),  # 1 + D
            (Z9, [[[1], [0]], [[0], [1, 1]]]),  # diag(1, 1 + D)
            (Z4, [[[1], [0, 1]], [[0, 1], [1]]]),  # det = 1 - D^2
            (Z25, [[[1, 1, 0, 0, 1]]]),  # 1 + D + D^4
        ],
    )
    def test_unit_start_non_unit_det_rejected(self, ctx, entries):
        U = PolyMatrix(ctx, entries)
        assert det(PolyMatrix(ctx, U.coeff_array()[0].tolist())).is_unit_const
        with pytest.raises(NotUnimodular, match="does not end"):
            invert_unimodular(U)

    def test_non_square_rejected(self):
        with pytest.raises(NotUnimodular):
            invert_unimodular(PolyMatrix(Z8, [[1, 0]]))


class TestDetAdjugate:
    def test_identity(self):
        I = PolyMatrix.identity(Z8, 3)
        adj, d = adjugate(I)
        assert adj == I and d == Poly.one(Z8)

    def test_2x2_closed_form(self):
        rng = random.Random(7)
        a, b, c, d = (rand_poly(rng, Z8, 2) for _ in range(4))
        M = PolyMatrix(Z8, [[a, b], [c, d]])
        adj, dd = adjugate(M)
        assert adj == PolyMatrix(Z8, [[d, -b], [-c, a]])
        assert dd == a * d - b * c

    @pytest.mark.parametrize("seed", range(8))
    def test_contract_random(self, seed):
        rng = random.Random(400 + seed)
        ctx = rng.choice([Z8, Z9])
        n = rng.randrange(1, 5)
        M = rand_matrix(rng, ctx, n, n, min(3, rng.randrange(4)))
        adj, d = adjugate(M)
        prod = adj @ M
        expect = PolyMatrix(ctx, [[d if i == j else 0 for j in range(n)] for i in range(n)])
        assert prod == expect


class TestRank:
    def test_rank_fraction_field(self):
        # rows dependent over rational functions but not over Z_p[D]
        A = PolyMatrix(Z2, [[[0, 1], [0]], [[1], [0]]])
        assert rank(A) == 1
        B = PolyMatrix(Z2, [[[0, 1], [0]], [[0], [1]]])
        assert rank(B) == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_matches_smith(self, seed):
        rng = random.Random(500 + seed)
        ctx = rng.choice([Z2, Z3])
        A = rand_matrix(rng, ctx, rng.randrange(1, 4), rng.randrange(1, 4), 2)
        assert rank(A) == len(invariant_factors(A))
