import random

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from convring import solve_mod_p
from convring.errors import CapExceeded
from convring.linsolve import (
    OPS,
    StageMatrix,
    _pack_2,
    _head_bits,
    rank_mod_p,
    reduce_stage,
    rref_mod_p,
)

# stage-0 window system of the length-5 example over Z_8, reduced mod 2
STAGE0_ROWS = [
    [1, 1, 1, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [0, 1, 0, 1, 0, 0, 0],
    [1, 1, 0, 0, 1, 1, 1],
    [0, 0, 1, 1, 1, 0, 1],
    [0, 0, 0, 1, 0, 1, 1],
]
STAGE0_RHS = [1, 0, 1, 1, 0, 1, 0, 0, 1]

STAGE1_ROWS = [
    [1, 1, 1, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0],
    [1, 1, 0, 0, 1, 1, 1],
    [0, 0, 1, 1, 1, 0, 1],
]
STAGE1_RHS = [0, 0, 1, 1, 1]


def test_stage0_unique_solution():
    s = solve_mod_p(STAGE0_ROWS, STAGE0_RHS, 2)
    assert s.feasible
    assert s.particular == (1, 0, 0, 1, 1, 0, 0)
    assert s.basis == ()
    assert s.size == 1


def test_stage1_two_parameter_family():
    s = solve_mod_p(STAGE1_ROWS, STAGE1_RHS, 2)
    assert s.size == 4
    expected = {
        (0, 0, 0, 1, 0, 1, 0),
        (0, 1, 1, 1, 1, 1, 0),
        (0, 1, 1, 1, 0, 1, 1),
        (0, 0, 0, 1, 1, 1, 1),
    }
    assert set(s.points()) == expected


def test_points_obey_the_enumeration_cap(monkeypatch):
    # CONVRING_CAP bounds AffineSet.points like every other enumeration
    s = solve_mod_p(STAGE1_ROWS, STAGE1_RHS, 2)
    monkeypatch.setenv("CONVRING_CAP", "3")
    with pytest.raises(CapExceeded):
        list(s.points())
    monkeypatch.setenv("CONVRING_CAP", "4")
    assert len(list(s.points())) == 4


def test_zero_system_full_space():
    s = solve_mod_p([[0, 0], [0, 0]], [0, 0], 3)
    assert s.size == 9
    assert len(s.basis) == 2


def test_infeasible_is_a_value():
    s = solve_mod_p([[0, 0]], [1], 2)
    assert not s.feasible
    assert s.size == 0


@pytest.mark.parametrize("seed", range(10))
def test_all_points_solve_and_size_law(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    m, n = rng.randrange(1, 5), rng.randrange(1, 5)
    A = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
    x0 = [rng.randrange(p) for _ in range(n)]
    b = [sum(a * x for a, x in zip(row, x0)) % p for row in A]
    s = solve_mod_p(A, b, p)
    assert s.feasible
    assert s.size == p ** (n - rank_mod_p(A, p))
    assert s.size <= 4096
    pts = list(s.points())
    assert len(pts) == s.size
    for pt in pts:
        assert all(sum(a * x for a, x in zip(row, pt)) % p == bi for row, bi in zip(A, b))
    assert tuple(x0) in pts


def reference_rref(rows, p, ncols):
    """Plain list elimination with the documented op count: a pivot row
    scaled by a non-1 inverse costs ncols - col, each row it clears costs
    ncols - col + 1; columns past ncols ride along uncounted."""
    rows = [[x % p for x in row] for row in rows]
    pivots, ops, r = [], 0, 0
    for col in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][col], -1, p)
        if inv != 1:
            rows[r] = [inv * x % p for x in rows[r]]
            ops += ncols - col
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [(a - row[col] * b) % p for a, b in zip(row, rows[r])]
                ops += ncols - col + 1
        pivots.append(col)
        r += 1
    return pivots, rows, ops


def _check_rref(rows, p, ncols=None):
    expect = reference_rref(rows, p, len(rows[0]) if rows and ncols is None else ncols or 0)
    work = [list(row) for row in rows]
    before = OPS.count
    pivots = rref_mod_p(work, p) if ncols is None else rref_mod_p(work, p, ncols=ncols)
    assert (pivots, work, OPS.count - before) == expect
    return pivots


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_matches_reference_with_augmented_columns(p):
    rng = random.Random(100 + p)
    pivots_past = 0
    for _ in range(150):
        m, ncols, extra = rng.randrange(0, 8), rng.randrange(0, 8), rng.randrange(0, 5)
        # unreduced and negative entries, sparse enough to leave dependent rows
        rows = [
            [rng.randint(-3 * p, 3 * p) if rng.random() < 0.5 else 0 for _ in range(ncols + extra)]
            for _ in range(m)
        ]
        if m and ncols + extra == 0:
            continue
        pivots = _check_rref(rows, p, ncols)
        assert all(col < ncols for col in pivots)
        pivots_past += len(reference_rref(rows, p, ncols + extra)[0]) > len(pivots)
    # augmented columns would have given pivots in many of these systems
    assert pivots_past > 20


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_degenerate_inputs(p):
    assert _check_rref([], p) == []
    assert _check_rref([], p, ncols=3) == []
    assert _check_rref([[0, 0, 0], [0, 0, 0]], p) == []
    # all-zero coefficient part with live augmented columns
    assert _check_rref([[0, 0, 1, -1], [0, p, 0, 2 * p + 1]], p, ncols=2) == []
    assert _check_rref([[p + 1, -1], [2 * p, 0]], p, ncols=0) == []
    assert _check_rref([[-1, 0, 7], [0, -1, 0], [1, 1, 1]], p, ncols=2) == [0, 1]


def test_rref_z2_worked_example():
    # over Z_2 every pivot inverse is 1, so only cleared rows cost ops:
    # column 0 clears row 1 (4 ops + 1), column 1 clears rows 0 and 2 (2 x 4)
    rows = [[1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 0]]
    before = OPS.count
    assert rref_mod_p(rows, 2) == [0, 1]
    assert rows == [[1, 0, 1, 1], [0, 1, 1, 0], [0, 0, 0, 0]]
    assert OPS.count - before == 5 + 8


def reference_z2_swaps(rows, ncols):
    """The row that reference_rref over Z_2 swaps into row k, per pivot k."""
    rows = [[x % 2 for x in row] for row in rows]
    swaps, r = [], 0
    for col in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        hits = [i for i, row in enumerate(rows) if i != r and row[col]]
        for i in hits:
            rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        swaps.append(pr)
        r += 1
    return swaps


def _z2_entry(rng, density):
    """An entry of any parity: small, past one byte, or negative."""
    if rng.random() >= density:
        return rng.choice([0, 2, -2, 256, -256, 1 << 70])
    return rng.choice([1, 3, -1, -3, 255, 257, 1025, -255, (1 << 70) + 1])


@pytest.mark.parametrize("shape", ["tall", "wide", "square"])
def test_rref_z2_bitmask_kernel(shape):
    # shapes up to 80 x 80, so a column's field or a row passes 64 bits, with
    # entries outside [0, 256) (which bytes cannot pack) in about half the
    # systems; pivots, rows and OPS match the list reference
    rng = random.Random({"tall": 301, "wide": 302, "square": 303}[shape])
    biggest = 0
    for case in range(24):
        small, big = sorted(rng.randrange(0, 81) for _ in range(2))
        biggest = max(biggest, big)
        m, n = {"tall": (big, small), "wide": (small, big), "square": (big, big)}[shape]
        ncols = rng.randrange(0, n + 1)
        density = rng.choice([0.05, 0.3, 0.5])
        if case % 2:
            rows = [[_z2_entry(rng, density) for _ in range(n)] for _ in range(m)]
        else:
            rows = [[rng.randrange(0, 8) * (rng.random() < density) for _ in range(n)] for _ in range(m)]
        _check_rref(rows, 2, ncols)
        assert rank_mod_p(rows, 2) == len(_check_rref(rows, 2))
    assert biggest > 64


@pytest.mark.parametrize("m, n, ncols", [(0, 0, 0), (0, 0, 5), (3, 0, 0), (1, 70, 0), (70, 1, 1), (0, 0, 80)])
def test_rref_z2_bitmask_kernel_degenerate(m, n, ncols):
    # m = 0, n = 0 and ncols = 0, alone and together, with unpackable entries
    rows = [[-1 if (i + j) % 3 else 300 for j in range(n)] for i in range(m)]
    _check_rref(rows, 2, ncols)
    assert rank_mod_p(rows, 2) == len(reference_rref(rows, 2, n)[0])


@pytest.mark.parametrize("k", [0, 1, 70])
def test_head_bits_reads_rows_below_k(k):
    # rows 0..k-1 of a column's field, none at k = 0, whatever the bits at
    # and past row k hold
    rng = random.Random(k)
    for x in (0, (1 << (k + 5)) - 1, rng.getrandbits(k + 5), rng.getrandbits(k) | 1 << (k + 2)):
        assert list(_head_bits(x, k)) == [x >> i & 1 for i in range(k)]


@pytest.mark.parametrize("m", [0, 1, 9, 70])
def test_column_2_packs_entry_parities(m):
    # column j is the m-bit field at bit j*m, its bit i holding entry i mod
    # 2, entries outside [0, 256) included; nothing lies past the last field
    rng = random.Random(400 + m)
    for k in (0, 1, 3):
        cols = [[_z2_entry(rng, density) for _ in range(m)] for density in (0.0, 0.5, 1.0)[:k]]
        x = _pack_2(np.array(cols).reshape(k, m))
        assert x >> m * k == 0
        assert [list(_head_bits(x >> j * m, m)) for j in range(k)] == [[v & 1 for v in col] for col in cols]


def _int_array(rows, shape):
    """rows as a 2-D integer array, int64 unless an entry is too wide for it."""
    wide = any(abs(x) >= 2**62 for row in rows for x in row)
    return np.array(rows, dtype=object if wide else np.int64).reshape(shape)


@st.composite
def stage_bands(draw):
    """(p, e, bands): m >= 0 rows over e columns as (span, band) pairs.

    Spans may start at column 0, end at column e or be empty; entries may
    be negative or past one byte.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    e = draw(st.integers(0, 12))
    entries = st.one_of(st.integers(-3, 9), st.sampled_from([255, 256, 257, -256, 1 << 70]))
    bands = []
    for _ in range(draw(st.integers(0, 6))):
        a = draw(st.sampled_from([0, e, draw(st.integers(0, e))]))
        b = draw(st.sampled_from([e, a, draw(st.integers(a, e))]))
        bands.append(((a, b), tuple(draw(st.lists(entries, min_size=b - a, max_size=b - a)))))
    return p, e, bands


@settings(max_examples=300, deadline=None)
@given(stage_bands())
@example((2, 5, []))
@example((3, 5, []))
def test_stage_matrix_packs_bands_as_padded_rows(case):
    # a stage matrix built from the array of the padded bands holds what
    # the rows pack to: over Z_2, bit j*m + i of one int is entry j of row
    # i mod 2; over odd p, the rows themselves as lists
    p, e, bands = case
    rows = [[0] * a + list(band) + [0] * (e - b) for (a, b), band in bands]
    matrix = StageMatrix(_int_array(rows, (len(rows), e)), p)
    assert (matrix.p, matrix.e, matrix.m) == (p, e, len(rows))
    if p == 2:
        m = len(rows)
        assert matrix.data == sum((row[j] & 1) << (j * m + i) for i, row in enumerate(rows) for j in range(e))
    else:
        assert matrix.data == rows


@st.composite
def z2_stages(draw):
    """(e, bands, payload) of a Z_2 digit stage: m rows, up to 90 of them, over e columns.

    Shapes come from Hypothesis, entries from a seeded generator; they may
    be negative or past one byte.  Payload columns may be absent or all
    zero, and each band may be dense or sparse, so the stage may have
    dependent rows, row swaps and folds.
    """
    m = draw(st.integers(0, 90))
    e = draw(st.integers(0, 40))
    k = draw(st.integers(0, 3))
    zero_payload = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = rng.choice([0.05, 0.3, 0.5, 0.9])
    bands = []
    for _ in range(m):
        a = rng.choice([0, rng.randint(0, e)])
        b = rng.choice([e, rng.randint(a, e)])
        bands.append(((a, b), tuple(_z2_entry(rng, density) for _ in range(b - a))))
    payload = [[0 if zero_payload else _z2_entry(rng, density) for _ in range(m)] for _ in range(k)]
    return e, bands, payload


@settings(max_examples=300, deadline=None)
@given(z2_stages())
@example((0, [], []))
@example((5, [], [[]]))
@example((0, [((0, 0), ())] * 3, [[1, 0, 300]]))
@example((3, [((0, 3), (1, 1, 0)), ((0, 3), (-1, 257, 0))], []))
@example((3, [((0, 3), (0, 1, 0)), ((0, 3), (1, 0, 1))], [[0, 0]]))
def test_reduce_stage_z2_matches_list_reference(case):
    _check_z2_stage(case)


@pytest.mark.parametrize("feature", ["wide-swap", "fold", "late-fold", "readback"])
def test_reduce_stage_z2_cases_cover(feature):
    # the stages reach row swaps with fields past 64 bits, folds of the
    # first dependent row or of a later one, and full readbacks; the first
    # case found with each passes the same check
    case = find(
        z2_stages(),
        lambda case: feature in _check_z2_stage(case),
        settings=settings(
            max_examples=2000,
            deadline=None,
            database=None,
            derandomize=True,
            phases=[Phase.generate],
        ),
    )
    assert feature in _check_z2_stage(case)


def _check_z2_stage(case):
    """reduce_stage over Z_2 against the list reference on the same augmented rows; returns the features seen.

    The one-int elimination of a stage with its payload riding along must
    give the reference's pivots, free columns, fold or pivot rows' payload
    and free entries, and op count.
    """
    e, bands, payload = case
    features = set()
    rows = [
        [0] * a + list(band) + [0] * (e - b) + [col[i] for col in payload]
        for i, ((a, b), band) in enumerate(bands)
    ]
    pivots, reduced, ops = reference_rref(rows, 2, e)
    free = [c for c in range(e) if c not in pivots]
    before = OPS.count
    coeffs = _int_array([row[:e] for row in rows], (len(rows), e))
    got = reduce_stage(StageMatrix(coeffs, 2), _int_array(payload, (len(payload), len(rows))))
    assert (got.pivots, got.free, OPS.count - before) == (pivots, free, ops)
    if len(rows) > 64 and any(pr != k for k, pr in enumerate(reference_z2_swaps(rows, e))):
        features.add("wide-swap")
    idx = next((k for k in range(len(pivots), len(rows)) if any(reduced[k][e:])), None)
    if idx is None:
        top = reduced[: len(pivots)]
        assert got.fold is None
        assert list(map(list, got.pays)) == [[row[e + j] for row in top] for j in range(len(payload))]
        assert list(map(list, got.at_free)) == [[row[c] for row in top] for c in free]
        if pivots and free and payload:
            features.add("readback")
    else:
        assert got.fold == (idx, reduced[idx][e:]) and got.pays == got.at_free == []
        features.add("fold" if idx == len(pivots) else "late-fold")
    return features
