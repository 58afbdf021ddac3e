import functools
import random

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from convring import (
    InvalidReceived,
    RingContext,
    build_window_system,
    column_distance,
    list_decode,
    materialize_list,
    oracle_decode,
    project_values,
    sequential_decode,
    sliding_matrix,
    try_unique_decode,
)
from convring import decoder
from convring.cli import erase_stream, generate_code
from convring.codes import is_codeword_window
from convring.decoder import ErasurePattern, ParamSpace, _Branch, _fold
from convring.errors import CapExceeded
from convring.linsolve import OPS
from tests.conftest import random_kernel_code

Z4 = RingContext(2, 2)
Z8 = RingContext(2, 3)
Z9 = RingContext(3, 2)
Z25 = RingContext(5, 2)

W0 = [5, 5, 0, 6, 0]
W1 = [6, 6, 4, 3, 6]
W2 = [2, 1, 1, 2, 0]

RECEIVED = [
    [5, None, None, 6, None],
    [6, 6, 4, None, 6],
    [2, 1, None, None, None],
    [2, None, 4, 0, 0],
]


def as_set(windows):
    return frozenset(tuple(tuple(sym) for sym in w) for w in windows)


class TestWindowAssembly:
    def test_no_erasures_empty_system(self, kernel_code_z8):
        rx = [list(W0), list(W1), list(W2)]
        sysw = build_window_system(kernel_code_z8, rx, 0, 2)
        assert sysw.e == 0
        out = list_decode(sysw)
        assert out.kind == "unique"
        assert out.window == [W0, W1, W2]

    def test_single_erasure_extracts_column(self, kernel_code_z8):
        rx = [list(W0), list(W1), list(W2)]
        rx[0][1] = None
        sysw = build_window_system(kernel_code_z8, rx, 0, 0)
        assert sysw.columns == ((0, 1),)
        h0 = kernel_code_z8.parity_coeff(0)
        # original scaled coefficients are the erased column of the first block
        got = {row.h_row: row.orig_coeffs[0] for row in sysw.rows}
        for ri, val in got.items():
            assert val == h0.data[ri][1]

    def test_worked_window_structure(self, kernel_code_z8):
        sysw = build_window_system(kernel_code_z8, RECEIVED, 0, 2)
        assert sysw.e == 7
        assert sysw.columns == ((0, 1), (0, 2), (0, 4), (1, 3), (2, 2), (2, 3), (2, 4))
        # renormalized rows and right-hand sides, row by row
        assert [tuple(r.coeffs) for r in sysw.rows] == [
            (1, 1, 1, 0, 0, 0, 0),
            (0, 1, 1, 0, 0, 0, 0),
            (1, 0, 1, 0, 0, 0, 0),
            (2, 0, 0, 1, 0, 0, 0),
            (0, 0, 1, 0, 0, 0, 0),
            (0, 1, 0, 1, 0, 0, 0),
            (5, 7, 0, 0, 1, 1, 1),
            (0, 0, 1, 1, 1, 0, 1),
            (0, 0, 0, 1, 0, 1, 1),
        ]
        assert [r.rhs for r in sysw.rows] == [5, 0, 1, 5, 0, 1, 4, 0, 1]
        # the erasure pattern dictated one row's renormalization level
        assert [r.stratum for r in sysw.rows] == [0, 1, 2, 0, 2, 2, 0, 1, 2]

    def test_erasure_before_window_rejected(self, kernel_code_z8):
        rx = [list(W0), list(W1), list(W2)]
        rx[0][1] = None
        with pytest.raises(ValueError):
            build_window_system(kernel_code_z8, rx, 1, 1)

    def test_erasure_older_than_history_is_not_read(self, kernel_code_z8):
        rng = random.Random(3)
        code = kernel_code_z8
        known = code.encode([[rng.randrange(8) for _ in range(code.k)] for _ in range(5)])
        for t, c in [(3, 0), (3, 4), (4, 2)]:
            known[t][c] = None
        old = [list(sym) for sym in known]
        old[0][1] = None  # before i - nu = 1, outside the window's history
        a = list_decode(build_window_system(code, known, 3, 1))
        b = list_decode(build_window_system(code, old, 3, 1))
        assert (a.kind, a.list_size, a.window) == (b.kind, b.list_size, b.window)
        assert a.system.rows == b.system.rows
        assert materialize_list(a) == materialize_list(b)

    def test_all_erased_window_is_the_sliding_matrix(self):
        rng = random.Random(29)
        checked = 0
        for ctx in (Z4, Z8, Z9):
            for _ in range(6):
                n = rng.randint(2, 4)
                code = random_kernel_code(rng, ctx, n, [1] + [0] * (ctx.r - 1), rng.randint(0, 2))
                if code is None:
                    continue
                T = rng.randint(0, 3)
                sysw = build_window_system(code, [[None] * n for _ in range(T + 1)], 0, T)
                assert sysw.columns == tuple((t, c) for t in range(T + 1) for c in range(n))
                S = sliding_matrix(code, T)
                # rows with no coefficient at all carry no equation
                assert sysw.scaled_matrix().data == tuple(row for row in S.data if any(row))
                checked += 1
        assert checked >= 12

    def test_pattern_helper(self):
        pat = ErasurePattern.from_received(RECEIVED)
        assert pat.e == 8
        assert pat.times() == (0, 1, 2, 3)
        assert pat.by_time[0] == (0, (1, 2, 4))


class TestWorkedDecode:
    def test_full_run(self, kernel_code_z8):
        sysw = build_window_system(kernel_code_z8, RECEIVED, 0, 2)
        out = list_decode(sysw)
        assert out.kind == "list"
        assert [st.rank for st in out.stages] == [7, 5, 3]
        s0 = out.stages[0].solutions
        assert s0.size == 1 and s0.particular == (1, 0, 0, 1, 1, 0, 0)
        s1 = out.stages[1].solutions
        assert s1.size == 4
        assert set(s1.points()) == {
            (0, 0, 0, 1, 0, 1, 0),
            (0, 1, 1, 1, 1, 1, 0),
            (0, 1, 1, 1, 0, 1, 1),
            (0, 0, 0, 1, 1, 1, 1),
        }
        assert out.stages[2].solutions.size == 16
        assert out.list_size == 64
        windows, truncated = materialize_list(out)
        assert not truncated and len(windows) == 64
        assert [W0, W1, W2] in windows

    def test_not_unique(self, kernel_code_z8):
        sysw = build_window_system(kernel_code_z8, RECEIVED, 0, 2)
        assert try_unique_decode(sysw) is None

    def test_oracle_agreement(self, kernel_code_z8):
        sysw = build_window_system(kernel_code_z8, RECEIVED, 0, 2)
        out = list_decode(sysw)
        windows, _ = materialize_list(out)
        assert as_set(windows) == oracle_decode(kernel_code_z8, RECEIVED, 0, 2)

    def test_materialize_limit(self, kernel_code_z8):
        sysw = build_window_system(kernel_code_z8, RECEIVED, 0, 2)
        out = list_decode(sysw)
        windows, truncated = materialize_list(out, limit=10)
        assert truncated and len(windows) == 10

    def test_corrupt_live_coefficient_rejected(self, kernel_code_z8):
        # the all-zero assignment, the only member limit=1 yields, does not
        # see a live coefficient; the check over the column forms does
        out = list_decode(build_window_system(kernel_code_z8, RECEIVED, 0, 2))
        (branch,) = out.branches
        v = branch.space.live()[0]
        branch.forms[0][1 + v] = (branch.forms[0][1 + v] + 1) % 8
        with pytest.raises(AssertionError):
            materialize_list(out, limit=1)


class TestSequential:
    def test_erasure_free_passthrough(self, kernel_code_z8):
        rng = random.Random(1)
        u = [[rng.randrange(8) for _ in range(4)] for _ in range(3)]
        stream = kernel_code_z8.encode(u)
        res = sequential_decode(kernel_code_z8, stream, T=1)
        assert res.complete and res.decisions == []
        assert res.stream == stream

    def test_followup_single_erasure_recovered(self, kernel_code_z8):
        # after the window resolves to the sent symbols, the remaining
        # erasure is pinned by the later parity equations
        rx = [list(W0), list(W1), list(W2), [2, None, 4, 0, 0]]
        res = sequential_decode(kernel_code_z8, rx, T=2, terminated=False)
        assert res.complete
        assert res.decisions == [(3, "unique")]
        # independent check: scan the only unknown against the raw equations
        q = 8
        h = [kernel_code_z8.parity_coeff(m).data for m in range(3)]
        fits = []
        for cand in range(q):
            w3 = [2, cand, 4, 0, 0]
            window = [W1, W2, w3]
            ok = all(
                sum(
                    h[m][ri][c] * window[2 - m][c]
                    for m in range(3)
                    for c in range(5)
                )
                % q
                == 0
                for ri in range(3)
            )
            if ok:
                fits.append(cand)
        assert fits == [res.stream[3][1]]

    def test_isolated_erasures_unique(self):
        rng = random.Random(2)
        code = None
        while code is None or code.g_blocks is None:
            code = random_kernel_code(rng, Z4, 3, [2, 0], 1)
        if column_distance(code, 0) < 2:
            pytest.skip("sampled code cannot correct one erasure")
        u = [[rng.randrange(4) for _ in range(code.k)] for _ in range(6)]
        stream = code.encode(u)
        rx = [list(s) for s in stream]
        for t in range(0, len(rx), 3):
            rx[t][rng.randrange(3)] = None
        res = sequential_decode(code, rx, T=1)
        assert res.complete
        assert res.stream == stream

    def test_halt_policy_reports_list(self, kernel_code_z8):
        res = sequential_decode(kernel_code_z8, RECEIVED, T=2, terminated=False)
        assert res.halted_at == 0
        assert res.last_outcome is not None and res.last_outcome.list_size == 64

    def test_pick_first_continues(self, kernel_code_z8):
        res = sequential_decode(
            kernel_code_z8, RECEIVED, T=2, policy="first", terminated=False
        )
        assert all(x is not None for sym in res.stream[:3] for x in sym)

    def test_branch_policy_finds_consistent_completion(self, kernel_code_z8):
        res = sequential_decode(
            kernel_code_z8, RECEIVED, T=2, policy="branch", terminated=False
        )
        assert res.complete

    @pytest.mark.parametrize("policy", ["first", "branch"])
    def test_pick_near_terminated_end(self, policy):
        # the picked window reaches past the stream end, where a terminated
        # stream reads zero symbols that are not part of the stream
        code = generate_code(p=2, r=2, n=4, k_blocks=[1, 1], deg=1, seed=2)
        rx = [[None, None, 1, None], [None, 0, 2, 1], [2, None, 1, None], [None, None, None, 3]]
        res = sequential_decode(code, rx, T=2, policy=policy)
        assert res.complete and len(res.stream) == 4
        assert is_codeword_window(code, res.stream)


class TestInvalidity:
    def test_perturbed_known_symbol(self, kernel_code_z8):
        rng = random.Random(3)
        hits = 0
        for _ in range(20):
            rx = [list(s) for s in RECEIVED]
            t = rng.randrange(0, 3)
            cands = [c for c in range(5) if rx[t][c] is not None]
            c = rng.choice(cands)
            rx[t][c] = (rx[t][c] + rng.randrange(1, 8)) % 8
            out = list_decode(build_window_system(kernel_code_z8, rx, 0, 2))
            oset = oracle_decode(kernel_code_z8, rx, 0, 2)
            if out.kind == "invalid":
                hits += 1
                assert not oset
                # unique decoding either reports the inconsistency or bails
                # to the (empty) list when the projected matrix is deficient
                try:
                    got = try_unique_decode(build_window_system(kernel_code_z8, rx, 0, 2))
                except InvalidReceived:
                    got = None
                assert got is None
            else:
                windows, _ = materialize_list(out)
                assert as_set(windows) == oset
        assert hits > 0

    def test_invalid_with_no_erasures(self, kernel_code_z8):
        rx = [list(W0), list(W1), list(W2)]
        rx[1][0] = (rx[1][0] + 4) % 8
        out = list_decode(build_window_system(kernel_code_z8, rx, 0, 2))
        assert out.kind == "invalid"


class TestLawsRandomized:
    @pytest.mark.parametrize("ring", [Z4, Z8, Z9])
    def test_oracle_equivalence_and_size_law(self, ring):
        rng = random.Random(ring.q * 31)
        trials = 0
        while trials < 40:
            n = rng.randrange(2, 6)
            lsizes = [rng.randrange(1, max(2, n - 1))] + [
                rng.randrange(0, 2) for _ in range(ring.r - 1)
            ]
            if sum(lsizes) >= n:
                continue
            code = random_kernel_code(rng, ring, n, lsizes, rng.randrange(0, 3))
            if code is None or code.g_blocks is None or code.nu > 2:
                continue
            u = [[rng.randrange(ring.q) for _ in range(code.k)] for _ in range(3)]
            stream = code.encode(u)
            T = rng.randrange(0, 3)
            i = rng.randrange(0, max(1, len(stream) - T))
            rx = [list(s) for s in stream]
            spots = [
                (t, c)
                for t in range(i, min(i + T + 1, len(stream)))
                for c in range(n)
            ]
            rng.shuffle(spots)
            ne = rng.randrange(1, min(len(spots), 8) + 1)
            while ring.q**ne > 1 << 16:
                ne -= 1
            for t, c in spots[:ne]:
                rx[t][c] = None
            sysw = build_window_system(code, rx, i, T)
            out = list_decode(sysw)
            windows, truncated = materialize_list(out)
            assert not truncated
            assert as_set(windows) == oracle_decode(code, rx, i, T)
            # transmitted window always present for erasure-only corruption
            sent = [stream[t] for t in range(i, i + T + 1) if t < len(stream)]
            while len(sent) < T + 1:
                sent.append([0] * n)
            assert tuple(tuple(s) for s in sent) in as_set(windows)
            # size law when no constraint fired
            no_events = all(not br.space.events for br in out.branches)
            if no_events:
                p = ring.p
                expect = 1
                for st in out.stages:
                    expect *= p ** (sysw.e - st.rank)
                assert out.list_size == expect
            trials += 1

    def test_projection_uniqueness_matches_mccoy(self):
        rng = random.Random(77)
        seen_unique = 0
        for _ in range(60):
            code = random_kernel_code(rng, Z8, 4, [2, rng.randrange(0, 2), 0], 1)
            if code is None or code.g_blocks is None:
                continue
            u = [[rng.randrange(8) for _ in range(code.k)] for _ in range(3)]
            stream = code.encode(u)
            rx = [list(s) for s in stream]
            t = rng.randrange(0, 2)
            rx[t][rng.randrange(4)] = None
            sysw = build_window_system(code, rx, t, 1)
            unique = try_unique_decode(sysw)
            out = list_decode(sysw)
            if unique is not None:
                seen_unique += 1
                assert out.kind == "unique"
                assert out.window == unique
            else:
                assert out.list_size > 1
        assert seen_unique > 0


class TestParamMachinery:
    def test_folds_match_oracle(self):
        # rank-deficient stages over Z_8, Z_16 and Z_27 leave constraints on
        # earlier parameters; every fold window must still list exactly the
        # oracle's set, one member per live assignment
        folded = 0
        for ctx, emax in ((Z8, 5), (RingContext(2, 4), 4), (RingContext(3, 3), 3)):
            rng = random.Random(ctx.q)
            found = tries = 0
            while found < 8 and tries < 300:
                n = rng.randint(3, 5)
                lsizes = [rng.randint(1, n - 1)] + [rng.randint(0, 1) for _ in range(ctx.r - 1)]
                if sum(lsizes) >= n:
                    continue
                code = random_kernel_code(rng, ctx, n, lsizes, rng.randint(1, 2))
                if code is None or code.g_blocks is None:
                    continue
                tries += 1
                T = rng.randint(1, 3)
                sent = code.encode([[rng.randrange(ctx.q) for _ in range(code.k)] for _ in range(T + 1)])
                rx = [list(s) for s in sent]
                spots = [(t, c) for t in range(T + 1) for c in range(n)]
                rng.shuffle(spots)
                for t, c in spots[: rng.randint(2, emax)]:
                    rx[t][c] = None
                sysw = build_window_system(code, rx, 0, T)
                out = list_decode(sysw)
                (branch,) = out.branches
                if not branch.space.events:
                    continue
                found += 1
                assert out.list_size == ctx.p ** len(branch.space.live())
                windows, truncated = materialize_list(out)
                oset = oracle_decode(code, rx, 0, T)
                assert not truncated and len(windows) == out.list_size
                assert as_set(windows) == oset
                assert all(sysw.window_equations_hold(w) for w in windows)
                for col, (t, c) in enumerate(sysw.columns):
                    values = {w[t][c] for w in oset}
                    got = project_values(out, [col])
                    assert got == ({col: values.pop()} if len(values) == 1 else None)
            folded += found
        assert folded >= 20

    def test_fold_constant_contradiction(self):
        # dense forms [const, c_0, ...]: a nonzero constant with no live
        # coefficient is a contradiction, the zero form folds nothing
        br = _Branch(ParamSpace(2), 2)
        br.space.new_param()
        br.forms = [[1, 1], [0, 1]]
        assert not _fold(br, [1, 0], 8)
        assert _fold(br, [0, 0], 8)
        assert not br.space.events
        assert br.forms == [[1, 1], [0, 1]]

    def test_fold_substitutes_newest_parameter(self):
        # phi = 1 + c0 + c1 mod 2 folds c1 := -(1 + c0) = 7 + 7 c0 mod 8
        br = _Branch(ParamSpace(2), 2)
        br.space.new_param()
        br.space.new_param()
        br.forms = [[1, 2, 1], [0, 0, 4]]
        assert _fold(br, [1, 1, 1], 8)
        assert br.space.events == [(1, [7, 7, 0])]
        assert br.space.live() == [0]
        assert br.forms == [[0, 1, 0], [4, 4, 0]]

    def test_assignments_enumeration_order(self):
        space = ParamSpace(3)
        v0, v1 = space.new_param(), space.new_param()
        combos = [(vals[v0], vals[v1]) for vals in space.assignments()]
        assert combos == [(x, y) for x in range(3) for y in range(3)]


# ---------------------------------------------------------------------------
# per-pattern window assembly


@functools.cache
def _store_code(ring: int, k: int):
    """A fixed random kernel code over Z_4, Z_8, Z_9 or Z_25: n <= 5, degree <= 2."""
    ctx = (Z4, Z8, Z9, Z25)[ring]
    rng = random.Random(1000 * ctx.q + k)
    while True:
        n = rng.randint(2, 5)
        lsizes = [rng.randint(1, n - 1)] + [rng.randint(0, 1) for _ in range(ctx.r - 1)]
        code = random_kernel_code(rng, ctx, n, lsizes, rng.randint(0, 2))
        if code is not None and code.g_blocks is not None:
            return code


@st.composite
def shared_pattern_windows(draw):
    """Windows of one code and delay T that share a relative erasure pattern.

    Each holds another codeword stream and start i, and may have one known
    symbol it reads corrupted.  Terminated windows may reach past the
    stream end; unterminated ones are cut to Tw = min(T, L - 1 - i).
    Returns (code, T, terminated, [(received, i, Tw), ...]).
    """
    code = _store_code(draw(st.integers(0, 3)), draw(st.integers(0, 2)))
    n, q = code.n, code.ctx.q
    T = draw(st.integers(0, 3))
    terminated = draw(st.booleans())
    erased = draw(st.sets(st.integers(0, (T + 1) * n - 1), max_size=6))
    top = max(erased, default=0) // n  # latest erased time, relative to i
    windows = []
    for _ in range(draw(st.integers(2, 4))):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        steps = draw(st.integers(4, 7))
        rx = code.encode([[rng.randrange(q) for _ in range(code.k)] for _ in range(steps)])
        L = len(rx)
        i = draw(st.integers(0, L - 1 - top))
        Tw = T if terminated else min(T, L - 1 - i)
        for f in erased:
            rx[i + f // n][f % n] = None
        if draw(st.booleans()):
            known = [
                (t, c)
                for t in range(max(0, i - code.nu), min(L, i + Tw + 1))
                for c in range(n)
                if rx[t][c] is not None
            ]
            if known:
                t, c = draw(st.sampled_from(known))
                rx[t][c] = (rx[t][c] + draw(st.integers(1, q - 1))) % q
        windows.append((rx, i, Tw))
    return code, T, terminated, windows


def _check_pattern_store(case):
    """One shared store gives every window exactly its fresh build; the features seen."""
    code, T, terminated, windows = case
    store = {}
    features = set()
    for rx, i, Tw in windows:
        shared = build_window_system(code, rx, i, Tw, terminated=terminated, store=store)
        fresh = build_window_system(code, rx, i, Tw, terminated=terminated)
        assert shared.columns == fresh.columns
        assert shared.rows == fresh.rows  # every WindowRow field
        assert shared.table == fresh.table
        assert shared.invalid_witness == fresh.invalid_witness
        if fresh.invalid_witness is not None:
            features.add(fresh.invalid_witness[0])
        if terminated and i + Tw >= len(rx):
            features.add("past-end")
        if Tw < T:
            features.add("tail")
    # windows of one delay share one stored pattern, whatever their start
    assert len(store) == len({Tw for _, _, Tw in windows})
    return features


@settings(max_examples=150, deadline=None)
@given(shared_pattern_windows())
def test_pattern_store_matches_fresh_builds(case):
    _check_pattern_store(case)


@pytest.mark.parametrize("feature", ["inconsistent-known", "divisibility", "past-end", "tail"])
def test_pattern_store_cases_cover(feature):
    # the strategy reaches each kind of window, and the first case found
    # with it passes the same check
    case = find(
        shared_pattern_windows(),
        lambda case: feature in _check_pattern_store(case),
        settings=settings(
            max_examples=2000,
            deadline=None,
            database=None,
            derandomize=True,
            phases=[Phase.generate],
        ),
    )
    assert feature in _check_pattern_store(case)


def test_all_erased_z4_window_is_symbolic():
    # one level-0 parity row of degree 1 over Z_4, T = 6, all 28 entries
    # erased: seven independent rows leave 4^21 = 2^42 windows, counted and
    # sampled without enumerating them
    rng = random.Random(5)
    code = None
    while code is None or code.nu != 1:
        code = random_kernel_code(rng, Z4, 4, [1, 0], 1)
    sysw = build_window_system(code, [[None] * 4 for _ in range(7)], 0, 6)
    assert sysw.e == 28
    out = list_decode(sysw)
    assert out.kind == "list" and out.list_size == 2**42
    windows, truncated = materialize_list(out, limit=1)
    assert truncated and len(windows) == 1
    assert sysw.window_equations_hold(windows[0])
    assert project_values(out, [0]) is None
    with pytest.raises(CapExceeded):
        materialize_list(out)


@pytest.mark.parametrize(
    "fixture, received, T, ops, kind, size",
    [
        ("kernel_code_z8", RECEIVED, 2, 146, "list", 64),
        ("kernel_code_z9", [[None, 0, None], [0, None, 0], [0, 0, 0]], 1, 17, "unique", 1),
        ("kernel_code_z9", [[None, None, None], [None, None, 0], [0, 0, 0]], 1, 40, "list", 9),
    ],
)
def test_pinned_op_counts(request, fixture, received, T, ops, kind, size):
    # Z_p multiply-accumulate counts of the digit stages; a faster
    # elimination must leave them unchanged
    code = request.getfixturevalue(fixture)
    sysw = build_window_system(code, received, 0, T)
    before = OPS.count
    out = list_decode(sysw)
    assert OPS.count - before == ops
    assert (out.kind, out.list_size) == (kind, size)


def test_unterminated_stream_bounds(kernel_code_z8):
    rx = [list(W0), list(W1)]
    with pytest.raises(ValueError):
        build_window_system(kernel_code_z8, rx, 0, 2, terminated=False)


def test_project_values_on_list(kernel_code_z8):
    sysw = build_window_system(kernel_code_z8, RECEIVED, 0, 2)
    out = list_decode(sysw)
    # the first window column (time 0, coord 1) varies across the list
    assert project_values(out, [0]) is None or isinstance(project_values(out, [0]), dict)
    windows, _ = materialize_list(out)
    col0 = {w[0][1] for w in windows}
    got = project_values(out, [0])
    if len(col0) == 1:
        assert got == {0: col0.pop()}
    else:
        assert got is None


# ---------------------------------------------------------------------------
# per-pattern plans in sequential decoding

PLAN_CODES = {
    # the Z_4 code of the invalid-after-guess repro, the benchmark's Z_9
    # stream code, and codes over Z_8 (nu = 7) and Z_25
    "z4": dict(p=2, r=2, n=4, k_blocks=[1, 1], deg=1, seed=2),
    "z9": dict(p=3, r=2, n=4, k_blocks=[1, 0], deg=1, seed=7),
    "z8": dict(p=2, r=3, n=5, k_blocks=[1, 1, 0], deg=1, seed=3),
    "z25": dict(p=5, r=2, n=4, k_blocks=[1, 0], deg=1, seed=4),
}


def _plan_stream(code, seed, length, eps, corrupt=False):
    """A seeded received stream, with one known symbol off by one if corrupt.

    Erasures are iid at rate eps; eps None erases coordinates 1 and 3 of
    every symbol instead, which on the Z_4 code makes every window a list.
    """
    rng = random.Random(seed)
    q = code.ctx.q
    sent = code.encode([[rng.randrange(q) for _ in range(code.k)] for _ in range(length)])
    if eps is None:
        rx = [[None if c in (1, 3) else x for c, x in enumerate(sym)] for sym in sent]
    else:
        rx, _ = erase_stream(sent, "iid", seed, eps)
    if corrupt:
        known = [(t, c) for t, sym in enumerate(rx) for c, x in enumerate(sym) if x is not None]
        t, c = rng.choice(known)
        rx[t][c] = (rx[t][c] + 1) % q
    return rx


def _outcome_key(out):
    forms = [g for br in out.branches for g in br.forms]
    return (out.kind, out.list_size, out.invalid_witness, out.window, out.stages, forms)


def _reference_sequential(code, received, T, policy, terminated):
    """sequential_decode for halt and first, with list_decode on every window."""
    work = [list(sym) for sym in received]
    decisions, picked, start = [], None, 0
    while True:
        i = next((t for t in range(start, len(work)) if None in work[t]), None)
        if i is None:
            return work, decisions, None, None
        Tw = T if terminated else min(T, len(work) - 1 - i)
        out = list_decode(build_window_system(code, work, i, Tw, terminated=terminated))
        if out.kind == "invalid":
            decisions.append((i, "invalid") if picked is None else (i, "invalid-after-guess", picked))
            return work, decisions, i, out
        columns = out.system.columns
        got = project_values(out, [k for k, (t, _) in enumerate(columns) if t == i])
        if got is not None:
            for k, x in got.items():
                t, c = columns[k]
                work[t][c] = x
            decisions.append((i, "unique"))
        elif policy == "halt":
            decisions.append((i, "list", out.list_size))
            return work, decisions, i, out
        else:
            windows, _ = materialize_list(out, limit=1)
            work[i : i + Tw + 1] = [list(sym) for sym in windows[0]][: len(work) - i]
            decisions.append((i, "picked-first", out.list_size))
            picked = i
        start = i + 1


class TestPlanReplay:
    @pytest.mark.parametrize("name", sorted(PLAN_CODES))
    def test_replays_equal_list_decode(self, name, monkeypatch):
        code = generate_code(**PLAN_CODES[name])
        replay = decoder._replay
        replays = []

        def checked(plan, sysw):
            out = replay(plan, sysw)
            if out is not None:
                replays.append(out.kind)
                assert _outcome_key(out) == _outcome_key(list_decode(sysw))
            return out

        monkeypatch.setattr(decoder, "_replay", checked)
        streams = [_plan_stream(code, s, 60 + 20 * s, 0.15, corrupt=s == 3) for s in range(4)]
        for rx in [*streams, _plan_stream(code, 4, 30, None)]:
            for T in (1, 2, 3):
                for policy in ("halt", "first"):
                    for terminated in (True, False):
                        res = sequential_decode(code, rx, T, policy=policy, terminated=terminated)
                        ref = _reference_sequential(code, rx, T, policy, terminated)
                        assert (res.stream, res.decisions, res.halted_at) == ref[:3]
                        last = ref[3]
                        assert (res.last_outcome is None) == (last is None)
                        if last is not None:
                            assert _outcome_key(res.last_outcome) == _outcome_key(last)
        assert len(replays) > 50 and "unique" in replays
        if name == "z4":
            assert "list" in replays

    def test_store_is_per_call_and_saves_ops(self):
        code = generate_code(**PLAN_CODES["z9"])
        rx = _plan_stream(code, 1, 400, 0.10)
        deltas = []
        for _ in range(2):
            before = OPS.count
            res = sequential_decode(code, rx, 2)
            deltas.append(OPS.count - before)
        before = OPS.count
        work, decisions, _, _ = _reference_sequential(code, rx, 2, "halt", True)
        reference = OPS.count - before
        assert (res.stream, res.decisions) == (work, decisions)
        assert deltas[0] == deltas[1] < reference

    @pytest.mark.parametrize("name, eps", [("z9", 0.10), ("z4", None)])
    def test_corrupted_plan_raises(self, name, eps, monkeypatch):
        # one transform entry of every plan is off by one; the row check of
        # the replayed forms must stop the decode before it commits
        code = generate_code(**PLAN_CODES[name])
        rx = _plan_stream(code, 1, 400, eps)
        compile_ = decoder._compile

        def corrupted(sysw):
            out, plan = compile_(sysw)
            if plan is not None:
                transform = plan.stages[0][1]
                transform[0][0] = (transform[0][0] + 1) % code.ctx.p
            return out, plan

        monkeypatch.setattr(decoder, "_compile", corrupted)
        with pytest.raises(AssertionError, match="violates the parity equations"):
            sequential_decode(code, rx, 2)
