import functools
import itertools
import random
import time
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from convring import (
    ConvCode,
    RingContext,
    build_window_system,
    column_distance,
    list_decode,
    materialize_list,
    oracle_decode,
    project_values,
    sequential_decode,
    sliding_matrix,
)
from convring import decoder
from convring.cli import erase_stream, generate_code
from convring.codes import is_codeword_window
from convring.decoder import ParamSpace, _Branch, _fold
from convring.errors import CapExceeded, ConvringError
from convring.intsolve import solve_mod
from convring.linsolve import OPS, rank_mod_p, rref_mod_p
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


def _assembled(rx, sysw, values):
    """The window of sysw filled with values, read from rx entry by entry, zero past its end."""
    q, filled = sysw.code.ctx.q, dict(zip(sysw.columns, values))
    return [
        [filled[t, c] if (t, c) in filled else rx[t][c] % q if t < len(rx) else 0 for c in range(sysw.code.n)]
        for t in range(sysw.i, sysw.i + sysw.T + 1)
    ]


def as_set(windows):
    return frozenset(tuple(tuple(sym) for sym in w) for w in windows)


def full_column_rank_mod_p(sysw):
    """The mod-p criterion of unique decoding: the raw rows mod p have full column rank."""
    return rank_mod_p(sysw.pattern.origs.tolist(), sysw.code.ctx.p) == sysw.e


def equations(sysw):
    """What sysw's equations are: the pattern's moduli, nonzero rows, both matrices and the raw right-hand sides."""
    pattern = sysw.pattern
    return pattern.moduli, pattern.nonzero, pattern.coeffs.tolist(), pattern.origs.tolist(), sysw.row_rhs.tolist()


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
        assert sysw.pattern.origs.shape[1] == 1
        # T = 0: equation k is parity row k
        got = {ri: orig for (ri, _), (orig,) in zip(sysw.pattern.nonzero, sysw.pattern.origs.tolist())}
        for ri, val in got.items():
            assert val == h0.data[ri][1]

    def test_worked_window_structure(self, kernel_code_z8):
        sysw = build_window_system(kernel_code_z8, RECEIVED, 0, 2)
        assert sysw.e == 7
        assert sysw.columns == ((0, 1), (0, 2), (0, 4), (1, 3), (2, 2), (2, 3), (2, 4))
        # renormalized rows and right-hand sides, row by row
        pattern = sysw.pattern
        assert [tuple(row) for row in pattern.coeffs.tolist()] == [
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
        assert (sysw.row_rhs // pattern.scales).tolist() == [5, 0, 1, 5, 0, 1, 4, 0, 1]
        # the erasure pattern dictated one row's renormalization level
        assert [kernel_code_z8.ctx.val(pv) for _, pv in pattern.nonzero] == [0, 1, 2, 0, 2, 2, 0, 1, 2]

    def test_system_reads_the_stream_in_place(self, kernel_code_z8):
        # the system keeps the stream it was built from, copies none of it,
        # and derives the window's known symbols mod q on first read
        rx = [[x if x is None else x + 8 * (t - 2) for x in sym] for t, sym in enumerate(RECEIVED)]
        sysw = build_window_system(kernel_code_z8, rx, 0, 2)
        assert sysw.received is rx and "symbols" not in vars(sysw)
        values = list(range(sysw.e))
        assert sysw.assemble(values) == _assembled(rx, sysw, values)
        assert sysw.symbols == [[x if x is None else x % 8 for x in sym] for sym in rx[:3]]
        # a terminated window past the stream's end reads zero symbols
        tail = build_window_system(kernel_code_z8, [W0, W1, W2, RECEIVED[3]], 3, 2)
        assert tail.symbols == [RECEIVED[3]] + [[0] * 5] * 2

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
        assert equations(a.system) == equations(b.system)
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
                raw = (sysw.pattern.origs % ctx.q).tolist()
                assert raw == [list(row) for row in S.data if any(row)]
                checked += 1
        assert checked >= 12


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
        assert not full_column_rank_mod_p(sysw)
        assert list_decode(sysw).kind == "list"

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

    def test_materialize_limit_zero(self, kernel_code_z8, kernel_code_z9):
        # limit 0 gives no windows, truncated exactly when the list has
        # members, unique ones too; a negative limit is an error
        listed = list_decode(build_window_system(kernel_code_z8, RECEIVED, 0, 2))
        assert materialize_list(listed, limit=0) == ([], True)
        rx = [[None, 0, None], [0, None, 0], [0, 0, 0]]
        unique = list_decode(build_window_system(kernel_code_z9, rx, 0, 1))
        assert unique.kind == "unique"
        assert materialize_list(unique, limit=0) == ([], True)
        bad = [list(W0), list(W1), list(W2)]
        bad[1][0] = (bad[1][0] + 4) % 8
        invalid = list_decode(build_window_system(kernel_code_z8, bad, 0, 2))
        assert invalid.kind == "invalid"
        assert materialize_list(invalid, limit=0) == ([], False)
        for out in (listed, unique, invalid):
            with pytest.raises(ValueError):
                materialize_list(out, limit=-1)

    @settings(max_examples=200, deadline=None)
    @given(
        limit=st.one_of(
            st.integers(-3, 70),
            # p^k - 1, p^k and p^k + 1 for p = 2 (the listed window) and 3
            st.sampled_from(sorted({p**k + d for p in (2, 3) for k in range(7) for d in (-1, 0, 1)})),
            st.integers(-3, 70).map(np.int64),
            st.integers(-3, 70).map(np.int8),
            st.integers(0, 70).map(np.uint16),
            st.booleans(),
            st.booleans().map(np.bool_),
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(-3, 70).map(float),
            st.text(max_size=3),
            st.integers(-3, 70).map(str),
        )
    )
    def test_materialize_limit_fuzz(self, kernel_code_z8, kernel_code_z9, limit):
        # every limit returns or raises ValueError: an integer (numpy ones
        # too, bools not) that is not negative returns the first limit
        # members, anything else raises
        listed = list_decode(build_window_system(kernel_code_z8, RECEIVED, 0, 2))
        unique = list_decode(build_window_system(kernel_code_z9, [[None, 0, None], [0, None, 0], [0, 0, 0]], 0, 1))
        bad = [list(W0), list(W1), list(W2)]
        bad[1][0] = (bad[1][0] + 4) % 8
        invalid = list_decode(build_window_system(kernel_code_z8, bad, 0, 2))
        assert (listed.kind, listed.list_size, unique.kind, invalid.kind) == ("list", 64, "unique", "invalid")
        if isinstance(limit, bool) or not isinstance(limit, (int, np.integer)) or limit < 0:
            for out in (listed, unique, invalid):
                with pytest.raises(ValueError):
                    materialize_list(out, limit)
            return
        n = int(limit)
        full, _ = materialize_list(listed)
        assert materialize_list(listed, limit) == (full[:n], n < 64)
        assert materialize_list(unique, limit) == (([unique.window], False) if n else ([], True))
        assert materialize_list(invalid, limit) == ([], False)

    def test_corrupt_live_coefficient_rejected(self, kernel_code_z8):
        # the all-zero assignment, the only member limit=1 yields, does not
        # see a live coefficient; the check over the column forms does, for
        # the one constant window and for a block of members alike
        out = list_decode(build_window_system(kernel_code_z8, RECEIVED, 0, 2))
        (branch,) = out.branches
        v = branch.space.live()[0]
        branch.cols[1 + v][0] = (branch.cols[1 + v][0] + 1) % 8
        for limit in (1, 2, 16, None):
            with pytest.raises(AssertionError, match="violates the parity equations"):
                materialize_list(out, limit=limit)


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

    def test_branch_budget_zero_tries_no_candidate(self, kernel_code_z8, monkeypatch):
        # with no budget the branch policy tries nothing and reports the list
        monkeypatch.setattr(decoder, "_BRANCH_BUDGET", 0)
        res = sequential_decode(kernel_code_z8, RECEIVED, 2, policy="branch", terminated=False)
        assert res.decisions == [(0, "list", 64)] and res.halted_at == 0
        # the budget is a module constant, not a keyword
        with pytest.raises(TypeError):
            sequential_decode(kernel_code_z8, RECEIVED, 2, policy="branch", branch_budget=0)

    @pytest.mark.parametrize("policy", ["halt", "branch"])
    def test_halted_outcome_reads_the_stream_as_returned(self, kernel_code_z8, policy, monkeypatch):
        # a halted outcome derives its window symbols and history before it
        # is returned, so an edit to res.stream reaches neither its listed
        # windows nor their check (unmended, the windows carried the edit
        # and failed window_equations_hold); the second stream halts at
        # time 2, so its history is edited too
        monkeypatch.setattr(decoder, "_BRANCH_BUDGET", 0)
        code, rng = kernel_code_z8, random.Random(0)
        later = code.encode([[rng.randrange(8) for _ in range(code.k)] for _ in range(6)])
        for t in (2, 3, 4):
            for c in range(5):
                if rng.random() < 0.6:
                    later[t][c] = None
        cases = [
            (RECEIVED, [(0, "list", 64)], [(1, 0)]),
            (later, [(2, "list", 32)], [(1, 0), (3, 2)]),
        ]
        for received, decisions, edits in cases:
            res = sequential_decode(code, received, 2, policy=policy, terminated=False)
            assert res.decisions == decisions
            i, returned = res.halted_at, [list(sym) for sym in res.stream]
            for t, c in edits:
                assert res.stream[t][c] is not None
                res.stream[t][c] = (res.stream[t][c] + 1) % 8
            windows, _ = materialize_list(res.last_outcome, limit=4)
            assert len(windows) == 4
            for window in windows:
                assert res.last_outcome.system.window_equations_hold(window)
                for sym, got in zip(returned[i:], window):
                    assert all(x is None or x == y for x, y in zip(sym, got))

    @pytest.mark.parametrize("policy", ["first", "branch"])
    def test_pick_near_terminated_end(self, policy):
        # the picked window reaches past the stream end, where a terminated
        # stream reads zero symbols that are not part of the stream
        code = generate_code(p=2, r=2, n=4, k_blocks=[1, 1], deg=1, seed=2)
        rx = [[None, None, 1, None], [None, 0, 2, 1], [2, None, 1, None], [None, None, None, 3]]
        res = sequential_decode(code, rx, T=2, policy=policy)
        assert res.complete and len(res.stream) == 4
        assert is_codeword_window(code, res.stream)


class TestReceivedEntryTypes:
    # a known entry that is not an integer raises ValueError naming its time;
    # taken mod q unchecked, the float and the bool would read as 1 and the
    # string would raise TypeError
    BAD = {"float": 1 + 2**-40, "bool": True, "str": "1"}

    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
    def test_build_window_system_rejects(self, kernel_code_z8, bad):
        rx = [list(sym) for sym in RECEIVED]
        rx[2][1] = bad  # a known 1 at time 2
        with pytest.raises(ValueError, match="symbol at time 2 has a non-integer entry"):
            build_window_system(kernel_code_z8, rx, 0, 2)
        rx[2][1] = 1
        assert list_decode(build_window_system(kernel_code_z8, rx, 0, 2)).kind == "list"

    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
    @pytest.mark.parametrize("policy", ["halt", "first"])
    def test_sequential_decode_rejects(self, bad, policy):
        # unchecked, the float would decode as unique and come back in the
        # stream
        code = generate_code(**PLAN_CODES["z9"])
        rx = _plan_stream(code, 2, 40, 0.10)
        t, c = max((t, c) for t, sym in enumerate(rx) for c, x in enumerate(sym) if x == 1)
        assert sequential_decode(code, rx, 2, policy=policy).complete
        rx[t][c] = bad
        with pytest.raises(ValueError, match=f"symbol at time {t} has a non-integer entry"):
            sequential_decode(code, rx, 2, policy=policy)

    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
    @pytest.mark.parametrize("erased", [(8, 1), None], ids=["erasure-at-8", "no-erasure"])
    def test_sequential_decode_rejects_unread_symbols(self, bad, erased):
        # no window reads time 0, before the first window's history or in a
        # stream with no erasure; unchecked, the entry came back in the
        # stream (the float as 5 + 2^-40 beside [(8, "unique")])
        code = generate_code(**PLAN_CODES["z9"])
        rng = random.Random(4)
        rx = code.encode([[rng.randrange(9) for _ in range(code.k)] for _ in range(10)])
        if erased is not None:
            assert erased[0] - code.nu > 0
            rx[erased[0]][erased[1]] = None
        assert sequential_decode(code, rx, 2).complete
        rx[0][0] = bad
        with pytest.raises(ValueError, match="symbol at time 0 has a non-integer entry"):
            sequential_decode(code, rx, 2)

    def test_integer_types_accepted(self):
        # numpy integers and int subclasses are integers
        code = generate_code(**PLAN_CODES["z9"])
        rx = _plan_stream(code, 2, 40, 0.10)
        want = sequential_decode(code, rx, 2)
        for kind in (np.int64, type("Residue", (int,), {})):
            typed = [[x if x is None else kind(x) for x in sym] for sym in rx]
            got = sequential_decode(code, typed, 2)
            assert (got.stream, got.decisions) == (want.stream, want.decisions)


@functools.cache
def _fuzz_code(name):
    return generate_code(**PLAN_CODES[name])


# known entries a caller may pass: residues, negative and huge integers,
# numpy integers of several widths, and entries that are not integers
_HOSTILE_ENTRIES = st.one_of(
    st.integers(-40, 40),
    st.sampled_from([10**30, -(10**30), 2**63, -(2**63) - 1, 2**64 + 1]),
    st.builds(lambda x, kind: kind(x), st.integers(0, 100), st.sampled_from([np.int8, np.int32, np.int64, np.uint8])),
    st.sampled_from([1.5, 2.0, "3", True, np.float64(1.0), np.bool_(True)]),
)
# starts and delays that are not integers
_NOT_INTEGERS = st.sampled_from([1.0, 2.5, float("inf"), "1", True, False, np.float64(2.0), np.bool_(False), None])


def _is_integer(x):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@st.composite
def entry_point_cases(draw):
    """(code, received, i, T, terminated, policy) for the decoding entry points, hostile inputs included.

    The stream is a codeword of 0..10 symbols with iid erasures, then up to
    three edits: an entry replaced by a hostile one, or a symbol cut short,
    lengthened or emptied.  i and T run past both ends of the stream, as
    Python or numpy integers, or are not integers at all; a terminated
    window may end up to 10^4 times past the stream's end, and an
    unterminated one far past it.
    """
    code = _fuzz_code(draw(st.sampled_from(["z4", "z9"])))
    q = code.ctx.q
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.integers(0, 10))
    sent = code.encode([[rng.randrange(q) for _ in range(code.k)] for _ in range(length)]) if length else []
    eps = draw(st.sampled_from([0.0, 0.2, 0.5]))
    rx = [[None if rng.random() < eps else x for x in sym] for sym in sent]
    for _ in range(draw(st.integers(0, 3)) if rx else 0):
        t = draw(st.integers(0, len(rx) - 1))
        kind = draw(st.sampled_from(["entry", "short", "long", "empty"]))
        if kind == "entry" and rx[t]:
            rx[t][draw(st.integers(0, len(rx[t]) - 1))] = draw(_HOSTILE_ENTRIES)
        elif kind != "entry":
            rx[t] = {"short": rx[t][:-1], "long": rx[t] + [0], "empty": []}[kind]
    terminated = draw(st.booleans())
    i = draw(st.one_of(st.integers(-3, len(rx) + 3), st.sampled_from([10**18, np.int64(1)]), _NOT_INTEGERS))
    # a terminated window's right-hand sides span T + 1 times, but its
    # rows stop at the erasure reach, so T may run far past the stream
    T = draw(st.one_of(st.integers(-2, len(rx) + 3), st.integers(0, 10**4), st.just(np.int64(2)), _NOT_INTEGERS))
    if not terminated and draw(st.booleans()):
        T = 10**18
    return code, rx, i, T, terminated, draw(st.sampled_from(["halt", "first", "branch"]))


_FUZZ_SECONDS = 20.0  # per entry-point call, generous


def _returns_or_raises_typed(call):
    """Run call; it must return or raise ValueError or ConvringError, within _FUZZ_SECONDS."""
    start = time.perf_counter()
    try:
        call()
    except (ValueError, ConvringError):
        pass
    assert time.perf_counter() - start < _FUZZ_SECONDS


@settings(max_examples=200, deadline=None)
@given(entry_point_cases())
def test_entry_points_return_or_raise_typed_error(case):
    # build_window_system, list_decode, sequential_decode and oracle_decode
    # on hostile streams, starts and delays either return or raise a typed
    # error, in bounded time, under python -O too; the oracle's cap is small
    # so that it returns or raises CapExceeded at once.  A start or delay
    # that is not an integer raises ValueError naming it, whatever the
    # stream, and sequential_decode checks T before its first window
    code, rx, i, T, terminated, policy = case
    if not (_is_integer(i) and _is_integer(T)):
        name = "window start i" if not _is_integer(i) else "delay T"
        for call in (build_window_system, oracle_decode):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                call(code, rx, i, T, terminated=terminated)
    if not _is_integer(T):
        with pytest.raises(ValueError, match="delay T must be an integer"):
            sequential_decode(code, rx, T, policy=policy, terminated=terminated)
    _returns_or_raises_typed(lambda: build_window_system(code, rx, i, T, terminated=terminated))
    _returns_or_raises_typed(lambda: list_decode(build_window_system(code, rx, i, T, terminated=terminated)))
    _returns_or_raises_typed(lambda: sequential_decode(code, rx, T, policy=policy, terminated=terminated))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CONVRING_CAP", "4096")
        _returns_or_raises_typed(lambda: oracle_decode(code, rx, i, T, terminated=terminated))


def test_far_past_delay_stops_at_the_erasure_reach(monkeypatch):
    # a terminated delay of 10^4 on a 5-symbol stream: a window's equations
    # past its last erased time + nu read no erased entry, so its pattern
    # gathers rows only up to there, and the decode equals the one with
    # T = len(stream) + nu, which reads every equation that a symbol reaches;
    # no window array past the stream's erasure reach is built
    code = generate_code(**PLAN_CODES["z9"])
    window_array, delays = ConvCode._window_array, []

    def recorded(self, T):
        delays.append(T)
        return window_array(self, T)

    monkeypatch.setattr(ConvCode, "_window_array", recorded)
    for seed in range(3):
        rng = random.Random(seed)
        sent = code.encode([[rng.randrange(9) for _ in range(code.k)] for _ in range(4)])
        rx, _ = erase_stream(sent, "iid", seed, 0.3)
        bad = [list(sym) for sym in rx]
        t, c = max((t, c) for t, sym in enumerate(bad) for c, x in enumerate(sym) if x is not None)
        bad[t][c] = (bad[t][c] + 1) % 9
        assert len(rx) == 5
        for stream in (rx, bad):
            for policy in ("halt", "first"):
                far = sequential_decode(code, stream, 10**4, policy=policy)
                near = sequential_decode(code, stream, len(stream) + code.nu, policy=policy)
                assert (far.stream, far.decisions, far.halted_at) == (near.stream, near.decisions, near.halted_at)
                assert far.decisions and astuple(far.plan_counts) == astuple(near.plan_counts)
                if far.last_outcome is not None:
                    assert _outcome_key(far.last_outcome) == _outcome_key(near.last_outcome)
        assert sequential_decode(code, rx, 10**4).stream == sent
    assert delays and max(delays) <= len(rx) - 1 + code.nu


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
            out = list_decode(sysw)
            # the window is a consistent codeword window, so McCoy's
            # criterion decides uniqueness
            if full_column_rank_mod_p(sysw):
                seen_unique += 1
                assert out.kind == "unique"
                assert out.window == [list(s) for s in stream[t : t + 2]]
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
        # phi is a dense form [const, c_0, ...]: a nonzero constant with no
        # live coefficient is a contradiction, the zero form folds nothing;
        # the column forms 1 + c0 and c0 are kept entry by entry
        br = _Branch(ParamSpace(2), 2)
        br.space.new_param()
        br.cols = [[1, 0], [1, 1]]
        assert not _fold(br, [1, 0], 8)
        assert _fold(br, [0, 0], 8)
        assert not br.space.events
        assert br.cols == [[1, 0], [1, 1]]

    def test_fold_substitutes_newest_parameter(self):
        # phi = 1 + c0 + c1 mod 2 folds c1 := -(1 + c0) = 7 + 7 c0 mod 8;
        # the column forms 1 + 2 c0 + c1 and 4 c1 become c0 and 4 + 4 c0
        br = _Branch(ParamSpace(2), 2)
        br.space.new_param()
        br.space.new_param()
        br.cols = [[1, 0], [2, 0], [1, 4]]
        assert _fold(br, [1, 1, 1], 8)
        assert br.space.events == [(1, [7, 7, 0])]
        assert br.space.live() == [0]
        assert br.cols == [[0, 4], [1, 4], [0, 0]]


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
        assert equations(shared) == equations(fresh)
        assert shared.rhs == fresh.rhs
        values = list(range(fresh.e))
        assert shared.assemble(values) == fresh.assemble(values) == _assembled(rx, fresh, values)
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


# ---------------------------------------------------------------------------
# window rows on the erased columns

SPAN_RINGS = (RingContext(2, 1), Z4, Z8, Z9, Z25, RingContext(2, 4), RingContext(3, 3))
Z2_POWER_RINGS = (0, 1, 2, 5)  # Z_2, Z_4, Z_8, Z_16


@functools.cache
def _span_code(ring: int, nu: int):
    """A fixed random kernel code over Z_2, Z_4, Z_8, Z_9, Z_25, Z_16 or Z_27 with parity degree nu, n <= 4."""
    ctx = SPAN_RINGS[ring]
    rng = random.Random(100 * ctx.q + nu)
    while True:
        n = rng.randint(2, 4)
        lsizes = [rng.randint(1, n - 1)] + [rng.randint(0, 1) for _ in range(ctx.r - 1)]
        code = random_kernel_code(rng, ctx, n, lsizes, nu)
        if code is not None and code.nu == nu and code.g_blocks is not None:
            return code


@st.composite
def pattern_windows(draw, rings=None):
    """One window of a span code over a codeword stream, with erasures.

    The code's ring is one of the first five SPAN_RINGS, or one of rings.
    Erasures fall at a drawn rate on the window's times inside the stream;
    a terminated window may reach past the stream end, an unterminated one
    is cut to Tw = min(T, L - 1 - i).  One known symbol the window reads may
    be off.  Returns (code, received, i, Tw, terminated).
    """
    ring = draw(st.integers(0, 4) if rings is None else st.sampled_from(rings))
    code = _span_code(ring, draw(st.integers(0, 3)))
    n, q = code.n, code.ctx.q
    T = draw(st.integers(0, 7))
    terminated = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    steps = draw(st.integers(1, 8))
    rx = code.encode([[rng.randrange(q) for _ in range(code.k)] for _ in range(steps)])
    L = len(rx)
    i = draw(st.integers(0, L - 1))
    Tw = T if terminated else min(T, L - 1 - i)
    rate = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    for t in range(i, min(L, i + Tw + 1)):
        rx[t] = [None if rng.random() < rate else x for x in rx[t]]
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
    return code, rx, i, Tw, terminated


@settings(max_examples=200, deadline=None)
@given(pattern_windows())
def test_pattern_rows_vanish_outside_their_span(case):
    # every equation of a pattern equals the sliding parity row at its
    # columns, and so is zero outside its span, the run of columns of times
    # s - nu..s; its stratum is the valuation of the whole row, the
    # renormalized row times p^stratum is the original, and a valid
    # window's rows are the equations that are not zero mod q, in order
    code, rx, i, Tw, terminated = case
    sysw = build_window_system(code, rx, i, Tw, terminated=terminated)
    pattern, e = sysw.pattern, sysw.e
    nu, q, r, m = code.nu, code.ctx.q, code.ctx.r, sum(code.l_blocks)
    nonzero, origs, coeffs = iter(pattern.nonzero), pattern.origs.tolist(), pattern.coeffs.tolist()
    columns = [divmod(f, code.n) for f in pattern.erased]
    kept = 0
    assert len(pattern.moduli) == (Tw + 1) * m
    for k, pv in enumerate(pattern.moduli):
        s, ri = divmod(k, m)
        span = [j for j, (dt, _) in enumerate(columns) if s - nu <= dt <= s]
        ref = [code.parity_coeff(s - dt).data[ri][c] % q for dt, c in columns]
        assert all(not x for j, x in enumerate(ref) if j not in span)
        v = min((code.ctx.val(x) for x in ref), default=r)
        assert pv == code.ctx.p**v
        if v == r:  # zero mod q: no row
            continue
        assert next(nonzero) == (k, pv) and origs[kept] == ref
        assert [x * pv for x in coeffs[kept]] == ref
        kept += 1
    assert next(nonzero, None) is None and len(origs) == kept
    # a window is valid exactly when each equation's p-power divides its right-hand side
    assert (sysw.invalid_witness is None) == (not any(x % pv for x, pv in zip(sysw.rhs, pattern.moduli)))


def _decode_record(sysw):
    """list_decode and materialize_list of a window: outcome, fold events, windows, OPS per call."""
    before = OPS.count
    out = list_decode(sysw)
    mid = OPS.count
    windows = materialize_list(out, limit=8)
    events = [br.space.events for br in out.branches]
    return _outcome_key(out), events, windows, mid - before, OPS.count - mid


def _check_widened(case):
    """A pattern's matrices widened to Python integers decode a window alike; the features seen.

    The pattern arrays are int64 unless products could overflow; the same
    decode on object arrays must give the same outcome, fold events,
    windows and op counts.
    """
    code, rx, i, Tw, terminated = case
    sysw = build_window_system(code, rx, i, Tw, terminated=terminated)
    pattern = sysw.pattern
    narrow = (pattern.origs == 0).any()
    native = _decode_record(sysw)
    assert pattern.origs.dtype == pattern.coeffs.dtype == np.int64
    wide = build_window_system(code, rx, i, Tw, terminated=terminated)
    wide.pattern.origs = wide.pattern.origs.astype(object)
    wide.pattern.coeffs = wide.pattern.coeffs.astype(object)
    assert _decode_record(wide) == native
    (kind, _, witness, *_), events, *_ = native
    features = {kind}
    if narrow and kind == "list":
        features.add("narrow-list")
    if any(events):
        features.add("fold")
    if witness is not None and witness[0] == "stage":
        features.add("stage-invalid")
    return features


@settings(max_examples=150, deadline=None)
@given(pattern_windows())
def test_widened_spans_decode_alike(case):
    _check_widened(case)


@pytest.mark.parametrize("feature", ["fold", "invalid", "stage-invalid", "narrow-list"])
def test_widened_spans_cases_cover(feature):
    # the strategy reaches folding, invalid and stage-invalid windows, and
    # lists with rows that leave some columns out (narrower than the
    # window); the first case found with each passes the same check
    case = find(
        pattern_windows(),
        lambda case: feature in _check_widened(case),
        settings=settings(
            max_examples=2000,
            deadline=None,
            database=None,
            derandomize=True,
            phases=[Phase.generate],
        ),
    )
    assert feature in _check_widened(case)


def test_window_proven_once(kernel_code_z8, kernel_code_z9, monkeypatch):
    # a unique window is proven once, by list_decode, and materialize_list
    # returns it as proven; a list is proven by every materialize_list call
    check_rows, calls = decoder._check_rows, []

    def counted(*args):
        calls.append(args)
        return check_rows(*args)

    monkeypatch.setattr(decoder, "_check_rows", counted)
    rx = [[None, 0, None], [0, None, 0], [0, 0, 0]]
    unique = list_decode(build_window_system(kernel_code_z9, rx, 0, 1))
    assert unique.kind == "unique" and len(calls) == 1
    for _ in range(2):
        assert materialize_list(unique) == ([unique.window], False)
    assert len(calls) == 1
    listed = list_decode(build_window_system(kernel_code_z8, RECEIVED, 0, 2))
    assert listed.kind == "list" and len(calls) == 1
    materialize_list(listed, limit=1)
    materialize_list(listed)
    assert len(calls) == 3


def test_project_values_raises_on_corrupt_constant(kernel_code_z8):
    # one constant of a list, on a column that a raw row reads, off by one
    # makes project_values raise before it reads any value, under python -O
    # too
    out = list_decode(build_window_system(kernel_code_z8, RECEIVED, 0, 2))
    assert out.kind == "list"
    sysw, q = out.system, kernel_code_z8.ctx.q
    head = [k for k, (t, _) in enumerate(sysw.columns) if t == 0]
    project_values(out, head)  # the forms as decoded pass
    consts = out.branches[0].cols[0]
    k = next(k for k in range(sysw.e) if (sysw.pattern.origs[:, k] % q).any())
    consts[k] = (consts[k] + 1) % q
    with pytest.raises(AssertionError, match="violates the parity equations"):
        project_values(out, head)


def test_corrupt_stage_form_raises(kernel_code_z8, monkeypatch):
    # a stage-0 form off by one on a column that a stage-1 row reads with
    # a unit breaks p | payload; the check raises, under python -O too
    run_stage, p = decoder._run_stage, kernel_code_z8.ctx.p

    def corrupted(branch, A, rhs, t, ctx):
        if t == 1:
            col = next(k for row in A.tolist() for k, x in enumerate(row) if x % p)
            branch.cols[0][col] += 1
        return run_stage(branch, A, rhs, t, ctx)

    monkeypatch.setattr(decoder, "_run_stage", corrupted)
    with pytest.raises(AssertionError, match="not divisible by p"):
        list_decode(build_window_system(kernel_code_z8, RECEIVED, 0, 2))


def test_corrupt_orig_band_raises(kernel_code_z8):
    # one raw coefficient of the pattern's original matrix off by one, on a
    # column whose forms are not all zero, breaks the list check of every
    # materialize_list call, under python -O too
    out = list_decode(build_window_system(kernel_code_z8, RECEIVED, 0, 2))
    assert out.kind == "list"
    for limit in (1, 64, None):
        materialize_list(out, limit)  # the raw rows as built pass
    origs, cols = out.system.pattern.origs, out.branches[0].cols
    j = next(j for j in range(out.system.e) if any(col[j] for col in cols))
    origs[len(origs) // 2, j] += 1
    for limit in (1, 64, None):
        with pytest.raises(AssertionError, match="violates the parity equations"):
            materialize_list(out, limit)


def _check_z2_stages(case):
    """Each reduce_stage call of a Z_{2^r} window's list_decode reads back what rref_mod_p's list rows hold.

    Pivots and free columns; the first dependent row with a nonzero
    payload, and that payload; or the entries of each payload column and
    each free column in the pivot rows.  Returns the features seen.
    """
    code, rx, i, Tw, terminated = case
    real_matrix, real_reduce, coeff_rows = decoder.StageMatrix, decoder.reduce_stage, {}

    def stage_matrix(rows, p):
        matrix = real_matrix(rows, p)
        coeff_rows[matrix] = rows.tolist()
        return matrix

    def reduce_stage(matrix, payload):
        got = real_reduce(matrix, payload)
        rows = [[*row, *pay] for row, pay in zip(coeff_rows[matrix], payload.T.tolist())]
        e = matrix.e
        pivots = rref_mod_p(rows, 2, ncols=e)
        free = [c for c in range(e) if c not in pivots]
        assert (got.pivots, got.free) == (pivots, free)
        idx = next((k for k in range(len(pivots), len(rows)) if any(rows[k][e:])), None)
        if idx is None:
            assert got.fold is None
            top = rows[: len(pivots)]
            assert list(map(list, got.pays)) == [
                [row[e + j] for row in top] for j in range(len(payload))
            ]
            assert list(map(list, got.at_free)) == [[row[c] for row in top] for c in free]
        else:
            assert got.fold == (idx, rows[idx][e:]) and got.pays == got.at_free == []
            features.add("fold" if idx == len(pivots) else "late-fold")
        if not rows:
            features.add("empty-stage")
        return got

    features = set()
    sysw = build_window_system(code, rx, i, Tw, terminated=terminated)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoder, "StageMatrix", stage_matrix)
        mp.setattr(decoder, "reduce_stage", reduce_stage)
        out = list_decode(sysw)
    if out.invalid_witness is not None and out.invalid_witness[0] == "stage":
        features.add("stage-invalid")
    if code.ctx.q == 16 and coeff_rows:
        features.add("z16")
    return features


@settings(max_examples=150, deadline=None)
@given(pattern_windows(Z2_POWER_RINGS))
def test_z2_stage_readback_matches_list_rows(case):
    _check_z2_stages(case)


@pytest.mark.parametrize("feature", ["fold", "late-fold", "stage-invalid", "empty-stage", "z16"])
def test_z2_stage_readback_cases_cover(feature):
    # the Z_2, Z_4, Z_8 and Z_16 windows reach folds (of the first
    # dependent row, or of a later one after dependent rows with a zero
    # payload), ("stage", t, idx) witnesses and stages with no rows; the
    # first case found with each passes the same check
    case = find(
        pattern_windows(Z2_POWER_RINGS),
        lambda case: feature in _check_z2_stages(case),
        settings=settings(
            max_examples=2000,
            deadline=None,
            database=None,
            derandomize=True,
            phases=[Phase.generate],
        ),
    )
    assert feature in _check_z2_stages(case)


ENUM_RINGS = (1, 2, 3, 5, 4, 6)  # Z_4, Z_8, Z_9, Z_16, Z_25, Z_27
ENUM_CAP = 1024


def _assignments(space):
    """All assignments of space's live parameters, lexicographically, each over all parameters, folded ones 0.

    Assignment m holds the base-p digits of m, the last live parameter the
    lowest, so no range of p values is held at once.
    """
    live = space.live()[::-1]
    values = [0] * space.n_params
    for m in range(space.size):
        rest = m
        for v in live:
            rest, values[v] = divmod(rest, space.p)
        yield tuple(values)


def _check_enumeration(case, limits=(1, 5, 16, 17, 64, None)):
    """materialize_list against the forms at the first assignments, _assignments(space).

    Window for window and in order, at each of limits, in Python integers:
    the reference value of column c is sum_k cols[k][c] x_k mod q, x_0 = 1
    and x_{1+v} the assignment's value of parameter v.  With the enumeration cap at
    ENUM_CAP, a larger list raises CapExceeded at limit None.  Returns the
    features seen.
    """
    code, rx, i, Tw, terminated = case
    sysw = build_window_system(code, rx, i, Tw, terminated=terminated)
    out = list_decode(sysw)
    if not out.branches:
        return set()
    (branch,) = out.branches
    q, cols = code.ctx.q, branch.cols
    features = {f"z{q}"}
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CONVRING_CAP", str(ENUM_CAP))
        for limit in limits:
            if limit is None and out.list_size > ENUM_CAP:
                with pytest.raises(CapExceeded):
                    materialize_list(out)
                continue
            assignments = itertools.islice(_assignments(branch.space), limit or ENUM_CAP)
            reference = [
                sysw.assemble([sum(col[c] * x for col, x in zip(cols, (1, *values))) % q for c in range(sysw.e)])
                for values in assignments
            ]
            windows, truncated = materialize_list(out, limit)
            assert windows == reference
            assert all(type(x) is int for window in windows for sym in window for x in sym)
            assert truncated == (out.list_size > len(reference))
    if branch.space.events and out.kind == "list":
        features.add("fold")
    if out.list_size > 64:
        features.add("over-limit")
    return features


@settings(max_examples=150, deadline=None)
@given(pattern_windows(ENUM_RINGS))
def test_materialize_list_enumerates_assignments_in_order(case):
    _check_enumeration(case)


@pytest.mark.parametrize("feature", ["fold", "over-limit", "z27"])
def test_materialize_list_enumeration_cases_cover(feature):
    # the windows reach lists with folded parameters, lists larger than
    # every finite limit, and Z_27; the first case found with each passes
    # the same check
    case = find(
        pattern_windows(ENUM_RINGS),
        lambda case: feature in _check_enumeration(case),
        settings=settings(
            max_examples=2000,
            deadline=None,
            database=None,
            derandomize=True,
            phases=[Phase.generate],
        ),
    )
    assert feature in _check_enumeration(case)


def test_wide_modulus_decodes_exactly():
    # q = (2^31 - 1)^2: a product of two residues overflows int64, so the
    # pattern matrices hold Python integers, and every stage payload, list
    # check and list block sums them exactly; unique windows give the sent
    # values, as intsolve does, lists hold only windows that meet every
    # parity equation and, at limits 2, 3 and 16, equal the column forms at
    # the first assignments window for window, and a sequential decode
    # restores the sent stream
    ctx = RingContext(2**31 - 1, 2)
    q = ctx.q
    rng = random.Random(31)
    code = random_kernel_code(rng, ctx, 3, [1, 1], 2)
    assert code.nu == 2
    sent = code.encode([[rng.randrange(q) for _ in range(code.k)] for _ in range(8)])
    kinds, listed = set(), 0
    for trial in range(12):
        i, T = rng.randint(0, 5), rng.randint(1, 3)
        rate = 0.3 if trial % 3 else 0.9
        rx = [list(sym) for sym in sent]
        for t in range(i, min(len(rx), i + T + 1)):
            rx[t] = [None if rng.random() < rate else x for x in rx[t]]
        sysw = build_window_system(code, rx, i, T)
        if not sysw.e:
            continue
        assert sysw.pattern.origs.dtype == sysw.pattern.coeffs.dtype == object
        out = list_decode(sysw)
        kinds.add(out.kind)
        expected = [sent[t] if t < len(sent) else [0] * code.n for t in range(i, i + T + 1)]
        windows, _ = materialize_list(out, limit=3)
        assert all(sysw.window_equations_hold(w) for w in windows)
        if out.kind == "unique":
            assert out.window == expected
            raw = solve_mod(ctx, sysw.pattern.origs.tolist(), sysw.row_rhs.tolist())
            assert sysw.assemble(raw) == expected
        else:
            assert out.kind == "list" and out.list_size % ctx.p == 0
            features = _check_enumeration((code, rx, i, T, True), limits=(2, 3, 16, None))
            assert {f"z{q}", "over-limit"} <= features
            listed += 1
    assert kinds == {"unique", "list"} and listed >= 2
    rx = [[None if rng.random() < 0.2 else x for x in sym] for sym in sent]
    res = sequential_decode(code, rx, 2)
    assert res.stream == sent and res.decisions and all(d[1] == "unique" for d in res.decisions)


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


def _burst_stream(code, seed, length, burst, period):
    """A seeded stream whose first burst symbols in every period are erased.

    Every burst repeats one relative pattern.  With T = 2, bursts of two in
    eight are lists at their first time on the PLAN_CODES, so "first" picks
    there; every other symbol erased gives unique times in list windows.
    """
    rng = random.Random(seed)
    q = code.ctx.q
    sent = code.encode([[rng.randrange(q) for _ in range(code.k)] for _ in range(length)])
    return [[None] * code.n if t % period < burst else sym for t, sym in enumerate(sent)]


def _outcome_key(out):
    cols = [col for br in out.branches for col in br.cols]
    return (out.kind, out.list_size, out.invalid_witness, out.window, out.stages, cols)


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
        # every window that solves through its pattern's plan commits exactly
        # list_decode's time-i values, those at a pattern's first window,
        # right after its plan is made, included
        code = generate_code(**PLAN_CODES[name])
        values_of, make_plan = decoder._plan_values, decoder._make_plan
        # per checked commit, whether its window made the pattern's plan
        first_sight, compiling = [], []

        def checked_make(sysw):
            compiling.append(sysw)
            return make_plan(sysw)

        def checked_values(plan, sysw):
            values = values_of(plan, sysw)
            if values is not None:
                head = [k for k, (t, _) in enumerate(sysw.columns) if t == sysw.i]
                committed = dict(zip(head, values))
                assert committed == project_values(list_decode(sysw), head)
                first_sight.append(compiling[-1] is sysw)
            return values

        monkeypatch.setattr(decoder, "_plan_values", checked_values)
        monkeypatch.setattr(decoder, "_make_plan", checked_make)
        streams = [_plan_stream(code, s, 60 + 20 * s, 0.15, corrupt=s == 3) for s in range(4)]
        for rx in [*streams, _plan_stream(code, 4, 30, None), _burst_stream(code, 5, 40, 2, 8)]:
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
        assert len(first_sight) > 1000
        assert sum(first_sight) > 500

    def test_value_only_share(self, monkeypatch):
        # every window of this long stream commits from its pattern's plan
        # (692, 173 of them at a pattern's first window); a silent fallback
        # to list_decode fails here
        code = generate_code(**PLAN_CODES["z9"])
        rx = _plan_stream(code, 1, 2000, 0.10)
        values_of = decoder._plan_values
        value_only = []

        def counted(plan, sysw):
            values = values_of(plan, sysw)
            value_only.append(values is not None)
            return values

        monkeypatch.setattr(decoder, "_plan_values", counted)
        res = sequential_decode(code, rx, 2)
        assert res.complete
        assert sum(value_only) == len(res.decisions)

    def test_replayed_windows_derive_nothing(self, monkeypatch):
        # a window that commits from its pattern's plan reads its raw
        # right-hand sides alone: its known symbols, columns and rows are
        # never derived
        code = generate_code(**PLAN_CODES["z9"])
        rx = _plan_stream(code, 1, 400, 0.10)
        build, built = decoder.build_window_system, []

        def kept(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def unreached(sysw):
            raise AssertionError("a window ran list_decode")

        monkeypatch.setattr(decoder, "build_window_system", kept)
        monkeypatch.setattr(decoder, "list_decode", unreached)
        res = sequential_decode(code, rx, 2)
        assert res.complete and len(built) == len(res.decisions) > 50
        assert all(sysw.received is res.stream for sysw in built)
        derived = {"symbols", "columns", "row_rhs", "rows"}
        assert not any(derived & vars(sysw).keys() for sysw in built)

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
        # every plan, once its compile check has passed, gets V[0][0] off by
        # one, so a window with z_0 != 0 solves to a wrong first column; the
        # raw-row check of that solution stops the decode in that window,
        # before it commits, under python -O too
        code = generate_code(**PLAN_CODES[name])
        rx = _plan_stream(code, 1, 400, eps)
        make_plan, build, commit = decoder._make_plan, decoder.build_window_system, decoder._Syndrome.commit
        starts, committed = [], []

        def corrupted(sysw):
            plan = make_plan(sysw)
            if plan:
                plan.dec.V[0][0] += 1
            return plan

        def recorded(code, received, i, *args, **kwargs):
            starts.append(i)
            return build(code, received, i, *args, **kwargs)

        def recorded_commit(self, code, i, values):
            committed.append(i)
            return commit(self, code, i, values)

        monkeypatch.setattr(decoder, "_make_plan", corrupted)
        monkeypatch.setattr(decoder, "build_window_system", recorded)
        monkeypatch.setattr(decoder._Syndrome, "commit", recorded_commit)
        with pytest.raises(AssertionError, match="violates the parity equations"):
            sequential_decode(code, rx, 2)
        assert starts[-1] not in committed and committed == starts[:-1]

    @pytest.mark.parametrize("name", sorted(PLAN_CODES))
    def test_corrupted_plan_params_raises(self, name, monkeypatch):
        # a decomposition with one entry of U, or of V, off by one fails the
        # compile check U A V = D in the first window that makes a plan from
        # it, before that window commits, under python -O too
        code = generate_code(**PLAN_CODES[name])
        rx = _burst_stream(code, 1, 40, 1, 2)
        decompose, build = decoder.decompose, decoder.build_window_system
        for side in ("U", "V"):
            starts, corrupted_at = [], []

            def corrupted(ctx, data, n):
                dec = decompose(ctx, data, n)
                getattr(dec, side)[0][0] += 1
                corrupted_at.append(starts[-1])
                return dec

            def recorded(code, received, i, *args, **kwargs):
                starts.append(i)
                return build(code, received, i, *args, **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(decoder, "decompose", corrupted)
                mp.setattr(decoder, "build_window_system", recorded)
                with pytest.raises(AssertionError, match="decomposition is not U A V = D"):
                    sequential_decode(code, rx, 2)
            # the first window made the first plan and raised
            assert corrupted_at == starts == [0]

    def test_corrupt_list_constant_raises_before_commit(self, monkeypatch):
        # in the first list that a sequential decode gets from list_decode
        # (its pattern has no plan), the constant of one parameter-free
        # time-i column is off by one; project_values checks the forms
        # before it reads them, so the decode stops in that window, at time
        # 265, before it commits, under python -O too
        code = generate_code(**PLAN_CODES["z4"])
        q = code.ctx.q
        rx = _plan_stream(code, 1, 300, 0.1)
        decode, build = decoder.list_decode, decoder.build_window_system
        starts, corrupted_at = [], []

        def corrupted(sysw):
            out = decode(sysw)
            if out.kind == "list" and not corrupted_at:
                consts, *params = out.branches[0].cols
                col = next(
                    k
                    for k, (t, _) in enumerate(sysw.columns)
                    if t == sysw.i and not any(param[k] for param in params)
                )
                consts[col] = (consts[col] + 1) % q
                corrupted_at.append(sysw.i)
            return out

        def recorded(code, received, i, *args, **kwargs):
            starts.append(i)
            return build(code, received, i, *args, **kwargs)

        monkeypatch.setattr(decoder, "list_decode", corrupted)
        monkeypatch.setattr(decoder, "build_window_system", recorded)
        with pytest.raises(AssertionError, match="violates the parity equations"):
            sequential_decode(code, rx, 2)
        assert corrupted_at == starts[-1:] == [265]

    def test_plan_counts(self, monkeypatch):
        # each pattern compiles its plan once, at its first window, which
        # counts as a first decode; every later window of it replays, and
        # each decision has one count
        code = generate_code(**PLAN_CODES["z9"])
        rx = _plan_stream(code, 1, 400, 0.10)
        build, patterns = decoder.build_window_system, set()

        def recorded(*args, **kwargs):
            sysw = build(*args, **kwargs)
            patterns.add(sysw.pattern)
            return sysw

        monkeypatch.setattr(decoder, "build_window_system", recorded)
        res = sequential_decode(code, rx, 2)
        counts = res.plan_counts
        assert res.complete
        assert counts.first_decodes == len(patterns)
        assert counts.fallbacks == 0
        assert sum(astuple(counts)) == len(res.decisions)

    def test_plan_from_first_valid_window(self):
        # a plan is value-free: compiled at a stage-invalid first window,
        # where the replay hands the window to list_decode for the witness,
        # it replays the next windows of the pattern, and they commit
        code = generate_code(**PLAN_CODES["z9"])
        sent = _plan_stream(code, 1, 30, 0.0)
        rx = [list(sym) for sym in sent]
        for t in (10, 20):
            rx[t][1] = rx[t][2] = None
        bad = [list(sym) for sym in rx]
        bad[9][0] = (bad[9][0] + 1) % code.ctx.q
        store, counts = {}, decoder.PlanCounts()
        out, _ = decoder._planned_decode(build_window_system(code, bad, 10, 2, store=store), counts)
        (pattern,) = store.values()
        assert out.invalid_witness == ("stage", 0, 2) and pattern.plan
        for i in (10, 20):
            sysw = build_window_system(code, rx, i, 2, store=store)
            out, consts = decoder._planned_decode(sysw, counts)
            assert len(store) == 1 and consts is not None
            head = [k for k, (t, _) in enumerate(sysw.columns) if t == i]
            assert dict(zip(head, consts)) == project_values(list_decode(sysw), head)
        assert astuple(counts) == (1, 2, 0)

    def test_unplannable_pattern_compiles_once(self, monkeypatch):
        # on this Z_4 burst stream every window is a list at time i, so no
        # pattern has a plan: each is decomposed once per call, and each of
        # its windows runs list_decode alone; the decomposition counts no
        # Z_p op, so the call's OPS are the reference loop's exactly
        make_plan, made = decoder._make_plan, []

        def counted(sysw):
            made.append(sysw)
            return make_plan(sysw)

        monkeypatch.setattr(decoder, "_make_plan", counted)
        code = generate_code(**PLAN_CODES["z4"])
        rx = _burst_stream(code, 5, 40, 2, 6)
        before = OPS.count
        res = sequential_decode(code, rx, 2, policy="first")
        ops = OPS.count - before
        before = OPS.count
        work, decisions, _, _ = _reference_sequential(code, rx, 2, "first", True)
        assert ops == OPS.count - before > 0
        assert (res.stream, res.decisions) == (work, decisions)
        assert all(d[1] == "picked-first" for d in res.decisions) and len(res.decisions) == 7
        patterns = [sysw.pattern for sysw in made]
        assert len(set(map(id, patterns))) == len(patterns) < len(res.decisions)
        assert all(pattern.plan is False for pattern in patterns)
        assert astuple(res.plan_counts) == (len(res.decisions), 0, 0)

    def test_folding_patterns_replay(self, monkeypatch):
        # on this Z_8 stream time i is unique in every window, and the
        # list_decode of all but the stream's last windows folds: the
        # pattern's plan commits list_decode's values, and each window
        # after the pattern's first counts as a value replay
        code = generate_code(**PLAN_CODES["z8"])
        rx = _plan_stream(code, 1, 60, None)
        values_of, build, checked = decoder._plan_values, decoder.build_window_system, []
        patterns = set()

        def compared(plan, sysw):
            values = values_of(plan, sysw)
            out = list_decode(sysw)
            head = range(len(sysw.pattern.head))
            assert dict(zip(head, values)) == project_values(out, head)
            checked.append((sysw.i, bool(out.branches[0].space.events)))
            return values

        def recorded(*args, **kwargs):
            sysw = build(*args, **kwargs)
            patterns.add(sysw.pattern)
            return sysw

        monkeypatch.setattr(decoder, "_plan_values", compared)
        monkeypatch.setattr(decoder, "build_window_system", recorded)
        for policy in ("halt", "first"):
            checked.clear()
            patterns.clear()
            res = sequential_decode(code, rx, 2, policy=policy)
            work, decisions, _, _ = _reference_sequential(code, rx, 2, policy, True)
            assert (res.stream, res.decisions) == (work, decisions) and res.complete
            assert [i for i, _ in checked] == [d[0] for d in res.decisions]
            assert sum(folds for _, folds in checked) > 50
            assert astuple(res.plan_counts) == (len(patterns), len(checked) - len(patterns), 0)


@pytest.mark.parametrize("policy", ["halt", "first", "branch"])
def test_one_window_build_per_decision(policy, monkeypatch):
    # the benchmark times each window as the gap between two
    # build_window_system calls: every decision that a sequential decode
    # makes itself, in branch sub-decodes too, builds exactly one window
    build, sequential = decoder.build_window_system, decoder.sequential_decode
    stack, calls = [], []

    def counted_build(*args, **kwargs):
        stack[-1] += 1
        return build(*args, **kwargs)

    def counted_sequential(*args, **kwargs):
        stack.append(0)
        res = sequential(*args, **kwargs)
        calls.append((stack.pop(), res))
        return res

    monkeypatch.setattr(decoder, "build_window_system", counted_build)
    monkeypatch.setattr(decoder, "sequential_decode", counted_sequential)
    z4, z25 = generate_code(**PLAN_CODES["z4"]), generate_code(**PLAN_CODES["z25"])
    cases = [
        (z4, _plan_stream(z4, 4, 30, None)),
        (z4, _burst_stream(z4, 5, 40, 2, 8)),
        (z4, _plan_stream(z4, 1, 80, 0.15)),
        # a replay at time 3 finds its window invalid and falls back
        (z25, _plan_stream(z25, 8, 120, 0.15, corrupt=True)),
    ]
    fallbacks, subs = 0, 0
    for code, rx in cases:
        for T in (1, 2):
            for terminated in (True, False):
                calls.clear()
                res = decoder.sequential_decode(code, rx, T, policy=policy, terminated=terminated)
                for builds, sub in calls:
                    # a branched call ends its own decisions at "branched"
                    kinds = [d[1] for d in sub.decisions]
                    own = kinds.index("branched") + 1 if "branched" in kinds else len(kinds)
                    assert builds == own
                fallbacks += res.plan_counts.fallbacks
                subs += len(calls) - 1
    assert fallbacks
    assert subs if policy == "branch" else not subs


@st.composite
def sequential_cases(draw):
    """A received stream for sequential_decode over a code of the pattern store test.

    Erasures are iid, or the same coordinates every period symbols, so that
    patterns repeat; one known symbol may be off.  Returns (code, received,
    T, policy, terminated).
    """
    code = _store_code(draw(st.integers(0, 3)), draw(st.integers(0, 2)))
    n, q = code.n, code.ctx.q
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.integers(4, 40))
    rx = code.encode([[rng.randrange(q) for _ in range(code.k)] for _ in range(length)])
    if draw(st.booleans()):
        eps = draw(st.sampled_from([0.05, 0.15, 0.3]))
        erased = {(t, c) for t in range(len(rx)) for c in range(n) if rng.random() < eps}
    else:
        cols = draw(st.sets(st.integers(0, n - 1), min_size=1))
        erased = {(t, c) for t in range(0, len(rx), draw(st.integers(1, 4))) for c in cols}
    rx = [[None if (t, c) in erased else x for c, x in enumerate(sym)] for t, sym in enumerate(rx)]
    if draw(st.booleans()):
        known = [(t, c) for t, sym in enumerate(rx) for c, x in enumerate(sym) if x is not None]
        if known:
            t, c = draw(st.sampled_from(known))
            rx[t][c] = (rx[t][c] + draw(st.integers(1, q - 1))) % q
    T = draw(st.integers(0, 3))
    return code, rx, T, draw(st.sampled_from(["halt", "first"])), draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(sequential_cases())
def test_sequential_matches_list_decode_reference(case):
    # plans, value-only replays and rebuilt outcomes decide exactly as
    # list_decode on every window does
    code, rx, T, policy, terminated = case
    res = sequential_decode(code, rx, T, policy=policy, terminated=terminated)
    work, decisions, halted_at, last = _reference_sequential(code, rx, T, policy, terminated)
    assert (res.stream, res.decisions, res.halted_at) == (work, decisions, halted_at)
    assert (res.last_outcome is None) == (last is None)
    if last is not None:
        assert _outcome_key(res.last_outcome) == _outcome_key(last)


def _check_running_syndrome(case):
    """Every window of a sequential decode equals its fresh build; the features seen.

    Each window is built again with no store, on a copy of the stream as it
    stands, so its right-hand sides come from the kernel and not from the
    running syndrome.
    """
    code, rx, T, policy, terminated = case
    build = decoder.build_window_system
    starts = []

    def compared(code, received, i, T, terminated=True, store=None):
        assert store[decoder._SYNDROME].received is received
        fresh = build(code, [list(sym) for sym in received], i, T, terminated=terminated)
        shared = build(code, received, i, T, terminated=terminated, store=store)
        assert shared.columns == fresh.columns
        assert equations(shared) == equations(fresh)
        assert shared.rhs == fresh.rhs
        values = list(range(fresh.e))
        assert shared.assemble(values) == fresh.assemble(values)
        assert shared.received is received
        assert shared.invalid_witness == fresh.invalid_witness
        starts.append((i, T, fresh.invalid_witness))
        return shared

    decoder.build_window_system = compared
    try:
        res = sequential_decode(code, rx, T, policy=policy, terminated=terminated)
    finally:
        decoder.build_window_system = build
    # one window per decision, in order
    assert [i for i, _, _ in starts] == [d[0] for d in res.decisions]
    features, nu = set(), code.nu
    for k, (i, Tw, witness) in enumerate(starts):
        if witness is not None:
            features.add(witness[0])
        if Tw < T:
            features.add("tail")
        for (j, Tj, _), d in zip(starts[:k], res.decisions):
            # the window's equations read times i - nu..i + Tw, and a commit
            # at j changed the right-hand sides of times j..j + nu
            if d[1] == "picked-first" and i - nu <= j + Tj:
                features.add("reads-overwritten")
            if d[1] == "unique" and i <= j + nu:
                features.add("reads-commit")
    return features


@settings(max_examples=150, deadline=None)
@given(sequential_cases())
def test_running_syndrome_matches_fresh_builds(case):
    _check_running_syndrome(case)


@pytest.mark.parametrize(
    "feature", ["reads-overwritten", "reads-commit", "inconsistent-known", "divisibility", "tail"]
)
def test_running_syndrome_cases_cover(feature):
    # the strategy reaches each kind of window, and the first case found
    # with it passes the same check
    case = find(
        sequential_cases(),
        lambda case: feature in _check_running_syndrome(case),
        settings=settings(
            max_examples=2000,
            deadline=None,
            database=None,
            derandomize=True,
            phases=[Phase.generate],
        ),
    )
    assert feature in _check_running_syndrome(case)
