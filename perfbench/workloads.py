"""The three convring benchmark workloads, their inputs and their output checks.

Each workload puts most of its time in one layer and almost none in
another, so a gain in one layer shows on one workload and as no change on
the others.  Inputs come from the workload seed through the benchmark's own
``random.Random``; the library receives only the generated inputs.  One
round runs the fixed input set of a seed once, so every round of a run, and
every run on the seed, repeats the same operations and the same Z_p op
count.

``stream``
    The full gen -> check -> encode -> channel -> decode pipeline: the code
    ``cli.generate_code(p=3, r=2, n=4, k_blocks=[1, 0], deg=1, seed=7)``
    over Z_9 (rate 1/4, parity degree 2), its column distance d_0 and
    ``erasure_capability(0, d_0)``, its file round-tripped through
    ``files.save_code``/``load_code`` (all of it set-up), 4,096 random
    message symbols, encoded, erased iid with eps = 0.10 by
    ``cli.erase_stream``, and decoded by ``sequential_decode(T=2,
    policy="halt")``.  On a list halt the benchmark writes the sent
    symbols at the halted time and calls again (a genie restart).  Window
    assembly dominates here and grows with stream position (the erased
    prefix rescan and the parity matrix rebuilt on every ``parity_coeff``
    call); Z_p elimination is a minor share.
``window-list``
    The list decoder on dense windows of one Z_8 kernel code (n = 8, layer
    sizes (4, 1, 1), degree 1, left-prime projection so that codewords can
    be encoded): 300 windows over random codewords, delay T = 7 (64
    positions), with e spread evenly over [8, 38] erased positions in every
    batch of 25 windows.  One op is
    ``build_window_system`` -> ``list_decode`` -> ``materialize_list(limit=
    16)``: three digit stages, constraint folds and lists up to 2^22.  It
    never touches code construction.
``code-design`` (runnable by name, not in ``BENCHMARK.json``)
    What a user does when searching for a code: 200 codes, the ring cycling
    through Z_4, Z_8 and Z_9, n in 3..6, k in 1..n-1 spread over the levels
    at random, generator degree 1..2.  Ring, n, degree and k cycle so that
    every seed builds the same mix of shapes, and every batch of 25 codes
    holds each (ring, n, degree) once; the seed draws the level split, the
    generator search and the preimage input.  One op is
    ``generate_code`` (search, layered reduction, observability, synthesis),
    a ``preimage`` round trip, then ``column_distance(j)`` and
    ``erasure_capability(j, d_j)`` at the largest j <= 2 with q^((j+1)n) <=
    2^16 (skipped when there is none).  Most of the time goes to
    ``polymat``/``codes`` construction, the rest to ``metrics``; no decoder
    runs.  Its figures spread by 0.2-0.29 (quartile distance over median)
    across ten seeds: the generator search costs a different number of
    tries for every seed, and interleaved runs of five seeds differed by
    10-20% on one machine at one time.  So it is left out of the measured
    set until the search cost is steadier; ``stream`` covers its layers in
    set-up (``cli.generate_code``, ``polymat``, ``codes``, ``metrics``).

Deliberately left out, to be added once the fixes land:

* Windows above 0.6 erasure density (e > 38 of 64).  The reference-fiber
  search in ``list_decode``'s stage report enumerates up to 2^30 parameter
  assignments; such windows took from seconds to minutes, so one of them
  decides a whole run.  Between densities 0.55 and 0.6 the same search
  still costs up to about a second on one window in a few hundred; the
  batch-median throughput and the percentiles keep that tail from deciding
  a run, and the traced run counts it in ``decoder.list_decode.folds``.
* ``code_member``/``intsolve``: the integer Smith form took over 60 s on
  one Z_9 n = 4 code.
* The sequential policies ``first`` and ``branch``: ``first`` can commit a
  wrong list member and ``branch`` is a one-level retry; both enumerate
  against the global cap.
* The acceptance-suite wall time: its fixtures duplicate these workloads at
  about 25 s per run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import zring

clock = time.process_time

BATCH = 25

# The reference kernel: a fixed Z_3 elimination in plain Python, timed
# between rounds to measure how fast the interpreter runs on this machine
# at the moment; see run.py.
_REF_RNG = random.Random(0)
_REF_MATRIX = [[_REF_RNG.randrange(3) for _ in range(48)] for _ in range(48)]


def reference_s() -> float:
    """CPU seconds of one pass of the reference kernel."""
    t0 = clock()
    rows = [list(row) for row in _REF_MATRIX]
    factors = {}
    for col in range(len(rows)):
        piv = next((i for i in range(col, len(rows)) if rows[i][col] % 3), None)
        if piv is None:
            continue
        rows[col], rows[piv] = rows[piv], rows[col]
        for i, row in enumerate(rows):
            f = row[col]
            if i != col and f:
                rows[i] = [(a - f * b) % 3 for a, b in zip(row, rows[col])]
                factors[(i, col)] = f
    return clock() - t0


class CheckFailed(Exception):
    """An output of the library is wrong; the run fails."""


@dataclass
class Round:
    """One pass over a seed's inputs."""

    op_s: list[float | None] = field(default_factory=list)  # CPU s by op, None if failed
    attempted: int = 0
    failed: int = 0
    zp_ops: int = 0
    windows: int = 0
    restarts: int = 0
    outputs: list = field(default_factory=list)
    cpu: float = 0.0
    wall: float = 0.0


def batched(times: list[float | None]) -> list[tuple[int, float]]:
    """(ops completed, CPU s) for each BATCH consecutive ops."""
    out = []
    for k in range(0, len(times), BATCH):
        done = [t for t in times[k : k + BATCH] if t is not None]
        if done:
            out.append((len(done), sum(done)))
    return out


def _check(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


def _check_capability(label: str, n: int, j: int, d: int, report):
    """At the column distance d some d columns touching the first symbol are dependent."""
    _check(d >= 1 and report.j == j and report.d == d, f"{label}: distance report {report}")
    wit = report.dependent_witness
    _check(
        wit is not None and len(wit) == d and min(wit) < n,
        f"{label}: no dependent {d}-subset touching the first symbol at column distance {d}",
    )


# ---------------------------------------------------------------------------


class Stream:
    name = "stream"
    T = 2
    EPS = 0.10
    MESSAGE_LEN = 4096

    def setup(self, lib, seed: int, workdir):
        code = lib.cli.generate_code(p=3, r=2, n=4, k_blocks=[1, 0], deg=1, seed=7)
        # the user checks the code's first column distance before using it
        d = lib.metrics.column_distance(code, 0)
        report = lib.metrics.erasure_capability(code, 0, d)
        path = str(workdir / "stream-code.json")
        lib.files.save_code(path, code)
        code = lib.files.load_code(path)
        rng = random.Random(seed)
        q = code.ctx.q
        message = [[rng.randrange(q) for _ in range(code.k)] for _ in range(self.MESSAGE_LEN)]
        sent = code.encode(message)
        received, _ = lib.cli.erase_stream(sent, "iid", rng.randrange(1 << 31), self.EPS)
        return {"code": code, "sent": sent, "received": received, "capability": (d, report)}

    def run_round(self, lib, inp, marker, latencies: bool) -> Round:
        dec = lib.decoder
        ops = lib.linsolve.OPS
        marks: list[float] = []
        build = dec.build_window_system
        if latencies:
            # one timestamp per window start; the gaps are per-window latencies

            def marked(*args, **kwargs):
                marks.append(clock())
                return build(*args, **kwargs)

            dec.build_window_system = marked
        rnd = Round()
        work = inp["received"]
        res = None
        ops0, cpu0, wall0 = ops.count, clock(), time.perf_counter()
        try:
            while True:
                marker.op = rnd.attempted
                rnd.attempted += 1
                first = len(marks)
                try:
                    res = dec.sequential_decode(inp["code"], work, self.T, policy="halt")
                except lib.errors.ConvringError:
                    rnd.failed += 1
                    res = None
                    break
                end = clock()
                stamps = marks[first:] + [end]
                rnd.op_s.extend(b - a for a, b in zip(stamps, stamps[1:]))
                rnd.windows += len(res.decisions)
                if res.halted_at is None:
                    break
                _check(
                    res.last_outcome is not None and res.last_outcome.kind == "list",
                    f"sequential decode halted at {res.halted_at} on a valid stream: {res.decisions[-1]}",
                )
                rnd.restarts += 1
                work = res.stream
                work[res.halted_at] = list(inp["sent"][res.halted_at])
        finally:
            dec.build_window_system = build
        rnd.cpu = clock() - cpu0
        rnd.wall = time.perf_counter() - wall0
        rnd.zp_ops = ops.count - ops0
        if res is not None:
            _check(res.stream == inp["sent"], "decoded stream differs from the sent stream")
        return rnd

    def batches(self, inp, times):
        """One batch: the sent symbols over the summed window latencies."""
        return [(len(inp["sent"]), sum(t for t in times if t is not None))]

    def check(self, lib, inp, rnd: Round, marker):
        """The decoded stream is compared with the sent one in every round."""
        d, report = inp["capability"]
        _check_capability("stream code", inp["code"].n, 0, d, report)


# ---------------------------------------------------------------------------


def random_kernel_code(lib, rng: random.Random, p: int, r: int, n: int, lsizes, deg: int):
    """A kernel code of a random layered parity check with a left prime projection."""
    ctx = lib.ring.RingContext(p, r)
    for _ in range(200):
        blocks = [
            [[[rng.randrange(ctx.q) for _ in range(deg + 1)] for _ in range(n)] for _ in range(rows)]
            for rows in lsizes
        ]
        coeffs = [
            [
                [(p**level * entry[j]) % ctx.q for entry in row]
                for level, blk in enumerate(blocks)
                for row in blk
            ]
            for j in range(deg + 1)
        ]
        try:
            code = lib.codes.ConvCode.from_parity_coeffs(ctx, coeffs)
        except ValueError:
            continue
        if code.g_blocks is not None:
            return code
    raise RuntimeError("no left prime parity check found")


class WindowList:
    name = "window-list"
    CODE_SEED = 7
    WINDOWS = 300
    T = 7
    START = 2  # window start; the nu symbols before it are known history
    MESSAGE_LEN = 10
    E_MIN, E_MAX = 8, 38
    LIMIT = 16
    ORACLE_E = 5  # 8^5 = 2^15 oracle candidates per check window
    ORACLE_EVERY = 10  # the oracle checks every tenth window

    def setup(self, lib, seed: int, workdir):
        code = random_kernel_code(lib, random.Random(self.CODE_SEED), 2, 3, 8, (4, 1, 1), 1)
        rng = random.Random(seed)
        q, n = code.ctx.q, code.n
        positions = (self.T + 1) * n
        windows = []
        for k in range(self.WINDOWS):
            message = [[rng.randrange(q) for _ in range(code.k)] for _ in range(self.MESSAGE_LEN)]
            sent = code.encode(message)
            # each batch of BATCH windows spreads e evenly over [E_MIN, E_MAX]
            e = self.E_MIN + (k % BATCH) * (self.E_MAX - self.E_MIN) // (BATCH - 1)
            erased = rng.sample(range(positions), e)
            received = [list(sym) for sym in sent]
            for pos in erased:
                received[self.START + pos // n][pos % n] = None
            kept = set(rng.sample(erased, self.ORACLE_E))
            small = [list(sym) for sym in sent]
            for pos in kept:
                small[self.START + pos // n][pos % n] = None
            windows.append({"sent": sent, "received": received, "small": small})
        return {"code": code, "windows": windows}

    def _decode(self, dec, code, received, limit):
        sysw = dec.build_window_system(code, received, self.START, self.T)
        out = dec.list_decode(sysw)
        wins, truncated = dec.materialize_list(out, limit=limit)
        return out, wins, truncated

    def run_round(self, lib, inp, marker, latencies: bool) -> Round:
        dec = lib.decoder
        ops = lib.linsolve.OPS
        rnd = Round()
        ops0, cpu0, wall0 = ops.count, clock(), time.perf_counter()
        for k, w in enumerate(inp["windows"]):
            marker.op = k
            rnd.attempted += 1
            t0 = clock()
            try:
                out, wins, truncated = self._decode(dec, inp["code"], w["received"], self.LIMIT)
            except lib.errors.ConvringError as exc:
                rnd.failed += 1
                rnd.op_s.append(None)
                rnd.outputs.append(("failed", type(exc).__name__))
                continue
            rnd.op_s.append(clock() - t0)
            rnd.outputs.append((out.kind, out.list_size, wins, truncated))
        rnd.cpu = clock() - cpu0
        rnd.wall = time.perf_counter() - wall0
        rnd.zp_ops = ops.count - ops0
        rnd.windows = len(inp["windows"])
        return rnd

    def batches(self, inp, times):
        return batched(times)

    def check(self, lib, inp, rnd: Round, marker):
        code = inp["code"]
        p, r, q = code.ctx.p, code.ctx.r, code.ctx.q
        H = zring.coeff_matrices(zring.scaled_rows(code.h_blocks, p), q)
        nu = len(H) - 1
        i, T = self.START, self.T
        dec = lib.decoder
        for k, (w, got) in enumerate(zip(inp["windows"], rnd.outputs)):
            marker.op = k
            if got[0] == "failed":
                continue
            kind, size, wins, truncated = got
            A, b = zring.window_equations(H, w["received"], i, T, q)
            exp = zring.count_exponent(A, b, p, r)
            _check(exp is not None and kind != "invalid", f"window {k}: valid window decoded as {kind}")
            _check(size == p**exp, f"window {k}: list size {size}, independent count p^{exp}")
            _check(len(wins) == min(size, self.LIMIT), f"window {k}: {len(wins)} windows of {size}")
            _check(truncated == (size > self.LIMIT), f"window {k}: truncation flag {truncated}")
            _check(len({repr(x) for x in wins}) == len(wins), f"window {k}: repeated list member")
            history = [w["received"][t] if t >= 0 else [0] * code.n for t in range(i - nu, i)]
            rx = w["received"][i : i + T + 1]
            for win in wins:
                _check(
                    all(x is None or x == y for s, ws in zip(rx, win) for x, y in zip(s, ws)),
                    f"window {k}: a list member changes a received symbol",
                )
                _check(zring.window_holds(H, win, history, q), f"window {k}: a list member violates H")
            sent = [list(s) for s in w["sent"][i : i + T + 1]]
            if size <= self.LIMIT:
                _check(sent in wins, f"window {k}: the sent window is missing from the list")
            if k % self.ORACLE_EVERY:
                continue
            # the brute-force oracle, set for set, on the window with ORACLE_E erasures
            oracle = dec.oracle_decode(code, w["small"], i, T)
            _, small_wins, _ = self._decode(dec, code, w["small"], None)
            listed = frozenset(tuple(tuple(s) for s in x) for x in small_wins)
            _check(listed == oracle, f"window {k}: list decode and oracle disagree")
            A, b = zring.window_equations(H, w["small"], i, T, q)
            _check(len(oracle) == p ** zring.count_exponent(A, b, p, r), f"window {k}: oracle size")


# ---------------------------------------------------------------------------


RINGS = ((2, 2), (2, 3), (3, 2))  # Z_4, Z_8, Z_9


class CodeDesign:
    name = "code-design"
    CODES = 200
    CANDIDATES = 1 << 16

    def setup(self, lib, seed: int, workdir):
        rng = random.Random(seed)
        specs = []
        for idx in range(self.CODES):
            # each batch of BATCH codes covers every (ring, n, degree) combination
            combo = idx % BATCH
            p, r = RINGS[combo % 3]
            n = 3 + combo // 3 % 4
            deg = 1 + combo // 12 % 2
            k = 1 + idx // BATCH % (n - 1)  # cost grows with k, so k cycles too
            k_blocks = [0] * r
            for _ in range(k):
                k_blocks[rng.randrange(r)] += 1
            u = [[rng.randrange(p**r) for _ in range(3)] for _ in range(k)]
            specs.append(
                {"p": p, "r": r, "n": n, "k_blocks": k_blocks, "deg": deg,
                 "seed": rng.randrange(1 << 31), "u": u}
            )
        return {"specs": specs}

    def window_depth(self, q: int, n: int):
        fits = [j for j in range(3) if q ** ((j + 1) * n) <= self.CANDIDATES]
        return fits[-1] if fits else None

    def run_round(self, lib, inp, marker, latencies: bool) -> Round:
        cli, codes, metrics = lib.cli, lib.codes, lib.metrics
        Poly = lib.polymat.Poly
        ops = lib.linsolve.OPS
        rnd = Round()
        ops0, cpu0, wall0 = ops.count, clock(), time.perf_counter()
        for k, s in enumerate(inp["specs"]):
            marker.op = k
            rnd.attempted += 1
            q = s["p"] ** s["r"]
            try:
                t0 = clock()
                code = cli.generate_code(s["p"], s["r"], s["n"], s["k_blocks"], s["deg"], s["seed"])
                spent = clock() - t0
                G = zring.scaled_rows(code.g_blocks, s["p"])
                word = zring.transpose_apply(G, s["u"], q)
                word_polys = [Poly(code.ctx, list(c)) for c in word]
                t0 = clock()
                back = codes.preimage(code, word_polys)
                j = self.window_depth(q, code.n)
                d = report = None
                if j is not None:
                    d = metrics.column_distance(code, j)
                    report = metrics.erasure_capability(code, j, d)
                spent += clock() - t0
            except lib.errors.ConvringError as exc:
                rnd.failed += 1
                rnd.op_s.append(None)
                rnd.outputs.append(("failed", type(exc).__name__))
                continue
            rnd.op_s.append(spent)
            back = None if back is None else [zring.trimmed(x.coeffs) for x in back]
            H = zring.scaled_rows(code.h_blocks, s["p"])
            rnd.outputs.append((code.k_blocks, code.n, G, H, word, back, j, d, report))
        rnd.cpu = clock() - cpu0
        rnd.wall = time.perf_counter() - wall0
        rnd.zp_ops = ops.count - ops0
        return rnd

    def batches(self, inp, times):
        return batched(times)

    def check(self, lib, inp, rnd: Round, marker):
        for k, (s, got) in enumerate(zip(inp["specs"], rnd.outputs)):
            if got[0] == "failed":
                continue
            k_blocks, n, G, H, word, back, j, d, report = got
            q = s["p"] ** s["r"]
            _check(list(k_blocks) == s["k_blocks"], f"code {k}: block sizes {k_blocks}")
            _check(zring.annihilates(H, G, q), f"code {k}: H . G^T != 0")
            _check(back is not None, f"code {k}: preimage found no input for a codeword")
            _check(zring.transpose_apply(G, back, q) == word, f"code {k}: G^T preimage != word")
            if j is not None:
                _check_capability(f"code {k}", n, j, d, report)


WORKLOADS = {w.name: w for w in (Stream(), WindowList(), CodeDesign())}


def fingerprint(rnd: Round):
    """What must repeat exactly from round to round on one seed."""
    return rnd.windows, rnd.restarts, rnd.zp_ops, repr(rnd.outputs)
