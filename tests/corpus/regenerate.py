"""The pinned decoder corpus: fixed inputs, and a digest of what the decoder makes of each.

Each case is one list window or one sequential decode on seeded inputs,
or one code built by cli.generate_code from a fixed spec.  Its record is
canonical JSON (sorted keys, no spaces) hashed with SHA-256, kept in
digests.json beside this script with the Z_p op count (linsolve.OPS) of
the case.  A list window records its kind, list size, witness, stage
reports, fold events and materialize_list(limit=16); a sequential decode
its stream, decisions, halt time and plan counts; a code its serialized
form (files.code_to_json).  tests/test_corpus.py recomputes every case and
compares.

Regenerate from the root of the source tree:

    PYTHONPATH=src python tests/corpus/regenerate.py

A digest should move only with a declared change of the algorithm.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from dataclasses import astuple
from pathlib import Path

from convring import (
    ConvCode,
    RingContext,
    build_window_system,
    list_decode,
    materialize_list,
    sequential_decode,
)
from convring.cli import generate_code
from convring.files import code_to_json
from convring.linsolve import OPS

DIGESTS = Path(__file__).with_name("digests.json")

# (p, r) of the list-window rings: Z_4, Z_8, Z_9, Z_16, Z_25, Z_27
RINGS = ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3))
WINDOWS_PER_CODE = 16
RATES = (0.2, 0.4, 0.7, 1.0)


def _random_code(ctx: RingContext, seed: int, nu: int):
    """A seeded kernel code over ctx with a generator side and parity degree nu."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(3, 4)
        lsizes = [rng.randint(1, n - 1)] + [rng.randint(0, 1) for _ in range(ctx.r - 1)]
        hs = [[[0] * n for _ in range(sum(lsizes))] for _ in range(nu + 1)]
        row = 0
        for lvl, li in enumerate(lsizes):
            for _ in range(li):
                for j in range(nu + 1):
                    hs[j][row] = [ctx.p**lvl * rng.randrange(ctx.q) % ctx.q for _ in range(n)]
                row += 1
        try:
            code = ConvCode.from_parity_coeffs(ctx, hs)
        except Exception:
            continue
        if code.nu == nu and code.g_blocks is not None and code.k > 0:
            return code


@functools.cache
def code(p: int, r: int, nu: int):
    return _random_code(RingContext(p, r), 1000 * p + 10 * r + nu, nu)


def window_case(p: int, r: int, nu: int, k: int):
    """(code, received, i, T, terminated) of list window k on the code of (p, r, nu)."""
    c = code(p, r, nu)
    rng = random.Random(f"window {p} {r} {nu} {k}")
    q = c.ctx.q
    T = rng.randint(1, 4)
    terminated = k % 3 != 2
    steps = rng.randint(2, 6)
    rx = c.encode([[rng.randrange(q) for _ in range(c.k)] for _ in range(steps)])
    L = len(rx)
    i = rng.randint(0, L - 1)
    Tw = T if terminated else min(T, L - 1 - i)
    rate = RATES[k % len(RATES)]
    for t in range(i, min(L, i + Tw + 1)):
        rx[t] = [None if rng.random() < rate else x for x in rx[t]]
    if k % 3 == 1:  # one known symbol the window reads is off
        known = [
            (t, col)
            for t in range(max(0, i - c.nu), min(L, i + Tw + 1))
            for col in range(c.n)
            if rx[t][col] is not None
        ]
        if known:
            t, col = rng.choice(known)
            rx[t][col] = (rx[t][col] + rng.randrange(1, q)) % q
    return c, rx, i, Tw, terminated


def window_record(c, rx, i, T, terminated) -> dict:
    out = list_decode(build_window_system(c, rx, i, T, terminated=terminated))
    windows, truncated = materialize_list(out, limit=16)
    return {
        "kind": out.kind,
        "size": out.list_size,
        "witness": out.invalid_witness,
        "stages": [
            [s.t, s.rank, s.new_params, s.solutions.feasible, s.solutions.particular, s.solutions.basis]
            for s in out.stages
        ],
        "folds": [br.space.events for br in out.branches],
        "windows": windows,
        "truncated": truncated,
    }


# (name, (p, r, nu), stream length, erasure rate, T, terminated)
STREAMS = (
    ("z4", (2, 2, 1), 40, 0.3, 2, True),
    ("z8", (2, 3, 1), 40, 0.25, 2, True),
    ("z9", (3, 2, 1), 60, 0.25, 2, True),
    ("z9-open", (3, 2, 2), 40, 0.2, 3, False),
    ("z25", (5, 2, 1), 40, 0.3, 2, True),
    ("z27", (3, 3, 1), 30, 0.2, 2, True),
)


def stream_case(name: str):
    """(code, received, T, terminated) of the named stream."""
    _, (p, r, nu), length, eps, T, terminated = next(s for s in STREAMS if s[0] == name)
    c = code(p, r, nu)
    rng = random.Random(f"stream {name}")
    q = c.ctx.q
    rx = c.encode([[rng.randrange(q) for _ in range(c.k)] for _ in range(length)])
    rx = [[None if rng.random() < eps else x for x in sym] for sym in rx]
    return c, rx, T, terminated


def stream_record(c, rx, T, terminated, policy) -> dict:
    res = sequential_decode(c, rx, T, policy=policy, terminated=terminated)
    return {
        "stream": res.stream,
        "decisions": res.decisions,
        "halted_at": res.halted_at,
        "plan_counts": astuple(res.plan_counts),
    }


# (name, generate_code spec): the README walkthrough's code, the benchmark
# stream's (also the Z_9 plan test code), the other plan test codes and the
# high-degree construction of the CI
CODE_SPECS = (
    ("readme", dict(p=2, r=2, n=4, k_blocks=[1, 0], deg=1, seed=7)),
    ("stream", dict(p=3, r=2, n=4, k_blocks=[1, 0], deg=1, seed=7)),
    ("plan z4", dict(p=2, r=2, n=4, k_blocks=[1, 1], deg=1, seed=2)),
    ("plan z8", dict(p=2, r=3, n=5, k_blocks=[1, 1, 0], deg=1, seed=3)),
    ("plan z25", dict(p=5, r=2, n=4, k_blocks=[1, 0], deg=1, seed=4)),
    ("high-degree", dict(p=2, r=2, n=8, k_blocks=[2, 2], deg=4, seed=7)),
)


def code_record(spec: dict) -> dict:
    return {"code": code_to_json(generate_code(**spec))}


def cases():
    """(case id, record function) for every case, in order."""
    for p, r in RINGS:
        for nu in (1, 2):
            for k in range(WINDOWS_PER_CODE):
                yield f"window z{p**r} nu{nu} #{k}", lambda p=p, r=r, nu=nu, k=k: window_record(
                    *window_case(p, r, nu, k)
                )
    for name, *_ in STREAMS:
        for policy in ("halt", "first"):
            yield f"stream {name} {policy}", lambda name=name, policy=policy: stream_record(
                *stream_case(name), policy
            )
    for name, spec in CODE_SPECS:
        yield f"code {name}", functools.partial(code_record, spec)


def digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(make) -> tuple[dict, dict]:
    """(record, {"digest", "ops"}) of one case."""
    before = OPS.count
    record = make()
    return record, {"digest": digest(record), "ops": OPS.count - before}


def main() -> int:
    corpus, seen = {}, {}
    for case_id, make in cases():
        record, corpus[case_id] = run_case(make)
        if "kind" in record:
            key = record["kind"] if record["witness"] is None else f"invalid {record['witness'][0]}"
            seen[key] = seen.get(key, 0) + 1
            if any(record["folds"]):
                seen["fold"] = seen.get("fold", 0) + 1
        elif "decisions" in record:
            key = record["decisions"][-1][1] if record["decisions"] else "none"
            seen[f"stream ends {key}"] = seen.get(f"stream ends {key}", 0) + 1
        else:
            seen["code"] = seen.get("code", 0) + 1
    DIGESTS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"{len(corpus)} cases -> {DIGESTS}", file=sys.stderr)
    for key, count in sorted(seen.items()):
        print(f"  {key}: {count}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
