"""Run one convring benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

Run from the root of a source tree: the library is imported from ``src/``
next to this directory and nowhere else.  The workload's inputs are built
from ``--seed`` (see ``workloads.py``); rounds over them repeat until
``--seconds`` of measurement have passed.  Every output is checked, and a
wrong one makes the run exit 1 without a result.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  An op
is a window decision of the sequential decoder on ``stream`` (the gap
between window starts, marked by one timestamp a window), one window decode
on ``window-list`` and one code on ``code-design``.  Ops are timed in CPU
seconds of this single-threaded process, and each op's time is its least
over the run's rounds: every round repeats the same ops, and interference
from other work on the machine only ever adds time.

On a shared virtual machine the interpreter itself can run up to twice as
slow for minutes at a time, with no stolen time to show for it.  So the run
also times a fixed pure-Python reference kernel (``workloads.reference_s``)
before and after each set-up and round.  Each set-up's time is scaled by
``REF_S`` over the kernel's least time around it, and the op times by
``REF_S`` over the kernel's least time in the run, which matches taking
each op's least time: the figures read as on a machine where the kernel
takes 5 ms.  The unscaled figures and the kernel's times are printed on
the line before the result.

* ``throughput_per_s``: work done per second, the median over batches of 25
  consecutive ops (one batch on ``stream``): sent symbols decoded on
  ``stream``, windows on ``window-list``, codes on ``code-design``.
* ``op_ms_p50``, ``op_ms_p95``: percentiles of the op times.  The sample
  counts are printed on the line before the result.
* ``setup_s``: importing convring afresh and building the inputs, the
  median of five set-ups.

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of ``layers.py`` from the traced ones, with
``trace.overhead_frac``: the median ratio of a traced round's time to the
untraced round before it, minus one.  Spans are written to
``perfbench/out/``.

Every run also records the Z_p op count of one round in
``perfbench/out/zp_ops.json`` and fails when an earlier run on the same
seed and the same sources counted differently.
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import platform
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 5
REF_S = 0.005  # nominal time of the reference kernel
REF_REPS = 5

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class SetupError(Exception):
    """The source tree does not hold the library."""


def load_library():
    """Import convring afresh from SRC, with every module the benchmark uses."""
    for key in [k for k in sys.modules if k == "convring" or k.startswith("convring.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    if not (SRC / "convring" / "__init__.py").is_file():
        raise SetupError(f"no convring package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("convring")
    if Path(lib.__file__).resolve().parent != (SRC / "convring").resolve():
        raise SetupError(f"convring imported from {lib.__file__}, not from {SRC}")
    for sub in ("cli", "codes", "decoder", "errors", "files", "linsolve", "metrics", "polymat", "ring"):
        importlib.import_module(f"convring.{sub}")
    return lib


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "convring").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, lib) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "convring": lib.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "clock": "process CPU time",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def reference() -> float:
    """The reference kernel's least time over REF_REPS runs, now."""
    return min(workloads.reference_s() for _ in range(REF_REPS))


def summarize(wl, inputs, op_times, setup_times) -> dict:
    """Unscaled end-to-end metrics from each op's least time over the rounds."""
    best = [None if None in times else min(times) for times in zip(*op_times)]
    lat_ms = [t * 1e3 for t in best if t is not None]
    batches = [n / s for n, s in wl.batches(inputs, best) if s > 0]
    if not lat_ms or not batches:
        raise workloads.CheckFailed("no op completed")
    return {
        "throughput_per_s": statistics.median(batches),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p95": statistics.quantiles(lat_ms, n=20, method="inclusive")[18],
        "setup_s": statistics.median(setup_times),
    }


def record_zp_ops(workload: str, seed: int, zp_ops: int):
    """Fail when an earlier run on this seed and these sources counted differently."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "zp_ops.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}:{seed}:{source_digest()}"
    if key in seen and seen[key] != zp_ops:
        raise workloads.CheckFailed(
            f"Z_p op count {zp_ops} differs from {seen[key]} counted by an earlier run"
        )
    seen[key] = zp_ops
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def run(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    setup_times, setup_scaled = [], []
    ref = reference()
    for _ in range(SETUPS):
        lib = inputs = None  # each set-up starts from a heap without the last one
        gc.collect()
        t0 = workloads.clock()
        lib = load_library()
        OUT.mkdir(exist_ok=True)
        inputs = wl.setup(lib, args.seed, OUT)
        setup_times.append(workloads.clock() - t0)
        after = reference()
        setup_scaled.append(setup_times[-1] * REF_S / min(ref, after))
        ref = after
    print(json.dumps({"provenance": provenance(args, lib)}))

    marker = types.SimpleNamespace(op=-1)
    rounds: list[workloads.Round] = []
    tracer = None
    started = time.perf_counter()
    if args.trace:
        tracer = spans.Tracer()
        with tracer.active(lib, spans.SETUP):
            inputs = wl.setup(lib, args.seed, OUT)
        untraced = []  # each traced round follows an untraced one, for the overhead
        while not rounds or time.perf_counter() - started < args.seconds:
            untraced.append(wl.run_round(lib, inputs, marker, latencies=False))
            with tracer.active(lib, spans.RUN):
                rounds.append(wl.run_round(lib, inputs, tracer, latencies=False))
        with tracer.active(lib, spans.CHECK):
            wl.check(lib, inputs, rounds[0], tracer)
    else:
        refs = [ref]  # the kernel's time before the first round and after each
        while not rounds or time.perf_counter() - started < args.seconds:
            rounds.append(wl.run_round(lib, inputs, marker, latencies=True))
            refs.append(reference())
        wl.check(lib, inputs, rounds[0], marker)

    every = rounds + (untraced if tracer is not None else [])
    first = workloads.fingerprint(rounds[0])
    if any(workloads.fingerprint(r) != first for r in every):
        raise workloads.CheckFailed("rounds on the same inputs differ")
    record_zp_ops(args.workload, args.seed, rounds[0].zp_ops)

    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    if tracer is not None:
        overhead = statistics.median(t.cpu / u.cpu for t, u in zip(rounds, untraced)) - 1
        metrics = layers.layer_metrics(
            tracer, rounds, sum(r.wall for r in rounds), overhead, failed / attempted
        )
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        samples = {"traced_rounds": len(rounds), "spans": len(tracer.spans)}
    else:
        raw = summarize(wl, inputs, [r.op_s for r in rounds], setup_times)
        scale = REF_S / min(refs)
        metrics = {
            "throughput_per_s": {"value": raw["throughput_per_s"] / scale, "unit": "1/s"},
            "op_ms_p50": {"value": raw["op_ms_p50"] * scale, "unit": "ms"},
            "op_ms_p95": {"value": raw["op_ms_p95"] * scale, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        }
        samples = {
            "rounds": len(rounds),
            "op_samples": sum(t is not None for t in rounds[0].op_s),
            "setups": SETUPS,
            "reference_ms": [round(x * 1e3, 3) for x in refs],
            "unscaled": raw,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if want != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(want ^ set(metrics))}")
    print(json.dumps({"samples": samples, "zp_ops_per_round": rounds[0].zp_ops}))
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except workloads.CheckFailed as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
