"""Command-line pipeline: generate, check, encode, erase, decode, report.

Subcommands
    gen      random observable code search
    check    print code parameters and observability
    encode   message file -> stream file
    channel  erase stream symbols (iid or Gilbert-Elliott), emit pattern
    decode   window or sequential decoding with a trial report
    oracle   brute-force window decoding (reference)
    stats    aggregate trial reports to CSV/JSON, optional scaling fit

Exit codes: 0 success, 1 decode found the received word invalid, 2 usage
or file format errors.  A sequential decode that halts on a list, or on an
invalid window after a policy "first" guess ("invalid-after-guess"), exits
0; its decisions say why it stopped.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import asdict, replace

from . import files
from .codes import ConvCode, _exact_parity_check, is_observable
from .decoder import (
    build_window_system,
    list_decode,
    materialize_list,
    oracle_decode,
    sequential_decode,
)
from .errors import ConstructionError, ConvringError, GenerationFailed, NotLeftPrime
from .linsolve import OPS
from .ring import RingContext


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def fit_loglog(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    import math

    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1)) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


# -- gen ---------------------------------------------------------------------


def generate_code(
    p: int,
    r: int,
    n: int,
    k_blocks: list[int],
    deg: int,
    seed: int,
    retries: int = 300,
) -> ConvCode:
    """Search for an observable code with the requested block layout."""
    ctx = RingContext(p, r)
    if len(k_blocks) != r:
        raise ValueError(f"need {r} block sizes, got {len(k_blocks)}")
    k = sum(k_blocks)
    if k == 0:
        raise ValueError("empty code requested (k = 0)")
    if k >= n:
        raise ValueError("k must be smaller than n")
    rng = random.Random(seed)
    scale = [ctx.p**level for level in range(r)]
    for _ in range(retries):
        rows = []
        for level, ki in enumerate(k_blocks):
            for _ in range(ki):
                rows.append(
                    [
                        [(scale[level] * rng.randrange(ctx.q)) % ctx.q for _ in range(deg + 1)]
                        for _ in range(n)
                    ]
                )
        try:
            code = ConvCode.from_generator(ctx, rows)
        except ValueError:
            continue
        if code.k_blocks != tuple(k_blocks):
            continue
        try:
            syn = _exact_parity_check(code)
        except (NotLeftPrime, ConstructionError):
            continue  # not observable, or a degenerate generator stack
        return replace(code, h_blocks=syn.h_blocks, synthesis=syn)
    raise GenerationFailed(f"no observable code found in {retries} attempts")


def _cmd_gen(args) -> int:
    k_blocks = [int(x) for x in args.k_blocks.split(",")]
    code = generate_code(args.p, args.r, args.n, k_blocks, args.deg, args.seed)
    files.save_code(args.out, code)
    print(f"wrote {args.out} (n={code.n}, k={code.k}, nu={code.nu})")
    return 0


# -- check -------------------------------------------------------------------


def _cmd_check(args) -> int:
    code = files.load_code(args.code)
    obs = is_observable(code)
    print(f"p: {code.ctx.p}")
    print(f"r: {code.ctx.r}")
    print(f"n: {code.n}")
    print(f"k_blocks: {list(code.k_blocks)}")
    print(f"nu: {code.nu}")
    print(f"observable: {'true' if obs else 'false'}")
    return 0


# -- encode ------------------------------------------------------------------


def _cmd_encode(args) -> int:
    code = files.load_code(args.code)
    k, message = files.load_message(args.message)
    if k != code.k:
        return _fail_usage(f"message k={k} does not match code k={code.k}")
    stream = code.encode(message)
    files.save_stream(args.out, code.n, stream)
    print(f"wrote {args.out} ({len(stream)} symbols)")
    return 0


# -- channel -----------------------------------------------------------------


def erase_stream(symbols, model: str, seed: int, eps: float, ge_params=None):
    """Erase coordinates independently (iid) or with Gilbert-Elliott bursts."""
    rng = random.Random(seed)
    erasures = []
    out = []
    if model == "iid":
        for t, sym in enumerate(symbols):
            row = []
            for c, x in enumerate(sym):
                if rng.random() < eps:
                    row.append(None)
                    erasures.append((t, c))
                else:
                    row.append(x)
            out.append(row)
    elif model == "ge":
        good_loss, bad_loss, g2b, b2g = ge_params
        state_bad = False
        for t, sym in enumerate(symbols):
            row = []
            for c, x in enumerate(sym):
                loss = bad_loss if state_bad else good_loss
                if rng.random() < loss:
                    row.append(None)
                    erasures.append((t, c))
                else:
                    row.append(x)
                flip = g2b if not state_bad else b2g
                if rng.random() < flip:
                    state_bad = not state_bad
            out.append(row)
    else:
        raise ValueError(f"unknown channel model {model!r}")
    return out, erasures


def _cmd_channel(args) -> int:
    n, symbols = files.load_stream(args.input)
    ge_params = None
    if args.model == "ge":
        ge_params = tuple(float(x) for x in args.ge.split(","))
        if len(ge_params) != 4:
            return _fail_usage("--ge needs good_loss,bad_loss,g2b,b2g")
    out, erasures = erase_stream(symbols, args.model, args.seed, args.eps, ge_params)
    files.save_stream(args.out_received, n, out)
    files.save_pattern(args.out_pattern, erasures)
    print(f"erased {len(erasures)} coordinates over {len(symbols)} symbols")
    return 0


# -- decode ------------------------------------------------------------------


def _load_received(args):
    n, symbols = files.load_stream(args.received)
    if args.pattern:
        erasures = files.load_pattern(args.pattern)
        files.check_pattern_consistency(symbols, erasures)
    return n, symbols


def _window_report(code, received, i, T, limit) -> dict:
    OPS.reset()
    t0 = time.perf_counter()
    sysw = build_window_system(code, received, i, T)
    outcome = list_decode(sysw)
    elapsed = time.perf_counter() - t0
    report = {
        "i": i,
        "T": T,
        "e": sysw.e,
        "strata_ranks": [st.rank for st in outcome.stages],
        "outcome": outcome.kind,
        "list_size": outcome.list_size,
        "rows": sum(not sysw.rhs[k] % pv for k, pv in sysw.pattern.nonzero),
        "wall_time_s": elapsed,
        "zp_ops": OPS.count,
    }
    if outcome.kind == "list" and limit:
        windows, truncated = materialize_list(outcome, limit=limit)
        report["materialized"] = len(windows)
        report["truncated"] = truncated
    if outcome.kind == "invalid":
        report["witness"] = list(map(str, outcome.invalid_witness or ()))
    return report


def _cmd_decode(args) -> int:
    code = files.load_code(args.code)
    n, received = _load_received(args)
    if n != code.n:
        return _fail_usage(f"stream n={n} does not match code n={code.n}")
    if args.at is not None:
        report = _window_report(code, received, args.at, args.T, args.limit)
        if args.format == "csv":
            keys = [k for k in report if not isinstance(report[k], (list, dict))]
            print(",".join(keys))
            print(",".join(str(report[k]) for k in keys))
        else:
            print(json.dumps(report, indent=2))
        if args.report:
            files.save_report(args.report, {"windows": [report]})
        print(f"outcome: {report['outcome']}")
        print(f"list size: {report['list_size']}")
        return 1 if report["outcome"] == "invalid" else 0
    # sequential pass over the whole stream
    OPS.reset()
    t0 = time.perf_counter()
    result = sequential_decode(code, received, args.T, policy=args.policy)
    elapsed = time.perf_counter() - t0
    report = {
        "decisions": [list(map(str, d)) for d in result.decisions],
        "complete": result.complete,
        "halted_at": result.halted_at,
        "wall_time_s": elapsed,
        "zp_ops": OPS.count,
        "plan_counts": asdict(result.plan_counts),
    }
    print(json.dumps(report, indent=2))
    if args.report:
        files.save_report(args.report, report)
    return 1 if result.decisions and result.decisions[-1][1] == "invalid" else 0


def _cmd_oracle(args) -> int:
    code = files.load_code(args.code)
    n, received = _load_received(args)
    if n != code.n:
        return _fail_usage(f"stream n={n} does not match code n={code.n}")
    solutions = oracle_decode(code, received, args.at, args.T)
    print(f"solutions: {len(solutions)}")
    shown = 0
    for window in sorted(solutions):
        print(json.dumps([list(sym) for sym in window]))
        shown += 1
        if args.limit and shown >= args.limit:
            print("... (truncated)")
            break
    return 1 if not solutions else 0


# -- stats -------------------------------------------------------------------


def aggregate_reports(reports: list[dict]) -> dict:
    windows = []
    for rep in reports:
        windows.extend(rep.get("windows", []))
    if not windows:
        return {"windows": 0}
    uniq = sum(1 for w in windows if w["outcome"] == "unique")
    lists = [w["list_size"] for w in windows if w["outcome"] != "invalid"]
    return {
        "windows": len(windows),
        "unique_rate": uniq / len(windows),
        "mean_list_size": sum(lists) / len(lists) if lists else None,
        "total_zp_ops": sum(w.get("zp_ops", 0) for w in windows),
        "mean_zp_ops": sum(w.get("zp_ops", 0) for w in windows) / len(windows),
    }


def _cmd_stats(args) -> int:
    reports = [files.load_report(path) for path in args.reports]
    summary = aggregate_reports(reports)
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        keys = list(summary)
        print(",".join(keys))
        print(",".join(str(summary[k]) for k in keys))
    return 0


# -- entry -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="convring", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="search for a random observable code")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k-blocks", required=True, help="comma separated, one per level")
    g.add_argument("--deg", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_gen)

    c = sub.add_parser("check", help="print code parameters")
    c.add_argument("--code", required=True)
    c.set_defaults(fn=_cmd_check)

    e = sub.add_parser("encode", help="encode a message file")
    e.add_argument("--code", required=True)
    e.add_argument("--message", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=_cmd_encode)

    ch = sub.add_parser("channel", help="erase symbols through a loss model")
    ch.add_argument("--input", required=True)
    ch.add_argument("--model", choices=["iid", "ge"], default="iid")
    ch.add_argument("--eps", type=float, default=0.1)
    ch.add_argument("--ge", default="0.01,0.5,0.05,0.3", help="good,bad,g2b,b2g")
    ch.add_argument("--seed", type=int, default=0)
    ch.add_argument("--out-received", required=True)
    ch.add_argument("--out-pattern", required=True)
    ch.set_defaults(fn=_cmd_channel)

    d = sub.add_parser("decode", help="decode a received stream")
    d.add_argument("--code", required=True)
    d.add_argument("--received", required=True)
    d.add_argument("--pattern")
    d.add_argument("--at", type=int, default=None, help="window start; omit for sequential")
    d.add_argument("-T", type=int, default=0, help="delay constraint")
    d.add_argument("--limit", type=int, default=0, help="materialization cap")
    d.add_argument("--policy", choices=["halt", "first", "branch"], default="halt")
    d.add_argument("--report", help="write a JSON trial report here")
    d.add_argument("--format", choices=["json", "csv"], default="json")
    d.set_defaults(fn=_cmd_decode)

    o = sub.add_parser("oracle", help="brute-force window decode")
    o.add_argument("--code", required=True)
    o.add_argument("--received", required=True)
    o.add_argument("--pattern")
    o.add_argument("--at", type=int, required=True)
    o.add_argument("-T", type=int, default=0)
    o.add_argument("--limit", type=int, default=16)
    o.set_defaults(fn=_cmd_oracle)

    s = sub.add_parser("stats", help="aggregate decode reports")
    s.add_argument("reports", nargs="*")
    s.add_argument("--format", choices=["json", "csv"], default="json")
    s.set_defaults(fn=_cmd_stats)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        return _fail_usage(str(exc))
    except json.JSONDecodeError as exc:
        return _fail_usage(f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except (ValueError, ConvringError) as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
