"""JSON on-disk formats for codes, streams, and erasure patterns.

All formats use plain integers; polynomials are degree-ascending integer
lists.  Serialization is canonical (fixed key order, two-space indent,
trailing newline) so files round-trip byte-identically.  Loading checks
keys, shapes and entry types and raises ValueError on a malformed file
(a bool or a float is not an integer entry).
"""

from __future__ import annotations

import json
from typing import Sequence

from .codes import ConvCode
from .polymat import PolyMatrix
from .ring import RingContext


def _canon(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _key(doc, key: str):
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"missing key {key!r}")
    return doc[key]


def _int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what}: expected an integer, got {x!r}")
    return x


def _list(x, what: str, length: int | None = None) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what}: expected a list, got {x!r}")
    if length is not None and len(x) != length:
        raise ValueError(f"{what} has length {len(x)}, expected {length}")
    return x


def _symbols(doc, width_key: str, erasable: bool) -> tuple[int, list[list[int | None]]]:
    """The width and the symbol list of a stream or message document."""
    width = _int(_key(doc, width_key), width_key)
    symbols = []
    for t, sym in enumerate(_list(_key(doc, "symbols"), "symbols")):
        what = f"symbol at time {t}"
        symbols.append(
            [x if x is None and erasable else _int(x, what) for x in _list(sym, what, width)]
        )
    return width, symbols


def _blocks_to_json(blocks) -> list:
    return [[[list(e.coeffs) for e in row] for row in blk.entries] for blk in blocks]


def _blocks_from_json(ctx: RingContext, data, n: int, what: str):
    out = []
    for blk in _list(data, what):
        rows = [
            [[_int(c, what) for c in _list(poly, what)] for poly in _list(row, f"{what} row", n)]
            for row in _list(blk, what)
        ]
        out.append(PolyMatrix(ctx, rows, cols=n))
    return tuple(out)


def code_to_json(code: ConvCode) -> dict:
    return {
        "p": code.ctx.p,
        "r": code.ctx.r,
        "n": code.n,
        "k_blocks": list(code.k_blocks),
        "G": _blocks_to_json(code.g_blocks) if code.g_blocks is not None else None,
        "H": _blocks_to_json(code.h_blocks) if code.h_blocks is not None else None,
        "nu": code.nu,
    }


def code_from_json(data: dict) -> ConvCode:
    p, r, n = (_int(_key(data, k), k) for k in ("p", "r", "n"))
    ctx = RingContext(p, r)
    k_blocks = tuple(_int(x, "k_blocks") for x in _list(_key(data, "k_blocks"), "k_blocks"))
    g, h, nu = data.get("G"), data.get("H"), data.get("nu")
    return ConvCode(
        ctx=ctx,
        n=n,
        k_blocks=k_blocks,
        g_blocks=_blocks_from_json(ctx, g, n, "G") if g is not None else None,
        h_blocks=_blocks_from_json(ctx, h, n, "H") if h is not None else None,
        nu=_int(nu, "nu") if nu is not None else None,
    )


def save_code(path: str, code: ConvCode):
    with open(path, "w") as fh:
        fh.write(_canon(code_to_json(code)))


def load_code(path: str) -> ConvCode:
    with open(path) as fh:
        return code_from_json(json.load(fh))


def save_stream(path: str, n: int, symbols: Sequence[Sequence[int | None]]):
    doc = {"n": n, "symbols": [list(sym) for sym in symbols]}
    with open(path, "w") as fh:
        fh.write(_canon(doc))


def load_stream(path: str) -> tuple[int, list[list[int | None]]]:
    with open(path) as fh:
        return _symbols(json.load(fh), "n", erasable=True)


def save_pattern(path: str, erasures: Sequence[tuple[int, int]]):
    doc = {"erasures": [[t, c] for t, c in sorted(erasures)]}
    with open(path, "w") as fh:
        fh.write(_canon(doc))


def load_pattern(path: str) -> list[tuple[int, int]]:
    with open(path) as fh:
        doc = json.load(fh)
    return [
        tuple(_int(x, "erasure") for x in _list(pair, "erasure", 2))
        for pair in _list(_key(doc, "erasures"), "erasures")
    ]


def check_pattern_consistency(symbols: Sequence[Sequence[int | None]], erasures) -> None:
    """The pattern file is authoritative; any conflict with nulls is an error."""
    from_nulls = {
        (t, c) for t, sym in enumerate(symbols) for c, x in enumerate(sym) if x is None
    }
    declared = set(map(tuple, erasures))
    if from_nulls != declared:
        extra = sorted(from_nulls - declared)
        missing = sorted(declared - from_nulls)
        raise ValueError(
            f"pattern conflict: nulls not declared {extra}, declared not null {missing}"
        )


def load_message(path: str) -> tuple[int, list[list[int]]]:
    with open(path) as fh:
        return _symbols(json.load(fh), "k", erasable=False)


def save_report(path: str, report: dict):
    with open(path, "w") as fh:
        fh.write(_canon(report))


def load_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
