"""Independent exact arithmetic over Z_{p^r} for the benchmark's output checks.

Nothing here calls convring: codes are read as plain coefficient lists, and
window equations, list sizes and generator products are recomputed with
Python and numpy integers.
"""

from __future__ import annotations

import numpy as np


def scaled_rows(blocks, p: int) -> list[list[list[int]]]:
    """Assembled polynomial rows of layered blocks, level i scaled by p^i.

    Each row is a list of n degree-ascending coefficient lists.
    """
    return [
        [[p**level * c for c in entry.coeffs] for entry in row]
        for level, blk in enumerate(blocks)
        for row in blk.entries
    ]


def coeff_matrices(rows, q: int) -> list[list[list[int]]]:
    """H^0..H^nu of assembled rows, nu the largest degree with a nonzero entry mod q."""
    nu = max(
        (d for row in rows for entry in row for d, c in enumerate(entry) if c % q),
        default=0,
    )
    return [
        [[(entry[m] if m < len(entry) else 0) % q for entry in row] for row in rows]
        for m in range(nu + 1)
    ]


def window_equations(H, received, i: int, T: int, q: int):
    """Scaled equations A x = b of the window [i, i+T] in its erased entries.

    Unknowns are the erased (time, coord) entries in time-major order;
    times outside the received stream are zero (a terminated stream).
    """
    nu = len(H) - 1
    n = len(H[0][0]) if H[0] else 0
    L = len(received)

    def sym(t):
        return received[t] if 0 <= t < L else [0] * n

    cols = [(t, c) for t in range(i, i + T + 1) for c in range(n) if sym(t)[c] is None]
    index = {tc: k for k, tc in enumerate(cols)}
    A, b = [], []
    for s in range(i, i + T + 1):
        for ri in range(len(H[0])):
            row = [0] * len(cols)
            rhs = 0
            for m in range(nu + 1):
                x = sym(s - m)
                for c, a in enumerate(H[m][ri]):
                    if x[c] is None:
                        row[index[(s - m, c)]] += a
                    else:
                        rhs -= a * x[c]
            A.append([v % q for v in row])
            b.append(rhs % q)
    return A, b


def window_holds(H, window, history, q: int) -> bool:
    """Whether a filled window satisfies every sliding parity equation.

    history holds the nu symbols before the window, oldest first (zero
    before the stream start).
    """
    nu = len(H) - 1
    seq = list(history) + list(window)
    for s in range(nu, len(seq)):
        for ri in range(len(H[0])):
            acc = 0
            for m in range(nu + 1):
                acc += sum(a * x for a, x in zip(H[m][ri], seq[s - m]))
            if acc % q:
                return False
    return True


def _valuations(M, p: int, r: int):
    V = np.full(M.shape, r, dtype=np.int64)
    nz = M != 0
    V[nz] = 0
    for t in range(1, r):
        V[nz & (M % p**t == 0)] = t
    return V


def count_exponent(A, b, p: int, r: int) -> int | None:
    """log_p of the number of solutions of A x = b over Z_{p^r}, None if none.

    Valuation-pivot elimination (Howell 1986; Storjohann & Mulders 1998):
    Z_{p^r} is local, so pivoting on an entry of least p-adic valuation
    divides every other entry of its column and row exactly.  Reaching the
    diagonal p^{v_k} with the rows transformed alongside, the system is
    solvable when each transformed right-hand side is divisible by its
    p^{v_k} (and is zero past the rank), and then has p^(sum v_k +
    r (e - rank)) solutions.
    """
    q = p**r
    M = np.array(A, dtype=np.int64).reshape(len(A), -1) % q
    rhs = np.array(b, dtype=np.int64) % q
    m, e = M.shape
    vsum = 0
    rank = 0
    for k in range(min(m, e)):
        sub = M[k:, k:]
        if not sub.any():
            break
        V = _valuations(sub, p, r)
        di, dj = np.unravel_index(np.argmin(V), V.shape)
        v = int(V[di, dj])
        M[[k, k + di]] = M[[k + di, k]]
        rhs[[k, k + di]] = rhs[[k + di, k]]
        M[:, [k, k + dj]] = M[:, [k + dj, k]]
        pv = p**v
        unit_inv = pow(int(M[k, k]) // pv, -1, q)
        f = (M[k + 1 :, k] // pv) * unit_inv % q
        M[k + 1 :] = (M[k + 1 :] - f[:, None] * M[k]) % q
        rhs[k + 1 :] = (rhs[k + 1 :] - f * rhs[k]) % q
        if int(rhs[k]) % pv:
            return None
        vsum += v
        rank += 1
    if rhs[rank:].any():
        return None
    return vsum + r * (e - rank)


def poly_mul_add(acc: list[int], a, b, q: int) -> None:
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[i + j] = (acc[i + j] + x * y) % q


def trimmed(coeffs) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def annihilates(H_rows, G_rows, q: int) -> bool:
    """H . G^T == 0 over Z_q[D] for assembled rows of polynomials."""
    for h in H_rows:
        for g in G_rows:
            acc = [0] * (max(map(len, h)) + max(map(len, g)))
            for a, b in zip(h, g):
                poly_mul_add(acc, a, b, q)
            if any(acc):
                return False
    return True


def transpose_apply(G_rows, u, q: int) -> list[tuple[int, ...]]:
    """G^T u: coordinate c is sum_rows u_row * G[row][c] over Z_q[D]."""
    n = len(G_rows[0])
    width = max(len(e) for row in G_rows for e in row) + max((len(x) for x in u), default=1)
    out = []
    for c in range(n):
        acc = [0] * width
        for row, x in zip(G_rows, u):
            poly_mul_add(acc, x, row[c], q)
        out.append(trimmed(acc))
    return out
