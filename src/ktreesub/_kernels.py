"""Hot numeric kernels in numpy and plain Python.

Everything here is exact integer/boolean work.  The Smith normal form runs a
guarded int64 pass and falls back to exact big-integer arithmetic when the
entries could overflow.
"""

from __future__ import annotations

from math import comb

import numpy as np

# Guard for the int64 Smith normal form pass: with entries below this bound
# every update term fits int64 (bound**2 * 2 < 2**63).
_SNF_INT64_BOUND = np.int64(1) << 31


# ---------------------------------------------------------------------------
# counting (pure python, exact big integers)
# ---------------------------------------------------------------------------


def count_partitions_modk(m: int, k: int) -> int:
    """Number of set partitions of {1..m} with all block sizes ≡ 1 (mod k).

    Recurrence on the block containing the smallest element; k=1 yields the
    Bell numbers.
    """
    c = [1] + [0] * m
    for t in range(1, m + 1):
        total = 0
        s = 1
        while s <= t:
            total += comb(t - 1, s - 1) * c[t - s]
            s += k
        c[t] = total
    return c[m]


# ---------------------------------------------------------------------------
# restricted-growth-string enumeration, filtered by block-size residues
# ---------------------------------------------------------------------------


def rgs_filtered(m: int, k: int) -> np.ndarray:
    """All restricted growth strings on m symbols whose block sizes are
    ≡ 1 (mod k), as an (N, m) int8 array in lexicographic order."""
    n = count_partitions_modk(m, k)
    out = np.zeros((n, m), dtype=np.int8)
    if m == 0:
        return out
    a = [0] * m
    bmax = [0] * (m + 1)  # bmax[j] = max(a[:j])
    idx = 0
    while True:
        sizes = [0] * (max(a) + 1)
        for v in a:
            sizes[v] += 1
        if all((s - 1) % k == 0 for s in sizes):
            out[idx, :] = a
            idx += 1
        j = m - 1
        while j > 0 and a[j] > bmax[j]:
            j -= 1
        if j == 0:
            break
        a[j] += 1
        for i in range(j + 1, m):
            a[i] = 0
        for i in range(j, m):
            bmax[i + 1] = max(bmax[i], a[i])
    if idx != n:
        raise AssertionError(f"rgs enumeration produced {idx} rows, expected {n}")
    return out


# ---------------------------------------------------------------------------
# refinement order on partitions given as RGS rows
# ---------------------------------------------------------------------------


def refinement_leq(rgs: np.ndarray) -> np.ndarray:
    """Boolean matrix: out[p, q] iff partition row p refines row q."""
    n, m = rgs.shape
    # fo[p, c]: first position of block c in row p
    fo = np.zeros((n, m), dtype=np.int32)
    for c in range(m):
        eq = rgs == c
        fo[:, c] = np.where(eq.any(axis=1), eq.argmax(axis=1), 0)
    out = np.empty((n, n), dtype=bool)
    for p in range(n):
        cols = fo[p][rgs[p]]
        out[p] = (rgs == rgs[:, cols]).all(axis=1)
    return out


# ---------------------------------------------------------------------------
# reflexive-transitive closure of a relation
# ---------------------------------------------------------------------------


def closure(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean relation matrix."""
    out = np.array(adj, dtype=bool)
    np.fill_diagonal(out, True)
    while True:
        # boolean product: a uint8 product would count paths modulo 256
        nxt = out | (out @ out)
        if (nxt == out).all():
            return out
        out = nxt


# ---------------------------------------------------------------------------
# pairwise disjoint-or-comparable test over block bitmasks
# ---------------------------------------------------------------------------


def block_compat(masks: np.ndarray) -> np.ndarray:
    """out[i, j] iff block masks i and j are disjoint or nested."""
    masks = np.asarray(masks, dtype=np.uint64)
    inter = masks[:, None] & masks[None, :]
    return (inter == 0) | (inter == masks[:, None]) | (inter == masks[None, :])


# ---------------------------------------------------------------------------
# Smith normal form diagonal (invariant factors)
# ---------------------------------------------------------------------------


def _snf_int64(a, bound):
    r, c = a.shape
    n = min(r, c)
    diag = np.zeros(n, dtype=np.int64)
    t = 0
    while t < n:
        sub = a[t:, t:]
        nz = sub != 0
        if not nz.any():
            break
        mag = np.where(nz, np.abs(sub), np.iinfo(np.int64).max)
        i, j = np.unravel_index(np.argmin(mag), mag.shape)
        a[[t, t + i], :] = a[[t + i, t], :]
        a[:, [t, t + j]] = a[:, [t + j, t]]
        while True:
            if np.abs(a[t:, t:]).max() > bound:
                return diag, False
            piv = a[t, t]
            col = a[t + 1 :, t]
            if col.any():
                q = col // piv
                a[t + 1 :, t:] -= q[:, None] * a[t, t:]
                rem = a[t + 1 :, t]
                if rem.any():
                    i = int(np.flatnonzero(rem)[0]) + t + 1
                    a[[t, i], :] = a[[i, t], :]
                    continue
            row = a[t, t + 1 :]
            if row.any():
                q = row // piv
                a[t:, t + 1 :] -= a[t:, t, None] * q[None, :]
                rem = a[t, t + 1 :]
                if rem.any():
                    j = int(np.flatnonzero(rem)[0]) + t + 1
                    a[:, [t, j]] = a[:, [j, t]]
                    continue
            tail = a[t + 1 :, t + 1 :]
            bad = np.argwhere(tail % piv != 0)
            if bad.size:
                i = int(bad[0, 0]) + t + 1
                a[t, t:] += a[i, t:]
                continue
            break
        diag[t] = abs(int(a[t, t]))
        t += 1
    return diag, True


def _snf_exact_python(rows):
    """Reference Smith normal form over arbitrary-precision integers.

    ``rows`` is a list of lists of ints; returns the nonnegative invariant
    factors (including trailing zeros up to min(r, c)).
    """
    a = [list(row) for row in rows]
    r = len(a)
    c = len(a[0]) if r else 0
    n = min(r, c)
    diag = [0] * n
    t = 0
    while t < n:
        best = None
        for i in range(t, r):
            for j in range(t, c):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        while True:
            piv = a[t][t]
            restart = False
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    q = a[i][t] // piv
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    q = a[t][j] // piv
                    if q:
                        for i in range(t, r):
                            a[i][j] -= q * a[i][t]
                    if a[t][j] != 0:
                        for i in range(r):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        restart = True
                        break
            if restart:
                continue
            fixed = False
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % piv != 0:
                        a[t] = [x + y for x, y in zip(a[t], a[i])]
                        fixed = True
                        break
                if fixed:
                    break
            if not fixed:
                break
        diag[t] = abs(a[t][t])
        t += 1
    return diag


def snf_diagonal(mat) -> list:
    """Invariant factors of an integer matrix (nonnegative, divisibility
    ordered, padded with zeros to min(r, c)).

    Tries the guarded int64 pass first and falls back to exact
    big-integer arithmetic if entries threaten to overflow.
    """
    arr = np.asarray(mat)
    if arr.size == 0:
        return []
    if arr.ndim != 2:
        raise ValueError("snf_diagonal expects a 2d matrix")
    exact_needed = arr.dtype == object or np.abs(arr).max() > int(_SNF_INT64_BOUND)
    if not exact_needed:
        work = arr.astype(np.int64).copy()
        diag, ok = _snf_int64(work, _SNF_INT64_BOUND)
        if ok:
            return [int(d) for d in diag]
    rows = [[int(x) for x in row] for row in arr]
    return _snf_exact_python(rows)

