"""Hot numeric kernels in numpy and plain Python.

Everything here is exact integer/boolean work.  The one Smith normal form,
:func:`smith_reduce`, works on sparse columns: unit pivots are eliminated
first, each on the smallest ±1 row of its column, and only the columns
without one go through the exact big-integer reduction.
``SimplicialComplex.reduced_homology`` hands it only what coreduction
leaves: the coboundary restricted to the cells left in two adjacent
dimensions, which no complex of the ladder has.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import comb

import numpy as np


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
    ≡ 1 (mod k), as an (N, m) int8 array in lexicographic order.

    Only these strings are generated.  A block of size s needs
    ``(1 - s) % k`` more elements; a prefix is extended only while the sum of
    these deficits fits in the positions left.  Every such prefix completes
    (fill the deficits, then open singleton blocks), so the search never
    backtracks out of a dead end.
    """
    n = count_partitions_modk(m, k)
    rows = []
    a = [0] * m
    sizes = []  # sizes[c]: elements placed in block c so far

    def extend(i, deficit):
        if i == m:
            rows.append(tuple(a))
            return
        left = m - i - 1
        for c, s in enumerate(sizes):
            d = deficit - (1 - s) % k + (-s) % k
            if d <= left:
                a[i] = c
                sizes[c] = s + 1
                extend(i + 1, d)
                sizes[c] = s
        if deficit <= left:
            a[i] = len(sizes)
            sizes.append(1)
            extend(i + 1, deficit)
            sizes.pop()

    extend(0, 0)
    if len(rows) != n:
        raise AssertionError(f"rgs enumeration produced {len(rows)} rows, expected {n}")
    return np.array(rows, dtype=np.int8).reshape(n, m)


# ---------------------------------------------------------------------------
# refinement order on partitions given as RGS rows, in closed form
# ---------------------------------------------------------------------------


def coarsening_pairs(rgs: np.ndarray, k: int):
    """The strict refinement order on all of Π^(k)_m, as two arrays
    (below, above) of row numbers of ``rgs``, the (N, m) array of
    :func:`rgs_filtered` in its lexicographic order.

    A row x with b blocks is refined strictly by exactly the partitions that
    merge its blocks into groups of sizes ≡ 1 (mod k), since a union of t
    blocks of sizes ≡ 1 has size ≡ t.  So the rows above x are y[x] for the
    rows y of ``rgs_filtered(b, k)`` other than the all-singletons one, and
    these are again restricted growth strings (the blocks of x are numbered
    by their least elements).  They are found by binary search on the rows
    as byte strings, whose order is the lexicographic one.  No N × N array
    is made: the work is one row per comparable pair.
    """
    n, m = rgs.shape
    rows = np.ascontiguousarray(rgs)
    keys = rows.view(np.dtype((np.void, m))).ravel()
    blocks = rows.max(axis=1).astype(np.intp) + 1
    below, above = [], []
    for b in sorted(set(blocks.tolist())):
        xs = np.flatnonzero(blocks == b)
        ys = rows if b == m else rgs_filtered(b, k)
        ys = ys[ys.max(axis=1) + 1 < b]  # merges at least two blocks
        if not len(ys):
            continue
        step = max(1, (1 << 20) // (len(ys) * m))
        for lo in range(0, len(xs), step):
            part = xs[lo : lo + step]
            merged = np.ascontiguousarray(ys[:, rows[part]].transpose(1, 0, 2))
            merged = merged.view(np.dtype((np.void, m))).ravel()
            at = np.minimum(keys.searchsorted(merged), n - 1)
            if not (keys[at] == merged).all():
                raise AssertionError("a coarsening is missing from the rows")
            below.append(np.repeat(part, len(ys)))
            above.append(at)
    if not below:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    return np.concatenate(below), np.concatenate(above)


# ---------------------------------------------------------------------------
# Smith normal form diagonal (invariant factors)
# ---------------------------------------------------------------------------


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


def _reduce_by_pivots(col, pivots, order):
    """Clear ``col`` (a {row: value} dict, updated in place) on every pivot
    row by subtracting multiples of the pivot columns.

    ``pivots[row]`` is a column with a ±1 entry at ``row``, the
    ``order[row]``-th pivot made.  A pivot column is zero on the rows of the
    pivots made before it, so taking the pivot rows in creation order never
    brings back a cleared one.
    """
    heap = [(order[r], r) for r in col if r in pivots]
    heapify(heap)
    while heap:
        _, r = heappop(heap)
        a = col.get(r)
        if not a:
            continue
        p = pivots[r]
        f = a * p[r]  # p[r] is ±1
        for s, v in p.items():
            w = col.get(s, 0) - f * v
            if w:
                if s not in col and s in pivots:
                    heappush(heap, (order[s], s))
                col[s] = w
            else:
                col.pop(s, None)


def smith_reduce(columns):
    """Smith normal form of an integer matrix given as sparse columns, as
    ``(pivots, factors)``.

    ``columns`` holds one {row index: nonzero int} dict per column; the dicts
    are reduced in place.  Each column is cleared on the existing unit pivots
    and then pivots on one of its ±1 entries; these are unimodular column
    operations, and each unit pivot is one invariant factor 1.  ``pivots``
    maps each unit pivot's row to its reduced column, in the order the
    pivots were made; a pivot column is zero on the rows of the pivots made
    before it.  The columns without a unit are cleared on every pivot and
    the rest, on the rows no pivot owns, goes to the exact big-integer
    reduction, whose nonzero invariant factors are ``factors``
    (divisibility ordered).
    """
    # two dicts, not an (order, column) tuple per pivot: the tuples are
    # garbage-collected containers that live long, and enough of them set
    # off a full collection over every live object (on (1,7), 0.5 s of the
    # next homology call, with the order complex alive)
    pivots, order = {}, {}
    residual = []
    for col in columns:
        _reduce_by_pivots(col, pivots, order)
        # the smallest unit row: on coboundary columns over lexicographically
        # sorted faces this keeps fill-in low ((2,5) order complex: 0.17 s,
        # 0.51 s with the largest unit row)
        unit = min((r for r, v in col.items() if v in (1, -1)), default=None)
        if unit is not None:
            order[unit] = len(order)
            pivots[unit] = col
        elif col:
            residual.append(col)
    for col in residual:
        _reduce_by_pivots(col, pivots, order)
    residual = [col for col in residual if col]
    rows = sorted({r for col in residual for r in col})
    rest = _snf_exact_python([[col.get(r, 0) for col in residual] for r in rows])
    return pivots, [x for x in rest if x]

