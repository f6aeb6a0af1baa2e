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


def rgs_filtered(m: int, k: int) -> list:
    """The restricted growth strings whose block sizes are ≡ 1 (mod k), on
    every number of symbols up to m: ``tables[b]`` holds those on b symbols
    as a (N_b, b) int8 array in lexicographic order, for b = 0..m.

    One growth makes every table (restricted growth strings as in Knuth,
    TAOCP 4A, 7.2.1.5).  Level i holds the prefixes of length i that
    complete to a string on m symbols: a block of size s needs
    ``(1 - s) % k`` more elements, and a prefix is kept only while the sum
    of these deficits fits in the positions left.  Every kept prefix
    completes (fill the deficits, then open singleton blocks), so no level
    holds a dead end.  Each prefix grows by every block it may join, then
    by one new block, so a level is lexicographic when the one before is.
    A prefix of length b with deficit 0 is a string on b symbols, and every
    such string is kept (its deficits, 0, fit in the m - b positions left),
    so ``tables[b]`` is level b where the deficit is 0.
    """
    # the state of a block is its size mod k, or k for the next new block:
    # joined[state] is the change of the deficit when the block takes one
    # more element, grown[state] its state after.  No block outgrows m, so a
    # k past m acts as m + 1: only singletons fit either way.
    n = count_partitions_modk(m, k)
    k = min(k, m + 1)
    r = np.arange(k)
    joined = np.append((-r) % k - (1 - r) % k, 0).astype(np.int16)
    grown = np.append((r + 1) % k, 1 % k).astype(np.int8)
    rows = np.zeros((1, 0), dtype=np.int8)
    states = np.full((1, m), k, dtype=np.int8)
    deficit = np.zeros(1, dtype=np.int16)
    blocks = np.zeros(1, dtype=np.int8)
    tables = [rows]
    for i in range(m):
        d = deficit[:, None] + joined[states[:, : i + 1]]
        at, c = np.nonzero((d <= m - i - 1) & (np.arange(i + 1) <= blocks[:, None]))
        rows = np.concatenate([np.take(rows, at, axis=0), c[:, None].astype(np.int8)], axis=1)
        deficit = d[at, c]
        blocks = np.take(blocks, at)
        blocks += c == blocks
        states = np.take(states, at, axis=0)
        each = np.arange(len(at))
        states[each, c] = grown[states[each, c]]
        tables.append(rows[deficit == 0])
    if len(rows) != n:
        raise AssertionError(f"rgs enumeration produced {len(rows)} rows, expected {n}")
    return tables


# ---------------------------------------------------------------------------
# refinement order on partitions given as RGS rows, in closed form
# ---------------------------------------------------------------------------


def coarsening_pairs(tables):
    """The strict refinement order on all of Π^(k)_m, as two arrays
    (below, above) of row numbers of ``rgs = tables[m]``, the tables of
    :func:`rgs_filtered` on m symbols and fewer, in their lexicographic
    order.

    A row x with b blocks is refined strictly by exactly the partitions that
    merge its blocks into groups of sizes ≡ 1 (mod k), since a union of t
    blocks of sizes ≡ 1 has size ≡ t.  So the rows above x are y[x] for the
    rows y of ``tables[b]`` other than the all-singletons one, and
    these are again restricted growth strings (the blocks of x are numbered
    by their least elements).  They are found by binary search on the rows'
    search keys (:func:`complexes._search_keys`), whose order is the
    lexicographic one.  No N × N array is made: the work is one row per
    comparable pair.
    """
    from .complexes import _search, _search_keys  # complexes imports this module

    rows = tables[-1]
    m = rows.shape[1]
    bits = max(m - 1, 1).bit_length()  # the digits are blocks 0 .. m-1
    keys, _ = _search_keys(rows, bits)
    blocks = rows.max(axis=1).astype(np.intp) + 1
    below, above = [], []
    for b in sorted(set(blocks.tolist())):
        xs = np.flatnonzero(blocks == b)
        ys = tables[b]
        ys = ys[ys.max(axis=1) + 1 < b]  # merges at least two blocks
        if not len(ys):
            continue
        step = max(1, (1 << 20) // (len(ys) * m))
        for lo in range(0, len(xs), step):
            part = xs[lo : lo + step]
            at = _search(keys, _search_keys(ys[:, rows[part]].transpose(1, 0, 2).reshape(-1, m), bits)[0])
            if (at < 0).any():
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

