"""Exact linear algebra for the subdivision verifier: affine rank, simplex
volumes in barycentric charts, and open-interior intersection tests by
Fourier-Motzkin elimination.  No floating point anywhere.

Points are tuples of rationals (``Fraction`` or ``int``).  Each point set is
scaled to integers by one common multiple L of its denominators, and every
elimination runs on those integers.  Rank and determinant use Bareiss'
fraction-free elimination (*Sylvester's identity and multistep
integer-preserving Gaussian elimination*, Math. Comp. 1968): each entry is a
minor of the matrix, so every division by the previous pivot is exact;
:func:`bareiss_int64` runs the same elimination on a stack of 0/1 matrices
at once, in int64, up to an order at which no entry can wrap.  The
intersection test reduces its equalities and runs Fourier-Motzkin on integer
rows, each new row divided by the positive gcd of its entries.  Only the
back-substitution and the witness point are ``Fraction`` arithmetic.

The witness is the point the same elimination finds over the rationals.
The reduced row echelon form of a matrix is unique, so the pivot and free
variables and the solved form of each pivot variable are the same rationals.
Scaling an inequality by a positive number changes neither which side of a
variable it bounds nor the bound -val/c it gives, so Fourier-Motzkin meets
the same rows, up to positive multiples, in the same order, and
back-substitution picks the same values."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np


def _scaled(points):
    """The points times one common multiple L of their denominators, as
    integer tuples, and L."""
    L = lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (L // x.denominator) for x in p) for p in points], L


def _bareiss(m):
    """Bareiss elimination of the integer matrix ``m`` (a list of row lists,
    reduced in place).  Returns its rank and the last pivot signed by the row
    swaps, which is the determinant when ``m`` is square of full rank."""
    rank, prev, sign = 0, 1, 1
    nrows = len(m)
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        top = m[rank]
        p = top[col]
        for i in range(rank + 1, nrows):
            row = m[i]
            f = row[col]
            m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank, sign * prev


# The most rows a matrix given to bareiss_int64 may have.  A minor of order r
# of a 0/1 matrix is at most H(r) = (r+1)^((r+1)/2) / 2^r (Hadamard's bound on
# the ±1 matrix of order r+1 it borders), and each step of the elimination
# forms p*x - f*y from minors of order below the number of rows, so no value
# exceeds 2·H(22)² < 2^63.
INT64_ORDER = 22


def bareiss_int64(m):
    """:func:`_bareiss` on a stack of 0/1 matrices at once: ``m`` is an int64
    array of shape (count, rows, columns), with at most :data:`INT64_ORDER`
    rows, reduced in place.  Returns the rank and the signed last pivot of
    each matrix, as arrays: the same numbers as :func:`_bareiss` gives on
    each, since every matrix meets the same pivots and swaps."""
    count, nrows, ncols = m.shape
    rank = np.zeros(count, dtype=np.intp)
    prev = np.ones(count, dtype=np.int64)
    sign = np.ones(count, dtype=np.int64)
    row = np.arange(nrows)
    for col in range(ncols):
        live = (m[:, :, col] != 0) & (row >= rank[:, None])
        at = np.flatnonzero(live.any(axis=1))
        top, piv = rank[at], live[at].argmax(axis=1)
        swap = piv != top
        m[at[swap], top[swap]], m[at[swap], piv[swap]] = m[at[swap], piv[swap]], m[at[swap], top[swap]]
        sign[at[swap]] *= -1
        block = m[at]
        pivot_row = block[np.arange(len(at)), top]
        p = pivot_row[:, col, None, None]
        reduced = (p * block - block[:, :, col, None] * pivot_row[:, None, :]) // prev[at, None, None]
        m[at] = np.where((row > top[:, None])[:, :, None], reduced, block)
        prev[at] = p[:, 0, 0]
        rank[at] += 1
    return rank, sign * prev


def affine_dim(points) -> int:
    """Dimension of the affine hull of a list of coordinate tuples."""
    if not points:
        return -1
    ints, _ = _scaled(points)
    base = ints[0]
    return _bareiss([[a - b for a, b in zip(p, base)] for p in ints[1:]])[0]


def simplex_volume_ratio(points) -> Fraction:
    """Volume of the simplex spanned by d+1 points with barycentric
    coordinates in a d-face, relative to the volume of that face, with the
    sign of the orientation of the points in the order given.

    Points are tuples of d+1 coordinates summing to 1; dropping the first
    coordinate maps the face to the standard simplex, where the signed ratio
    is the determinant of the difference matrix."""
    d = len(points) - 1
    if d == 0:
        return Fraction(1)
    ints, L = _scaled([p[1:] for p in points])
    base = ints[0]
    rank, det = _bareiss([[a - b for a, b in zip(p, base)] for p in ints[1:]])
    return Fraction(det if rank == d else 0, L**d)


def _reduce(row):
    """An integer row divided by the positive gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _solve_equalities(rows, nvars):
    """Gauss-Jordan reduction of integer rows [A | b], meaning
    sum(A[i]*x) = b[i], in place and without division: each row is combined
    with a multiple of the pivot row and divided by its gcd.

    Returns ({pivot variable: its row}, free variables), or None when the
    system is inconsistent."""
    pivots = {}
    r = 0
    for col in range(nvars):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[col]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f:
                rows[i] = _reduce([p * x - f * y for x, y in zip(row, top)])
        pivots[col] = r
        r += 1
        if r == len(rows):
            break
    if any(row[nvars] and not any(row[:nvars]) for row in rows):
        return None
    return {v: rows[i] for v, i in pivots.items()}, [v for v in range(nvars) if v not in pivots]


def _fourier_motzkin(system, nfree):
    """Feasibility of strict inequalities sum(c*x) + d > 0 over the reals,
    given as integer rows [c..., d].

    Returns a satisfying assignment (list of Fractions) or None."""
    stack = []
    for v in range(nfree - 1, -1, -1):
        lowers, uppers, rest = [], [], []
        for row in system:
            c = row[v]
            if c > 0:
                lowers.append(row)  # x_v > -(rest)/c
            elif c < 0:
                uppers.append(row)  # x_v < -(rest)/c
            else:
                rest.append(row)
        stack.append((v, lowers, uppers))
        # lo: c1*x + r1 > 0 (c1 > 0), up: c2*x + r2 > 0 (c2 < 0); the
        # positive combination c1*up - c2*lo eliminates x
        for lo in lowers:
            c1 = lo[v]
            for up in uppers:
                c2 = up[v]
                rest.append(_reduce([c1 * y - c2 * x for x, y in zip(lo, up)]))
        system = rest
    for row in system:
        if row[-1] <= 0 and not any(row[:-1]):
            return None

    # back-substitute, last-eliminated first
    assign = [Fraction(0)] * nfree

    def bound(row, v):
        # rows met at x_v mention only x_0..x_v, and x_0..x_{v-1} are set
        val = row[-1] + sum(row[i] * assign[i] for i in range(v) if row[i])
        return Fraction(-val, row[v])

    for v, lowers, uppers in reversed(stack):
        lo = max((bound(row, v) for row in lowers), default=None)
        up = min((bound(row, v) for row in uppers), default=None)
        if lo is None and up is None:
            assign[v] = Fraction(0)
        elif lo is None:
            assign[v] = up - 1
        elif up is None:
            assign[v] = lo + 1
        else:
            assign[v] = (lo + up) / 2
    return assign


def open_simplices_intersect(pts_a, pts_b):
    """Common point of the relative interiors of two simplices, or None.

    Each simplex is a list of coordinate tuples (exact rationals); the
    interiors are the strictly positive convex combinations."""
    a, b = len(pts_a), len(pts_b)
    nvars = a + b
    ints, L = _scaled(list(pts_a) + list(pts_b))
    eqs = [[1] * a + [0] * b + [1], [0] * a + [1] * b + [1]]
    for col in zip(*ints):
        eqs.append(list(col[:a]) + [-x for x in col[a:]] + [0])
    solved = _solve_equalities(eqs, nvars)
    if solved is None:
        return None
    pivots, free = solved
    # x_v > 0 for every variable: a unit row for a free one, and for a pivot
    # one x_v = (b - sum(row[f]*x_f)) / p, multiplied by the sign of p
    ineqs = []
    for v in range(nvars):
        if v in pivots:
            row = pivots[v]
            s = 1 if row[v] > 0 else -1
            ineqs.append([-s * row[f] for f in free] + [s * row[nvars]])
        else:
            ineqs.append([int(f == v) for f in free] + [0])
    if not free:
        if any(row[-1] <= 0 for row in ineqs):
            return None
        weights = [Fraction(pivots[i][nvars], pivots[i][i]) for i in range(a)]
    else:
        assign = _fourier_motzkin(ineqs, len(free))
        if assign is None:
            return None
        at = dict(zip(free, assign))
        weights = [
            at[i] if i in at
            else (pivots[i][nvars] - sum(pivots[i][f] * at[f] for f in free)) / pivots[i][i]
            for i in range(a)
        ]
    return tuple(sum(w * x for w, x in zip(weights, col)) / L for col in zip(*ints[:a]))
