"""Exact rational linear algebra for the subdivision verifier: affine rank,
simplex volumes in barycentric charts, and open-interior intersection tests
by Fourier-Motzkin elimination.  No floating point anywhere."""

from __future__ import annotations

from fractions import Fraction


def mat_rank(rows) -> int:
    """Rank of a matrix of Fractions/ints by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    col = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def det(rows) -> Fraction:
    """Determinant of a square matrix of Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    sign = 1
    out = Fraction(1)
    for col in range(n):
        piv = None
        for i in range(col, n):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pv = m[col][col]
        out *= pv
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return out * sign


def affine_dim(points) -> int:
    """Dimension of the affine hull of a list of coordinate tuples."""
    if not points:
        return -1
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    return mat_rank(diffs)


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
    base = points[0][1:]
    return det([[a - b for a, b in zip(p[1:], base)] for p in points[1:]])


def _solve_equalities(eqs, nvars):
    """Row reduce [A | b] rows meaning sum(A[i]*x) = b[i].

    Returns (expr, free) with expr[v] = (coeffs over free vars, constant) for
    every variable, or None when inconsistent."""
    rows = [[Fraction(x) for x in r] for r in eqs]
    pivots = {}
    r = 0
    for col in range(nvars):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots[col] = r
        r += 1
        if r == len(rows):
            break
    for i in range(len(rows)):
        if all(x == 0 for x in rows[i][:nvars]) and rows[i][nvars] != 0:
            return None
    free = [v for v in range(nvars) if v not in pivots]
    fpos = {v: t for t, v in enumerate(free)}
    expr = {}
    for v in range(nvars):
        if v in free:
            coeffs = [Fraction(0)] * len(free)
            coeffs[fpos[v]] = Fraction(1)
            expr[v] = (coeffs, Fraction(0))
        else:
            row = rows[pivots[v]]
            coeffs = [-row[f] for f in free]
            expr[v] = (coeffs, row[nvars])
    return expr, free


def _fourier_motzkin(ineqs, nfree):
    """Feasibility of strict inequalities sum(c*x) + d > 0 over the reals.

    Returns a satisfying assignment (list of Fractions) or None."""
    system = [list(map(Fraction, c)) + [Fraction(d)] for c, d in ineqs]
    stack = []
    for v in range(nfree - 1, -1, -1):
        lowers, uppers, rest = [], [], []
        for row in system:
            c = row[v]
            if c > 0:
                lowers.append(row)  # x_v > -(rest)/c
            elif c < 0:
                uppers.append(row)  # x_v < -(rest)/(-c) i.e. bound above
            else:
                rest.append(row)
        stack.append((v, lowers, uppers))
        new = list(rest)
        for lo in lowers:
            for up in uppers:
                # lo: c1*x + r1 > 0 (c1>0); up: c2*x + r2 > 0 (c2<0)
                # combine: c1*r2 - c2*r1 ... eliminate x
                c1, c2 = lo[v], up[v]
                row = [c1 * b - c2 * a for a, b in zip(lo, up)]
                row[v] = Fraction(0)
                new.append(row)
        system = new
    for row in system:
        if row[-1] <= 0 and all(c == 0 for c in row[:-1]):
            return None
    # back-substitute, last-eliminated first
    assign = [Fraction(0)] * nfree
    for v, lowers, uppers in reversed(stack):
        lo_vals = []
        up_vals = []
        for row in lowers:
            val = row[-1] + sum(row[i] * assign[i] for i in range(nfree) if i != v)
            lo_vals.append(-val / row[v])
        for row in uppers:
            val = row[-1] + sum(row[i] * assign[i] for i in range(nfree) if i != v)
            up_vals.append(-val / row[v])
        lo = max(lo_vals) if lo_vals else None
        up = min(up_vals) if up_vals else None
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
    dim = len(pts_a[0])
    nvars = a + b
    eqs = []
    row = [Fraction(1)] * a + [Fraction(0)] * b + [Fraction(1)]
    eqs.append(row)
    row = [Fraction(0)] * a + [Fraction(1)] * b + [Fraction(1)]
    eqs.append(row)
    for c in range(dim):
        row = [Fraction(pts_a[i][c]) for i in range(a)]
        row += [-Fraction(pts_b[j][c]) for j in range(b)]
        row.append(Fraction(0))
        eqs.append(row)
    solved = _solve_equalities(eqs, nvars)
    if solved is None:
        return None
    expr, free = solved
    ineqs = []
    for v in range(nvars):
        coeffs, const = expr[v]
        ineqs.append((coeffs, const))
    if not free:
        if all(const > 0 for _, const in ineqs):
            weights = [expr[i][1] for i in range(a)]
        else:
            return None
    else:
        assign = _fourier_motzkin(ineqs, len(free))
        if assign is None:
            return None
        weights = [
            expr[i][1] + sum(c * x for c, x in zip(expr[i][0], assign)) for i in range(a)
        ]
    point = tuple(
        sum(w * Fraction(pts_a[i][c]) for i, w in enumerate(weights))
        for c in range(dim)
    )
    return point
