"""The integer kernels of ``ktreesub.exact`` against the Fraction elimination
they replace: the same ranks, the same signed volumes, and the same
intersection verdicts with the identical witness point."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktreesub import exact
from oracles import (
    fraction_affine_dim,
    fraction_open_simplices_intersect,
    fraction_simplex_volume_ratio,
)

# the denominators coordinates are drawn with: none, small ones, 10^6, and
# coprime primes near 10^9
DENOMINATORS = {
    "integer": [1],
    "small": [2, 3, 4, 5, 6, 12],
    "million": [10**6],
    "primes": [999_999_937, 1_000_000_007, 1_000_000_009],
}

SETTINGS = settings(max_examples=100, derandomize=True, deadline=None)


def _rational(dens, lo=-3, hi=3):
    return st.sampled_from(dens).flatmap(
        lambda d: st.integers(lo * d, hi * d).map(lambda n: Fraction(n, d))
    )


@st.composite
def _point_sets(draw, dens, dim=None, count=None):
    """Points in Q^dim, some of them affine combinations of earlier ones."""
    dim = draw(st.integers(1, 4)) if dim is None else dim
    count = draw(st.integers(1, dim + 2)) if count is None else count
    points = []
    for _ in range(count):
        if len(points) >= 2 and draw(st.booleans()):
            p, q = draw(st.sampled_from(points)), draw(st.sampled_from(points))
            t = draw(_rational(dens))
            points.append(tuple(x + t * (y - x) for x, y in zip(p, q)))
        else:
            points.append(tuple(draw(_rational(dens)) for _ in range(dim)))
    return points


@st.composite
def _simplex_pairs(draw, dens):
    """Two simplices over a pool of points of the standard D-simplex, as
    cells of a subdivision would be: sharing vertices, sometimes with a
    repeated point or a midpoint in the pool."""
    dim = draw(st.integers(1, 3))
    pool = []
    for _ in range(draw(st.integers(2, dim + 4))):
        kind = draw(st.sampled_from(["fresh", "fresh", "fresh", "corner", "midpoint"]))
        if kind == "corner":
            i = draw(st.integers(0, dim))
            pool.append(tuple(Fraction(int(j == i)) for j in range(dim + 1)))
        elif kind == "midpoint" and len(pool) >= 2:
            p, q = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            pool.append(tuple((x + y) / 2 for x, y in zip(p, q)))
        else:
            w = [draw(_rational(dens, 0, 2)) for _ in range(dim + 1)]
            if not any(w):
                w[0] = Fraction(1)
            total = sum(w)
            pool.append(tuple(x / total for x in w))
    indices = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=dim + 1, unique=True)
    return [pool[i] for i in draw(indices)], [pool[i] for i in draw(indices)]


@pytest.mark.parametrize("kind", sorted(DENOMINATORS))
@SETTINGS
@given(data=st.data())
def test_affine_dim_matches_fraction_oracle(kind, data):
    points = data.draw(_point_sets(DENOMINATORS[kind]))
    assert exact.affine_dim(points) == fraction_affine_dim(points)


@pytest.mark.parametrize("kind", sorted(DENOMINATORS))
@SETTINGS
@given(data=st.data())
def test_simplex_volume_matches_fraction_oracle(kind, data):
    d = data.draw(st.integers(0, 4))
    points = data.draw(_point_sets(DENOMINATORS[kind], dim=d + 1, count=d + 1))
    vol = exact.simplex_volume_ratio(points)
    assert type(vol) is Fraction
    assert vol == fraction_simplex_volume_ratio(points)


@pytest.mark.parametrize("kind", sorted(DENOMINATORS))
@SETTINGS
@given(data=st.data())
def test_open_simplices_intersect_matches_fraction_oracle(kind, data):
    pts_a, pts_b = data.draw(_simplex_pairs(DENOMINATORS[kind]))
    got = exact.open_simplices_intersect(pts_a, pts_b)
    want = fraction_open_simplices_intersect(pts_a, pts_b)
    assert got == want
    if want is not None:
        # the witness as the carrier check prints it
        assert [str(x) for x in got] == [str(x) for x in want]


def test_degenerate_and_empty_inputs():
    assert exact.affine_dim([]) == -1
    assert exact.affine_dim([(Fraction(1, 3), Fraction(2, 3))]) == 0
    same = [(Fraction(1, 7), Fraction(6, 7))] * 3
    assert exact.affine_dim(same) == 0
    # d = 0: a vertex is all of its face
    assert exact.simplex_volume_ratio([(Fraction(1),)]) == 1
    flat = [(Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2), Fraction(0))]
    assert exact.affine_dim(flat) == 1
    assert exact.simplex_volume_ratio(flat) == 0
    # a repeated vertex: the open images of a vertex and itself meet there
    v = (Fraction(1, 1_000_000_007), Fraction(1_000_000_006, 1_000_000_007))
    assert exact.open_simplices_intersect([v], [v]) == v
    # an edge and one of its endpoints: the open edge misses it
    w = (Fraction(1), Fraction(0))
    assert exact.open_simplices_intersect([v, w], [w]) is None


def test_volume_with_large_prime_denominators():
    p, q = 999_999_937, 1_000_000_009
    pts = [(Fraction(1), Fraction(0), Fraction(0)),
           (Fraction(0), Fraction(1), Fraction(0)),
           (Fraction(1, p), Fraction(1, q), 1 - Fraction(1, p) - Fraction(1, q))]
    assert exact.simplex_volume_ratio(pts) == 1 - Fraction(1, p) - Fraction(1, q)
    assert exact.simplex_volume_ratio(pts[::-1]) == -(1 - Fraction(1, p) - Fraction(1, q))


@SETTINGS
@given(data=st.data())
def test_bareiss_int64_matches_scalar_elimination(data):
    # the batched kernel on a stack of 0/1 matrices: the rank and signed
    # last pivot of _bareiss on each, row swaps and zero columns included
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    entries = st.lists(st.integers(0, 1), min_size=cols, max_size=cols)
    stack = data.draw(st.lists(st.lists(entries, min_size=rows, max_size=rows), min_size=1, max_size=8))
    rank, det = exact.bareiss_int64(np.array(stack, dtype=np.int64))
    assert list(zip(rank.tolist(), det.tolist())) == [exact._bareiss([list(r) for r in m]) for m in stack]


def _hadamard_01(order):
    # the 0/1 matrix of order 2^j - 1 from Sylvester's Hadamard matrix of
    # order 2^j: its determinant is the largest a 0/1 matrix of that order has
    h = np.array([[1]])
    while len(h) < order + 1:
        h = np.block([[h, h], [h, -h]])
    return (1 - h[1:, 1:]) // 2


def test_int64_order_bound():
    # Hadamard's bound H(r) = (r+1)^((r+1)/2) / 2^r on a 0/1 minor of order
    # r: a Bareiss step stays below 2^63 up to the order bound and not one past it
    def bound(r):
        return 2 * (r + 1) ** (r + 1) // 4**r
    assert bound(exact.INT64_ORDER) < 2**63 <= bound(exact.INT64_ORDER + 1)
    # past it, int64 wraps: the maximal matrix of order 31 loses its rank
    m = _hadamard_01(31)
    assert exact._bareiss(m.tolist()) == (31, -(2**49))
    assert exact.bareiss_int64(m[None].astype(np.int64))[0][0] != 31
