import numpy as np

from ktreesub import Partition
from ktreesub import _kernels as K
from oracles import (
    brute_modk_partitions,
    closure_matrix,
    closure_oracle,
    dense_to_columns,
    refinement_leq,
    refinement_loop_oracle,
    rgs_filter_oracle,
    snf_diagonal,
)


def test_count_matches_bruteforce():
    for m in range(1, 8):
        for k in (1, 2, 3, 4):
            assert K.count_partitions_modk(m, k) == len(brute_modk_partitions(m, k))


def test_rgs_enumeration_matches_bruteforce():
    for m, k in [(5, 2), (6, 1), (7, 3)]:
        rows = K.rgs_filtered(m, k)[m]
        blocks = set()
        for row in rows:
            groups = {}
            for pos, c in enumerate(row):
                groups.setdefault(int(c), []).append(pos + 1)
            blocks.add(tuple(tuple(b) for b in sorted(groups.values(), key=lambda b: b[0])))
        assert blocks == set(brute_modk_partitions(m, k))


def test_rgs_filtered_matches_walk_and_filter_oracle():
    # every level of the growth on m symbols: same dtype, shape and row
    # order as walking every growth string on b <= m symbols
    for m in range(11):
        for k in (1, 2, 3, 4):
            tables = K.rgs_filtered(m, k)
            assert len(tables) == m + 1
            for b, ours in enumerate(tables):
                walked = rgs_filter_oracle(b, k)
                assert ours.dtype == walked.dtype == np.int8
                assert ours.shape == walked.shape
                assert (ours == walked).all(), (m, k, b)


def test_rgs_filtered_with_k_past_m_keeps_singletons():
    # k past m leaves only the all-singletons string on each number of
    # symbols, however large k is
    for m, k in [(5, 6), (5, 200), (3, 10**9)]:
        tables = K.rgs_filtered(m, k)
        assert [t.tolist() for t in tables] == [[list(range(b))] for b in range(m + 1)]


def test_rgs_rows_are_valid_growth_strings():
    rows = K.rgs_filtered(6, 2)[6]
    for row in rows:
        assert row[0] == 0
        for j in range(1, len(row)):
            assert row[j] <= max(row[:j]) + 1


def test_refinement_paths_agree():
    rgs = K.rgs_filtered(6, 1)[6]
    leq = refinement_leq(rgs)
    parts = [Partition.from_rgs(row) for row in rgs]
    for p, a in enumerate(parts):
        for q, b in enumerate(parts):
            assert leq[p, q] == a.refines(b)


def test_refinement_matches_loop_oracle():
    # one uint64 word of pair bits up to m = 11; (12, 5) and (13, 6) need
    # two words and (17, 16) three
    cases = [(m, k) for m in range(11) for k in (1, 2, 3, 4) if K.count_partitions_modk(m, k) <= 5000]
    for m, k in cases + [(12, 5), (13, 6), (17, 16)]:
        rgs = K.rgs_filtered(m, k)[m]
        leq = refinement_leq(rgs)
        assert leq.dtype == bool
        assert (leq == refinement_loop_oracle(rgs)).all(), (m, k)


def test_closure_paths_agree_and_match_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        adj = np.triu(rng.random((n, n)) < 0.15, k=1)
        assert closure_matrix(adj).tolist() == closure_oracle(adj.tolist())
    # 0 -> t -> 257 through 256 middle elements t: 0 <= 257 must survive
    adj = np.zeros((258, 258), dtype=bool)
    adj[0, 1:257] = adj[1:257, 257] = True
    assert closure_matrix(adj)[0, 257]


def test_snf_paths_agree():
    # the sparse column path (unit-pivot elimination, then the exact residual)
    # must agree with the dense big-integer reference on every matrix
    rng = np.random.default_rng(2)
    for _ in range(25):
        r, c = rng.integers(1, 10, size=2)
        mat = rng.integers(-5, 6, size=(int(r), int(c)))
        exact = K._snf_exact_python([[int(x) for x in row] for row in mat])
        assert snf_diagonal(*dense_to_columns(mat)) == exact


def test_snf_divisibility_chain():
    rng = np.random.default_rng(4)
    for _ in range(10):
        mat = rng.integers(-6, 7, size=(6, 8))
        diag = [d for d in snf_diagonal(*dense_to_columns(mat)) if d != 0]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_snf_big_entries_stay_exact():
    big = [[2**40, 1], [1, 2**40]]
    diag = snf_diagonal(*dense_to_columns(big))
    assert diag == [1, 2**80 - 1]


def test_smith_reduce_pivots_are_triangular():
    # what the reduction by pivots relies on: each unit pivot column is ±1
    # at its own row and 0 on the rows of the pivots made before it
    rng = np.random.default_rng(5)
    for _ in range(25):
        r, c = rng.integers(1, 10, size=2)
        mat = rng.integers(-2, 3, size=(int(r), int(c)))
        pivots, factors = K.smith_reduce(dense_to_columns(mat)[0])
        earlier = []
        for row, col in pivots.items():
            assert col[row] in (1, -1)
            assert not any(col.get(s) for s in earlier)
            earlier.append(row)
        exact = K._snf_exact_python([[int(x) for x in row] for row in mat])
        assert [1] * len(pivots) + factors == [x for x in exact if x]
