import random
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktreesub import (
    CycleDetected,
    ResourceLimit,
    NotComparable,
    NotUnique,
    NoUpperBound,
    Poset,
    enumerate_partitions,
    parse_partition,
    poset_to_json,
    product,
)
from ktreesub import poset as poset_module
from ktreesub import subdivision
from ktreesub._kernels import count_partitions_modk
from oracles import (
    brute_count_extensions,
    chains_oracle,
    closure_oracle,
    dense_chain_count,
    dense_count_extensions,
    dense_covers,
    dense_heights,
    dense_maximal,
    dense_minimal,
    dense_partition_order,
    dense_upper_bounds,
    is_linear_extension_loop,
    poset_from_covers,
    seeded_linear_extension_loop,
)


def chain_poset(n):
    return poset_from_covers(list(range(n)), [(i, i + 1) for i in range(n - 1)])


def test_build_chain():
    p = chain_poset(3)
    assert p.leq.sum() == 6
    assert p.is_leq(0, 2)


def test_build_singleton():
    p = poset_from_covers(["a"], [])
    assert p.n == 1 and p.is_leq(0, 0)


def test_build_cycle_rejected():
    with pytest.raises(CycleDetected):
        poset_from_covers([0, 1], [(0, 1), (1, 0)])


def test_minimal_upper_bounds_paper_example(pk72):
    a = parse_partition("(123)4567", 7)
    b = parse_partition("1(234)567", 7)
    mubs = pk72.minimal_upper_bounds([a, b])
    assert {x.text() for x in mubs} == {"(12345)67", "(12346)57", "(12347)56"}


def test_minimal_upper_bounds_singleton(pk72):
    a = parse_partition("(123)4567", 7)
    assert pk72.minimal_upper_bounds([a]) == [a]


def test_minimal_upper_bounds_empty_result():
    p = poset_from_covers(["bot", "a", "b"], [(0, 1), (0, 2)], min_index=0)
    assert p.minimal_upper_bounds([1, 2]) == []
    with pytest.raises(NoUpperBound):
        p.join([1, 2])


def test_join_paper_example(pk72):
    a = parse_partition("(123)4567", 7)
    b = parse_partition("1(234)567", 7)
    assert a.join(b).text() == "(1234)567"
    with pytest.raises(NotUnique) as err:
        pk72.poset.join([pk72.poset.index(a), pk72.poset.index(b)])
    assert len(err.value.witnesses) == 3


def test_join_singleton(pk72):
    i = pk72.poset.index(parse_partition("(123)4567", 7))
    assert pk72.poset.join([i]) == i


def test_meet_examples(pk41):
    a = pk41.poset.index(parse_partition("(12)(34)", 4))
    b = pk41.poset.index(parse_partition("(12)34", 4))
    assert pk41.poset.meet([a, b]) == b
    c = pk41.poset.index(parse_partition("(13)24", 4))
    d = pk41.poset.index(parse_partition("(24)13", 4))
    assert pk41.poset.meet([c, d]) == pk41.poset.min_index
    assert pk41.poset.meet([a]) == a


def test_interval_examples(pk41):
    zero = pk41.poset.min_index
    x = pk41.poset.index(parse_partition("(12)(34)", 4))
    iv = pk41.poset.interval(zero, x)
    assert iv.n == 4
    y = pk41.poset.index(parse_partition("(123)4", 4))
    assert pk41.poset.interval(zero, y).n == 5
    assert pk41.poset.interval(x, x).n == 1
    with pytest.raises(NotComparable):
        pk41.poset.interval(x, y)


def test_product_identity_and_diamond():
    c2 = poset_from_covers([0, 1], [(0, 1)], min_index=0, max_index=1)
    single = product([c2])
    assert single.n == 2
    diamond = product([c2, c2])
    assert diamond.n == 4
    assert diamond.min_index is not None and diamond.max_index is not None
    mids = [i for i in range(4) if i not in (diamond.min_index, diamond.max_index)]
    i, j = mids
    assert not diamond.is_leq(i, j) and not diamond.is_leq(j, i)


def test_product_isomorphic_to_interval(pk41):
    zero = pk41.poset.min_index
    a = pk41.poset.index(parse_partition("(12)34", 4))
    b = pk41.poset.index(parse_partition("12(34)", 4))
    x = pk41.poset.index(parse_partition("(12)(34)", 4))
    prod = product([pk41.poset.interval(zero, a), pk41.poset.interval(zero, b)])
    target = pk41.poset.interval(zero, x)
    assert prod.is_isomorphic(target) is not None


def test_isomorphism_negative():
    chain = chain_poset(3)
    anti = poset_from_covers([0, 1, 2], [])
    assert chain.is_isomorphic(anti) is None
    assert chain.is_isomorphic(chain) is not None


def test_order_complex_antichain(pk31):
    oc = pk31.poset.order_complex()
    assert oc.f_vector() == (3,)


def test_order_complex_chain():
    p = poset_from_covers(list("0ab1"), [(0, 1), (1, 2), (2, 3)], min_index=0, max_index=3)
    oc = p.order_complex()
    assert oc.f_vector() == (2, 1)


def test_order_complex_pik52(pk52):
    oc = pk52.poset.order_complex()
    assert oc.f_vector() == (10,)
    assert all(x.rank == 2 for x in oc.vertices)


def test_order_complex_downward_closed(delta41):
    for f in delta41.faces:
        for v in f:
            if len(f) > 1:
                assert f - {v} in delta41.faces
    heights = delta41.dimension() + 1
    assert heights == 2


def test_linear_extension_policies(pk72):
    g = set(pk72.g_indices())
    pool = [i for i in pk72.poset.proper_indices() if i not in g]
    default = pk72.poset.linear_extension(pool)
    assert pk72.poset.is_linear_extension(default)
    ranks = [pk72.poset.labels[i].rank for i in default]
    assert ranks == sorted(ranks)
    seeded = pk72.poset.linear_extension(pool, policy="seeded-random", seed=5)
    assert pk72.poset.is_linear_extension(seeded)
    assert sorted(seeded) == sorted(default)


def _added_pool(pk):
    g = set(pk.g_indices())
    return [i for i in pk.poset.proper_indices() if i not in g]


def test_seeded_linear_extension_matches_rescan(pk51, pk72):
    # Kahn's algorithm keyed by shuffled position draws what the rescan of
    # the unplaced elements draws, seed for seed
    for pk in (pk51, pk72):
        pool = _added_pool(pk)
        for seed in range(20):
            got = pk.poset.linear_extension(pool, policy="seeded-random", seed=seed)
            assert got == seeded_linear_extension_loop(pk.poset, pool, seed)
    pk = enumerate_partitions(10, 3)
    pool = _added_pool(pk)
    assert len(pool) == 1575
    for seed in (0, 1):
        got = pk.poset.linear_extension(pool, policy="seeded-random", seed=seed)
        assert got == seeded_linear_extension_loop(pk.poset, pool, seed)


def test_seeded_linear_extension_refuses_repeats():
    with pytest.raises(ValueError):
        chain_poset(3).linear_extension([0, 1, 1], policy="seeded-random", seed=0)


def test_linear_extension_total_order():
    p = chain_poset(4)
    assert p.linear_extension() == [0, 1, 2, 3]
    anti = poset_from_covers([0, 1, 2], [])
    assert anti.linear_extension() == [0, 1, 2]


def test_order_complex_face_cap(pk41):
    from ktreesub import ResourceLimit

    with pytest.raises(ResourceLimit):
        pk41.poset.order_complex(max_faces=5)
    total = len(pk41.poset.order_complex().faces)
    assert len(pk41.poset.order_complex(max_faces=total).faces) == total
    with pytest.raises(ResourceLimit):
        pk41.poset.order_complex(max_faces=total - 1)


def test_order_complex_faces_are_the_chains(pk41, pk51, pk52):
    for pk in (pk41, pk51, pk52):
        p = pk.poset
        delta = p.order_complex()
        proper = p.proper_indices()
        assert delta.vertices == [p.labels[i] for i in proper]
        assert {frozenset(proper[v] for v in f) for f in delta.faces} == chains_oracle(p)


def test_is_linear_extension_matches_loop(pk41, pk72):
    # seeded random sequences with repeats, and seeded linear extensions
    # with one element repeated somewhere: the same answer as the loop
    for p in (pk41.poset, pk72.poset, chain_poset(6), poset_from_covers([0, 1, 2], [])):
        rng = random.Random(p.n)
        for _ in range(300):
            seq = [rng.randrange(p.n) for _ in range(rng.randrange(0, 10))]
            assert p.is_linear_extension(seq) == is_linear_extension_loop(p, seq)
        answers = set()
        for seed in range(40):
            ext = p.linear_extension(policy="seeded-random", seed=seed)
            seq = list(ext)
            seq.insert(rng.randrange(len(seq) + 1), rng.choice(ext))
            want = is_linear_extension_loop(p, seq)
            assert p.is_linear_extension(seq) == want
            assert p.is_linear_extension(ext)
            answers.add(want)
        assert answers == {True, False} or p.n == 3


def test_json_round_trip(pk52):
    data = poset_to_json(pk52.poset, label_fn=lambda x: x.to_json())
    back = poset_from_covers(
        [tuple(map(tuple, b)) for b in data["elements"]], data["covers"], data["min"], data["max"]
    )
    assert back.n == pk52.poset.n
    assert np.array_equal(back.leq, pk52.poset.leq)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.data())
def test_closure_matches_oracle(n, data):
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
            max_size=12,
        )
    )
    p = poset_from_covers(list(range(n)), edges)
    assert p.leq.tolist() == closure_oracle(
        [[(i, j) in set(edges) for j in range(n)] for i in range(n)]
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.data())
def test_mub_properties(n, data):
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
            max_size=10,
        )
    )
    p = poset_from_covers(list(range(n)), edges)
    subset = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    mubs = p.minimal_upper_bounds(subset)
    for u in mubs:
        assert all(p.is_leq(s, u) for s in subset)
    for u, v in [(u, v) for u in mubs for v in mubs if u != v]:
        assert not p.is_leq(u, v)
    try:
        j = p.join(subset)
        assert [j] == mubs
    except (NotUnique, NoUpperBound):
        assert len(mubs) != 1


def _fan_through_256():
    """0 < t < 257 for the 256 middle elements t: 256 two-step paths from 0
    to 257, a count that wraps to 0 in 8-bit arithmetic."""
    return [(0, t) for t in range(1, 257)] + [(t, 257) for t in range(1, 257)]


def test_covers_ignore_long_path_counts():
    data = {"elements": list(range(258)), "covers": [list(c) for c in _fan_through_256()]}
    out = poset_to_json(poset_from_covers(data["elements"], data["covers"]))
    assert [0, 257] not in out["covers"]
    assert sorted(map(tuple, out["covers"])) == sorted(_fan_through_256())


def test_non_transitive_relation_rejected_past_256_paths():
    leq = np.eye(258, dtype=bool)
    for i, j in _fan_through_256():
        leq[i, j] = True
    with pytest.raises(ValueError, match="not transitive"):
        Poset(list(range(258)), leq)


DENSE_CASES = [(m, k) for m in range(1, 11) for k in (1, 2, 3, 4) if count_partitions_modk(m, k) <= 5000]


@pytest.mark.parametrize("m, k", DENSE_CASES, ids=[f"{m}-{k}" for m, k in DENSE_CASES])
def test_sparse_order_matches_dense_oracles(m, k):
    # every query on the CSR up- and down-sets, against the same query on
    # the refinement matrix of the elements
    pk = enumerate_partitions(m, k)
    p = pk.poset
    leq = dense_partition_order(pk)
    dense = SimpleNamespace(leq=leq)
    ups = [np.flatnonzero(leq[i]) for i in range(p.n)]
    assert all(p.up(i) == [j for j in row if j != i] for i, row in enumerate(ups))
    assert all(p.down(j) == [i for i in np.flatnonzero(leq[:, j]) if i != j] for j in range(p.n))
    assert np.array_equal(p.leq, leq)
    assert p.heights().tolist() == dense_heights(leq).tolist()
    assert p.covers() == dense_covers(leq)
    rng = random.Random(100 * m + k)
    for _ in range(40):
        subset = rng.sample(range(p.n), rng.randint(1, min(p.n, 6)))
        assert p.maximal_in(subset) == dense_maximal(leq, subset)
        assert p.minimal_in(subset) == dense_minimal(leq, subset)
        bounds = dense_upper_bounds(leq, subset)
        assert p.upper_bounds(subset) == bounds
        assert p.minimal_upper_bounds(subset) == dense_minimal(leq, bounds)
    for _ in range(10):
        small = rng.sample(range(p.n), min(p.n, 7))
        assert subdivision._count_extensions(p, small, 100) == dense_count_extensions(leq, small, 100)
    pool = _added_pool(pk)
    h = dense_heights(leq)
    assert p.linear_extension(pool) == sorted(pool, key=lambda i: (h[i], i))
    if len(pool) <= 500:
        for seed in range(3):
            got = p.linear_extension(pool, policy="seeded-random", seed=seed)
            assert got == seeded_linear_extension_loop(dense, pool, seed)
    for _ in range(40):
        seq = [rng.choice(range(p.n)) for _ in range(rng.randint(0, 12))]
        assert p.is_linear_extension(seq) == is_linear_extension_loop(dense, seq)
    proper = p.proper_indices()
    chains = dense_chain_count(leq, proper, 30_000)
    try:
        delta = p.order_complex(max_faces=30_000)
    except ResourceLimit:
        assert chains is None
    else:
        assert {frozenset(proper[v] for v in f) for f in delta.faces} == chains


def test_verify_builds_no_dense_order(monkeypatch):
    # the verifier reads the order only from the CSR up- and down-sets
    built = []

    def keep(*args, **kwargs):
        built.append(enumerate_partitions(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(subdivision, "enumerate_partitions", keep)
    assert subdivision.verify_theorem(3, 4).verdict == "pass"
    assert len(built) == 1 and built[0].poset._leq is None


@pytest.mark.parametrize("seed", range(12))
def test_count_extensions_matches_brute_force(seed):
    # seeded random orders on up to 8 elements, every subset size, against
    # the count over all permutations, below and past the limit
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    covers = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < rng.choice([0.1, 0.3, 0.6])]
    p = poset_from_covers(list(range(n)), covers)
    for size in range(n + 1):
        subset = rng.sample(range(n), size)
        for limit in (1, 2, 3, 7, 50000):
            assert subdivision._count_extensions(p, subset, limit) == brute_count_extensions(p.leq, subset, limit)


def test_count_extensions_of_a_wide_antichain_stops_at_the_limit():
    # 20,000 incomparable items: the search reaches the limit after one
    # descent and a few steps back, in memory linear in the items
    n = 20_000
    p = Poset.from_pairs(list(range(n)), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))
    start = time.perf_counter()
    assert subdivision._count_extensions(p, range(n), 3) == 3
    assert time.perf_counter() - start < 1


def test_csr_matches_stable_sort_oracle():
    # random lists of distinct pairs, in random order, some rows empty: the
    # default sort gives the arrays a stable sort of the same keys gives
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        keys = rng.choice(n * n, size=int(rng.integers(0, n * n + 1)), replace=False)
        rows, cols = keys // n, keys % n
        indptr, indices = poset_module._csr(rows, cols, n)
        order = np.argsort(rows * n + cols, kind="stable")
        assert indptr.tolist() == [0, *np.cumsum(np.bincount(rows, minlength=n)).tolist()]
        assert indices.tolist() == cols[order].tolist()
        assert indptr.dtype == indices.dtype == np.int32
