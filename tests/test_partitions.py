import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktreesub import (
    KTreeSubError,
    Partition,
    ResourceLimit,
    count_partitions_modk,
    enumerate_partitions,
    factors_I,
    g_set,
    parse_partition,
)
import ktreesub
from ktreesub import _kernels, errors, partitions
from ktreesub.partitions import _labels_of_rgs, g_set_count
from oracles import (
    brute_modk_partitions,
    brute_set_partitions,
    common_refinement_oracle,
    factors_search_oracle,
    g_set_oracle,
    join_oracle,
    refinement_oracle,
    rgs_filter_oracle,
)


def _checked(x):
    """``x`` rebuilt by the validating constructor, with every slot it
    sets compared to ``x``'s."""
    y = Partition(x.m, x.blocks)
    assert (y.m, y.blocks, y._masks, hash(y), y.nonsingleton_blocks()) == (
        x.m, x.blocks, x._masks, hash(x), tuple(b for b in x.blocks if len(b) > 1))
    return y


def test_canonical_form():
    p = Partition(5, [[5], [3, 1, 2], [4]])
    assert p.blocks == ((1, 2, 3), (4,), (5,))
    assert p.rank == 2
    assert p.text() == "(123)45"


def test_empty_block_is_not_a_partition():
    with pytest.raises(ValueError, match="blocks do not partition"):
        Partition(3, [[], [1, 2, 3]])
    with pytest.raises(ValueError, match="blocks do not partition"):
        parse_partition("()", 3)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.text(alphabet="()0123456789, -x\t²٣", max_size=16) | st.text(max_size=8),
    st.integers(-2, 70) | st.just(10**9),
)
def test_parse_partition_fuzz(text, m):
    # a partition of 1..m, or ValueError / KTreeSubError, and nothing else
    try:
        p = parse_partition(text, m)
    except (ValueError, KTreeSubError):
        return
    assert p.m == m
    assert sorted(x for b in p.blocks for x in b) == list(range(1, m + 1))
    assert parse_partition(p.text(), m) == p


def test_parse_forms():
    assert parse_partition("(123)4567", 7).blocks[0] == (1, 2, 3)
    p = parse_partition("(1,2,3)(10)", 10)
    assert p.blocks[0] == (1, 2, 3)
    assert p.m == 10


def test_enumerate_counts_against_oracle():
    assert enumerate_partitions(5, 2).poset.n == len(brute_modk_partitions(5, 2)) == 12
    assert enumerate_partitions(3, 1).poset.n == len(brute_set_partitions(3)) == 5
    assert enumerate_partitions(7, 2).poset.n == len(brute_modk_partitions(7, 2)) == 128
    assert enumerate_partitions(7, 3).poset.n == len(brute_modk_partitions(7, 3)) == 37


def test_enumerate_elements_match_oracle(pk52):
    ours = {p.blocks for p in pk52.poset.labels}
    assert ours == set(brute_modk_partitions(5, 2))


def test_count_dp_matches_bruteforce():
    for m in range(1, 8):
        for k in (1, 2, 3):
            assert count_partitions_modk(m, k) == len(brute_modk_partitions(m, k))


def test_refinement_order_matches_oracle(pk52):
    poset = pk52.poset
    for i, a in enumerate(poset.labels):
        for j, b in enumerate(poset.labels):
            assert poset.leq[i, j] == refinement_oracle(a.blocks, b.blocks)


def test_enumerate_cap():
    with pytest.raises(ResourceLimit):
        enumerate_partitions(12, 1, max_elements=100)
    with pytest.raises(ResourceLimit):
        enumerate_partitions(99, 1)


def test_enumerate_default_cap_is_the_package_cap():
    # (14, 5) has 45,410 elements, past the default cap of 40,000
    assert count_partitions_modk(14, 5) == 45_410 > errors.MAX_POSET_ELEMENTS
    with pytest.raises(ResourceLimit, match="cap 40000"):
        enumerate_partitions(14, 5)


CAPS = {"max_poset_elements": "MAX_POSET_ELEMENTS", "max_elements": "MAX_POSET_ELEMENTS", "max_faces": "MAX_FACES"}


def test_public_cap_defaults_are_the_errors_constants():
    # every public callable with a cap parameter, and the order complex of a
    # poset, defaults to the constant in errors itself, not to a copy of its
    # value, another number or no cap
    seen = set()
    public = [(name, getattr(ktreesub, name)) for name in ktreesub.__all__]
    for name, obj in public + [("Poset.order_complex", ktreesub.Poset.order_complex)]:
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        for param in inspect.signature(obj).parameters.values():
            if param.name in CAPS:
                assert param.default is getattr(errors, CAPS[param.name]), (name, param.name)
                seen.add(name)
    assert {"enumerate_partitions", "global_carrier_map", "verify_theorem", "check_equivariance",
            "SimplicialComplex", "Poset.order_complex"} <= seen


def test_enumerate_desk_scale_instance():
    pk = enumerate_partitions(10, 3)
    assert pk.poset.n == 1907
    assert pk.poset.max_index is not None  # 10 ≡ 1 (mod 3)
    by_rank = {}
    for x in pk.poset.labels:
        by_rank[x.rank] = by_rank.get(x.rank, 0) + 1
    assert by_rank == {0: 1, 3: 210, 6: 1575 + 120, 9: 1}


def test_join_examples():
    a = parse_partition("(123)4567", 7)
    b = parse_partition("1(234)567", 7)
    assert a.join(b).text() == "(1234)567"
    x = parse_partition("(12)(34)", 4)
    assert x.join(Partition.zero(4)) == x
    y = parse_partition("(23)(14)", 4)
    assert x.join(y) == Partition.one(4)


def test_kmub_examples(pk72):
    a = parse_partition("(123)4567", 7)
    b = parse_partition("1(234)567", 7)
    mubs = pk72.minimal_upper_bounds([a, b])
    assert {x.text() for x in mubs} == {"(12345)67", "(12346)57", "(12347)56"}
    assert pk72.minimal_upper_bounds([a]) == [a]
    c = parse_partition("123(456)7", 7)
    disjoint = pk72.minimal_upper_bounds([a, c])
    assert disjoint == [a.join(c)]
    assert len(disjoint[0].nonsingleton_blocks()) == 2


def test_building_set_I_counts():
    # the minimal building set I of the full partition lattice is G for k = 1
    assert len(g_set(3, 1)) == 4
    assert len(g_set(4, 1)) == 11
    assert all(len(x.nonsingleton_blocks()) == 1 for x in g_set(6, 1))


def test_g_set_counts():
    assert len(g_set(5, 2)) == 11
    assert len(g_set(7, 2)) == 57
    for x in g_set(7, 2):
        assert (len(x.nonsingleton_blocks()[0]) - 1) % 2 == 0
        assert x.rank % 2 == 0


def test_g_set_matches_filter_oracle_and_closed_form_count():
    for m in range(1, 10):
        for k in (1, 2, 3, 4):
            gs = g_set(m, k)
            assert gs == g_set_oracle(m, k)
            assert g_set_count(m, k) == len(gs)


@pytest.mark.parametrize("mk", [(1, 1), (2, 1), (3, 1), (5, 1), (7, 1), (5, 2), (7, 2), (9, 2), (7, 3), (10, 3), (9, 4)])
def test_bulk_labels_match_validated_partitions(mk):
    # the labels built in bulk from the restricted growth strings hold what
    # the validating constructor makes, in the order of the sort key
    m, k = mk
    rgs = rgs_filter_oracle(m, k)
    labels, order = _labels_of_rgs(rgs, k)
    assert [_checked(x) for x in labels] == sorted((Partition.from_rgs(r) for r in rgs), key=Partition.sort_key)
    assert [x.blocks for x in labels] == [Partition.from_rgs(r).blocks for r in rgs[order]]
    assert enumerate_partitions(m, k).poset.labels == labels


def test_g_set_labels_match_validated_partitions():
    for m, k in [(1, 1), (4, 1), (6, 1), (7, 2), (9, 2), (10, 3), (13, 4)]:
        assert [_checked(x) for x in g_set(m, k)] == g_set_oracle(m, k)


def test_nonsingleton_blocks_are_kept():
    for x in [parse_partition("(12)3(45)", 5), *g_set(5, 2), *enumerate_partitions(5, 1).poset.labels]:
        assert x.nonsingleton_blocks() is x.nonsingleton_blocks()
        assert x.nonsingleton_blocks() == tuple(b for b in x.blocks if len(b) > 1)


@pytest.mark.parametrize(
    "row,k,message",
    [
        ([1, 0, 0], 1, "restricted growth"),  # does not start at 0
        ([0, 2, 1], 1, "restricted growth"),  # skips a block
        ([0, 0, -1], 1, "restricted growth"),  # a negative block
        ([0, 1, 1], 2, "block size"),  # a block of two elements
        ([0, 0, 0], 3, "block size"),  # a block of three, k = 3
    ],
)
def test_corrupted_rgs_row_is_refused(monkeypatch, row, k, message):
    # one corrupted row among good ones, not the first: checked in bulk,
    # before any label is built
    good = rgs_filter_oracle(3, k)
    rgs = np.concatenate([good, np.array([row], dtype=good.dtype), good[:1]])
    with pytest.raises(ValueError, match=message):
        _labels_of_rgs(rgs, k)
    monkeypatch.setattr(_kernels, "rgs_filtered", lambda m, k: [*map(rgs_filter_oracle, range(m), [k] * m), rgs])
    monkeypatch.setattr(partitions, "Partition", None)  # no label is built
    with pytest.raises(ValueError, match=message):
        enumerate_partitions(3, k)


def test_factors_I_examples():
    x = parse_partition("(12)(34)", 4)
    assert factors_I(x) == {parse_partition("(12)34", 4), parse_partition("12(34)", 4)}
    g = parse_partition("(123)45", 5)
    assert factors_I(g) == {g}
    y = parse_partition("(123)(45)6", 6)
    assert len(factors_I(y)) == 2


def test_factors_k_examples(pk72):
    x = parse_partition("(123)(456)7", 7)
    assert pk72.factors(x) == {
        parse_partition("(123)4567", 7),
        parse_partition("123(456)7", 7),
    }
    g = parse_partition("(12345)67", 7)
    assert pk72.factors(g) == {g}
    with pytest.raises(KeyError):
        pk72.factors(parse_partition("(12)34567", 7))  # block of size 2: not in Π^(2)_7


@pytest.mark.parametrize("mk", [(5, 2), (7, 2), (7, 3)])
def test_lemma_factors_agree_exhaustive(mk, pk52, pk72, pk73):
    pk = {(5, 2): pk52, (7, 2): pk72, (7, 3): pk73}[mk]
    for x in pk.poset.labels:
        assert pk.factors(x) == factors_search_oracle(pk, x) == factors_I(x)


@pytest.mark.parametrize("mk", [(5, 2), (7, 2), (7, 3)])
def test_lemma_disjoint_blocks_iff_unique_join_outside_g(mk, pk52, pk72, pk73):
    pk = {(5, 2): pk52, (7, 2): pk72, (7, 3): pk73}[mk]
    gset = pk.g_partitions()
    gmembers = set(gset)
    for a in gset:
        for b in gset:
            if a == b:
                continue
            ba = set(a.nonsingleton_blocks()[0])
            bb = set(b.nonsingleton_blocks()[0])
            mubs = pk.minimal_upper_bounds([a, b])
            rhs = len(mubs) == 1 and mubs[0] not in gmembers
            assert (not (ba & bb)) == rhs


def test_chain_factors(pk72):
    x = parse_partition("(123)(456)7", 7)
    chain = [parse_partition("(123)4567", 7), x]
    expected = pk72.factors(x) | {parse_partition("(123)4567", 7)}
    assert pk72.chain_factors(chain) == expected
    single = [parse_partition("(12345)67", 7)]
    assert pk72.chain_factors(single) == frozenset(single)


def test_apply_permutation_examples():
    x = parse_partition("(12)34", 4)
    ident = (1, 2, 3, 4)
    assert x.permute(ident) == x
    swap12 = (2, 1, 3, 4)
    assert x.permute(swap12) == x
    swap13 = (3, 2, 1, 4)
    assert x.permute(swap13) == parse_partition("1(23)4", 4)


def test_permutation_preserves_restricted_poset(pk52):
    perm = (2, 3, 4, 5, 1)
    images = {x.permute(perm) for x in pk52.poset.labels}
    assert images == set(pk52.poset.labels)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_join_matches_oracle(m, data):
    parts = brute_set_partitions(m)
    a = data.draw(st.sampled_from(parts))
    b = data.draw(st.sampled_from(parts))
    ours = Partition(m, a).join(Partition(m, b))
    assert ours.blocks == join_oracle(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_join_commutes_with_permutation(m, data):
    parts = brute_set_partitions(m)
    a = Partition(m, data.draw(st.sampled_from(parts)))
    b = Partition(m, data.draw(st.sampled_from(parts)))
    perm = tuple(data.draw(st.permutations(list(range(1, m + 1)))))
    assert a.join(b).permute(perm) == a.permute(perm).join(b.permute(perm))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_refinement_iff_join_absorbs(m, data):
    parts = brute_set_partitions(m)
    a = Partition(m, data.draw(st.sampled_from(parts)))
    b = Partition(m, data.draw(st.sampled_from(parts)))
    assert a.refines(b) == (a.join(b) == b)


def test_meet_oracle_agrees_with_poset(pk41):
    for i, a in enumerate(pk41.poset.labels):
        for j, b in enumerate(pk41.poset.labels):
            met = pk41.poset.meet([i, j])
            assert pk41.poset.labels[met].blocks == common_refinement_oracle(a.blocks, b.blocks)
