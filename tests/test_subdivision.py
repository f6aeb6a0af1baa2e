import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from ktreesub import (
    CarrierMap,
    NotLinearExtension,
    NotNested,
    Partition,
    Poset,
    blowup_sequence,
    build_local_carrier_maps,
    carrier_map_from_parts,
    check_compatibility,
    check_equivariance,
    enumerate_ktree_complex,
    enumerate_partitions,
    factors_I,
    global_carrier_map,
    is_building_set,
    is_k_nested,
    nested_set_complex,
    parse_partition,
    run_blowup,
    sigma_lattice,
    verify_carrier_map,
    verify_theorem,
)
from ktreesub.subdivision import _distinct_extensions, sample_permutations


# ---------------------------------------------------------------------------
# building sets
# ---------------------------------------------------------------------------


def test_minimal_building_set_of_partition_lattice(pk41):
    I4 = [
        i
        for i, x in enumerate(pk41.poset.labels)
        if len(x.nonsingleton_blocks()) == 1
    ]
    ok, witness = is_building_set(pk41.poset, I4)
    assert ok and witness is None


def test_maximal_building_set_any_lattice(pk41, pk52):
    for pk in (pk41,):
        allg = [i for i in range(pk.poset.n) if i != pk.zero_index]
        ok, _ = is_building_set(pk.poset, allg)
        assert ok


def test_single_atom_not_building(pk31):
    atom = pk31.index(parse_partition("(12)3", 3))
    ok, witness = is_building_set(pk31.poset, [atom])
    assert not ok
    assert witness is not None and witness != parse_partition("(12)3", 3)
    assert witness.rank == 1  # another atom


# ---------------------------------------------------------------------------
# nested set complexes
# ---------------------------------------------------------------------------


def test_nested_complex_maximal_building_set_is_order_complex(pk41, delta41):
    allg = [i for i in range(pk41.poset.n) if i != pk41.zero_index]
    assert nested_set_complex(pk41.poset, allg) == delta41


def test_nested_complex_minimal_building_set_is_tree_complex(pk41, t14):
    I4 = [
        i
        for i, x in enumerate(pk41.poset.labels)
        if len(x.nonsingleton_blocks()) == 1
    ]
    nc = nested_set_complex(pk41.poset, I4)
    assert nc.f_vector() == (10, 15)
    assert nc.is_isomorphic(t14) is not None
    assert nc == t14  # same partition labels and faces


def test_nested_complex_keep_apex_singleton(pk72):
    a = parse_partition("(123)4567", 7)
    sig = sigma_lattice(pk72, [a])
    fam_idx = [sig.poset.index(a)]
    kept = nested_set_complex(sig.poset, fam_idx, keep_apex=True)
    assert kept.f_vector() == (1,)


# ---------------------------------------------------------------------------
# sigma lattices
# ---------------------------------------------------------------------------


def test_sigma_diamond(pk72):
    a = parse_partition("(123)4567", 7)
    c = parse_partition("123(456)7", 7)
    sig = sigma_lattice(pk72, [a, c])
    assert sig.poset.n == 4
    assert sig.top == parse_partition("(123)(456)7", 7)


def test_sigma_singleton_chain(pk72):
    a = parse_partition("(123)4567", 7)
    sig = sigma_lattice(pk72, [a])
    assert sig.poset.n == 2
    assert sig.top == a


def test_sigma_rejects_non_nested(pk72):
    a = parse_partition("(123)4567", 7)
    b = parse_partition("1(234)567", 7)
    with pytest.raises(NotNested):
        sigma_lattice(pk72, [a, b])


@pytest.mark.parametrize("nk", [(4, 1), (4, 2), (3, 2), (3, 3)])
def test_sigma_lattice_building_set_every_face(nk, pk41, pk52, pk72, pk73):
    n, k = nk
    pk = {(4, 1): pk41, (3, 2): pk52, (4, 2): pk72, (3, 3): pk73}[(n, k)]
    kom = enumerate_ktree_complex(n, k)
    for face in kom.faces:
        fam = [kom.vertices[v] for v in face]
        sigma_lattice(pk, fam)  # construction asserts lattice + building set


def test_sigma_meet_agrees_with_poset_meet(pk72):
    # checked inside sigma_lattice; exercise a concrete instance of the
    # factor-intersection formula
    a = parse_partition("(123)4567", 7)
    c = parse_partition("123(456)7", 7)
    sig = sigma_lattice(pk72, [a, c])
    sp = sig.poset
    top = sp.max_index
    ai, ci = sp.index(a), sp.index(c)
    assert sp.meet([ai, ci]) == sp.min_index
    assert sp.meet([ai, top]) == ai


# ---------------------------------------------------------------------------
# blowup sequences
# ---------------------------------------------------------------------------


def facet_sigma(pk, labels):
    return sigma_lattice(pk, labels)


def test_blowup_trivial_when_equal(pk41):
    a = parse_partition("(12)34", 4)
    b = parse_partition("(123)4", 4)
    sig = facet_sigma(pk41, [a, b])
    hidx = [sig.poset.index(x) for x in (a, b)]
    gidx = [i for i in range(sig.poset.n) if i != sig.poset.min_index]
    res = blowup_sequence(sig.poset, hidx, gidx)
    assert res.steps == []
    assert res.final == res.initial


def test_blowup_facet_of_t14_gives_order_complex(pk41):
    for labels in ([parse_partition("(12)34", 4), parse_partition("12(34)", 4)],
                   [parse_partition("(12)34", 4), parse_partition("(123)4", 4)]):
        sig = facet_sigma(pk41, labels)
        L = sig.poset
        hidx = [L.index(x) for x in labels]
        gidx = [i for i in range(L.n) if i != L.min_index]
        res = blowup_sequence(L, hidx, gidx)
        top_kept = Poset(L.labels, L.leq, min_index=L.min_index, max_index=None, validate=False)
        assert res.final == top_kept.order_complex()


def test_blowup_new_vertex_carrier_is_factor_face(pk41):
    a, b = parse_partition("(12)34", 4), parse_partition("12(34)", 4)
    sig = facet_sigma(pk41, [a, b])
    L = sig.poset
    res = blowup_sequence(L, [L.index(a), L.index(b)], [i for i in range(L.n) if i != L.min_index])
    (step,) = res.steps
    assert step.new_label == parse_partition("(12)(34)", 4)
    assert step.subdivided_face == frozenset([a, b])
    assert res.carrier(frozenset([step.new_label])) == frozenset([a, b])


def test_blowup_rejects_bad_extension(pk51):
    g = {
        i
        for i, x in enumerate(pk51.poset.labels)
        if len(x.nonsingleton_blocks()) == 1
    }
    pool = [i for i in pk51.poset.proper_indices() if i not in g]
    ext = pk51.poset.linear_extension(pool)
    bad = list(reversed(ext))  # top-first input violates the convention
    q = enumerate_ktree_complex(5, 1)
    with pytest.raises(NotLinearExtension):
        run_blowup(pk51.poset, q, bad)


def test_blowup_carriers_are_initial_faces(pk51):
    q = enumerate_ktree_complex(5, 1)
    g = {
        i
        for i, x in enumerate(pk51.poset.labels)
        if len(x.nonsingleton_blocks()) == 1
    }
    pool = [i for i in pk51.poset.proper_indices() if i not in g]
    res = run_blowup(pk51.poset, q, pk51.poset.linear_extension(pool))
    for kom in res.complexes:
        for face in kom.faces:
            tau = res.carrier(frozenset(kom.vertices[v] for v in face))
            assert q.has_face_labels(tau)


def test_global_blowup_matches_order_complex(pk72, t24, delta72):
    g = set(pk72.g_indices())
    pool = [i for i in pk72.poset.proper_indices() if i not in g]
    res = run_blowup(pk72.poset, t24, pk72.poset.linear_extension(pool), record_intermediate=False)
    assert res.final == delta72
    assert len(res.steps) == 70


def test_extension_independence(pk72, t24):
    g = set(pk72.g_indices())
    pool = [i for i in pk72.poset.proper_indices() if i not in g]
    exts = _distinct_extensions(pk72.poset, pool, 3, seed=0)
    assert len({tuple(e) for e in exts}) == 3
    finals = [run_blowup(pk72.poset, t24, list(e), record_intermediate=False).final for e in exts]
    assert finals[0] == finals[1] == finals[2]


# ---------------------------------------------------------------------------
# carrier maps
# ---------------------------------------------------------------------------


def test_carrier_map_examples(pk72, t24, delta72):
    cm = carrier_map_from_parts(pk72, delta72, t24)
    g = parse_partition("(12345)67", 7)
    vg = delta72.vertex_index(g)
    assert cm.phi[frozenset([vg])] == t24.face_from_labels([g])
    assert cm.f0[vg] == {t24.vertex_index(g): Fraction(1)}
    x = parse_partition("(123)(456)7", 7)
    vx = delta72.vertex_index(x)
    edge = t24.face_from_labels(
        [parse_partition("(123)4567", 7), parse_partition("123(456)7", 7)]
    )
    assert cm.phi[frozenset([vx])] == edge
    assert sorted(cm.f0[vx].values()) == [Fraction(1, 2), Fraction(1, 2)]
    lower = delta72.vertex_index(parse_partition("(123)4567", 7))
    chain = frozenset([lower, vx])
    assert cm.phi[chain] == edge


def test_chain_image_is_union_of_factors(pk72, t24, delta72):
    cm = carrier_map_from_parts(pk72, delta72, t24)
    for face, img in cm.phi.items():
        union = set()
        for v in face:
            union |= cm.phi[frozenset([v])]
        assert img == frozenset(union)


def test_verify_carrier_map_passes(pk41, t14, delta41):
    cm = carrier_map_from_parts(pk41, delta41, t14)
    res = verify_carrier_map(cm)
    assert res.passed, [f.to_json() for f in res.failures]
    assert all(v == "1" for v in res.facet_volumes.values())


def test_verify_carrier_map_identity_case():
    cm, _ = global_carrier_map(2, 3)
    res = verify_carrier_map(cm)
    assert res.passed


def test_perturbed_vertex_map_fails_with_overlap(pk41, t14, delta41):
    cm = carrier_map_from_parts(pk41, delta41, t14)
    a = parse_partition("(12)34", 4)
    h = parse_partition("(12)(34)", 4)
    va, vh = delta41.vertex_index(a), delta41.vertex_index(h)
    bad_f0 = {v: dict(c) for v, c in cm.f0.items()}
    bad_f0[va], bad_f0[vh] = bad_f0[vh], bad_f0[va]
    bad = CarrierMap(
        p_complex=cm.p_complex, q_complex=cm.q_complex, phi=dict(cm.phi), f0=bad_f0
    )
    res = verify_carrier_map(bad)
    assert not res.passed
    overlaps = [f for f in res.failures if f.check == "interiors_disjoint"]
    assert overlaps, "expected an explicit overlap witness"
    assert "point" in overlaps[0].witness


def test_compatibility_family_passes(pk41, t14, delta41):
    cm = carrier_map_from_parts(pk41, delta41, t14)
    fam = build_local_carrier_maps(cm)
    assert len(fam) == len(t14.faces)
    res = check_compatibility(fam)
    assert res.passed, [f.to_json() for f in res.failures]


@pytest.mark.parametrize("kn", [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4)])
def test_global_carrier_map_implies_compatibility(kn):
    # verify_theorem checks only the global map: its localizations are
    # restrictions of it, so they must be compatible whenever it passes
    cm, _ = global_carrier_map(*kn)
    assert verify_carrier_map(cm).passed
    res = check_compatibility(build_local_carrier_maps(cm))
    assert res.passed, [f.to_json() for f in res.failures]


def test_compatibility_disjoint_faces_vacuous(pk41, t14, delta41):
    cm = carrier_map_from_parts(pk41, delta41, t14)
    two_pts = [f for f in t14.faces if len(f) == 1][:2]
    fam = {qf: cm.localize(qf) for qf in two_pts}
    assert check_compatibility(fam).passed


def test_compatibility_rejects_inconsistent_barycenter(pk51):
    q = enumerate_ktree_complex(5, 1)
    delta = pk51.poset.order_complex()
    cm = carrier_map_from_parts(pk51, delta, q)
    fam = build_local_carrier_maps(cm)
    tri = next(qf for qf in fam if len(qf) == 3)
    local = fam[tri]
    shared = next(v for v in local.p_vertices() if len(local.f0[v]) == 2)
    ks = sorted(local.f0[shared])
    local.f0[shared] = {ks[0]: Fraction(1, 3), ks[1]: Fraction(2, 3)}
    res = check_compatibility(fam)
    assert not res.passed
    assert any(f.check == "vertex_maps_agree" for f in res.failures)


def test_compatibility_rejects_support_violation(pk41, t14, delta41):
    cm = carrier_map_from_parts(pk41, delta41, t14)
    fam = build_local_carrier_maps(cm)
    edge = next(qf for qf in fam if len(qf) == 2 and len(fam[qf].p_vertices()) == 3)
    local = fam[edge]
    qa, qb = sorted(edge)
    orig = next(v for v in local.p_vertices() if local.f0[v] == {qa: Fraction(1)})
    local.f0[orig] = {qa: Fraction(2, 3), qb: Fraction(1, 3)}
    res = check_compatibility(fam)
    assert not res.passed
    assert any(f.check == "local_carrier_map" for f in res.failures)


def test_factor_union_of_comparable_pair_is_nested(pk72, t24):
    # for every comparable pair in the proper part, the union of factor sets
    # is again a face of the k-tree complex
    proper = pk72.poset.proper_indices()
    leq = pk72.poset.leq
    for i in proper:
        for j in proper:
            if i != j and leq[i, j]:
                union = pk72.factors(pk72.partition(i)) | pk72.factors(pk72.partition(j))
                assert t24.has_face_labels(union)
                assert is_k_nested(pk72, union)


def test_every_chain_factor_set_is_a_face(pk72, t24, delta72):
    for face in delta72.faces:
        fam = pk72.chain_factors([delta72.vertices[v] for v in face])
        assert t24.has_face_labels(fam)


def test_carrier_surjectivity_witnessed_by_join_chains(pk72, t24, delta72):
    # every face of the tree complex is the factor set of some chain: take
    # successive joins of the family ordered by rank
    from ktreesub import join_all

    for face in sorted(t24.faces, key=len)[:400]:
        fam = sorted((t24.vertices[v] for v in face), key=Partition.sort_key)
        chain = []
        for r in range(1, len(fam) + 1):
            chain.append(join_all(fam[:r]))
        chain = sorted(set(chain), key=Partition.sort_key)
        assert pk72.chain_factors(chain) == frozenset(fam)


# ---------------------------------------------------------------------------
# theorem pipeline and equivariance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kn", [(1, 3), (2, 3), (3, 3), (1, 4)])
def test_verify_theorem_small(kn):
    k, n = kn
    rep = verify_theorem(k, n, extensions=2)
    assert rep.verdict == "pass"
    assert rep.to_json()["verdict"] == "pass"


def test_verify_theorem_counts_14():
    rep = verify_theorem(1, 4)
    assert rep.f_vectors == {"source": [13, 18], "target": [10, 15]}
    assert rep.homology["source"] == [[0, []], [6, []]]
    assert rep.homology["target"] == [[0, []], [6, []]]


def test_verify_theorem_counts_24():
    rep = verify_theorem(2, 4)
    assert rep.sizes["poset_elements"] == 128
    assert rep.sizes["proper_elements"] == 126
    assert rep.sizes["target_vertices"] == 56


def test_sample_permutations_matches_list_sample():
    # the lazy sampler must pick what rng.sample picks from the full list
    for m in range(1, 9):
        universe = list(permutations(range(1, m + 1)))
        total = factorial(m)
        for seed in (0, 1, 7, 123):
            for count in (0, 1, 5, 20, 200, total, total + 3):
                if count <= 1000:
                    want = random.Random(seed).sample(universe, min(count, total))
                    assert sample_permutations(m, count, seed) == want


def test_equivariance_identity_only(pk41):
    rep = check_equivariance(1, 4, perms=1, seed=11)
    assert rep.permutations_checked == 1


def test_equivariance_small_all():
    rep = check_equivariance(2, 3, perms="all")
    assert rep.passed and rep.permutations_checked == 120
    rep = check_equivariance(1, 4, perms="all")
    assert rep.passed and rep.permutations_checked == 24
    assert rep.top_rank_source == rep.top_rank_target == 6
