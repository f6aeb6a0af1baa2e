import gc
import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, prod
from pathlib import Path

import numpy as np
import pytest

from ktreesub import (
    CarrierMap,
    FaceNotPresent,
    NotLinearExtension,
    NotNested,
    Partition,
    Poset,
    SimplicialComplex,
    blowup_sequence,
    carrier_map_from_parts,
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
from ktreesub import exact, subdivision
from ktreesub.subdivision import _distinct_extensions, sample_permutations
from oracles import (
    apply_permutation,
    _relabelling_maps,
    by_size_order,
    carrier_phi_oracle,
    carriers_per_vertex_oracle,
    check_vertices_oracle,
    eager_labels_oracle,
    equivariance_oracle,
    generator_certificate_oracle,
    orbit_roots_oracle,
    pairwise_carrier_oracle,
    stellar_chain_oracle,
)


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
        allg = [i for i in range(pk.poset.n) if i != pk.poset.min_index]
        ok, _ = is_building_set(pk.poset, allg)
        assert ok


def test_single_atom_not_building(pk31):
    atom = pk31.poset.index(parse_partition("(12)3", 3))
    ok, witness = is_building_set(pk31.poset, [atom])
    assert not ok
    assert witness is not None and witness != parse_partition("(12)3", 3)
    assert witness.rank == 1  # another atom


# ---------------------------------------------------------------------------
# nested set complexes
# ---------------------------------------------------------------------------


def test_nested_complex_maximal_building_set_is_order_complex(pk41, delta41):
    allg = [i for i in range(pk41.poset.n) if i != pk41.poset.min_index]
    assert nested_set_complex(pk41.poset, allg) == delta41


def test_nested_complex_minimal_building_set_is_tree_complex(pk41, t14):
    I4 = [
        i
        for i, x in enumerate(pk41.poset.labels)
        if len(x.nonsingleton_blocks()) == 1
    ]
    nc = nested_set_complex(pk41.poset, I4)
    assert nc.f_vector() == (10, 15)
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
    assert res.replay.equals(delta72) and not res.replay.equals(t24)
    assert res.final == delta72
    assert len(res.steps) == 70
    # Δ with the labels of its first and last vertex swapped: the same
    # labels and f-vector, other maximal faces
    labels = list(delta72.vertices)
    labels[0], labels[-1] = labels[-1], labels[0]
    swapped = SimplicialComplex.from_rows(labels, delta72.face_rows.rows)
    assert swapped.f_vector() == delta72.f_vector() and res.final != swapped
    assert not res.replay.equals(swapped)


def test_extension_independence(pk72, t24):
    g = set(pk72.g_indices())
    pool = [i for i in pk72.poset.proper_indices() if i not in g]
    exts = _distinct_extensions(pk72.poset, pool, 3, seed=0)
    assert len({tuple(e) for e in exts}) == 3
    finals = [run_blowup(pk72.poset, t24, list(e), record_intermediate=False).final for e in exts]
    assert finals[0] == finals[1] == finals[2]


def _added_pool(pk):
    g = set(pk.g_indices())
    return [i for i in pk.poset.proper_indices() if i not in g]


@pytest.mark.parametrize("kn", [(1, 4), (2, 4), (1, 5)])
def test_incremental_blowup_matches_stellar_chain(kn):
    # one face set edited in place must reach, step by step, the complexes
    # that a chain of whole-complex subdivisions builds
    k, n = kn
    pk = enumerate_partitions((n - 1) * k + 1, k)
    q = enumerate_ktree_complex(n, k)
    for seed in (0, 1, 2):
        ext = pk.poset.linear_extension(_added_pool(pk), policy="seeded-random", seed=seed)
        chain = stellar_chain_oracle(pk.poset, q, ext)
        recorded = run_blowup(pk.poset, q, ext)
        assert len(recorded.complexes) == len(chain)
        for got, want in zip(recorded.complexes, chain):
            assert got.vertices == want.vertices and got.faces == want.faces
        assert recorded.final is recorded.complexes[-1]
        assert len(recorded.steps) == len(ext)
        last = run_blowup(pk.poset, q, ext, record_intermediate=False)
        assert last.complexes[0] is q
        assert last.final.vertices == chain[-1].vertices and last.final.faces == chain[-1].faces
        assert last.complexes[-1] is last.final
        assert last.steps == recorded.steps and last.factor_map == recorded.factor_map


@pytest.mark.parametrize("record", [True, False])
def test_blowup_missing_face_raises_at_its_step(pk41, t14, record):
    # drop the edge the (12)(34) step subdivides: that step, and no other,
    # must raise, with the chain's message, whether or not steps are recorded
    ext = pk41.poset.linear_extension(_added_pool(pk41))
    edge = t14.face_from_labels([parse_partition("(12)34", 4), parse_partition("12(34)", 4)])
    broken = SimplicialComplex(t14.vertices, t14.faces - {edge})
    with pytest.raises(FaceNotPresent) as want:
        stellar_chain_oracle(pk41.poset, broken, ext)
    with pytest.raises(FaceNotPresent) as got:
        run_blowup(pk41.poset, broken, ext, record_intermediate=record)
    assert str(got.value) == str(want.value)
    assert "(12)34" in str(got.value) or "12(34)" in str(got.value)


def test_blowup_empty_face_raises(pk41):
    # an initial complex with no vertex below an added element
    start = SimplicialComplex([parse_partition("(123)4", 4)], [frozenset([0])])
    ext = [pk41.poset.index(parse_partition("(12)(34)", 4))]
    with pytest.raises(FaceNotPresent, match=r"face \[\] not in complex"):
        run_blowup(pk41.poset, start, ext)


def test_full_stellar_sequence_34_ends_at_order_complex():
    pk = enumerate_partitions(10, 3)
    q = enumerate_ktree_complex(4, 3)
    delta = pk.poset.order_complex()
    ext = pk.poset.linear_extension(_added_pool(pk))
    res = run_blowup(pk.poset, q, ext, record_intermediate=False)
    assert len(res.steps) == 1575
    assert res.replay.equals(delta)
    assert res.final.f_vector() == delta.f_vector() == (1905, 7350)
    assert res.final == delta


# ---------------------------------------------------------------------------
# carrier maps
# ---------------------------------------------------------------------------


def test_carrier_map_examples(pk72, t24, delta72):
    cm = carrier_map_from_parts(delta72, t24)
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
    cm = carrier_map_from_parts(delta72, t24)
    for face, img in cm.phi.items():
        union = set()
        for v in face:
            union |= cm.phi[frozenset([v])]
        assert img == frozenset(union)


def test_verify_carrier_map_passes(pk41, t14, delta41):
    cm = carrier_map_from_parts(delta41, t14)
    res = verify_carrier_map(cm)
    assert res.passed, [f.to_json() for f in res.failures]
    assert all(v == "1" for v in res.facet_volumes.values())


def test_verify_carrier_map_identity_case():
    cm, _ = global_carrier_map(2, 3)
    res = verify_carrier_map(cm)
    assert res.passed


def test_perturbed_vertex_map_fails_with_overlap(pk41, t14, delta41):
    cm = carrier_map_from_parts(delta41, t14)
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


def _swap_placements(cm, k, n, texts):
    a, b = (cm.p_complex.vertex_index(parse_partition(t, (n - 1) * k + 1)) for t in texts)
    cm.f0[a], cm.f0[b] = cm.f0[b], cm.f0[a]


def _move_along_carrier(cm, k, n):
    v = cm.p_complex.vertex_index(parse_partition("(12)(34)5", 5))
    lo, hi = sorted(cm.f0[v])
    cm.f0[v] = {lo: Fraction(1, 10), hi: Fraction(9, 10)}


def _move_off_carrier(cm, k, n):
    v = cm.p_complex.vertex_index(parse_partition("(12)(34)5", 5))
    edge = frozenset(cm.f0[v])
    tri = min((f for f in cm.q_complex.faces if len(f) == 3 and edge < f), key=sorted)
    cm.f0[v] = {i: Fraction(1, 3) for i in tri}


PRIMES = (999_999_937, 1_000_000_007, 1_000_000_009)
PRIME_MOVED = ["(12)(34)5", "(13)(245)", "(15)(234)"]


def _move_to_primes(cm, k, n):
    # each vertex of PRIME_MOVED moved inside its carrier, off the barycenter
    # by less than 1/p, to a point whose coordinates have denominator p, a
    # prime near 10^9: still a subdivision
    for text, p in zip(PRIME_MOVED, PRIMES):
        v = cm.p_complex.vertex_index(parse_partition(text, (n - 1) * k + 1))
        carrier = sorted(cm.f0[v])
        nums = [p // len(carrier)] * (len(carrier) - 1)
        cm.f0[v] = {i: Fraction(a, p) for i, a in zip(carrier, nums + [p - sum(nums)])}


def _swap_prime_placements(cm, k, n):
    # the negative control's swap after _move_to_primes, so that the
    # overlap witnesses carry the primes in their denominators
    _move_to_primes(cm, k, n)
    _swap_placements(cm, k, n, ["(12)345", "(12)(34)5"])


def _drop_cells(size):
    def edit(cm, k, n):
        drop = min((f for f in cm.p_faces if len(f) == size), key=sorted)
        cm.p_faces = cm.p_faces - {drop}

    return edit


def _drop_facet_orbit(cm, k, n):
    # every top cell of the S_m-orbit of one top cell removed: the map still
    # commutes with S_m, and each face over a removed cell fails its volume
    # check
    p = cm.p_complex
    top = max(len(f) for f in cm.p_faces)
    facet = min((f for f in cm.p_faces if len(f) == top), key=sorted)
    orbit = {
        frozenset(p.vertex_index(p.vertices[v].permute(pi)) for v in facet)
        for pi in permutations(range(1, (n - 1) * k + 2))
    }
    cm.p_faces = cm.p_faces - orbit


def _hand_map(target_facets, points, cells, carriers=()):
    """A carrier map onto the complex with the given facets (vertex labels
    "A", "B", "C"): source vertex ``name`` sits at ``points[name]`` (a
    {target label: weight} dict, or a number t for (1 - t)·A + t·B); its
    carrier is the support of that point unless ``carriers`` names another;
    a face maps to the union of its vertices' carriers."""
    q = SimplicialComplex.from_label_faces(target_facets)
    p = SimplicialComplex.from_label_faces(cells)
    coords = {
        name: {"A": 1 - pt, "B": pt} if isinstance(pt, Fraction) else pt
        for name, pt in points.items()
    }
    coords = {name: {lab: w for lab, w in c.items() if w} for name, c in coords.items()}
    carrier = {name: set(dict(carriers).get(name, c)) for name, c in coords.items()}
    return CarrierMap(
        p_complex=p,
        q_complex=q,
        phi={f: q.face_from_labels(set().union(*(carrier[p.vertices[v]] for v in f))) for f in p.faces},
        f0={v: {q.vertex_index(lab): Fraction(w) for lab, w in coords[name].items()}
            for v, name in enumerate(p.vertices)},
    )


ENDS = {"A": Fraction(0), "B": Fraction(1)}
CORNERS = {"A": {"A": 1}, "B": {"B": 1}, "C": {"C": 1}}
F = Fraction


def _gap_and_overlap():
    # [A,x] and [y,z] overlap, [z,w] is a gap, and the lengths still sum to
    # 1: only the ridge counts (x, y, z, w in one cell each) refuse it
    pts = {**ENDS, "x": F(1, 2), "y": F(1, 4), "z": F(5, 8), "w": F(7, 8)}
    return _hand_map([("A", "B")], pts, [("A", "x"), ("y", "z"), ("w", "B")])


def _stray_vertex():
    # a triangulated edge plus a vertex of the source inside it that is a
    # face of no edge over it
    pts = {**ENDS, "x": F(1, 2), "y": F(1, 4)}
    return _hand_map([("A", "B")], pts, [("A", "x"), ("x", "B"), ("y",)])


def _double_cover():
    # two fans over the triangle, around c1 and around c2, with the edges
    # halved in the second: every ridge count and side is right, the
    # volumes sum to 2
    pts = {**CORNERS, "c1": {"A": F(1, 3), "B": F(1, 3), "C": F(1, 3)},
           "c2": {"A": F(1, 4), "B": F(1, 4), "C": F(1, 2)},
           "m1": {"A": F(1, 2), "B": F(1, 2)}, "m2": {"B": F(1, 2), "C": F(1, 2)},
           "m3": {"C": F(1, 2), "A": F(1, 2)}}
    ring = ["A", "m1", "B", "m2", "C", "m3"]
    cells = [("c1", "A", "B"), ("c1", "B", "C"), ("c1", "C", "A")]
    cells += [("c2", a, b) for a, b in zip(ring, ring[1:] + ring[:1])]
    return _hand_map([("A", "B", "C")], pts, cells)


def _misplaced_carriers():
    # y and w lie inside the edge but claim a vertex carrier, so their
    # ridges pass for boundary ones; only well-formedness refuses this
    pts = {**ENDS, "y": F(1, 2), "z": F(1, 4), "w": F(3, 4)}
    return _hand_map([("A", "B")], pts, [("A", "y"), ("z", "w"), ("B",)],
                     carriers={"y": "B", "z": "A", "w": "B"})


def _folded_cycle():
    # x, y, z inside the edge, cells [x,y], [y,z], [x,z]: every ridge is in
    # two cells and the lengths sum to 1, but x and z see both their cells
    # on one side
    pts = {**ENDS, "x": F(1, 4), "y": F(1, 2), "z": F(3, 4)}
    return _hand_map([("A", "B")], pts, [("x", "y"), ("y", "z"), ("x", "z"), ("A",), ("B",)])


def _unchecked_vertices():
    # the misplaced vertices of _misplaced_carriers left out of the source
    # faces, so that no vertex check sees them; the source is not closed
    # under taking faces, and that alone refuses the certificate
    cm = _misplaced_carriers()
    names = {cm.p_complex.vertex_index(x) for x in ("y", "z", "w")}
    cm.p_faces = frozenset(f for f in cm.p_faces if not (len(f) == 1 and f <= names))
    return cm


def _matching_triangles(cm, k, n):
    """The carrier map of (1,6) cut down to the 15 triangles of T^1_6 whose
    vertices are three disjoint pairs, and their faces: an S_6-invariant
    subcomplex, with the source faces that map into it.  Then, at each
    corner a of such a triangle with centre c (the partition of the three
    pairs) and mids M1, M2 (the two pairs through a), the edge [a, c] is
    flipped to [M1, M2]: the cells [a, M1, c], [a, M2, c] become
    [a, M1, M2], [c, M1, M2].  Every centre then needs to lie inside the
    triangle of the three mids, which the barycentre does, and the map
    still commutes with S_6."""
    p, q = cm.p_complex, cm.q_complex
    pairs = {i for i, x in enumerate(q.vertices) if len(x.nonsingleton_blocks()[0]) == 2}
    triangles = [f for f in q.faces if len(f) == 3 and f <= pairs]
    cm.q_faces = frozenset(g for f in triangles for g in q.faces if g <= f)
    faces = {f for f in cm.p_faces if cm.phi[f] in cm.q_faces}
    at = {frozenset(cm.f0[v]): v for v in range(len(p.vertices))}  # carrier -> vertex
    for tri in triangles:
        c = at[tri]
        for corner in tri:
            a = at[frozenset([corner])]
            mids = [at[frozenset([corner, other])] for other in tri - {corner}]
            faces -= {f for f in faces if {a, c} <= f}
            for apex in (a, c):
                cell = [apex, *mids]
                faces |= {frozenset(sub) for r in (1, 2, 3) for sub in combinations(cell, r)}
    cm.p_faces = frozenset(faces)
    for f in faces:
        cm.phi.setdefault(f, frozenset().union(*(cm.f0[v] for v in f)))


def _move_centre_off_mids(cm, k, n):
    # the centre of the last matching triangle in check order, which is not
    # the first of its S_6-orbit, moved inside its carrier past the line of
    # the two mids through one corner: the cell [c, M1, M2] folds over
    # [a, M1, M2].  Well-formed, φ and the face sets still commute with
    # S_6, and every other triangle is a subdivision: only the f0 test of
    # the orbit shortcut tells this triangle from its orbit's first.
    _matching_triangles(cm, k, n)
    last = max((f for f in cm.q_faces if len(f) == 3), key=subdivision._by_size)
    c = next(v for v, coords in cm.f0.items() if frozenset(coords) == last)
    a, b, d = sorted(last)
    cm.f0[c] = {a: Fraction(3, 5), b: Fraction(1, 5), d: Fraction(1, 5)}


def _phi_off_orbit(cm, k, n):
    # the matching triangles, and φ of one source edge [a, M] (a the corner
    # vertex of a target edge G, M its mid) raised from G to the triangle
    # over G: still order-preserving, since [a, M] lies in the one cell
    # [a, M, M'] over that triangle, so the map is well-formed, and the face
    # sets and f0 still commute with S_6.  Only φ does not, and G, the last
    # edge in check order, loses a cell: only the φ test of the orbit
    # shortcut tells G from its orbit's first edge.
    _matching_triangles(cm, k, n)
    edge = max((f for f in cm.q_faces if len(f) == 2), key=subdivision._by_size)
    at = {frozenset(coords): v for v, coords in cm.f0.items()}
    tri = next(f for f in cm.q_faces if len(f) == 3 and edge < f)
    cm.phi[frozenset([at[frozenset([min(edge)])], at[edge]])] = tri


def _drop_cell_beside_last(cm, k, n):
    # a top cell dropped that lies over the same target face as the last
    # source face in check order, so that σ maps some cell onto a missing
    # one while φ of the missing cell is φ of the last: only the source
    # invariance test of the orbit shortcut refuses the map
    top = max(len(f) for f in cm.p_faces)
    last = max(cm.p_faces, key=subdivision._by_size)
    drop = min((f for f in cm.p_faces if len(f) == top and f != last and cm.phi[f] == cm.phi[last]), key=sorted)
    cm.p_faces = cm.p_faces - {drop}


def _stray_target_face(cm, k, n):
    # a set of target vertices that is no face of the target, read as one
    # more target face: it has no cell, and its S_m-images are not target
    # faces.  It sits just before the last target face in check order, past
    # the first face of that face's orbit: only the target invariance test
    # of the orbit shortcut refuses the map
    last = max(cm.q_faces, key=subdivision._by_size)
    vertices = sorted(set().union(*cm.q_faces))
    stray = next(
        g for g in (frozenset([*sorted(last)[:-1], v]) for v in reversed(vertices))
        if len(g) == len(last) and g not in cm.q_faces and subdivision._by_size(g) < subdivision._by_size(last)
    )
    cm.q_faces = cm.q_faces | {stray}


def _chain(cm, k, n, texts):
    return frozenset(cm.p_complex.vertex_index(parse_partition(t, (n - 1) * k + 1)) for t in texts)


def _phi_partial(cm, k, n):
    # φ left undefined on two edges: the target edge under each loses a
    # cell, and the two φ failures come in check order
    for texts in (["(13)24", "(13)(24)"], ["(12)34", "(12)(34)"]):
        del cm.phi[_chain(cm, k, n, texts)]


def _phi_outside_target(cm, k, n):
    # φ of the edge [(12)34, (123)4] sent to a pair of target vertices that
    # is no target face, and that misses φ of (123)4: both the image test and
    # the order test fail on it, the order test read from the images
    edge = _chain(cm, k, n, ["(12)34", "(123)4"])
    cm.phi[edge] = cm.q_complex.face_from_labels([parse_partition(t, 4) for t in ["(12)34", "1(234)"]])


def _phi_out_of_order(cm, k, n):
    # φ of the first triangle in check order lowered to φ of its facet
    # without its last vertex, a target face that misses φ of that vertex
    tri = min((f for f in cm.p_faces if len(f) == 3), key=sorted)
    cm.phi[tri] = cm.phi[tri - {max(tri)}]


def _phi_facet_out_of_order(cm, k, n):
    # φ of the first edge in check order sent to a target vertex off φ of
    # the first triangle through it: the override sits on the facet alone,
    # and the triangle, φ from the carriers, fails the order test
    edge = min((f for f in cm.p_faces if len(f) == 2), key=sorted)
    tri = min((f for f in cm.p_faces if len(f) == 3 and edge < f), key=sorted)
    cm.phi[edge] = frozenset([min(set(range(len(cm.q_complex.vertices))) - cm.phi[tri])])


def _unplaced_vertex():
    # a source vertex y in no cell with neither an image nor coordinates
    pts = {**ENDS, "x": F(1, 2), "y": F(1, 4)}
    cm = _hand_map([("A", "B")], pts, [("A", "x"), ("x", "B"), ("y",)])
    y = cm.p_complex.vertex_index("y")
    del cm.phi[frozenset([y])], cm.f0[y]
    return cm


def _unnormalised_vertex(cm, k, n):
    # (12)(34) strictly inside its carrier edge, with coordinates summing to 5/6
    v = cm.p_complex.vertex_index(parse_partition("(12)(34)", 4))
    lo, hi = sorted(cm.f0[v])
    cm.f0[v] = {lo: Fraction(1, 2), hi: Fraction(1, 3)}


def _coincident_vertices():
    # x and y both at the midpoint of the edge, each in one cell: the cells
    # meet only there, and the lengths sum to 1
    pts = {**ENDS, "x": F(1, 2), "y": F(1, 2)}
    return _hand_map([("A", "B")], pts, [("A", "x"), ("y", "B")])


def _fan(centre):
    # the triangle ABC subdivided at one point x: three cells around x
    pts = {**CORNERS, "x": centre}
    return _hand_map([("A", "B", "C")], pts, [("x", "A", "B"), ("x", "B", "C"), ("x", "C", "A")])


# a denominator that no int64 holds
WIDE = 2**64 + 13


def _place_middle(coords):
    # (12)(34) of the (1,4) map placed at coords(lo, hi, other), lo and hi
    # the ends of its carrier edge and other the first target vertex off it
    def edit(cm, k, n):
        v = cm.p_complex.vertex_index(parse_partition("(12)(34)", 4))
        lo, hi = sorted(cm.f0[v])
        other = min(set(range(len(cm.q_complex.vertices))) - {lo, hi})
        cm.f0[v] = coords(lo, hi, other)

    return edit


def _lower_vertex_phi(cm, k, n):
    # φ of the vertex (12)(34)5 lowered from its carrier edge to one end of
    # it, while f0 keeps the barycenter of the edge: still order-preserving,
    # and only the vertex check, reading φ of the vertex, sees the point off
    # its image
    v = cm.p_complex.vertex_index(parse_partition("(12)(34)5", 5))
    cm.phi[frozenset([v])] = frozenset([min(cm.f0[v])])


def _onto_unedited_barycenter(cm, k, n):
    # (12)(34) placed at the barycenter of the carrier of (13)(24), which
    # keeps its closed-form point: the two coincide, one edited and one not
    a, b = (cm.p_complex.vertex_index(parse_partition(t, 4)) for t in ["(12)(34)", "(13)(24)"])
    cm.f0[a] = dict(cm.f0[b])


def _recarry(text, carrier):
    # the carrier of the vertex ``text`` replaced by carrier(old carrier),
    # in the carriers that φ and f0 share
    def edit(cm, k, n):
        v = cm.p_complex.vertex_index(parse_partition(text, (n - 1) * k + 1))
        carriers = list(cm.phi.carriers)
        carriers[v] = carrier(carriers[v])
        cm.phi = subdivision.CarrierPhi(cm.p_complex, tuple(carriers))
        cm.f0 = subdivision.CarrierF0(cm.p_complex, cm.phi.carriers)

    return edit


def _coincident_carriers():
    # the map of "vertex-map-injective" with φ and f0 from shared carriers:
    # x and y, both unedited, have the carrier {A, B}
    hand = _coincident_vertices()
    p = hand.p_complex
    carriers = tuple(tuple(sorted(hand.f0[v])) for v in range(len(p.vertices)))
    phi = subdivision.CarrierPhi(p, carriers)
    return CarrierMap(p_complex=p, q_complex=hand.q_complex, phi=phi, f0=subdivision.CarrierF0(p, carriers))


def _plain_f0_missing_vertex():
    # φ from carriers and f0 a plain dict without y, whose carrier {A, C}
    # is no face of the path A-B-C: y has no coordinates and lies in no cell
    pts = {**CORNERS, "x": {"A": F(1, 2), "B": F(1, 2)}, "y": {"A": F(1, 2), "C": F(1, 2)}}
    hand = _hand_map([("A", "B"), ("B", "C")], pts, [("A", "x"), ("x", "B"), ("B", "C"), ("y",)])
    p = hand.p_complex
    carriers = tuple(tuple(sorted(hand.f0[v])) for v in range(len(p.vertices)))
    f0 = {v: coords for v, coords in hand.f0.items() if p.vertices[v] != "y"}
    return CarrierMap(p_complex=p, q_complex=hand.q_complex, phi=subdivision.CarrierPhi(p, carriers), f0=f0)


def _stray_source_vertex(cm, k, n):
    # one more source vertex, past the source complex's vertices: it has
    # neither an image nor coordinates
    cm.p_faces = cm.p_faces | {frozenset([len(cm.p_complex.vertices)])}


def _stray_vertex_in_cell(cm, k, n):
    # the stray source vertex in an edge with (12)34, which φ sends to a
    # target edge through (12)34: a cell with an image whose other vertex
    # has no carrier and no coordinates
    _stray_source_vertex(cm, k, n)
    u = cm.p_complex.vertex_index(parse_partition("(12)34", 4))
    edge = frozenset([u, len(cm.p_complex.vertices)])
    cm.p_faces = cm.p_faces | {edge}
    cm.phi[edge] = min((f for f in cm.q_faces if len(f) == 2 and cm.phi[frozenset([u])] < f), key=sorted)


def _closed_form_map(target_facets, carriers, cells):
    """A carrier map onto the complex with the given facets whose φ and f0
    share the carriers ``carriers`` ({source label: target labels}): every
    vertex is unedited, at the barycenter of its carrier.  The source is
    the closure of ``cells``."""
    q = SimplicialComplex.from_label_faces(target_facets)
    p = SimplicialComplex.from_label_faces(cells)
    shared = tuple(tuple(sorted(map(q.vertex_index, carriers[name]))) for name in p.vertices)
    return CarrierMap(p_complex=p, q_complex=q, phi=subdivision.CarrierPhi(p, shared),
                      f0=subdivision.CarrierF0(p, shared))


def _collinear_barycenters():
    # the triangle [A, m, B] of unedited vertices with carriers {A}, {A, B}
    # and {B}: φ maps it onto the edge, where its three points lie on one
    # line, and its edge [A, B] covers the edge beside [A, m] and [m, B]
    return _closed_form_map([("A", "B")], {"A": "A", "m": "AB", "B": "B"}, [("A", "m", "B")])


def _folded_median():
    # the half [A, B, m] of the triangle cut off by the median from A to m,
    # the middle of BC, covered twice: by that cell, of unedited vertices,
    # and by three cells through e on AB and f on Bm, edited vertices placed
    # inside their carriers.  The cells fold over the median, the one ridge
    # they share; every other ridge is in the cells it should be, and the
    # areas sum to that of the triangle.  Only the sides of the median tell
    # this from a subdivision, one side from a closed-form cell and the
    # other from a Fraction one
    cm = _closed_form_map([("A", "B", "C")], {"A": "A", "B": "B", "m": "BC", "e": "AB", "f": "BC"},
                          [("A", "B", "m"), ("e", "B", "f"), ("e", "f", "m"), ("e", "m", "A")])
    q = cm.q_complex
    e, f = map(cm.p_complex.vertex_index, "ef")
    cm.f0[e] = {q.vertex_index("A"): F(2, 3), q.vertex_index("B"): F(1, 3)}
    cm.f0[f] = {q.vertex_index("B"): F(3, 4), q.vertex_index("C"): F(1, 4)}
    return cm


def _hadamard_cell():
    # one cell of 31 unedited vertices over a simplex of 31 vertices, its
    # carriers the rows of the 0/1 matrix of Sylvester's Hadamard matrix of
    # order 32: the largest determinant of its order, whose elimination
    # wraps around in int64, past the order bound.  The source and target
    # are their vertices alone, φ of the cell is overridden to the simplex,
    # and φ of each vertex, its carrier, is no target face
    h = np.array([[1]])
    while len(h) < 32:
        h = np.block([[h, h], [h, -h]])
    names = [f"t{i:02d}" for i in range(31)]
    carriers = {f"s{i:02d}": [names[j] for j in np.flatnonzero(row < 0)] for i, row in enumerate(h[1:, 1:])}
    cm = _closed_form_map([(t,) for t in names], carriers, [(s,) for s in carriers])
    cell = frozenset(range(31))
    cm.p_faces = cm.p_faces | {cell}
    cm.q_faces = frozenset([frozenset(range(31))])
    cm.phi[cell] = frozenset(range(31))
    return cm


def _drop_vertex_coordinates(cm, k, n):
    # f0 of (12)(34) deleted, while the vertex lies in cells: those cells
    # have no image, and the faces over its carrier lose their volume
    del cm.f0[cm.p_complex.vertex_index(parse_partition("(12)(34)", 4))]


def _phi_past_target(cm, k, n):
    # φ of the vertex 5 sent to an index past the target's vertices
    cm.phi[frozenset([5])] = frozenset([99])


def _ladder(k, n, edit=None):
    def build():
        cm, _ = global_carrier_map(k, n)
        if edit is not None:
            edit(cm, k, n)
        return cm

    return build


# name -> (function making the carrier map, whether the map is a subdivision)
CARRIER_CASES = {
    **{f"ladder-{k}-{n}": (_ladder(k, n), True) for k, n in
       [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5), (4, 3)]},
    "negative-control": (
        _ladder(1, 5, lambda cm, k, n: _swap_placements(cm, k, n, ["(12)345", "(12)(34)5"])), False),
    "moved-along-carrier": (_ladder(1, 5, _move_along_carrier), True),
    "moved-off-carrier": (_ladder(1, 5, _move_off_carrier), False),
    "moved-to-primes": (_ladder(1, 5, _move_to_primes), True),
    "swapped-prime-placements": (_ladder(1, 5, _swap_prime_placements), False),
    "dropped-facet-cell": (_ladder(1, 5, _drop_cells(3)), False),
    "dropped-ridge-cell": (_ladder(2, 4, _drop_cells(1)), False),
    "dropped-facet-orbit": (_ladder(1, 5, _drop_facet_orbit), False),
    "gap-and-overlap": (_gap_and_overlap, False),
    "stray-vertex": (_stray_vertex, False),
    "double-cover": (_double_cover, False),
    "misplaced-carriers": (_misplaced_carriers, False),
    "folded-cycle": (_folded_cycle, False),
    "unchecked-vertices": (_unchecked_vertices, False),
    "flipped-matching-stars": (_ladder(1, 6, _matching_triangles), True),
    "centre-moved-off-root": (_ladder(1, 6, _move_centre_off_mids), False),
    "phi-off-orbit": (_ladder(1, 6, _phi_off_orbit), False),
    "dropped-cell-beside-last": (_ladder(1, 5, _drop_cell_beside_last), False),
    "stray-target-face": (_ladder(1, 5, _stray_target_face), False),
    "phi-total": (_ladder(1, 4, _phi_partial), False),
    "phi-into-target": (_ladder(1, 4, _phi_outside_target), False),
    "phi-order": (_ladder(1, 5, _phi_out_of_order), False),
    "phi-order-on-facet": (_ladder(1, 5, _phi_facet_out_of_order), False),
    "vertex-map-total": (_unplaced_vertex, False),
    "vertex-coordinates-sum": (_ladder(1, 4, _unnormalised_vertex), False),
    "vertex-map-injective": (_coincident_vertices, False),
    # the edges of the vertex table: one denominator per vertex in int64,
    # else exact integers for that vertex
    "mixed-denominators": (lambda: _fan({"A": F(1, 2), "B": F(1, 3), "C": F(1, 6)}), True),
    "mixed-denominators-off-sum": (lambda: _fan({"A": F(1, 2), "B": F(1, 3), "C": F(1, 5)}), False),
    # numerators that fit int64 but whose sum wraps around to the denominator
    "wrapping-sum": (lambda: _fan({"A": F(2**63 - 1, 2**61 - 1), "B": F(2**63 - 1, 2**61 - 1),
                                   "C": F(2**61 + 1, 2**61 - 1)}), False),
    "wide-denominator": (_ladder(1, 4, _place_middle(lambda lo, hi, _: {lo: F(2**63, WIDE), hi: F(WIDE - 2**63, WIDE)})),
                         True),
    "wide-denominator-off-sum": (_ladder(1, 4, _place_middle(lambda lo, hi, _: {lo: F(2**63, WIDE), hi: F(2**63, WIDE)})),
                                 False),
    "one-denominator-off-sum": (_ladder(1, 4, _place_middle(lambda lo, hi, _: {lo: F(1, 3), hi: F(1, 3)})), False),
    "wide-coincident": (lambda: _hand_map([("A", "B")], {**ENDS, "x": F(2**63, WIDE), "y": F(2**63, WIDE)},
                                          [("A", "x"), ("y", "B")]), False),
    "zero-coordinate": (_ladder(1, 4, _place_middle(lambda lo, hi, other: {lo: F(1, 2), hi: F(1, 2), other: F(0)})),
                        False),
    "negative-coordinate": (_ladder(1, 4, _place_middle(lambda lo, hi, _: {lo: F(3, 2), hi: F(-1, 2)})), False),
    # the edited vertices, which the vertex checks decide on their own: φ
    # overridden on a vertex, f0 overridden onto an unedited point, a plain
    # f0 beside a carrier φ, carriers that are empty or repeat an index,
    # and a vertex past the carriers
    "phi-vertex-override": (_ladder(1, 5, _lower_vertex_phi), False),
    "coincident-with-unedited": (_ladder(1, 4, _onto_unedited_barycenter), False),
    "coincident-carriers": (_coincident_carriers, False),
    "plain-f0-missing-vertex": (_plain_f0_missing_vertex, False),
    "empty-carrier": (_ladder(1, 4, _recarry("(12)(34)", lambda c: ())), False),
    "repeated-carrier": (_ladder(1, 4, _recarry("(12)(34)", lambda c: (c[0], c[0]))), False),
    "stray-source-vertex": (_ladder(1, 4, _stray_source_vertex), False),
    "stray-vertex-in-cell": (_ladder(1, 4, _stray_vertex_in_cell), False),
    "f0-missing-vertex-in-cell": (_ladder(1, 4, _drop_vertex_coordinates), False),
    "phi-past-target": (_ladder(1, 4, _phi_past_target), False),
    # the closed-form geometry: a degenerate cell of unedited vertices, and
    # a cell past the int64 order bound
    "collinear-barycenters": (_collinear_barycenters, False),
    "folded-median": (_folded_median, False),
    "hadamard-cell": (_hadamard_cell, False),
}


# broken maps whose cells do not overlap: a cell is missing or lies over
# the wrong face, and only a volume or surjectivity check fails, or only a
# well-formedness check
NO_OVERLAP = {"dropped-facet-cell", "dropped-ridge-cell", "dropped-facet-orbit",
              "phi-off-orbit", "dropped-cell-beside-last", "stray-target-face",
              "phi-total", "phi-into-target", "phi-order", "phi-order-on-facet", "vertex-map-total",
              "vertex-coordinates-sum", "mixed-denominators-off-sum", "wrapping-sum",
              "wide-denominator-off-sum", "zero-coordinate", "one-denominator-off-sum",
              "phi-vertex-override", "coincident-with-unedited", "plain-f0-missing-vertex", "empty-carrier",
              "repeated-carrier", "stray-source-vertex", "f0-missing-vertex-in-cell", "phi-past-target",
              "hadamard-cell", "stray-vertex-in-cell"}


@pytest.mark.parametrize("case", sorted(CARRIER_CASES))
def test_verify_carrier_map_matches_pairwise_oracle(case):
    # the ridge certificate may only skip pairwise tests that find nothing:
    # same failures, in the same order, and the same volumes
    build, is_subdivision = CARRIER_CASES[case]
    cm = build()
    res = verify_carrier_map(cm)
    failures, volumes = pairwise_carrier_oracle(cm)
    assert [f.to_json() for f in res.failures] == failures
    assert res.facet_volumes == volumes
    assert res.passed == is_subdivision
    if not is_subdivision and case not in NO_OVERLAP:
        assert any(f["check"] == "interiors_disjoint" and "point" in f["witness"] for f in failures)


@pytest.mark.parametrize("case", sorted(CARRIER_CASES))
def test_lazy_labels_match_eager_labelling(case):
    # the labels made only for failures and on the first read of the
    # volumes: the same failures and volumes, in the same order, as
    # labelling and checking every target face up front
    res = verify_carrier_map(CARRIER_CASES[case][0]())
    failures, volumes = eager_labels_oracle(CARRIER_CASES[case][0]())
    assert [f.to_json() for f in res.failures] == failures
    assert list(res.facet_volumes.items()) == list(volumes.items())


def test_passing_check_labels_nothing_until_volumes_are_read(monkeypatch):
    # a passing check makes no face labels; the first read of its volumes
    # makes them once, and the volumes are kept
    made = []
    real = subdivision._FaceLabels
    monkeypatch.setattr(subdivision, "_FaceLabels", lambda q: made.append(q) or real(q))
    cm, _ = global_carrier_map(3, 4)
    res = verify_carrier_map(cm)
    assert res.passed and made == []
    volumes = res.facet_volumes
    assert made == [cm.q_complex] and res.facet_volumes is volumes and len(volumes) == len(cm.q_faces)


def test_carrier_check_result_keeps_given_volumes():
    given = {"a": "1"}
    assert subdivision.CarrierCheckResult(passed=True, failures=[], facet_volumes=given).facet_volumes is given
    assert subdivision.CarrierCheckResult(passed=True, failures=[]).facet_volumes == {}


@pytest.mark.parametrize("case", sorted(CARRIER_CASES))
def test_plain_faces_are_the_unedited_faces_of_phis_source(case):
    # the faces whose order pairs are implied: faces of φ's source with no
    # override, not every given source face without one
    cm = CARRIER_CASES[case][0]()
    want = [cm.phi.carriers is not None and face in cm.phi.source.faces and face not in cm.phi.overrides
            for face in by_size_order(cm.p_faces)]
    assert subdivision._PhiTable(cm).plain.tolist() == want


def test_every_carrier_check_fires():
    # each check of verify_carrier_map, read from its source, fails on some
    # case, and a case named after a check fails that check
    source = Path(subdivision.__file__).read_text()
    checks = set(re.findall(r'CheckFailure\(\s*"(\w+)"', source))
    fired = set()
    for case, (build, _) in CARRIER_CASES.items():
        names = {f.check for f in verify_carrier_map(build()).failures}
        assert case.replace("-", "_") not in checks or case.replace("-", "_") in names, case
        fired |= names
    assert len(checks) == 11 and fired == checks


# SHA-256 of the negative control's failures and face volumes, as
# json.dumps([[f.to_json() for f in failures], facet_volumes], sort_keys=True),
# computed with the Fraction elimination the integer kernels replaced: the
# witness strings must stay byte for byte what they were
NEGATIVE_CONTROL_SHA256 = "5598bb463f492f5dbddfbb0d860018a53b2ad700cb7812a433beba1b81c3a086"


def test_negative_control_results_are_pinned():
    res = verify_carrier_map(CARRIER_CASES["negative-control"][0]())
    blob = json.dumps([[f.to_json() for f in res.failures], res.facet_volumes], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == NEGATIVE_CONTROL_SHA256


def test_overlap_witnesses_carry_large_primes():
    # the witnesses of the broken map carry the prime of the swapped vertex,
    # (12)(34)5, in their denominators
    swapped = verify_carrier_map(CARRIER_CASES["swapped-prime-placements"][0]())
    points = [x for f in swapped.failures if f.check == "interiors_disjoint" for x in f.witness["point"]]
    assert points and any(Fraction(x).denominator % PRIMES[0] == 0 for x in points)


@pytest.mark.parametrize("kn", [(1, 5), (4, 3), (3, 4), (1, 6)])
def test_closed_form_geometry_matches_exact(kn):
    # every cell over every target face: the kernel's rank and determinant on
    # the incidence rows read from f0 against affine_dim and
    # simplex_volume_ratio of the cell's points, and the closed-form
    # geometry of the φ table against both
    cm, _ = global_carrier_map(*kn)
    phi = subdivision._PhiTable(cm)
    over = np.flatnonzero(phi.pos >= 0)
    cells = phi.source.faces_at(over)
    images = phi.target.faces_at(phi.pos[over])
    on_face, known = phi.cells(over, cells)
    assert len(known) == len(cells)
    for cell, image in zip(cells, images):
        qs = sorted(image)
        points = [subdivision._localize_point(cm.f0[v], qs) for v in sorted(cell)]
        incidence = np.array([[int(x != 0) for x in pt] for pt in points], dtype=np.int64)
        (rank,), (det,) = exact.bareiss_int64(incidence[None])
        dim = exact.affine_dim(points)
        assert rank - 1 == dim
        volume = exact.simplex_volume_ratio(points) if len(cell) == len(image) else None
        if volume is not None:
            assert Fraction(int(det), prod(len(cm.f0[v]) for v in cell)) == volume
        assert known[cell] == (dim == len(cell) - 1, volume)
        assert type(known[cell][1]) is type(volume)
        assert (cell in on_face) == (len(cell) == len(image))


@pytest.mark.parametrize("case", ["negative-control", *sorted(c for c in CARRIER_CASES if c.startswith("ladder-"))])
def test_exact_path_alone_gives_the_same_results(monkeypatch, case):
    # with the int64 order bound at 1 every cell of more than one vertex
    # takes the Fraction path: the same failures and volumes
    want = verify_carrier_map(CARRIER_CASES[case][0]())
    monkeypatch.setattr(exact, "INT64_ORDER", 1)
    got = verify_carrier_map(CARRIER_CASES[case][0]())
    assert [f.to_json() for f in got.failures] == [f.to_json() for f in want.failures]
    assert got.facet_volumes == want.facet_volumes


def _count_face_checks(monkeypatch):
    calls = []
    real = subdivision.check_target_face

    def counting(cm, qf, *rest):
        calls.append(qf)
        return real(cm, qf, *rest)

    monkeypatch.setattr(subdivision, "check_target_face", counting)
    return calls


@pytest.mark.parametrize(
    "build, checked",
    [
        (_ladder(3, 4), 4),
        (_ladder(1, 6), 32),
        (_ladder(2, 4), 4),
        # not well-formed: no generator certificate, every face
        (CARRIER_CASES["negative-control"][0], 235),
        # well-formed but not equivariant: every face
        (CARRIER_CASES["moved-along-carrier"][0], 235),
    ],
    ids=["3-4", "1-6", "2-4", "negative-control", "moved-along-carrier"],
)
def test_one_target_face_checked_per_orbit(monkeypatch, build, checked):
    cm = build()
    calls = _count_face_checks(monkeypatch)
    verify_carrier_map(cm)
    assert len(calls) == checked
    assert len(set(calls)) == checked


def _count_fm_solves(monkeypatch):
    calls = []
    real = exact.open_simplices_intersect

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(exact, "open_simplices_intersect", counting)
    return calls


@pytest.mark.parametrize(
    "case, solves",
    [
        # a malformed vertex costs the pairwise tests only on the target
        # faces with a cell through it: 420, 416 and 210 with one global
        # switch
        ("negative-control", 81),
        ("moved-off-carrier", 22),
        ("dropped-ridge-cell", 12),
        ("double-cover", 208),
        ("gap-and-overlap", 21),
        ("folded-cycle", 15),
        ("stray-vertex", 6),
        ("misplaced-carriers", 5),
        ("unchecked-vertices", 1),
    ],
)
def test_fourier_motzkin_solves_per_broken_map(monkeypatch, case, solves):
    cm = CARRIER_CASES[case][0]()
    calls = _count_fm_solves(monkeypatch)
    assert not verify_carrier_map(cm).passed
    assert len(calls) == solves


def _well_formed(cm):
    return subdivision._check_well_formed(cm, subdivision._FaceLabels(cm.q_complex), subdivision._PhiTable(cm))


def _vertices(cm, names):
    p = cm.p_complex
    return {p.vertex_index(parse_partition(x, p.vertices[0].m) if "(" in x else x) for x in names}


@pytest.mark.parametrize(
    "case, names",
    [
        ("negative-control", ["(12)345", "(12)(34)5"]),
        ("moved-off-carrier", ["(12)(34)5"]),
        ("misplaced-carriers", ["y", "z", "w"]),
    ],
)
def test_well_formedness_marks_failing_vertices(case, names):
    cm = CARRIER_CASES[case][0]()
    failures, bad = _well_formed(cm)
    assert failures
    assert bad == _vertices(cm, names)


def test_missing_sub_faces_mark_their_faces():
    # no well-formedness failure: the cells [A,y] and [z,w] lack the vertices
    # y, z and w, and only that marks them
    cm = CARRIER_CASES["unchecked-vertices"][0]()
    assert _well_formed(cm) == ([], _vertices(cm, ["A", "y", "z", "w"]))


@pytest.mark.parametrize("case", sorted(c for c in CARRIER_CASES if c.startswith("ladder-")))
def test_well_formed_ladder_marks_nothing(case):
    assert _well_formed(CARRIER_CASES[case][0]()) == ([], set())


@pytest.mark.parametrize("case", sorted(CARRIER_CASES))
def test_vertex_checks_match_loop_oracle(case):
    # the lexsort of the unedited carriers and the pass over the rest give
    # the failures, in order, and the touched vertices of one loop with a
    # frozenset key per vertex
    cm = CARRIER_CASES[case][0]()
    label, phi = subdivision._FaceLabels(cm.q_complex), subdivision._PhiTable(cm)
    failures, touched = subdivision._check_vertices(cm, label, phi)
    assert ([f.to_json() for f in failures], touched) == check_vertices_oracle(cm, label, phi)


def _orbits(cm):
    """The target faces' S_m-orbits found by the generator certificate, as
    {root face: set of faces}."""
    order = sorted(cm.q_faces, key=subdivision._by_size)
    roots = subdivision._orbit_roots(cm, subdivision._PhiTable(cm))
    assert all(roots[roots[i]] == roots[i] <= i for i in range(len(order)))
    orbits = {}
    for qf, r in zip(order, roots):
        orbits.setdefault(order[r], set()).add(qf)
    return orbits


ORBIT_CASES = {
    **{f"global-{k}-{n}": _ladder(k, n) for k, n in [(4, 3), (1, 6), (3, 4), (2, 5)]},
    **{case: build for case, (build, _) in CARRIER_CASES.items()},
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_roots_match_oracle(case):
    # the certificate's maps and target images, the check order and the
    # orbit roots, against the frozenset loops they replace
    cm = ORBIT_CASES[case]()
    order = by_size_order(cm.q_faces)
    phi = subdivision._PhiTable(cm)
    assert phi.target.faces_at(np.arange(phi.target.offsets[-1])) == order
    source = subdivision.PermutationAction(cm.p_complex, phi.source)
    target = subdivision.PermutationAction(cm.q_complex, phi.target)
    got = subdivision.generator_certificate(source, target, phi.pos)
    want = generator_certificate_oracle(cm.p_complex, cm.p_faces, cm.q_complex, cm.q_faces, cm.phi)
    assert (got is None) == (want is None)
    if got is not None:
        assert [(src, tgt) for src, tgt, _ in got] == want
        pos = {qf: i for i, qf in enumerate(order)}
        for _, tgt, image in got:
            assert image.tolist() == [pos[frozenset(tgt[v] for v in qf)] for qf in order]
    assert list(subdivision._orbit_roots(cm, phi)) == orbit_roots_oracle(cm)


def test_generator_certificate_refuses_non_equivariant_map():
    # moving one vertex along its carrier keeps a subdivision, but its orbit
    # is not moved with it
    cm = CARRIER_CASES["moved-along-carrier"][0]()
    assert _well_formed(cm) == ([], set())
    assert len(_orbits(cm)) == len(cm.q_faces)


def test_failing_roots_check_every_member(monkeypatch):
    # the certificate holds on the map with one facet orbit removed; an
    # orbit whose root fails has every member checked, any other its root
    cm = CARRIER_CASES["dropped-facet-orbit"][0]()
    orbits = _orbits(cm)
    assert len(orbits) == 11
    calls = _count_face_checks(monkeypatch)
    assert not verify_carrier_map(cm).passed
    checked = set(calls)
    assert len(calls) == len(checked)
    full = [root for root, orbit in orbits.items() if orbit <= checked]
    assert any(len(orbits[root]) > 1 for root in full)
    assert all(orbit & checked == {root} for root, orbit in orbits.items() if root not in full)


@pytest.mark.parametrize("kn, count", [((1, 6), 32), ((3, 4), 4), ((2, 5), 12)])
def test_target_face_orbits_match_forest_shapes(kn, count):
    # the S_m-orbits of faces of T^k_n, one per unlabelled forest shape of a
    # nested family, as tabulated in ROADMAP.md
    cm, _ = global_carrier_map(*kn)
    assert len(_orbits(cm)) == count


def test_factor_union_of_comparable_pair_is_nested(pk72, t24):
    # for every comparable pair in the proper part, the union of factor sets
    # is again a face of the k-tree complex
    proper = pk72.poset.proper_indices()
    leq = pk72.poset.leq
    for i in proper:
        for j in proper:
            if i != j and leq[i, j]:
                union = pk72.factors(pk72.poset.labels[i]) | pk72.factors(pk72.poset.labels[j])
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


def test_equivariance_reports_non_commuting_map(monkeypatch):
    # φ emptied on the vertex (12)34: one permutation that moves it must
    # report one non-commuting chain, (12)34 or its preimage
    real = subdivision.carrier_map_from_parts
    x = parse_partition("(12)34", 4)

    def corrupted(p, q):
        cm = real(p, q)
        cm.phi[p.face_from_labels([x])] = frozenset()
        return cm

    monkeypatch.setattr(subdivision, "carrier_map_from_parts", corrupted)
    (pi,) = sample_permutations(4, 1, 0)
    assert x.permute(pi) != x
    inverse = tuple(pi.index(i) + 1 for i in range(1, 5))
    rep = check_equivariance(1, 4, perms=1, seed=0)
    assert rep.passed is False and rep.permutations_checked == 1
    (failure,) = rep.failures
    assert failure["perm"] == list(pi)
    assert failure["detail"] == "carrier map does not commute with the relabelling"
    assert failure["chain"] in ([x.text()], [x.permute(inverse).text()])
    assert rep.to_json() == equivariance_oracle(1, 4, perms=1, seed=0)


def _without_first_facet(K):
    facet = min(K.facets(), key=sorted)
    return SimplicialComplex(K.vertices, K.faces - {facet})


@pytest.mark.parametrize("side", ["order complex", "k-tree complex"])
def test_equivariance_reports_non_invariant_complex(monkeypatch, side):
    # one facet removed from one side: the permutations that move it are
    # reported, in order, as by comparing the relabelled complexes
    if side == "order complex":
        real = Poset.order_complex
        monkeypatch.setattr(Poset, "order_complex", lambda self, **kw: _without_first_facet(real(self, **kw)))
        broken = enumerate_partitions(4, 1).poset.order_complex()
    else:
        real = subdivision.enumerate_ktree_complex
        monkeypatch.setattr(subdivision, "enumerate_ktree_complex",
                            lambda n, k, **kw: _without_first_facet(real(n, k, **kw)))
        broken = subdivision.enumerate_ktree_complex(4, 1)
    want = [
        {"perm": list(pi), "detail": f"{side} not invariant"}
        for pi in permutations(range(1, 5))
        if apply_permutation(broken, lambda x: x.permute(pi)) != broken
    ]
    rep = check_equivariance(1, 4, perms="all")
    assert want and rep.failures == want
    assert rep.permutations_checked == 24
    assert rep.to_json() == equivariance_oracle(1, 4)


@pytest.mark.parametrize(
    "k, n, perms, seed",
    [(2, 3, "all", 0), (1, 4, "all", 0), (1, 5, "all", 0),
     (2, 4, 20, 0), (2, 4, 20, 3), (4, 3, 20, 0), (4, 3, 20, 3)],
)
def test_equivariance_matches_per_permutation_oracle(k, n, perms, seed):
    assert check_equivariance(k, n, perms=perms, seed=seed).to_json() == equivariance_oracle(
        k, n, perms=perms, seed=seed
    )


def _count_index_maps(monkeypatch):
    """The permutations each :class:`PermutationAction` is asked to map, one
    list per action, in order of construction."""
    action = subdivision.PermutationAction
    real_init, real_map = action.__init__, action.index_map
    calls = {}

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        calls[self] = []

    def index_map(self, perm):
        calls[self].append(perm)
        return real_map(self, perm)

    monkeypatch.setattr(action, "__init__", init)
    monkeypatch.setattr(action, "index_map", index_map)
    return calls


def test_passing_equivariance_maps_only_the_generators(monkeypatch):
    calls = _count_index_maps(monkeypatch)

    def no_sample(*args):
        raise AssertionError("the sample is drawn")

    monkeypatch.setattr(subdivision, "sample_permutations", no_sample)
    rep = check_equivariance(2, 4, perms=20, seed=0)
    assert rep.passed and rep.permutations_checked == 20 and not rep.failures
    assert list(calls.values()) == [list(subdivision.generators(7))] * 2


def test_carrier_check_builds_actions_only_for_the_orbit_roots(monkeypatch):
    # the φ table holds the face rows, not S_m actions: the negative control
    # marks vertices, so no orbit is sought and no action is built; a
    # passing map builds one per side, for the generator certificate
    calls = _count_index_maps(monkeypatch)
    assert not verify_carrier_map(CARRIER_CASES["negative-control"][0]()).passed
    assert calls == {}
    cm, _ = global_carrier_map(1, 5)
    subdivision._PhiTable(cm)
    assert calls == {}
    assert verify_carrier_map(cm).passed
    assert list(calls.values()) == [list(subdivision.generators(5))] * 2


def test_failing_certificate_reuses_each_block_table(monkeypatch):
    # one facet removed from the k-tree complex: the certificate fails and
    # all 24 permutations are checked, each through the two actions built
    # for the certificate
    real = subdivision.enumerate_ktree_complex
    monkeypatch.setattr(subdivision, "enumerate_ktree_complex",
                        lambda n, k, **kw: _without_first_facet(real(n, k, **kw)))
    calls = _count_index_maps(monkeypatch)
    assert check_equivariance(1, 4, perms="all").failures
    assert len(calls) == 2
    assert all(perms[-24:] == list(permutations(range(1, 5))) for perms in calls.values())


@pytest.mark.parametrize("kn", [(1, 4), (2, 4), (1, 5), (3, 4)])
def test_index_map_matches_relabelling_oracle(kn):
    # seeded random permutations, each mapped by the block table of Δ and of
    # T, against relabelling every label and looking it up
    cm, _ = global_carrier_map(*kn)
    m = cm.q_complex.vertices[0].m
    rng = random.Random(m)
    perms = [tuple(rng.sample(range(1, m + 1), m)) for _ in range(6)]
    for K in (cm.p_complex, cm.q_complex):
        action = subdivision.PermutationAction(K, K.face_rows)
        for perm in perms:
            want = _relabelling_maps(K, perm)
            assert want is not None and action.index_map(perm) == want


def _without_vertex(K, label):
    v = K.vertex_index(label)
    return SimplicialComplex.from_label_faces([[K.vertices[u] for u in f] for f in K.faces if v not in f])


@pytest.mark.parametrize("side, text", [("source", "(12)(34)"), ("target", "(12)34")])
def test_index_map_refuses_a_missing_vertex(side, text):
    # with (12)(34) gone from Δ its blocks remain and a moved row is not
    # found; with (12)34 gone from T its block is gone and a moved block is
    # not found
    cm, _ = global_carrier_map(1, 4)
    K = _without_vertex(cm.p_complex if side == "source" else cm.q_complex, parse_partition(text, 4))
    action = subdivision.PermutationAction(K, K.face_rows)
    for perm in permutations(range(1, 5)):
        assert action.index_map(perm) == _relabelling_maps(K, perm)
    assert action.index_map((2, 3, 4, 1)) is None


def test_index_map_refuses_other_ground_sets():
    cm, _ = global_carrier_map(1, 4)
    action = subdivision.PermutationAction(cm.q_complex, cm.q_complex.face_rows)
    assert action.index_map((2, 1, 3)) is None and action.index_map((2, 1, 3, 4, 5)) is None
    edge = SimplicialComplex.from_label_faces([("A", "B")])
    strings = subdivision.PermutationAction(edge, edge.face_rows)
    assert strings.m is None and strings.index_map((2, 1)) is None


def test_equivariance_rejects_negative_count():
    with pytest.raises(ValueError):
        check_equivariance(1, 4, perms=-1)


@pytest.mark.parametrize("perms", [-1, "many", None])
def test_equivariance_refuses_bad_count_before_building(monkeypatch, perms):
    def no_build(*args, **kwargs):
        raise AssertionError("the poset is built")

    monkeypatch.setattr(subdivision, "enumerate_partitions", no_build)
    with pytest.raises((ValueError, TypeError)):
        check_equivariance(1, 4, perms=perms)


@pytest.mark.parametrize(
    "kn", [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5), (4, 3), (3, 4)]
)
def test_carrier_map_matches_per_face_oracle(kn):
    k, n = kn
    cm, pk = global_carrier_map(k, n)
    phi, f0 = carrier_phi_oracle(pk, cm.p_complex, cm.q_complex)
    assert list(cm.phi.items()) == list(phi.items())
    assert list(cm.f0.items()) == list(f0.items())


def test_carrier_map_orders_carriers_by_label_over_any_vertex_order():
    # the target's vertices listed against their sort key: each carrier is
    # still in the order of its labels, as the oracle lists the factors
    cm, pk = global_carrier_map(1, 5)
    q = cm.q_complex
    order = sorted(range(len(q.vertices)), key=lambda v: (len(q.vertices[v].nonsingleton_blocks()[0]), -v))
    moved = SimplicialComplex([q.vertices[v] for v in order], [frozenset(map(order.index, f)) for f in q.faces])
    got = carrier_map_from_parts(cm.p_complex, moved)
    phi, f0 = carrier_phi_oracle(pk, cm.p_complex, moved)
    def listed(f0):
        return [(v, list(coords.items())) for v, coords in f0.items()]

    assert listed(got.f0) == listed(f0) != [(v, sorted(c.items())) for v, c in got.f0.items()]
    assert list(got.phi.items()) == list(phi.items())


@pytest.mark.parametrize(
    "kn", [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5), (3, 4), (4, 4)]
)
def test_bulk_carriers_match_per_vertex_oracle(kn):
    # the carriers found by one search over the block masks are the ones
    # built vertex by vertex, tuple for tuple
    k, n = kn
    cm, _ = global_carrier_map(k, n)
    assert cm.phi.carriers == carriers_per_vertex_oracle(cm.p_complex, cm.q_complex)
    assert all(type(v) is int for carrier in cm.phi.carriers[:50] for v in carrier)


def test_bulk_carriers_refuse_a_block_no_target_vertex_has():
    # the target without one vertex: a source vertex with that block has no
    # carrier, and both constructions say so
    cm, pk = global_carrier_map(1, 4)
    q = cm.q_complex
    kept = [v for v in range(len(q.vertices)) if v != 3]
    fewer = SimplicialComplex([q.vertices[v] for v in kept],
                              [frozenset(map(kept.index, f)) for f in q.faces if 3 not in f])
    with pytest.raises(KeyError):
        carriers_per_vertex_oracle(cm.p_complex, fewer)
    with pytest.raises(KeyError, match="no target vertex"):
        carrier_map_from_parts(cm.p_complex, fewer)


def test_global_carrier_map_leaves_no_garbage_cycles():
    # with the collector off, building the (3,4) instance and its carrier
    # map leaves no reference cycle for a later collection to find
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        global_carrier_map(3, 4)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_verify_reads_no_image_per_chain(monkeypatch):
    # φ is stored as the vertex carriers: the φ table computes every image
    # from them, so a passing verify looks up no chain's image and keeps no
    # override
    reads = []
    for name in ("__getitem__", "__iter__"):
        real = getattr(subdivision.CarrierPhi, name)
        monkeypatch.setattr(subdivision.CarrierPhi, name,
                            lambda self, *args, _real=real, _name=name: reads.append(_name) or _real(self, *args))
    built = []
    real_build = subdivision.carrier_map_from_parts

    def keep(*args):
        built.append(real_build(*args))
        return built[-1]

    monkeypatch.setattr(subdivision, "carrier_map_from_parts", keep)
    assert verify_theorem(3, 4).verdict == "pass"
    (cm,) = built
    assert reads == [] and cm.phi.overrides == {}
    assert set(vars(cm.phi)) == {"source", "carriers", "overrides"}


def test_verify_keeps_f0_in_closed_form(monkeypatch):
    # f0 is the barycenters of the carriers φ is computed from: a passing
    # verify edits neither, so no vertex is decided on its own
    built = []
    real = subdivision.carrier_map_from_parts
    monkeypatch.setattr(subdivision, "carrier_map_from_parts", lambda *args: built.append(real(*args)) or built[-1])
    assert verify_theorem(3, 4).verdict == "pass"
    (cm,) = built
    assert cm.f0.overrides == {} and cm.f0.carriers is cm.phi.carriers and cm.f0.source is cm.phi.source
    assert not subdivision._PhiTable(cm).edited.any()
