import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktreesub import (
    FaceNotPresent,
    KTreeSubError,
    ResourceLimit,
    SimplicialComplex,
    enumerate_ktree_complex,
    enumerate_partitions,
)
from ktreesub import _kernels
from ktreesub._kernels import _snf_exact_python
from ktreesub.complexes import FaceRows
from oracles import (
    apply_permutation,
    boundary_reduced_homology,
    by_size_order,
    check_boundary_squares_to_zero,
    coboundary_columns_oracle,
    complex_eq_oracle,
    dense_reduced_homology,
    dense_to_columns,
    downward_closed_oracle,
    facets_oracle,
    snf_diagonal,
    stellar_subdivision_oracle,
)


def triangle_boundary():
    return SimplicialComplex.from_label_faces([(1, 2), (1, 3), (2, 3)])


def solid_triangle():
    return SimplicialComplex.from_label_faces([(1, 2, 3)])


def solid_tetrahedron():
    return SimplicialComplex.from_label_faces([(1, 2, 3, 4)])


def tetra_boundary():
    return SimplicialComplex.from_label_faces(
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    )


RP2_FACETS = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def suspension(facets):
    """Facets of the suspension: each facet joined with either of two new
    apexes."""
    return [tuple(f) + (apex,) for f in facets for apex in ("north", "south")]


# small complexes with known homology tables
HOMOLOGY_CASES = {
    "rp2": (RP2_FACETS, [(0, ()), (0, (2,)), (0, ())]),
    "rp2-suspension": (suspension(RP2_FACETS), [(0, ()), (0, ()), (0, (2,)), (0, ())]),
    "rp2-and-point": (RP2_FACETS + [("point",)], [(1, ()), (0, (2,)), (0, ())]),
    "rp2-cone": ([f + ("apex",) for f in RP2_FACETS], [(0, ()), (0, ()), (0, ()), (0, ())]),
    # disconnected: the circle is split off H̃_0 and leaves an edge beside RP²'s cells
    "rp2-and-circle": (RP2_FACETS + [("a", "b"), ("b", "c"), ("a", "c")], [(1, ()), (1, (2,)), (0, ())]),
    # not pure: a whisker from vertex 0 to a hollow triangle
    "rp2-whisker-circle": (
        RP2_FACETS + [(0, "w"), ("w", "x"), ("x", "y"), ("w", "y")],
        [(0, ()), (1, (2,)), (0, ())],
    ),
    "points": ([(i,) for i in range(7)], [(6, ())]),
    # disconnected, and each sphere leaves one triangle once split off
    "two-spheres": (
        [tuple(sorted(set(range(4)) - {v})) for v in range(4)]
        + [tuple(sorted(set(range(4, 8)) - {v})) for v in range(4, 8)],
        [(1, ()), (0, ()), (2, ())],
    ),
}
LADDER = [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5), (4, 3)]


def homology_case(name):
    if name in HOMOLOGY_CASES:
        return SimplicialComplex.from_label_faces(HOMOLOGY_CASES[name][0])
    side, k, n = name.split("-")
    k, n = int(k), int(n)
    if side == "delta":
        return enumerate_partitions((n - 1) * k + 1, k).poset.order_complex()
    return enumerate_ktree_complex(n, k)


@pytest.mark.parametrize(
    "name",
    list(HOMOLOGY_CASES)
    + [f"{side}-{k}-{n}" for k, n in LADDER for side in ("delta", "ktree")]
    + ["delta-1-6", "ktree-1-6", "ktree-3-4"],
)
def test_reduced_homology_matches_oracles(name):
    # union-find in degree 0 and clearing on coboundaries against the
    # boundary columns of every degree, and against dense matrices where
    # the dense reduction finishes in well under a second
    K = homology_case(name)
    got = K.reduced_homology()
    assert got == boundary_reduced_homology(K, snf_diagonal)
    if len(K.faces) <= 1000:
        assert got == dense_reduced_homology(K, _snf_exact_python)
    if name in HOMOLOGY_CASES:
        assert got == HOMOLOGY_CASES[name][1]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.frozensets(st.integers(0, 7), min_size=1, max_size=4), min_size=1, max_size=12))
def test_reduced_homology_matches_oracles_random(facets):
    K = SimplicialComplex.from_label_faces([tuple(sorted(f)) for f in facets])
    got = K.reduced_homology()
    assert got == boundary_reduced_homology(K, snf_diagonal)
    assert got == dense_reduced_homology(K, _snf_exact_python)


def test_f_vector_examples(t14):
    assert triangle_boundary().f_vector() == (3, 3)
    assert triangle_boundary().euler_characteristic() == 0
    assert triangle_boundary().dimension() == 1
    assert triangle_boundary().is_pure()
    assert solid_tetrahedron().f_vector() == (4, 6, 4, 1)
    assert solid_tetrahedron().euler_characteristic() == 1
    assert t14.dimension() == 1 and t14.is_pure()
    assert t14.f_vector() == (10, 15)


def test_stellar_facet_of_triangle():
    k = solid_triangle().stellar_subdivide([1, 2, 3])
    assert k.f_vector() == (4, 6, 3)
    assert k.euler_characteristic() == 1


def test_stellar_vertex_identity():
    k = solid_triangle()
    assert k.stellar_subdivide([2]) is k


def test_stellar_edge_in_triangle():
    k = solid_triangle().stellar_subdivide([1, 2])
    assert k.f_vector() == (4, 5, 2)
    # the definition, applied by hand: surviving faces avoid {1,2}; the new
    # vertex cones over proper subsets of {1,2} joined with cofaces
    v = next(l for l in k.vertices if l not in (1, 2, 3))
    assert k.has_face_labels([v, 3])
    assert k.has_face_labels([1, v, 3])
    assert k.has_face_labels([2, v, 3])
    assert not k.has_face_labels([1, 2])


def test_stellar_missing_face():
    with pytest.raises(FaceNotPresent):
        triangle_boundary().stellar_subdivide([1, 2, 3])


def test_stellar_preserves_downward_closure_and_avoids_sigma():
    k = tetra_boundary().stellar_subdivide([1, 2])
    sigma = {k.vertex_index(1), k.vertex_index(2)}
    for f in k.faces:
        assert not sigma <= f
        if len(f) > 1:
            for v in f:
                assert f - {v} in k.faces


def test_stellar_label_collision():
    with pytest.raises(ValueError, match="already names a vertex"):
        solid_triangle().stellar_subdivide([1, 2], new_label=3)


def test_stellar_matches_textbook_formula(t14):
    cases = [(tetra_boundary(), f) for f in ([1, 2], [1, 2, 3], [3, 4])]
    cases += [(solid_tetrahedron(), f) for f in ([1, 2, 3, 4], [2, 4], [1, 3, 4])]
    cases += [(t14, [t14.vertices[v] for v in f]) for f in t14.faces_of_dim(1)[:5]]
    for K, face in cases:
        got = K.stellar_subdivide(face, new_label="new")
        vertices, faces = stellar_subdivision_oracle(K, face, "new")
        assert got.vertices == vertices and got.faces == faces


def test_stellar_facet_count_rule():
    k = tetra_boundary()
    d = 2
    before = k.f_vector()[d]
    after = k.stellar_subdivide([1, 2, 3]).f_vector()[d]
    assert after == before + (d + 1) - 1


def test_homology_sphere():
    assert tetra_boundary().reduced_homology() == [(0, ()), (0, ()), (1, ())]


def test_homology_points():
    pts = SimplicialComplex.from_label_faces([(i,) for i in range(10)])
    assert pts.reduced_homology() == [(9, ())]


def test_homology_delta_pi4(delta41):
    assert delta41.reduced_homology() == [(0, ()), (6, ())]


def test_homology_cone_is_trivial():
    cone = SimplicialComplex.from_label_faces(
        [tuple(sorted(f + (99,))) for f in RP2_FACETS]
    )
    assert all(b == 0 and not t for b, t in cone.reduced_homology())


def test_homology_torsion_projective_plane():
    rp2 = SimplicialComplex.from_label_faces(RP2_FACETS)
    assert rp2.reduced_homology() == [(0, ()), (0, (2,)), (0, ())]
    assert dense_reduced_homology(rp2, _snf_exact_python) == [(0, ()), (0, (2,)), (0, ())]


def test_boundary_squares_to_zero(delta41, t24):
    assert check_boundary_squares_to_zero(delta41)
    assert check_boundary_squares_to_zero(t24)
    assert check_boundary_squares_to_zero(tetra_boundary())


def test_stellar_preserves_homology_and_euler(delta41):
    for face in [(1, 2), (1, 2, 3)]:
        k = tetra_boundary()
        sub = k.stellar_subdivide(list(face))
        assert sub.euler_characteristic() == k.euler_characteristic()
        assert sub.reduced_homology() == k.reduced_homology()
    edge = sorted(next(iter(delta41.faces_of_dim(1))))
    sub = delta41.stellar_subdivide([delta41.vertices[i] for i in edge], new_label="x")
    assert sub.reduced_homology() == delta41.reduced_homology()


def test_snf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = np.random.default_rng(7)
    for _ in range(12):
        r, c = rng.integers(1, 7, size=2)
        mat = rng.integers(-4, 5, size=(int(r), int(c)))
        ours = [x for x in snf_diagonal(*dense_to_columns(mat)) if x != 0]
        theirs = smith_normal_form(sympy.Matrix(mat.tolist()))
        ref = [abs(theirs[i, i]) for i in range(min(theirs.shape)) if theirs[i, i] != 0]
        assert ours == ref


def test_snf_fast_matches_exact():
    # entries drawn from each set: small ones (unit pivots on most columns),
    # no units at all (every column goes to the exact residual), and a mix
    rng = np.random.default_rng(3)
    entry_sets = [
        range(-3, 4),
        range(-5, 6),
        [0, 2, -2, 3, -3, 4, -4],
        [0, 0, 1, -1, 2, -3, 4, 6],
    ]
    for values in entry_sets:
        for _ in range(25):
            r, c = rng.integers(1, 9, size=2)
            mat = rng.choice(list(values), size=(int(r), int(c)))
            exact = _snf_exact_python([[int(x) for x in row] for row in mat])
            assert snf_diagonal(*dense_to_columns(mat)) == exact
    assert snf_diagonal([], 3) == []
    assert snf_diagonal([{}, {1: 0}], 3) == [0, 0]


@pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (1, 5)])
def test_sparse_homology_matches_dense_exact(k, n):
    delta = enumerate_partitions((n - 1) * k + 1, k).poset.order_complex()
    for K in (delta, enumerate_ktree_complex(n, k)):
        assert K.reduced_homology() == dense_reduced_homology(K, _snf_exact_python)


def test_top_betti_numbers_past_dense_reach():
    assert enumerate_ktree_complex(6, 1).reduced_homology()[-1] == (120, ())
    assert enumerate_ktree_complex(4, 3).reduced_homology()[-1] == (5446, ())


def test_out_of_range_vertex_index_rejected():
    # the range is checked before any face becomes an int32 row; a family
    # that is not downward closed is refused as such first, and a vertex in
    # no face only after the range
    cases = [
        (["a", "b"], [{0, 2}], True, r"vertex indices \[2\] are out of range"),
        (["a"], [{0}, {2**70}], False, r"vertex indices \[%d\] are out of range" % 2**70),
        (["a", "b"], [{0}, {1}, {0, 2**40}], False, "face family is not downward closed"),
        (["a", "b"], [{0}, {1}, {0, 2**40}], True, r"vertex indices \[%d\] are out of range" % 2**40),
        (["a"], [{"x"}], False, r"vertex indices \['x'\] are out of range"),
        (["a"], [{0}, {-1}], False, r"vertex indices \[-1\] are out of range"),
        (["a"], [{0}, {2**31}], False, r"vertex indices \[2147483648\] are out of range"),
        (["a", "b"], [{0}, {1}, {2**31}, {1, 2**31}], False, r"vertex indices \[2147483648\] are out of range"),
        (["a", "b", "c"], [{0}, {-1}], False, r"vertex indices \[-1\] are out of range"),
    ]
    for labels, faces, close, message in cases:
        with pytest.raises(ValueError, match=message):
            SimplicialComplex(labels, faces, close_downward=close)


def test_apply_permutation_preserves_f_vector(t24):
    perm = (3, 1, 2, 4, 5, 7, 6)
    img = apply_permutation(t24, lambda x: x.permute(perm))
    assert img.f_vector() == t24.f_vector()
    assert img == t24  # setwise invariance of the k-tree complex


def test_equality_reads_labels_not_indices():
    faces = [{0}, {1}, {2}, {0, 1}, {1, 2}]
    K = SimplicialComplex(["a", "b", "c"], faces)
    # the same faces over the vertex list in another order
    reordered = SimplicialComplex(["c", "a", "b"], [{1}, {2}, {0}, {1, 2}, {2, 0}])
    assert K == reordered and reordered == K and hash(K) == hash(reordered)
    assert K != SimplicialComplex(["a", "b", "d"], faces)
    # the same number of faces, one face different
    assert K != SimplicialComplex(["a", "b", "c"], [{0}, {1}, {2}, {0, 1}, {0, 2}])
    missing = SimplicialComplex(["a", "b", "c"], faces[:-1])
    assert K != missing and missing != K
    assert K != faces


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equality_matches_label_faces(data):
    def draw_complex():
        faces = data.draw(
            st.lists(st.frozensets(st.integers(0, 4), min_size=1, max_size=3), min_size=1, max_size=4)
        )
        K = SimplicialComplex.from_label_faces([tuple(f) for f in faces])
        order = data.draw(st.permutations(range(len(K.vertices))))
        return SimplicialComplex(
            [K.vertices[i] for i in order], [frozenset(order.index(v) for v in f) for f in K.faces]
        )

    A, B = draw_complex(), draw_complex()
    assert (A == B) == (set(A.vertices) == set(B.vertices) and A.label_faces() == B.label_faces())


def test_facets_match_oracle():
    ladder = [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5), (4, 3)]
    complexes = [SimplicialComplex.from_label_faces(RP2_FACETS)]
    for k, n in ladder:
        complexes.append(enumerate_partitions((n - 1) * k + 1, k).poset.order_complex())
        complexes.append(enumerate_ktree_complex(n, k))
    rng = random.Random(5)
    for _ in range(40):
        faces = [rng.sample(range(8), rng.randint(1, 5)) for _ in range(rng.randint(1, 8))]
        complexes.append(SimplicialComplex.from_label_faces(faces))
    for K in complexes:
        assert K.facets() == facets_oracle(K)


def _all_sub_faces(faces):
    return {frozenset(sub) for f in faces for r in range(1, len(f) + 1) for sub in combinations(sorted(f), r)}


def _columns(cols):
    return [list(col.items()) for col in cols]


def _restricted_oracle(K, d, columns, rows):
    """The oracle's δ_d on the d-faces where ``columns`` holds, with only
    the rows of the (d+1)-faces where ``rows`` does."""
    dropped = set(np.flatnonzero(~columns).tolist())
    return [{r: v for r, v in col.items() if rows[r]} for col in coboundary_columns_oracle(K, d, dropped)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_face_rows_match_oracles(data):
    # random families on at most 9 vertices, closed and not: the row order,
    # the closure check, the facets, equality and the coboundary columns
    # (with their rows in order) against the frozenset loops they replace
    family = data.draw(st.lists(st.frozensets(st.integers(0, 8), min_size=1, max_size=5), min_size=1, max_size=8))
    if data.draw(st.booleans()):
        family = _all_sub_faces(family)
        if data.draw(st.booleans()):
            family -= {data.draw(st.sampled_from(sorted(family, key=sorted)))}
    rows = FaceRows(family)
    assert rows.is_closed() == downward_closed_oracle(family)
    for d in range(len(rows.rows)):
        faces = rows.faces_at(np.arange(rows.offsets[d], rows.offsets[d + 1]))
        assert faces == by_size_order(f for f in family if len(f) == d + 1)
        assert rows.rows[d].tolist() == [sorted(f) for f in faces]
        assert rows.offsets[d + 1] - rows.offsets[d] == len(faces)
    touched = sorted(set().union(*family))
    names = [f"v{v}" for v in touched]
    faces = [frozenset(touched.index(v) for v in f) for f in family]
    if not downward_closed_oracle(family):
        with pytest.raises(ValueError, match="not downward closed"):
            SimplicialComplex(names, faces)
        return
    K = SimplicialComplex(names, faces)
    if not K.faces:
        assert K.f_vector() == () and K.facets() == [] and K.is_pure()
        return
    assert K.f_vector() == tuple(len(K.faces_of_dim(d)) for d in range(K.dimension() + 1))
    assert K.facets() == facets_oracle(K)
    assert K.is_pure() == (len({len(f) for f in facets_oracle(K)}) == 1)
    assert K.to_json()["facets"] == sorted(sorted(f) for f in facets_oracle(K))
    for d in range(K.dimension()):
        columns, rows = (np.array(data.draw(st.lists(st.booleans(), min_size=len(K.faces_of_dim(e)),
                                                     max_size=len(K.faces_of_dim(e))))) for e in (d, d + 1))
        assert _columns(K._coboundary_columns(d, columns, rows)) == _columns(_restricted_oracle(K, d, columns, rows))
    order = data.draw(st.permutations(range(len(names))))
    relabelled = SimplicialComplex([names[i] for i in order], [frozenset(order.index(v) for v in f) for f in K.faces])
    other = SimplicialComplex.from_label_faces(
        [[names[v] for v in f] for f in data.draw(st.lists(st.sampled_from(sorted(K.faces, key=sorted)), min_size=1))]
    )
    for A, B in [(K, relabelled), (relabelled, K), (K, other), (other, K)]:
        assert (A == B) == complex_eq_oracle(A, B)
    assert K == relabelled


RP2_CASES = [name for name in HOMOLOGY_CASES if name.startswith("rp2") and name != "rp2-cone"]


@pytest.mark.parametrize(
    "name",
    ["delta-1-5", "target-1-5", "delta-2-4", "target-2-4", "target-1-6", "delta-3-4", "delta-1-6", "target-3-4"]
    + ["two-spheres"]
    + RP2_CASES,
)
def test_smith_reduce_receives_oracle_columns(monkeypatch, name):
    # coreduction leaves the ladder complexes and two disjoint spheres no
    # adjacent dimensions, so no Smith form; on the RP² cases the columns
    # handed to smith_reduce are the oracle's coboundary restricted to the
    # cells coreduction left
    K = homology_case(name)
    real = SimplicialComplex._coboundary_columns
    calls, reduced = [], []

    def recording(self, d, columns, rows):
        cols = real(self, d, columns, rows)
        calls.append((d, columns.copy(), rows.copy(), _columns(cols)))
        return cols

    def counting(columns):
        reduced.append(len(columns))
        return real_smith(columns)

    real_smith = _kernels.smith_reduce
    monkeypatch.setattr(SimplicialComplex, "_coboundary_columns", recording)
    monkeypatch.setattr(_kernels, "smith_reduce", counting)
    K.reduced_homology()
    assert len(reduced) == len(calls)
    assert bool(calls) == (name in RP2_CASES)
    for d, columns, rows, cols in calls:
        assert cols == _columns(_restricted_oracle(K, d, columns, rows))


def test_json_round_trip(t14):
    data = t14.to_json(label_fn=lambda x: x.to_json())
    from ktreesub import Partition

    back = SimplicialComplex.from_json(
        data, label_fn=lambda b: Partition(sum(len(x) for x in b), b)
    )
    assert back == t14


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": [1, 2], "facets": [[0.0, 1]]},
        {"vertices": [1, 2], "facets": [[True, 1]]},
        {"vertices": [1, 2]},
        {"facets": [[0]]},
        {"vertices": [1, 2], "facets": 5},
        {"vertices": [[1]], "facets": [[0]]},
        {"vertices": 3, "facets": []},
        {"vertices": [1, 2], "facets": [[0, 2]]},
        {"vertices": [1, 2], "facets": [[0]]},
        {"vertices": [1, 1], "facets": [[0, 1]]},
        {"vertices": [1], "facets": [0]},
        [[1], [[0]]],
        None,
    ],
)
def test_from_json_rejects_malformed(data):
    with pytest.raises(ValueError):
        SimplicialComplex.from_json(data)


def test_from_json_face_cap():
    # two triangles: 7 faces each, 13 in all (they share a vertex)
    data = {"vertices": list(range(5)), "facets": [[0, 1, 2], [2, 3, 4]]}
    assert len(SimplicialComplex.from_json(data, max_faces=13).faces) == 13
    with pytest.raises(ResourceLimit, match="complex exceeds 12 faces"):
        SimplicialComplex.from_json(data, max_faces=12)
    # a facet whose 7 faces exceed the cap is refused before its closure
    with pytest.raises(ResourceLimit, match="a facet of 3 vertices"):
        SimplicialComplex.from_json(data, max_faces=6)


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.floats(-1, 6, width=16), st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12,
)
INDICES = st.one_of(st.integers(-1, 6), st.booleans(), st.floats(0, 6, width=16), st.text(max_size=1))


@st.composite
def complex_like(draw):
    """A valid complex in the ``to_json`` shape, then, four times in five,
    one index, the vertices or the facets replaced by random values, or a
    key dropped."""
    facets = draw(st.lists(st.lists(st.integers(0, 6), max_size=3), max_size=5))
    rank = {v: i for i, v in enumerate(sorted({v for f in facets for v in f}))}
    data = {"vertices": [f"v{i}" for i in range(len(rank))],
            "facets": [[rank[v] for v in f] for f in facets]}
    corruption = draw(st.sampled_from([None, "index", "vertices", "facets", "drop"]))
    if corruption == "index" and data["facets"] and data["facets"][0]:
        data["facets"][0][0] = draw(INDICES | JSON_VALUES)
    elif corruption == "vertices":
        data["vertices"] = draw(
            st.lists(JSON_SCALARS | st.lists(st.integers(0, 3), max_size=2), max_size=7) | JSON_VALUES
        )
    elif corruption == "facets":
        data["facets"] = draw(st.lists(st.lists(INDICES, max_size=4) | JSON_VALUES, max_size=5) | JSON_VALUES)
    elif corruption == "drop":
        del data[draw(st.sampled_from(sorted(data)))]
    return data


@settings(max_examples=400, deadline=None, derandomize=True)
@given(complex_like() | JSON_VALUES)
def test_from_json_fuzz(data):
    # a valid complex, or ValueError / KTreeSubError, and nothing else
    try:
        K = SimplicialComplex.from_json(data)
    except (ValueError, KTreeSubError):
        return
    out = K.to_json()
    assert all(type(i) is int for f in out["facets"] for i in f)
    assert SimplicialComplex.from_json(out) == K


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_stellar_euler_invariant_random(data):
    base = data.draw(
        st.lists(
            st.frozensets(st.integers(0, 6), min_size=1, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    k = SimplicialComplex.from_label_faces([tuple(sorted(f)) for f in base])
    face = data.draw(st.sampled_from(sorted(k.faces, key=sorted)))
    labels = [k.vertices[i] for i in face]
    sub = k.stellar_subdivide(labels, new_label="fresh")
    assert sub.euler_characteristic() == k.euler_characteristic()
    if len(k.faces) <= 500:
        assert sub.reduced_homology() == k.reduced_homology()
