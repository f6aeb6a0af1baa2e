"""The order complex and the k-tree complex built as int32 rows: the rows
against the recursive walks they replaced, the checks of the row
constructor, the refusal of a size before it is made, and the frozenset
views that only a reader builds."""

import random

import numpy as np
import pytest

from ktreesub import ResourceLimit, SimplicialComplex, enumerate_ktree_complex, enumerate_partitions
from ktreesub import poset as poset_module
from ktreesub import trees
from oracles import ktree_bitset_oracle, order_complex_oracle, poset_from_covers

INSTANCES = [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5), (4, 3), (1, 6), (3, 4), (2, 5)]


def _rows(K):
    return [level.tolist() for level in K.face_rows.rows]


def _delta(k, n):
    return enumerate_partitions((n - 1) * k + 1, k).poset.order_complex()


@pytest.mark.parametrize("kn", INSTANCES)
def test_order_complex_rows_match_recursive_walk(kn):
    # the oracle's faces go through FaceRows, which sorts them: equal rows
    # in equal order mean that the chains come out in row order
    k, n = kn
    pk = enumerate_partitions((n - 1) * k + 1, k)
    ours, walked = pk.poset.order_complex(), order_complex_oracle(pk.poset)
    assert ours.vertices == walked.vertices
    assert _rows(ours) == _rows(walked)
    assert all(level.dtype == np.dtype(">i4") for level in ours.face_rows.rows)


@pytest.mark.parametrize("kn", INSTANCES)
def test_ktree_rows_match_recursive_walk(kn):
    k, n = kn
    ours, walked = enumerate_ktree_complex(n, k), ktree_bitset_oracle(n, k, max_faces=10**6)
    assert ours.vertices == walked.vertices
    assert _rows(ours) == _rows(walked)


def test_order_complex_rows_of_posets_not_in_height_order():
    # random orders whose element order is often no linear extension: the
    # chains are renumbered by height, then sorted back into row order
    rng = random.Random(5)
    renumbered = 0
    for _ in range(200):
        n = rng.randint(1, 9)
        covers = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        perm = list(range(n))
        rng.shuffle(perm)
        p = poset_from_covers(list(range(n)), [(perm[i], perm[j]) for i, j in covers])
        h = p.heights()[p.proper_indices()]
        renumbered += bool((np.diff(h) < 0).any())
        ours, walked = p.order_complex(), order_complex_oracle(p)
        assert ours.vertices == walked.vertices and _rows(ours) == _rows(walked)
    assert renumbered > 50


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("side", ["delta", "ktree"])
def test_a_size_past_the_cap_is_refused_before_it_is_made(monkeypatch, side):
    # on (1,5), Δ has f-vector (50, 205, 180) and T (25, 105, 105): a size
    # that would pass the cap is never made
    if side == "delta":
        calls = _count_calls(monkeypatch, poset_module, "_extend")
        pk = enumerate_partitions(5, 1)
        build, name, f = (lambda cap: pk.poset.order_complex(max_faces=cap)), "order complex", (50, 205, 180)
    else:
        calls = _count_calls(monkeypatch, trees, "_grow")
        build, name, f = (lambda cap: enumerate_ktree_complex(5, 1, max_faces=cap)), "k-tree complex", (25, 105, 105)
    for made, cap in [(0, f[0] + f[1] - 1), (1, sum(f) - 1)]:
        calls.clear()
        with pytest.raises(ResourceLimit, match=f"{name} exceeds {cap} faces"):
            build(cap)
        assert len(calls) == made
    assert build(sum(f)).f_vector() == f


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[[1], [0]]], "strictly increasing"),  # rows out of order
        ([[[0], [0]]], "strictly increasing"),  # a face twice
        ([[[0], [1]], [[1, 0]]], "strictly increasing"),  # a row out of order
        ([[[0], [1], [2]], [[0, 2], [0, 1]]], "strictly increasing"),
        ([[[0], [1], [2]], [[0, 1], [0, 1]]], "strictly increasing"),
        ([[[0], [1]], [[0, 1, 2]]], "columns"),
        ([[[0], [1]], np.zeros((0, 2), dtype=int), [[0, 1, 2]]], "not downward closed"),
        ([[[0], [1]], [[0, 2]]], "not downward closed"),  # vertex 2 is no face
        ([[[0], [1], [2]], [[0, 1], [1, 2]], [[0, 1, 2]]], "not downward closed"),  # no edge 02
        ([[[0], [1], [2]], [[0, 2], [1, 2]], [[0, 1, 2]]], "not downward closed"),  # no edge 01
        ([[[0], [1], [2]], [[0, 1], [0, 2]], [[0, 1, 2]]], "not downward closed"),  # no edge 12
        ([[[0], [1], [3]]], "out of range"),
        ([[[-1], [0], [1]]], "out of range"),
        ([[[0], [2]]], "appear in no face"),
        ([[[0.0], [1.0]]], "integers"),
        ([[[0], [1], [2**31]]], "int32"),
    ],
)
def test_row_constructor_refuses_bad_rows(rows, message):
    with pytest.raises(ValueError, match=message):
        SimplicialComplex.from_rows(["a", "b", "c"], rows)


def test_row_constructor_takes_what_the_face_constructor_takes():
    rows = [[[0], [1], [2]], [[0, 1], [0, 2], [1, 2]], [[0, 1, 2]], np.zeros((0, 4), dtype=np.int32)]
    K = SimplicialComplex.from_rows(["a", "b", "c"], rows)
    assert K == SimplicialComplex.from_label_faces([("a", "b", "c")])
    assert K.f_vector() == (3, 3, 1) and K.faces == SimplicialComplex(["a", "b", "c"], [{0, 1, 2}], True).faces
    assert SimplicialComplex.from_rows([], []).f_vector() == ()


def test_closure_check_reads_every_part(monkeypatch):
    # the closure check reads the rows in parts: a face in the last part
    # whose facet is missing is found as in the first
    from ktreesub import complexes

    monkeypatch.setattr(complexes, "_CHUNK", 2)
    triangles = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)]
    rows = SimplicialComplex.from_label_faces(triangles).face_rows.rows
    assert SimplicialComplex.from_rows(range(5), rows).f_vector() == (5, 10, 4)
    broken = [rows[0], np.delete(rows[1], -1, axis=0), rows[2]]  # no edge 34
    with pytest.raises(ValueError, match="not downward closed"):
        SimplicialComplex.from_rows(range(5), broken)


def _views_unbuilt(K):
    return K._faces is None and K.face_rows._faces is None


@pytest.mark.parametrize("side", ["delta", "ktree"])
def test_row_readers_build_no_face_view(side):
    # f-vector, homology, JSON, facets and equality read the rows alone
    build = (lambda: _delta(1, 5)) if side == "delta" else (lambda: enumerate_ktree_complex(5, 1))
    K, L = build(), build()
    assert _views_unbuilt(K) and _views_unbuilt(L)
    assert K.f_vector() == L.f_vector() and K.dimension() == 2 and K.euler_characteristic() == 25
    assert K.reduced_homology() == [(0, ()), (0, ()), (24, ())]
    assert K.to_json() == L.to_json() and K.facets() == L.facets() and K.is_pure()
    assert K == L
    assert K.has_face_labels(K.vertices[:1]) and not K.has_face_labels(K.vertices)
    assert _views_unbuilt(K) and _views_unbuilt(L)
    # a reader of the faces builds both views, over the same objects
    assert len(K.faces) == sum(K.f_vector())
    assert K.faces == frozenset(f for level in K.face_rows.faces for f in level)
    assert all(any(f is g for g in K.faces) for f in K.face_rows.faces[1][:5])
