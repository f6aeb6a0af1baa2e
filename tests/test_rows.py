"""The order complex and the k-tree complex built as int32 rows: the rows
against the recursive walks they replaced, the checks of the row
constructor, the refusal of a size before it is made, and the frozenset
views that only a reader builds.  The packed search keys against the byte
keys, and the stellar replay on maximal faces against the set replay over
every face."""

import random
from itertools import combinations

import numpy as np
import pytest

from ktreesub import (
    FaceNotPresent,
    ResourceLimit,
    SimplicialComplex,
    enumerate_ktree_complex,
    enumerate_partitions,
    global_carrier_map,
    verify_carrier_map,
    verify_theorem,
)
from ktreesub import poset as poset_module
from ktreesub import complexes, subdivision, trees
from ktreesub.complexes import FaceRows, FacetReplay, closure_rows
from oracles import (
    MutableComplexOracle,
    carrier_phi_oracle,
    downward_closure_oracle,
    ktree_bitset_oracle,
    order_complex_oracle,
    poset_from_covers,
    stellar_chain_oracle,
    void_key_find,
)

INSTANCES = [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5), (4, 3), (1, 6), (3, 4), (2, 5)]


def _rows(K):
    return _rows_of(K.face_rows)


def _rows_of(face_rows):
    return [level.tolist() for level in face_rows.rows]


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
    return K._faces is None


def _holds_sets(value):
    """Whether ``value`` is a frozenset or a list or tuple holding one."""
    return isinstance(value, frozenset) or isinstance(value, (list, tuple)) and any(map(_holds_sets, value))


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
    # a reader of the faces builds the one view, and the rows keep no sets
    assert len(K.faces) == sum(K.f_vector())
    assert K.faces == frozenset(K.face_rows.faces_at(np.arange(sum(K.f_vector()))))
    assert not any(map(_holds_sets, vars(K.face_rows).values()))


# ---------------------------------------------------------------------------
# integer search keys
# ---------------------------------------------------------------------------


def test_packed_find_matches_byte_key_oracle():
    # random row families, packed in the radix of their largest vertex or,
    # past 63 bits, searched by byte keys; the queries
    # hold rows of the family, rows that are not, and entries past the
    # largest vertex, past the radix and past int32
    rng = random.Random(11)
    packed = void = 0
    for _ in range(300):
        width = rng.randint(1, 8)
        top = rng.choice([width + 2, 40, 1000, 2**20, 2**31 - 1])
        rows = sorted({tuple(sorted(rng.sample(range(top), width))) for _ in range(rng.randint(1, 40))})
        family = FaceRows.from_rows([np.zeros((0, d + 1), dtype=int) for d in range(width - 1)] + [rows])
        bits = max(max(map(max, rows)).bit_length(), 1)
        packed += width * bits <= 63
        void += width * bits > 63
        queries = [list(r) for r in rng.sample(rows, min(len(rows), 5))]
        if width > 1:  # a row of the family with one radix carried into the next entry
            carried = list(rng.choice(rows))
            j = rng.randrange(width - 1)
            carried[j] -= 1
            carried[j + 1] += 1 << bits
            queries.append(carried)
        for _ in range(10):
            row = sorted(rng.sample(range(top + 5), width))
            if rng.random() < 0.3:
                row[-1] = rng.choice([top, 1 << bits, 2**31 - 1, 2**31, 2**40])
            queries.append(row)
        queries = np.array(queries, dtype=np.int64)
        for d in range(width + 1):
            q = queries if d == width - 1 else np.zeros((3, d + 1), dtype=np.int64)
            assert family.find(d, q).tolist() == void_key_find(family, d, q).tolist()
        assert family.find(width - 1, np.array(rows)).tolist() == list(range(len(rows)))
    assert packed > 50 and void > 50


# ---------------------------------------------------------------------------
# the closure kernel against the closure walk
# ---------------------------------------------------------------------------


def _random_facets(rng):
    """A family of faces of 1 to 5 vertices, some repeated and some inside
    others, grouped by width as rows in random order, each row
    increasing."""
    faces = [frozenset(rng.sample(range(12), rng.randint(1, 5))) for _ in range(rng.randint(1, 8))]
    faces += rng.sample(faces, rng.randint(0, len(faces)))
    faces += [frozenset(rng.sample(sorted(f), rng.randint(1, len(f)))) for f in rng.choices(faces, k=2)]
    rng.shuffle(faces)
    groups = [[sorted(f) for f in faces if len(f) == w] for w in range(1, max(map(len, faces)) + 1)]
    return faces, [np.array(group, dtype=np.int32).reshape(-1, w) for w, group in enumerate(groups, 1)]


@pytest.mark.parametrize("chunk", [1 << 20, 3])
def test_closure_rows_match_closure_oracle(monkeypatch, chunk):
    # in one batch per width, and in batches of a few rows merged one by one
    monkeypatch.setattr(complexes, "_CHUNK", chunk)
    rng = random.Random(11)
    for _ in range(200):
        faces, facets = _random_facets(rng)
        want = downward_closure_oracle(faces)
        want_rows = _rows_of(FaceRows(want))
        got = closure_rows(facets)
        assert [level.tolist() for level in got] == want_rows
        assert all(level.dtype == np.dtype(">i4") for level in got)
        assert [level.tolist() for level in closure_rows(facets, max_faces=len(want))] == want_rows
        with pytest.raises(ResourceLimit, match=f"complex exceeds {len(want) - 1} faces"):
            downward_closure_oracle(faces, max_faces=len(want) - 1)
        with pytest.raises(ResourceLimit, match=f"complex exceeds {len(want) - 1} faces"):
            closure_rows(facets, max_faces=len(want) - 1)


@pytest.mark.parametrize("chunk", [1 << 20, 3])
def test_closure_rows_are_closed(monkeypatch, chunk):
    # the complexes built from closure_rows skip the closure check, which
    # its output passes by construction
    monkeypatch.setattr(complexes, "_CHUNK", chunk)
    rng = random.Random(11)
    for _ in range(200):
        _, facets = _random_facets(rng)
        assert FaceRows.from_rows(closure_rows(facets)).is_closed()


def test_closure_cap_counts_distinct_faces(monkeypatch):
    # a facet repeated 1,000 times has 7 faces, within a cap of 7, though
    # its column subsets make 7,000 rows; a batch is merged before the next
    monkeypatch.setattr(complexes, "_CHUNK", 10)
    facets = [np.zeros((0, 1), dtype=np.int32), np.zeros((0, 2), dtype=np.int32), np.tile([[2, 5, 9]], (1000, 1))]
    assert list(map(len, closure_rows(facets, max_faces=7))) == [3, 3, 1]
    with pytest.raises(ResourceLimit, match="complex exceeds 6 faces"):
        closure_rows(facets, max_faces=6)


# ---------------------------------------------------------------------------
# the stellar replay on maximal faces against the set replay
# ---------------------------------------------------------------------------


def _random_complex(rng):
    labels = rng.sample(["a", "b", "c", "d", "e", "f", "g", "h", 1, 2, 3], rng.randint(2, 8))
    facets = [rng.sample(labels, rng.randint(1, min(4, len(labels)))) for _ in range(rng.randint(1, 6))]
    facets += [[lab] for lab in labels]
    return SimplicialComplex.from_label_faces(facets)


def _same(ours, oracle):
    assert ours.vertices == oracle.vertices
    assert _rows(ours) == _rows(oracle)
    assert ours.faces == oracle.faces


def _step(rng, oracle, fresh):
    """A step on the oracle's complex: mostly a face of two or more vertices,
    sometimes a vertex, a set of vertices that is no face, or a new label
    that already names a vertex."""
    faces = sorted(oracle.faces, key=sorted)
    roll = rng.random()
    if roll < 0.1:
        face = rng.choice([f for f in faces if len(f) == 1])
    elif roll < 0.2:
        face = frozenset(rng.sample(range(len(oracle.vertices)), min(3, len(oracle.vertices))))
    else:
        face = rng.choice([f for f in faces if len(f) > 1] or faces)
    label = rng.choice(oracle.vertices) if rng.random() < 0.1 else (None if rng.random() < 0.2 else fresh)
    return [oracle.vertices[v] for v in face], label


def _apply(state, face, label):
    try:
        return state.stellar_subdivide(face, new_label=label)
    except (FaceNotPresent, ValueError) as exc:
        return type(exc), str(exc)


def _replay(rng, start, steps, freeze_chance):
    ours, oracle = FacetReplay(start), MutableComplexOracle(start)
    for t in range(steps):
        face, label = _step(rng, oracle, ("new", t))
        assert _apply(ours, face, label) == _apply(oracle, face, label)
        assert ours.vertices == oracle.vertices
        if rng.random() < freeze_chance:
            _same(ours.freeze(), oracle.freeze())
    final, want = ours.freeze(), oracle.freeze()
    _same(final, want)
    assert ours.equals(want) and ours.equals(start) == (final == start)
    return final


def test_row_replay_matches_set_replay():
    rng = random.Random(3)
    for _ in range(150):
        _replay(rng, _random_complex(rng), rng.randint(1, 12), 0.3)


def test_chained_row_replays_match_set_replay():
    # each replay starts from the last one's final complex, built from rows
    rng = random.Random(4)
    for _ in range(40):
        current = _random_complex(rng)
        for _ in range(4):
            current = _replay(rng, current, rng.randint(1, 6), 0.0)


def test_stellar_subdivide_matches_set_replay():
    rng = random.Random(5)
    for _ in range(150):
        K = _random_complex(rng)
        oracle = MutableComplexOracle(K)
        face, label = _step(rng, oracle, "new")
        got = _apply(K, face, label)
        want = _apply(oracle, face, label)
        if isinstance(got, SimplicialComplex):
            assert want is True or (want is False and got is K)
            _same(got, oracle.freeze())
        else:
            assert got == want


def test_replay_refusals_change_nothing(t14):
    state = FacetReplay(t14)
    before = state.freeze()
    a, b = next((a, b) for a in t14.vertices for b in t14.vertices if a != b and not t14.has_face_labels([a, b]))
    with pytest.raises(FaceNotPresent, match="not in complex"):
        state.stellar_subdivide([a, b], new_label="x")
    edge = [t14.vertices[v] for v in t14.face_rows.rows[1][0].tolist()]
    with pytest.raises(ValueError, match="already names a vertex"):
        state.stellar_subdivide(edge, new_label=a)
    assert state.stellar_subdivide([a], new_label="x") is False
    assert state.vertices == t14.vertices
    _same(state.freeze(), before)
    assert state.stellar_subdivide(edge, new_label="x") is True
    assert state.freeze() == t14.stellar_subdivide(edge, new_label="x")


def test_freeze_keeps_the_row_checks():
    # a replay state that is no complex is refused when it is frozen: the
    # closure of any facets is closed downward, so what is left to refuse is
    # a vertex in no maximal face, or a label twice
    K = SimplicialComplex.from_label_faces([("a", "b", "c"), ("c", "d")])
    state = FacetReplay(K)
    state._alive[1][:] = False  # the edge to "d" marked dead with nothing made for it
    with pytest.raises(ValueError, match=r"vertices \[3\] appear in no face"):
        state.freeze()
    state = FacetReplay(K)
    state.stellar_subdivide(["a", "b"], new_label="x")
    state.vertices[-1] = "a"  # the new vertex under a label already taken
    with pytest.raises(ValueError, match="pairwise distinct"):
        state.freeze()


# ---------------------------------------------------------------------------
# runs of steps in one pass, cut where the disjoint-stars lemma stops
# ---------------------------------------------------------------------------


def _replay_all(start, steps):
    """The steps run in passes, and the same steps on the set replay one by
    one: each state after them, and the error raised, from both."""
    ours, oracle = FacetReplay(start), MutableComplexOracle(start)
    try:
        ours.subdivide_all(steps)
        got = None
    except (FaceNotPresent, ValueError, KeyError) as exc:
        got = type(exc), str(exc)
    want = None
    for face, label in steps:
        want = _apply(oracle, face, label)
        if not isinstance(want, bool):
            break
        want = None
    assert got == want
    assert ours.vertices == oracle.vertices
    _same(ours.freeze(), oracle.freeze())
    return ours


def test_run_is_cut_where_stars_share_a_facet():
    # the edges ab and bc of the triangle abc both have it as their star:
    # the second step waits for the next pass, where its star is the
    # triangle that the first one made through b and c
    K = SimplicialComplex.from_label_faces([("a", "b", "c"), ("c", "d")])
    state = _replay_all(K, [(["a", "b"], "x"), (["b", "c"], "y"), (["c", "d"], "z")])
    assert state.passes == 2 and state.facets_made == 2 + 2 + 2
    # disjoint stars make one run
    state = _replay_all(K, [(["a", "b"], "x"), (["c", "d"], "z")])
    assert state.passes == 1


def test_run_of_faces_of_several_sizes():
    # every triangle on six vertices, so that each vertex lies in ten rows,
    # more than there are vertices: faces of three and of two vertices, with
    # disjoint stars, in one run
    K = SimplicialComplex.from_label_faces(combinations(range(6), 3))
    state = _replay_all(K, [([0, 1, 2], "x"), ([3, 4], "y"), ([5, 0], "z")])
    assert state.passes == 1


def test_run_is_cut_at_a_vertex_it_made():
    K = SimplicialComplex.from_label_faces([("a", "b", "c"), ("c", "d")])
    state = _replay_all(K, [(["c", "d"], "z"), (["a", "b"], "x"), (["x", "c"], "y")])
    assert state.passes == 2
    # a step whose face is the new vertex alone changes nothing, in any pass
    state = _replay_all(K, [(["a", "b"], "x"), (["x"], "w"), (["c", "d"], "z")])
    assert "w" not in state.vertices


@pytest.mark.parametrize("face", [["a", "d"], []])
def test_missing_face_in_a_run_raises_after_the_steps_before(face):
    # the steps before the missing face are applied, in one pass, and none after
    K = SimplicialComplex.from_label_faces([("a", "b", "c"), ("c", "d"), ("d", "e")])
    state = _replay_all(K, [(["a", "b"], "x"), (["d", "e"], "w"), (face, "y"), (["c", "d"], "z")])
    assert state.vertices[-2:] == ["x", "w"] and state.facets_made == 4


@pytest.mark.parametrize("label", ["e", "x"])
def test_taken_label_in_a_run_raises_after_the_steps_before(label):
    # a label of the complex, or one that an earlier step of the run made
    K = SimplicialComplex.from_label_faces([("a", "b", "c"), ("c", "d"), ("d", "e")])
    state = _replay_all(K, [(["a", "b"], "x"), (["d", "e"], "w"), (["c", "d"], label), (["a", "c"], "z")])
    assert state.vertices[-2:] == ["x", "w"] and state.passes == 2


@pytest.mark.parametrize("chunk", [1 << 20, 4])
def test_runs_of_random_steps_match_set_replay(monkeypatch, chunk):
    # random steps on random complexes, drawn on the set replay as it goes:
    # faces of the complex then, vertices, non-faces, new vertices and taken
    # labels, so that runs are cut at shared facets, new vertices and errors;
    # the rows read in one part, and in parts of one or two rows
    monkeypatch.setattr(complexes, "_CHUNK", chunk)
    rng = random.Random(6)
    passes = steps_run = 0
    for _ in range(150):
        start = _random_complex(rng)
        oracle, steps = MutableComplexOracle(start), []
        for t in range(rng.randint(1, 12)):
            face, label = _step(rng, oracle, ("new", t))
            steps.append((face, label))
            if not isinstance(_apply(oracle, face, label), bool):
                break
        state = _replay_all(start, steps)
        passes += state.passes
        steps_run += len(steps)
    assert passes < steps_run


@pytest.mark.parametrize("kn", [(2, 4), (1, 5)])
def test_seeded_blowup_runs_match_stellar_chain(kn):
    # whole stellar sequences along seeded extensions, each in a few
    # passes, against the chain of whole-complex subdivisions
    k, n = kn
    pk = enumerate_partitions((n - 1) * k + 1, k)
    q = enumerate_ktree_complex(n, k)
    g = set(pk.g_indices())
    pool = [i for i in pk.poset.proper_indices() if i not in g]
    for seed in range(4):
        ext = pk.poset.linear_extension(pool, policy="seeded-random", seed=seed)
        want = stellar_chain_oracle(pk.poset, q, ext)[-1]
        res = subdivision.run_blowup(pk.poset, q, ext, record_intermediate=False)
        assert res.replay.passes < len(ext)
        assert res.final.vertices == want.vertices and res.final.faces == want.faces


def test_facet_comparison_reads_the_facets():
    # the paths b-a-c-d and a-b-c-d: the same labels and three edges each
    K = SimplicialComplex.from_label_faces([("a", "b"), ("a", "c"), ("c", "d")])
    L = SimplicialComplex.from_label_faces([("a", "b"), ("b", "c"), ("c", "d")])
    assert FacetReplay(K).equals(K) and not FacetReplay(K).equals(L)
    state = FacetReplay(K)
    state.stellar_subdivide(["a", "c"], new_label="x")
    M = K.stellar_subdivide(["a", "c"], new_label="x")
    assert state.equals(M) and not state.equals(K)
    # a non-pure complex: a triangle and an edge against two triangles
    N = SimplicialComplex.from_label_faces([("a", "b", "c"), ("c", "d")])
    assert FacetReplay(N).equals(N)
    assert not FacetReplay(N).equals(SimplicialComplex.from_label_faces([("a", "b", "c"), ("b", "c", "d")]))


def test_facet_comparison_needs_every_width():
    # five edges, each maximal, against the same five edges and the triangle
    # cde: every edge is a maximal face of both, and only the widths differ
    edges = [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d"), ("b", "e")]
    K = SimplicialComplex.from_label_faces(edges)
    L = SimplicialComplex.from_label_faces([*edges, ("c", "d", "e")])
    assert not FacetReplay(K).equals(L) and not FacetReplay(L).equals(K)
    assert K != L and L != K


@pytest.mark.parametrize("kn", [(2, 4), (1, 5)])
def test_verify_builds_no_face_view(monkeypatch, kn):
    # the stellar check compares maximal faces, read from T's rows
    built = []
    real = subdivision._instance

    def instance(*args):
        out = real(*args)
        built.append(out)
        return out

    monkeypatch.setattr(subdivision, "_instance", instance)
    assert verify_theorem(*kn, extensions=3).verdict == "pass"
    ((_, _, q, delta),) = built
    assert _views_unbuilt(q) and _views_unbuilt(delta)


def test_carrier_check_builds_no_face_view_of_delta(monkeypatch):
    cm, _ = global_carrier_map(3, 4)
    assert verify_carrier_map(cm).passed
    assert _views_unbuilt(cm.p_complex) and _views_unbuilt(cm.q_complex)
    built = []
    real = subdivision._instance

    def instance(*args):
        out = real(*args)
        built.append(out[-1])
        return out

    monkeypatch.setattr(subdivision, "_instance", instance)
    assert verify_theorem(3, 4, extensions=3).verdict == "pass"
    (delta,) = built
    assert _views_unbuilt(delta)


def test_carrier_phi_reads_rows_without_the_view():
    # φ on faces, on sets that are no faces and on vertices past the
    # complex, by row search; against the oracle's φ once the view is built
    cm, pk = global_carrier_map(1, 4)
    delta = cm.p_complex
    rng = random.Random(8)
    n = len(delta.vertices)
    probes = delta.face_rows.faces_at(np.arange(sum(delta.f_vector())))
    probes += [frozenset(rng.sample(range(n + 2), rng.randint(0, 4))) for _ in range(200)]
    got = [(f in cm.phi, cm.phi.get(f)) for f in probes]
    assert _views_unbuilt(delta)
    want, _ = carrier_phi_oracle(pk, delta, cm.q_complex)
    assert got == [(f in want, want.get(f)) for f in probes]
    assert not all(inside for inside, _ in got)
