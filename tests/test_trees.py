import pytest

from ktreesub import (
    FaceNotPresent,
    KTree,
    NotNested,
    Partition,
    ResourceLimit,
    contract,
    enumerate_ktree_complex,
    is_k_nested,
    nested_to_tree,
    parse_partition,
    star_tree,
    tree_to_nested,
)
from oracles import brute_ktree_structures, ktree_faces_oracle, leafsets_below_internals


def test_star_tree_has_empty_family():
    assert tree_to_nested(star_tree(5, 2)) == frozenset()
    assert star_tree(5, 2).to_newick() == "(1,2,3,4,5);"


def test_outdegree_validation():
    with pytest.raises(ValueError):
        KTree(5, 2, ((1, 2), 3, 4, 5))  # outdegree 2 not ≡ 1 (mod 2)
    with pytest.raises(ValueError):
        KTree(3, 1, ((1, 2, 3),))  # root outdegree 1


def test_single_internal_vertex_example():
    t = KTree(5, 2, ((1, 2, 3), 4, 5))
    assert tree_to_nested(t) == frozenset([parse_partition("(123)45", 5)])
    assert t.to_newick() == "((1,2,3),4,5);"


def test_nested_to_tree_star():
    t = nested_to_tree(5, 2, [])
    assert t == star_tree(5, 2)
    assert len(t.root) == 5


def test_nested_to_tree_caterpillar():
    fam = [parse_partition("(12)34", 4), parse_partition("(123)4", 4)]
    t = nested_to_tree(4, 1, fam)
    assert t.to_newick() == "(((1,2),3),4);"


def test_nested_to_tree_rejects_overlap():
    with pytest.raises(NotNested):
        nested_to_tree(7, 2, [parse_partition("(123)4567", 7), parse_partition("1(234)567", 7)])
    with pytest.raises(NotNested):
        nested_to_tree(3, 1, [Partition.one(3)])


def test_contract_identity_and_star():
    fam = [parse_partition("(12)34", 4), parse_partition("(123)4", 4)]
    t = nested_to_tree(4, 1, fam)
    assert contract(t, []) == t
    assert contract(t, [frozenset({1, 2}), frozenset({1, 2, 3})]) == star_tree(4, 1)
    with pytest.raises(FaceNotPresent):
        contract(t, [frozenset({2, 3})])


@pytest.mark.parametrize("nk", [(3, 1), (4, 1), (3, 2), (4, 2), (3, 3)])
def test_bijection_roundtrip_exhaustive(nk):
    n, k = nk
    m = (n - 1) * k + 1
    kom = enumerate_ktree_complex(n, k)
    for face in kom.faces:
        fam = frozenset(kom.vertices[v] for v in face)
        t = nested_to_tree(m, k, fam)
        assert tree_to_nested(t) == fam
        for node in t.internal_nodes():
            assert (len(node) - 1) % k == 0 and len(node) > 1


@pytest.mark.parametrize("nk", [(3, 1), (4, 1), (3, 2), (4, 2), (3, 3)])
def test_complex_matches_bruteforce_tree_enumeration(nk):
    n, k = nk
    m = (n - 1) * k + 1
    trees = brute_ktree_structures(m, k)
    families = set()
    for root in trees:
        fam = frozenset(
            Partition.atom(m, sorted(ls)) for ls in leafsets_below_internals(root)
        )
        families.add(fam)
    assert len(families) == len(trees)  # distinct trees give distinct families
    kom = enumerate_ktree_complex(n, k)
    ours = {frozenset(kom.vertices[v] for v in f) for f in kom.faces}
    assert ours | {frozenset()} == families


@pytest.mark.parametrize(
    "kn", [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5), (4, 3), (1, 6), (3, 4)]
)
def test_ktree_faces_match_oracle(kn):
    k, n = kn
    kom = enumerate_ktree_complex(n, k)
    verts, faces = ktree_faces_oracle(n, k)
    assert kom.vertices == verts
    assert len(faces) == len(kom.faces)
    assert kom.faces == frozenset(faces)


@pytest.mark.parametrize("kn", [(3, 3), (1, 4), (2, 4), (4, 3)])
def test_ktree_face_cap_boundary(kn):
    # on (3,3) every face is a vertex, so one face less trips the up-front
    # vertex count
    k, n = kn
    count = len(ktree_faces_oracle(n, k)[1])
    assert len(enumerate_ktree_complex(n, k, max_faces=count).faces) == count
    with pytest.raises(ResourceLimit) as ours:
        enumerate_ktree_complex(n, k, max_faces=count - 1)
    with pytest.raises(ResourceLimit) as walked:
        ktree_faces_oracle(n, k, max_faces=count - 1)
    assert str(ours.value) == str(walked.value) == f"k-tree complex exceeds {count - 1} faces"


@pytest.mark.parametrize("nk,dim", [((3, 1), 0), ((4, 1), 1), ((3, 2), 0), ((4, 2), 1), ((3, 3), 0)])
def test_purity_and_dimension(nk, dim):
    n, k = nk
    kom = enumerate_ktree_complex(n, k)
    assert kom.dimension() == n - 3 == dim
    assert kom.is_pure()


def test_expected_sizes(t14, t24):
    assert t14.f_vector() == (10, 15)
    assert t24.f_vector() == (56, 280)
    assert enumerate_ktree_complex(3, 2).f_vector() == (10,)


def test_face_relation_is_contraction(t14):
    m, k = 4, 1
    for face in t14.faces:
        fam = frozenset(t14.vertices[v] for v in face)
        t = nested_to_tree(m, k, fam)
        for sub in _proper_subsets(fam):
            removed = fam - sub
            contracted = contract(t, sorted(removed, key=Partition.sort_key))
            assert contracted == nested_to_tree(m, k, sub)
            assert tree_to_nested(contracted) == sub


def _proper_subsets(fam):
    fam = sorted(fam, key=Partition.sort_key)
    out = [frozenset()]
    for x in fam:
        out += [s | {x} for s in out]
    return [s for s in out if s != frozenset(fam)]


def test_family_size_equals_internal_vertices(t24):
    m, k = 7, 2
    for face in t24.faces:
        fam = frozenset(t24.vertices[v] for v in face)
        t = nested_to_tree(m, k, fam)
        non_root = [x for x in t.internal_nodes() if x is not t.root]
        assert len(non_root) == len(fam)


def test_contraction_drops_one_family_member_t24(t24):
    m, k = 7, 2
    for face in t24.faces_of_dim(1):
        fam = frozenset(t24.vertices[v] for v in face)
        t = nested_to_tree(m, k, fam)
        for member in fam:
            assert tree_to_nested(contract(t, [member])) == fam - {member}


def test_bijection_equivariance(t14):
    perm = (2, 3, 4, 1)
    for face in t14.faces:
        fam = frozenset(t14.vertices[v] for v in face)
        t = nested_to_tree(4, 1, fam)
        relabeled_family = frozenset(x.permute(perm) for x in fam)
        assert tree_to_nested(nested_to_tree(4, 1, relabeled_family)) == frozenset(
            x.permute(perm) for x in tree_to_nested(t)
        )


def test_is_k_nested_examples(pk72):
    a = parse_partition("(123)4567", 7)
    b = parse_partition("1(234)567", 7)
    c = parse_partition("123(456)7", 7)
    big = parse_partition("(12345)67", 7)
    assert not is_k_nested(pk72, [a, b])  # three minimal upper bounds
    assert is_k_nested(pk72, [a, c])  # disjoint blocks
    assert is_k_nested(pk72, [a, big])  # a chain has no antichains
    assert not is_k_nested(pk72, [Partition.one(7)])


def test_is_k_nested_matches_enumerator(pk72, t24):
    import itertools

    verts = list(t24.vertices)
    for fam in itertools.combinations(verts[:18], 2):
        expected = t24.has_face_labels(fam)
        assert is_k_nested(pk72, fam) == expected


def test_out_degree_congruence_all_faces(t24):
    for face in t24.faces:
        fam = [t24.vertices[v] for v in face]
        t = nested_to_tree(7, 2, fam)
        for node in t.internal_nodes():
            assert (len(node) - 1) % 2 == 0
