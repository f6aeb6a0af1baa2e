"""Independent brute-force oracles, written against the definitions and kept
free of the production code paths they check."""

import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np


def brute_set_partitions(m):
    """All set partitions of {1..m} by element-wise insertion (no restricted
    growth strings)."""
    parts = [[]]
    for x in range(1, m + 1):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                nxt.append([blk + [x] if j == i else list(blk) for j, blk in enumerate(p)])
            nxt.append([list(b) for b in p] + [[x]])
        parts = nxt
    return [tuple(tuple(sorted(b)) for b in sorted(p, key=min)) for p in parts]


def brute_modk_partitions(m, k):
    return [p for p in brute_set_partitions(m) if all((len(b) - 1) % k == 0 for b in p)]


def refinement_oracle(a_blocks, b_blocks):
    """a <= b iff every block of a lies inside a block of b."""
    return all(any(set(x) <= set(y) for y in b_blocks) for x in a_blocks)


def join_oracle(a_blocks, b_blocks):
    """Finest common coarsening by merging overlapping blocks to a fixed
    point (no union-find)."""
    blocks = [set(b) for b in a_blocks] + [set(b) for b in b_blocks]
    changed = True
    while changed:
        changed = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if blocks[i] & blocks[j]:
                    blocks[i] |= blocks[j]
                    del blocks[j]
                    changed = True
                    break
            if changed:
                break
    return tuple(tuple(sorted(b)) for b in sorted(blocks, key=min))


def common_refinement_oracle(a_blocks, b_blocks):
    """Meet in the full partition lattice: nonempty pairwise intersections."""
    out = []
    for x in a_blocks:
        for y in b_blocks:
            inter = sorted(set(x) & set(y))
            if inter:
                out.append(tuple(inter))
    return tuple(sorted(out, key=lambda b: b[0]))


def factors_search_oracle(pk, x):
    """Factors of x by their definition: the maximal elements, in the order
    matrix of the partition poset ``pk``, among the G-elements below x
    (single non-singleton block, rank divisible by k)."""
    labels, leq = pk.poset.labels, pk.poset.leq
    i = pk.poset.index(x)
    below = [
        g
        for g, y in enumerate(labels)
        if len(y.nonsingleton_blocks()) == 1 and y.rank % pk.k == 0 and leq[g, i]
    ]
    return frozenset(
        labels[g] for g in below if not any(h != g and leq[g, h] for h in below)
    )


def closure_matrix(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean relation matrix, by
    repeated boolean squaring."""
    out = np.array(adj, dtype=bool)
    np.fill_diagonal(out, True)
    while True:
        # boolean product: a uint8 product would count paths modulo 256
        nxt = out | (out @ out)
        if (nxt == out).all():
            return out
        out = nxt


def poset_from_covers(labels, covers, min_index=None, max_index=None):
    """The poset generated by a cover (or any generating) relation on element
    indices: its reflexive-transitive closure, which raises
    ``CycleDetected`` when it merges two elements."""
    from ktreesub import Poset

    n = len(labels)
    adj = np.zeros((n, n), dtype=bool)
    for i, j in covers:
        adj[i, j] = True
    return Poset(labels, closure_matrix(adj), min_index=min_index, max_index=max_index)


def closure_oracle(adj):
    """Reflexive-transitive closure by the triple loop."""
    n = len(adj)
    out = [[bool(adj[i][j]) or i == j for j in range(n)] for i in range(n)]
    for t in range(n):
        for i in range(n):
            if out[i][t]:
                for j in range(n):
                    if out[t][j]:
                        out[i][j] = True
    return out


def _subtree_structures(leaves, k, memo):
    """All rooted trees on the given leaf set with internal outdegrees > 1
    and ≡ 1 (mod k), as canonical nested tuples; a single leaf is itself."""
    leaves = frozenset(leaves)
    if leaves in memo:
        return memo[leaves]
    if len(leaves) == 1:
        memo[leaves] = [next(iter(leaves))]
        return memo[leaves]
    out = []
    for prt in _partitions_of_set(sorted(leaves)):
        b = len(prt)
        if b < 2 or (b - 1) % k != 0:
            continue
        child_options = [_subtree_structures(frozenset(p), k, memo) for p in prt]
        if any(not opts for opts in child_options):
            continue
        for combo in product(*child_options):
            node = tuple(sorted(combo, key=_min_leaf))
            out.append(node)
    memo[leaves] = sorted(set(out), key=repr)
    return memo[leaves]


def _min_leaf(node):
    return node if isinstance(node, int) else min(_min_leaf(c) for c in node)


def _partitions_of_set(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _partitions_of_set(rest):
        for i in range(len(sub)):
            yield [blk + [first] if j == i else blk for j, blk in enumerate(sub)]
        yield sub + [[first]]


def brute_ktree_structures(m, k):
    """Every valid rooted k-tree on leaves 1..m (the star tree included)."""
    return _subtree_structures(frozenset(range(1, m + 1)), k, {})


def leafsets_below_internals(node, is_root=True):
    """Leaf sets of non-root internal vertices of a nested-tuple tree."""
    out = []
    if isinstance(node, int):
        return out
    if not is_root:
        out.append(frozenset(_leaves(node)))
    for c in node:
        out.extend(leafsets_below_internals(c, is_root=False))
    return out


def _leaves(node):
    if isinstance(node, int):
        return [node]
    out = []
    for c in node:
        out.extend(_leaves(c))
    return out


def segment_length(p, q):
    """Length of a rational segment (1-simplex volume oracle)."""
    diffs = [a - b for a, b in zip(p, q)]
    sq = sum(d * d for d in diffs)
    return sq  # compared squared; caller beware


def finite_geometric_overlap_1d(a0, a1, b0, b1):
    """Open-interval overlap on the line (oracle for the feasibility test)."""
    lo = max(min(a0, a1), min(b0, b1))
    hi = min(max(a0, a1), max(b0, b1))
    return lo < hi


def dense_to_columns(mat):
    """A dense integer matrix (a list of rows) as the sparse form
    ``snf_diagonal`` takes: ({row: value} per column, row count)."""
    rows = [[int(x) for x in row] for row in mat]
    n_cols = len(rows[0]) if rows else 0
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(n_cols)], len(rows)


def snf_diagonal(columns, n_rows) -> list:
    """Invariant factors of an integer matrix given as sparse columns
    (nonnegative, divisibility ordered, padded with zeros to min(r, c)), by
    ``ktreesub._kernels.smith_reduce`` on a copy of the columns without
    their zeros: the form :func:`boundary_reduced_homology` reads."""
    from ktreesub._kernels import smith_reduce

    pivots, factors = smith_reduce([{int(r): int(v) for r, v in col.items() if v} for col in columns])
    diag = [1] * len(pivots) + factors
    return diag + [0] * (min(n_rows, len(columns)) - len(diag))


def dense_reduced_homology(K, snf):
    """Reduced homology of K as (betti, torsion) per degree, from dense
    boundary matrices built off the face lists and a dense Smith normal form
    ``snf`` (list of rows -> invariant factors)."""
    dim = K.dimension()
    ranks, torsion = {dim + 1: 0}, {}
    for d in range(dim + 1):
        cols = [sorted(f) for f in K.faces_of_dim(d)]
        if d == 0:
            mat = [[1] * len(cols)]
        else:
            rpos = {tuple(sorted(f)): i for i, f in enumerate(K.faces_of_dim(d - 1))}
            mat = [[0] * len(cols) for _ in rpos]
            for j, vs in enumerate(cols):
                for t in range(len(vs)):
                    mat[rpos[tuple(vs[:t] + vs[t + 1 :])]][j] = (-1) ** t
        diag = snf(mat)
        ranks[d] = sum(1 for x in diag if x)
        torsion[d - 1] = tuple(x for x in diag if x > 1)
    return [
        (len(K.faces_of_dim(d)) - ranks[d] - ranks[d + 1], torsion.get(d, ()))
        for d in range(dim + 1)
    ]


def boundary_matrix(K, d):
    """Boundary map of K from d-faces to (d-1)-faces as sparse columns: one
    {row index: ±1} dict per d-face; d = 0 gives the augmentation, one
    {0: 1} per vertex."""
    if d == 0:
        return [{0: 1} for _ in K.faces_of_dim(0)]
    rpos = {f: i for i, f in enumerate(K.faces_of_dim(d - 1))}
    return [
        {rpos[f - {x}]: (-1) ** t for t, x in enumerate(sorted(f))}
        for f in K.faces_of_dim(d)
    ]


def check_boundary_squares_to_zero(K):
    """d∘d = 0 for every consecutive boundary pair."""
    for d in range(0, K.dimension()):
        a = boundary_matrix(K, d)
        for col in boundary_matrix(K, d + 1):
            image = {}
            for r, v in col.items():
                for s, w in a[r].items():
                    image[s] = image.get(s, 0) + v * w
            if any(image.values()):
                return False
    return True


def boundary_reduced_homology(K, snf):
    """Reduced homology of K as (betti, torsion) per degree, from the Smith
    normal form ``snf`` (sparse columns, row count -> invariant factors) of
    every boundary matrix, degree 0 included: no union-find, no coboundaries
    and no clearing.  The rows are numbered from the last face down, so a
    kernel that pivots on the smallest unit row pivots on the last face of
    each column, which keeps fill-in low on boundary columns."""
    dim = K.dimension()
    ranks, torsion = {dim + 1: 0}, {}
    for d in range(dim + 1):
        n_rows = len(K.faces_of_dim(d - 1)) if d else 1
        cols = [{n_rows - 1 - r: v for r, v in col.items()} for col in boundary_matrix(K, d)]
        diag = snf(cols, n_rows)
        ranks[d] = sum(1 for x in diag if x != 0)
        torsion[d - 1] = tuple(x for x in diag if x > 1)
    return [
        (len(K.faces_of_dim(d)) - ranks[d] - ranks[d + 1], torsion.get(d, ()))
        for d in range(dim + 1)
    ]


def is_linear_extension_loop(poset, seq):
    """Whether ``seq`` never lists an element after something above it, by
    the double loop over each element and the elements listed before it."""
    seen = set()
    for i in seq:
        if any(i != j and bool(poset.leq[i, j]) for j in seen):
            return False
        seen.add(i)
    return True


def seeded_linear_extension_loop(poset, subset, seed):
    """The seeded-random linear extension by rescanning: shuffle ``subset``
    with ``random.Random(seed)``, then at every step place the unplaced
    element of smallest shuffled position whose predecessors are placed."""
    idx = list(subset)
    shuffled = list(idx)
    random.Random(seed).shuffle(shuffled)
    priority = {v: p for p, v in enumerate(shuffled)}
    preds = {i: {j for j in idx if j != i and poset.leq[j, i]} for i in idx}
    out, placed = [], set()
    while len(out) < len(idx):
        ready = [i for i in set(idx) - placed if preds[i] <= placed]
        pick = min(ready, key=lambda i: priority[i])
        out.append(pick)
        placed.add(pick)
    return out


def stellar_subdivision_oracle(K, face_labels, new_label):
    """Stellar subdivision of K at a face of two or more vertices by the
    textbook formula, over the whole face set: keep every face not
    containing sigma, and replace each face gamma containing it by
    (gamma - sigma) + delta + {new vertex} for every proper subset delta of
    sigma.  Returns the vertex labels and the faces as index sets."""
    index = {lab: i for i, lab in enumerate(K.vertices)}
    sigma = frozenset(index[lab] for lab in face_labels)
    v = len(K.vertices)
    members = sorted(sigma)
    proper = [
        frozenset(sub) for r in range(len(members)) for sub in combinations(members, r)
    ]
    faces = {f for f in K.faces if not sigma <= f}
    for gamma in K.faces:
        if sigma <= gamma:
            faces |= {(gamma - sigma) | delta | {v} for delta in proper}
    return K.vertices + [new_label], faces


class MutableComplexOracle:
    """The stellar replay over a set of frozenset faces, edited in place:
    the face set, the vertex labels and, per vertex, the faces through it,
    all built at the start, so that a subdivision rewrites only the star of
    the subdivided face.  :meth:`freeze` builds a complex from the faces.
    This was the library's replay before it kept its initial complex as
    rows, and then only the maximal faces."""

    def __init__(self, K):
        self.vertices = list(K.vertices)
        self._index = {lab: i for i, lab in enumerate(self.vertices)}
        self.faces = set(K.faces)
        self._incident = [set() for _ in self.vertices]
        for f in self.faces:
            for v in f:
                self._incident[v].add(f)

    def stellar_subdivide(self, face_labels, new_label=None) -> bool:
        from ktreesub import FaceNotPresent
        from ktreesub.complexes import _label_key

        sigma = frozenset(self._index[l] for l in face_labels)
        if sigma not in self.faces:
            raise FaceNotPresent(f"face {sorted(face_labels, key=_label_key)} not in complex")
        if len(sigma) == 1:
            return False
        if new_label is None:
            new_label = tuple(sorted((self.vertices[i] for i in sigma), key=_label_key))
        if new_label in self._index:
            raise ValueError(f"label {new_label!r} already names a vertex")
        v = len(self.vertices)
        self.vertices.append(new_label)
        self._index[new_label] = v
        self._incident.append(set())
        star = [f for f in min((self._incident[u] for u in sigma), key=len) if sigma <= f]
        for gamma in star:
            self.faces.remove(gamma)
            for u in gamma:
                self._incident[u].remove(gamma)
        members = sorted(sigma)
        proper = [frozenset(sub) for r in range(len(members)) for sub in combinations(members, r)]
        for gamma in star:
            rest = gamma - sigma
            for delta in proper:
                f = rest | delta | {v}
                self.faces.add(f)
                for u in f:
                    self._incident[u].add(f)
        return True

    def freeze(self):
        from ktreesub import SimplicialComplex

        return SimplicialComplex(self.vertices, self.faces)


def void_key_find(face_rows, d, rows):
    """``FaceRows.find`` by the big-endian byte keys of the rows: position
    within dimension ``d`` of each row of ``rows``, -1 for a row that is no
    face (one with an entry past int32 included)."""
    rows = np.asarray(rows, dtype=np.int64)
    out = np.full(len(rows), -1, dtype=np.intp)
    if d >= len(face_rows.rows) or not len(face_rows.rows[d]) or not len(rows):
        return out
    fits = ((rows >= 0) & (rows <= np.iinfo(np.int32).max)).all(axis=1)
    width = np.dtype((np.void, 4 * (d + 1)))
    keys = np.ascontiguousarray(face_rows.rows[d], dtype=">i4").view(width).ravel()
    query = np.ascontiguousarray(np.where(fits[:, None], rows, 0), dtype=">i4").view(width).ravel()
    at = np.minimum(keys.searchsorted(query), len(keys) - 1)
    return np.where((keys[at] == query) & fits, at, -1)


def pairwise_carrier_oracle(cm):
    """The carrier-map check with one Fourier-Motzkin disjointness test per
    pair of cells over every target face (no certificate).  Returns the
    failures as JSON dicts, in order, and the per-face volume sums as
    strings keyed by face label.  The source faces are read in
    :func:`by_size_order`, one ``face - {v}`` per vertex, and the source
    vertices are its faces of one vertex.  The geometry is the Fraction
    elimination below, not the integer kernels of ``ktreesub.exact``."""
    p, q = cm.p_complex, cm.q_complex

    def name(x):
        return (x.sort_key(), x.text()) if hasattr(x, "text") else (str(x), str(x))

    def label(face):
        # an index that is no target vertex is named by "#" and its number, last
        if face is None:
            return None
        inside = [i for i in face if 0 <= i < len(q.vertices)]
        stray = sorted(set(face) - set(inside))
        return "+".join([text for _, text in sorted(name(q.vertices[i]) for i in inside)] + [f"#{i}" for i in stray])

    def fail(check, detail, witness=None):
        out = {"check": check, "detail": detail}
        if witness is not None:
            out["witness"] = witness
        failures.append(out)

    def by_size(f):
        return (len(f), tuple(sorted(f)))

    failures = []
    source = by_size_order(cm.p_faces)
    for face in source:
        if face not in cm.phi:
            fail("phi_total", f"no image for face {sorted(face)}")
            continue
        img = cm.phi[face]
        if img not in cm.q_faces:
            fail("phi_into_target", f"image of {sorted(face)} is not a target face", label(img))
        for v in face if len(face) > 1 else ():
            sub = face - {v}
            if sub in cm.phi and not cm.phi[sub] <= img:
                fail("phi_order", f"phi not order-preserving at {sorted(face)}")
                break
    seen = {}
    for v in sorted({v for f in source if len(f) == 1 for v in f}):
        coords = cm.f0.get(v)
        if coords is None:
            fail("vertex_map_total", f"no coordinates for vertex {v}")
            continue
        carrier = cm.phi.get(frozenset([v]))
        support = frozenset(i for i, c in coords.items() if c != 0)
        if any(c <= 0 for c in coords.values()) or support != carrier:
            fail("vertex_in_carrier_interior",
                 f"vertex {p.vertices[v]!r} not strictly inside its carrier",
                 label(carrier) if carrier else None)
        if sum(coords.values(), Fraction(0)) != 1:
            fail("vertex_coordinates_sum", f"coordinates of vertex {v} do not sum to 1")
        key = tuple(sorted(coords.items()))
        if key in seen:
            fail("vertex_map_injective", f"vertices {seen[key]} and {v} coincide")
        seen[key] = v
    cells_by_image = {}
    for face in source:
        if cm.phi.get(face) in cm.q_faces:
            cells_by_image.setdefault(cm.phi[face], []).append(face)
    volumes = {}
    for qf in sorted(cm.q_faces, key=by_size):
        cells = cells_by_image.get(qf, [])
        if not cells:
            fail("carrier_surjective", "target face has no preimage cell", label(qf))
            continue
        qs = sorted(qf)
        # a cell through a vertex with no coordinates has no image: it is
        # left out of every test below
        points = {
            c: [tuple(cm.f0[v].get(i, Fraction(0)) for i in qs) for v in sorted(c)]
            for c in cells if all(v in cm.f0 for v in c)
        }
        cells = [c for c in cells if c in points]
        degenerate = set()
        for c in cells:
            if fraction_affine_dim(points[c]) != len(c) - 1:
                degenerate.add(c)
                fail("cell_nondegenerate", f"cell {sorted(c)} maps to a degenerate simplex", label(qf))
        for c1, c2 in combinations(sorted(cells, key=by_size), 2):
            if c1 in degenerate or c2 in degenerate:
                continue
            point = fraction_open_simplices_intersect(points[c1], points[c2])
            if point is not None:
                fail("interiors_disjoint", f"open images of cells {sorted(c1)} and {sorted(c2)} overlap",
                     {"target_face": label(qf), "point": [str(x) for x in point]})
        total = sum(
            (abs(fraction_simplex_volume_ratio(points[c])) for c in cells
             if len(c) == len(qf) and c not in degenerate),
            Fraction(0),
        )
        volumes[label(qf)] = str(total)
        if total != 1:
            fail("volume_partition", f"cell volumes sum to {total} of the target face", label(qf))
    return failures, volumes


def stellar_chain_oracle(order, initial, ext):
    """The complexes of the stellar sequence along the linear extension
    ``ext`` (subdivided from its top end down), one complete complex per
    subdividing step: a chain of ``SimplicialComplex.stellar_subdivide``
    calls, each on the complex the last one returned."""
    current = initial
    current_idx = [order.index(lab) for lab in initial.vertices]
    out = [initial]
    for h in reversed(ext):
        below = [v for v in current_idx if order.leq[v, h]]
        sigma = frozenset(order.labels[v] for v in order.maximal_in(below))
        if len(sigma) == 1:
            continue
        current = current.stellar_subdivide(sigma, new_label=order.labels[h])
        current_idx.append(h)
        out.append(current)
    return out


def chains_oracle(poset):
    """Nonempty chains of the proper part of ``poset`` as sets of element
    indices, by testing every subset of each size until a size has none."""
    proper = poset.proper_indices()
    leq = poset.leq.tolist()
    out = set()
    for r in range(1, len(proper) + 1):
        found = {
            frozenset(sub)
            for sub in combinations(proper, r)
            if all(leq[a][b] or leq[b][a] for a, b in combinations(sub, 2))
        }
        if not found:
            break
        out |= found
    return out


def rgs_filter_oracle(m, k):
    """Every restricted growth string on m symbols, walked in lexicographic
    order and kept when its block sizes are ≡ 1 (mod k), as an (N, m) int8
    array."""
    import numpy as np

    rows = []
    if m == 0:
        return np.zeros((1, 0), dtype=np.int8)
    a = [0] * m
    bmax = [0] * (m + 1)  # bmax[j] = max(a[:j])
    while True:
        sizes = [0] * (max(a) + 1)
        for v in a:
            sizes[v] += 1
        if all((s - 1) % k == 0 for s in sizes):
            rows.append(list(a))
        j = m - 1
        while j > 0 and a[j] > bmax[j]:
            j -= 1
        if j == 0:
            break
        a[j] += 1
        for i in range(j + 1, m):
            a[i] = 0
        for i in range(j, m):
            bmax[i + 1] = max(bmax[i], a[i])
    return np.array(rows, dtype=np.int8).reshape(len(rows), m)


def g_set_oracle(m, k):
    """Every single-block partition of {1..m}, canonically sorted, kept when
    its rank is divisible by k."""
    from ktreesub import Partition

    singles = sorted(
        (Partition.atom(m, c) for s in range(2, m + 1) for c in combinations(range(1, m + 1), s)),
        key=Partition.sort_key,
    )
    return [x for x in singles if x.rank % k == 0]


def ktree_faces_oracle(n, k, max_faces=200_000):
    """Vertices and faces of T^k_n by testing each later vertex against every
    member of a face: the G-elements below the top in canonical order, and
    the faces as frozensets of vertex indices in the order they are found.
    Raises ResourceLimit with the library's message past ``max_faces``."""
    from ktreesub import Partition, ResourceLimit

    m = (n - 1) * k + 1
    verts = [x for x in g_set_oracle(m, k) if x != Partition.one(m)]
    blocks = [set(x.nonsingleton_blocks()[0]) for x in verts]
    nv = len(verts)
    compat = [[not (a & b) or a <= b or b <= a for b in blocks] for a in blocks]
    faces = []

    def grow(face, start):
        for j in range(start, nv):
            if all(compat[i][j] for i in face):
                new = face + (j,)
                faces.append(frozenset(new))
                if len(faces) > max_faces:
                    raise ResourceLimit(f"k-tree complex exceeds {max_faces} faces")
                grow(new, j + 1)

    grow((), 0)
    return verts, faces


def ktree_bitset_oracle(n, k, max_faces=200_000):
    """T^k_n as the recursive clique walk over Python-integer bitsets that
    the library used before it grew the faces as rows: each face grows by
    the lowest of its candidates, intersected with that vertex's later
    compatible vertices.  A complex built from the frozenset faces."""
    from ktreesub import Partition, ResourceLimit, SimplicialComplex, g_set

    m = (n - 1) * k + 1
    verts = [x for x in g_set(m, k) if x != Partition.one(m)]
    masks = [sum(1 << (v - 1) for v in x.nonsingleton_blocks()[0]) for x in verts]
    later = []
    for i, a in enumerate(masks):
        bits = 0
        for j in range(i + 1, len(masks)):
            b = masks[j]
            if a & b in (0, a, b):
                bits |= 1 << j
        later.append(bits)
    faces = []

    def grow(face, cand):
        while cand:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            new = face + (j,)
            faces.append(frozenset(new))
            if len(faces) > max_faces:
                raise ResourceLimit(f"k-tree complex exceeds {max_faces} faces")
            grow(new, cand & later[j])

    grow((), (1 << len(verts)) - 1)
    return SimplicialComplex(verts, faces)


def order_complex_oracle(poset, max_faces=None):
    """The order complex of the proper part of ``poset`` by the recursive
    upward chain walk that the library used before it made the chains as
    rows: every chain is extended by each element above its top, in height
    order.  A complex built from the frozenset faces."""
    from ktreesub import ResourceLimit, SimplicialComplex

    proper = poset.proper_indices()
    vpos = {g: p for p, g in enumerate(proper)}
    h = poset.heights().tolist()
    by_height = sorted(proper, key=lambda i: (h[i], i))
    above = {v: sorted((w for w in poset.up(v) if w in vpos), key=lambda w: (h[w], w)) for v in by_height}
    faces = []

    def record(chain):
        faces.append(chain)
        if max_faces is not None and len(faces) > max_faces:
            raise ResourceLimit(f"order complex exceeds {max_faces} faces")

    def grow(chain):
        for nxt in above[chain[-1]]:
            new = chain + (nxt,)
            record(new)
            grow(new)

    for v in by_height:
        record((v,))
        grow((v,))
    return SimplicialComplex([poset.labels[i] for i in proper], [frozenset(vpos[i] for i in f) for f in faces])


def carrier_phi_oracle(pk, p, q):
    """The carrier map's φ and f0 face by face: each chain maps to the target
    face of the union of its members' factors, each vertex to the barycenter
    of its factors."""
    phi = {}
    for face in p.faces:
        factors = pk.chain_factors([p.vertices[v] for v in face])
        phi[face] = q.face_from_labels(factors)
    f0 = {}
    for v, x in enumerate(p.vertices):
        factors = sorted(pk.factors(x), key=lambda g: g.sort_key())
        w = Fraction(1, len(factors))
        f0[v] = {q.vertex_index(g): w for g in factors}
    return phi, f0


def carriers_per_vertex_oracle(p, q):
    """The vertex carriers of the carrier map from ``p`` onto ``q``, vertex
    by vertex: the target vertices whose one block of more than one element
    is such a block of the source vertex, ordered by their labels' sort
    key.  The library built them so before it searched the block masks in
    bulk."""
    by_key = sorted(range(len(q.vertices)), key=lambda j: q.vertices[j].sort_key())
    place = dict(zip(by_key, range(len(by_key)))).__getitem__
    of_block = {}
    for j in by_key:
        blocks = q.vertices[j].nonsingleton_blocks()
        if len(blocks) == 1:
            of_block[blocks[0]] = j
    return tuple(tuple(sorted(map(of_block.__getitem__, x.nonsingleton_blocks()), key=place))
                 for x in p.vertices)


def by_size_order(faces):
    """Faces by size, then lexicographically by their sorted vertices: the
    order of a complex's faces of one dimension and of the carrier check."""
    return sorted(faces, key=lambda f: (len(f), tuple(sorted(f))))


def downward_closure_oracle(faces, max_faces=None):
    """The downward closure of a family of frozensets, by a depth-first
    walk that removes one vertex at a time: the set of its nonempty faces.
    Raises ResourceLimit, with the library's message, as it finds face
    ``max_faces + 1``.  The library closed families so before it closed
    rows of facets by column subsets."""
    from ktreesub import ResourceLimit

    out = set()
    stack = list(faces)
    while stack:
        f = stack.pop()
        if f in out or not f:
            continue
        out.add(f)
        if max_faces is not None and len(out) > max_faces:
            raise ResourceLimit(f"complex exceeds {max_faces} faces")
        if len(f) > 1:
            for v in f:
                g = f - {v}
                if g not in out:
                    stack.append(g)
    return out


def downward_closed_oracle(faces):
    """Whether ``f - {v}`` is in the family for every face f of two or more
    vertices and every v in f."""
    fs = set(faces)
    return all(f - {v} in fs for f in fs if len(f) > 1 for v in f)


def apply_permutation(K, relabel):
    """The image of K under a label-level action: the same faces over the
    relabelled vertex list."""
    from ktreesub import SimplicialComplex

    return SimplicialComplex([relabel(lab) for lab in K.vertices], K.faces)


def complex_eq_oracle(A, B):
    """Equality of complexes as sets of label sets: every face of B, mapped
    to A's vertex indices label by label, is a face of A, and the counts
    agree."""
    if not (
        type(B) is type(A)
        and set(A.vertices) == set(B.vertices)
        and len(A.faces) == len(B.faces)
    ):
        return False
    idx = [A.vertex_index(lab) for lab in B.vertices]
    return all(frozenset(idx[v] for v in f) in A.faces for f in B.faces)


def coboundary_columns_oracle(K, d, cleared):
    """δ_d of K as one {row: ±1} dict per d-face whose position is not in
    ``cleared``, in face order (:func:`by_size_order`); row r is the r-th
    (d+1)-face, and the entry of the column of ``g - {x}`` for the t-th
    smallest vertex x of g is (-1)^t."""
    faces = by_size_order(f for f in K.faces if len(f) == d + 1)
    cofaces = by_size_order(f for f in K.faces if len(f) == d + 2)
    cols = {f: {} for i, f in enumerate(faces) if i not in cleared}
    for r, g in enumerate(cofaces):
        for t, x in enumerate(sorted(g)):
            col = cols.get(g - {x})
            if col is not None:
                col[r] = -1 if t & 1 else 1
    return list(cols.values())


def _relabelling_maps(K, perm):
    """Vertex index map of relabelling K's partition labels by ``perm``:
    entry v is the index of the image of vertex v; None when an image is
    not a vertex."""
    out = []
    for x in K.vertices:
        try:
            out.append(K.vertex_index(x.permute(perm)))
        except KeyError:
            return None
    return out


def _ground_set(K):
    """The common ground-set size of K's labels, None unless they are all
    partitions of one ground set."""
    ms = {getattr(x, "m", None) if hasattr(x, "permute") else None for x in K.vertices}
    return ms.pop() if len(ms) == 1 else None


def generator_certificate_oracle(p, p_faces, q, q_faces, phi):
    """For each generator σ of S_m, (1 2) then (1 2 ... m), the source and
    target vertex maps when σ maps ``p_faces`` and ``q_faces`` into
    themselves and φ(σc) = σφ(c) for every c in ``p_faces``, one face at a
    time as frozensets; else None.  None also when φ is undefined on a face
    of ``p_faces`` or sends one outside ``q_faces``."""
    m = _ground_set(q)
    if m is None or _ground_set(p) != m or any(phi.get(c) not in q_faces for c in p_faces):
        return None
    gens = [(2, 1, *range(3, m + 1)), (*range(2, m + 1), 1)] if m >= 2 else []
    maps = []
    for perm in gens:
        src, tgt = _relabelling_maps(p, perm), _relabelling_maps(q, perm)
        if src is None or tgt is None:
            return None
        if any(frozenset(tgt[v] for v in f) not in q_faces for f in q_faces):
            return None
        for c in p_faces:
            sc = frozenset(src[v] for v in c)
            if sc not in p_faces or phi[sc] != frozenset(tgt[w] for w in phi[c]):
                return None
        maps.append((src, tgt))
    return maps


def orbit_roots_oracle(cm, bad, edited):
    """For each target face in :func:`by_size_order`, the position of the
    least face of its clean component, when the map passes
    :func:`generator_certificate_oracle`; each face its own root otherwise.
    A face is dirty, and its own component, when a source face that φ maps
    onto it has a vertex in ``bad`` or an uncommuting vertex: one of
    ``edited`` (the edited vertices the verifier found) with
    f0(σv) != σf0(v) for v it or its preimage under a generator σ.
    Components are grown face by face from their first face, along each
    generator and its inverse, between clean faces."""
    order = by_size_order(cm.q_faces)
    pos = {qf: i for i, qf in enumerate(order)}
    maps = generator_certificate_oracle(cm.p_complex, cm.p_faces, cm.q_complex, cm.q_faces, cm.phi)
    if not maps:
        return list(range(len(order)))

    def moved(v, tgt):
        coords = cm.f0.get(v)  # None for a vertex with no coordinates
        return None if coords is None else {tgt[w]: x for w, x in coords.items()}

    dirty = set(bad)
    for src, tgt in maps:
        preimage = {w: v for v, w in enumerate(src)}
        dirty |= {v for v in edited
                  if cm.f0.get(src[v]) != moved(v, tgt) or cm.f0.get(v) != moved(preimage[v], tgt)}
    clean = [True] * len(order)
    for c in cm.p_faces:
        if c & dirty:
            clean[pos[cm.phi[c]]] = False
    steps = [(lambda f, t=tgt: frozenset(t[v] for v in f)) for _, tgt in maps]
    steps += [(lambda f, t={w: v for v, w in enumerate(tgt)}: frozenset(t[v] for v in f)) for _, tgt in maps]
    roots = [None] * len(order)
    for i, qf in enumerate(order):
        if roots[i] is not None:
            continue
        roots[i] = i
        stack = [qf] if clean[i] else []
        while stack:
            f = stack.pop()
            for step in steps:
                g = step(f)
                if clean[pos[g]] and roots[pos[g]] is None:
                    roots[pos[g]] = i
                    stack.append(g)
    return roots


def check_vertices_oracle(cm, label, phi):
    """The vertex checks of ``subdivision._check_vertices`` as one loop in
    vertex order, a frozenset key per vertex: the failures, as ``to_json``
    dicts, and the vertices they touch.  ``label`` and ``phi`` are the
    face labeller and φ table the verifier makes (``phi.vertices``,
    ``phi.edited`` and ``phi.image``)."""
    from math import lcm

    def fail(check, detail, witness=None):
        return {"check": check, "detail": detail, **({} if witness is None else {"witness": witness})}

    failures, touched, seen = [], set(), {}  # seen: point -> the last vertex there
    for v, (u, edited) in enumerate(zip(phi.vertices, phi.edited.tolist())):
        if not edited:
            point = frozenset(cm.f0.carriers[u])
        elif (coords := cm.f0.get(u)) is None:
            failures.append(fail("vertex_map_total", f"no coordinates for vertex {u}"))
            touched.add(u)
            continue
        else:
            image = phi.image(v)
            if not (all(x > 0 for x in coords.values()) and frozenset(coords) == image):
                failures.append(fail("vertex_in_carrier_interior", f"vertex {cm.p_complex.vertices[u]!r} not "
                                     "strictly inside its carrier", label(image) if image else None))
                touched.add(u)
            common = lcm(*(x.denominator for x in coords.values()))
            if sum(x.numerator * (common // x.denominator) for x in coords.values()) != common:
                failures.append(fail("vertex_coordinates_sum", f"coordinates of vertex {u} do not sum to 1"))
                touched.add(u)
            barycenter = coords and all(x == Fraction(1, len(coords)) for x in coords.values())
            point = frozenset(coords) if barycenter else frozenset(coords.items())
        if point in seen:
            failures.append(fail("vertex_map_injective", f"vertices {seen[point]} and {u} coincide"))
            touched |= {seen[point], u}
        seen[point] = u
    return failures, touched


def eager_labels_oracle(cm):
    """The failures (as ``to_json`` dicts) and ``facet_volumes`` of
    ``subdivision.verify_carrier_map`` with every target face labelled up
    front and checked on its own: no orbit roots, no labels made on
    demand.  The labels are made from the vertex names here, as
    :func:`pairwise_carrier_oracle` makes them; the checks are the
    library's (its φ table, well-formedness pass and
    ``check_target_face``), each target face in :func:`by_size_order` with
    its cells in the source's row order."""
    from ktreesub import subdivision

    q = cm.q_complex
    names = [(x.sort_key(), x.text()) if hasattr(x, "text") else (str(x), str(x)) for x in q.vertices]

    def label(face):
        if face is None:
            return None
        inside = [i for i in face if 0 <= i < len(q.vertices)]
        stray = sorted(set(face) - set(inside))
        return "+".join([text for _, text in sorted(names[i] for i in inside)] + [f"#{i}" for i in stray])

    order = by_size_order(cm.q_faces)
    labels = [label(qf) for qf in order]
    phi = subdivision._PhiTable(cm)
    failures, bad = subdivision._check_well_formed(cm, label, phi)
    over = np.flatnonzero(phi.pos >= 0)
    faces = phi.source.faces_at(over)
    on_face, known = phi.cells(over, faces)
    cells = {}
    for t, face in zip(phi.pos[over].tolist(), faces):
        cells.setdefault(t, []).append(face)
    volumes = {}
    for t, qf in enumerate(order):
        face_failures, total = subdivision.check_target_face(cm, qf, cells.get(t, []), bad, label, on_face, known)
        failures += face_failures
        if total is not None:
            volumes[labels[t]] = str(total)
    return [f.to_json() for f in failures], volumes


def every_face_carrier_check(cm):
    """The failures (as ``to_json`` dicts) and ``facet_volumes`` of
    ``subdivision.verify_carrier_map`` with every target face checked on its
    own and every pair of drawn cells that the ridge certificate leaves
    tested by Fourier-Motzkin: for the length of the call the orbit roots
    are forced to each face itself and the pair shortcut
    (``subdivision._apart``) decides no pair."""
    from unittest import mock

    from ktreesub import subdivision

    def every_face(cm, phi, bad):
        return np.arange(phi.target.offsets[-1])

    with mock.patch.object(subdivision, "_orbit_roots", every_face), \
            mock.patch.object(subdivision, "_apart", lambda *args: False):
        res = subdivision.verify_carrier_map(cm)
        return [f.to_json() for f in res.failures], res.facet_volumes


def facets_oracle(K):
    """Maximal faces of K in lexicographic order, by testing each face,
    largest first, against every maximal face found so far."""
    maximal = []
    for f in sorted(K.faces, key=lambda f: (-len(f), tuple(sorted(f)))):
        if not any(f < g for g in maximal):
            maximal.append(f)
    return sorted(maximal, key=lambda f: tuple(sorted(f)))


def refinement_leq(rgs: np.ndarray) -> np.ndarray:
    """Boolean matrix: out[p, q] iff partition row p refines row q, the
    dense up-set oracle for ``enumerate_partitions``.

    Each row becomes a bitmask with one bit per pair i < j of positions, set
    when i and j share a block; p refines q iff the pairs of p are pairs of
    q, i.e. ``P[p] & ~P[q] == 0`` over ceil(C(m, 2) / 64) uint64 words,
    compared in blocks of rows.
    """
    n, m = rgs.shape
    iu, ju = np.triu_indices(m, 1)
    words = max(1, -(-len(iu) // 64))
    same = np.zeros((n, 64 * words), dtype=bool)
    same[:, : len(iu)] = rgs[:, iu] == rgs[:, ju]
    bits = np.packbits(same, axis=1, bitorder="little").view(np.uint64).T.copy()
    del same
    notbits = ~bits
    out = np.empty((n, n), dtype=bool)
    rows = max(1, (1 << 18) // (8 * max(n, 1)))
    # extra[p, q]: the pairs of p that q does not have, word by word
    extra = np.empty((min(rows, n), n), dtype=np.uint64)
    word = np.empty_like(extra) if words > 1 else None
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        e = extra[: hi - lo]
        np.bitwise_and(bits[0, lo:hi, None], notbits[0], out=e)
        for w in range(1, words):
            t = word[: hi - lo]
            np.bitwise_and(bits[w, lo:hi, None], notbits[w], out=t)
            e |= t
        np.equal(e, 0, out=out[lo:hi])
    return out


def refinement_loop_oracle(rgs):
    """The refinement matrix of RGS rows, one numpy row comparison per
    partition: p refines q iff each position's block in p sits inside one
    block of q, read off at the first position of that block."""
    import numpy as np

    n, m = rgs.shape
    # fo[p, c]: first position of block c in row p
    fo = np.zeros((n, m), dtype=np.int32)
    for c in range(m):
        eq = rgs == c
        fo[:, c] = np.where(eq.any(axis=1), eq.argmax(axis=1), 0)
    out = np.empty((n, n), dtype=bool)
    for p in range(n):
        cols = fo[p][rgs[p]]
        out[p] = (rgs == rgs[:, cols]).all(axis=1)
    return out


def equivariance_oracle(k, n, perms="all", seed=0):
    """``check_equivariance(k, n, perms, seed).to_json()`` with no generator
    certificate: every tested permutation relabels both complexes and φ, and
    they are compared as sets of labels, the chains in
    :func:`by_size_order`.  The complexes and φ come from the
    library's constructors, through ``subdivision._instance`` so that a
    test's patches reach them."""
    from itertools import permutations

    from ktreesub import subdivision
    from ktreesub.errors import MAX_FACES, MAX_POSET_ELEMENTS

    m, _, q, delta = subdivision._instance(k, n, MAX_POSET_ELEMENTS, MAX_FACES)
    phi = subdivision.carrier_map_from_parts(delta, q).phi
    sides = [("order complex", delta.label_faces()), ("k-tree complex", q.label_faces())]
    phi_labels = {
        frozenset(delta.vertices[v] for v in c): frozenset(q.vertices[w] for w in img)
        for c, img in phi.items()
    }
    if perms == "all":
        chosen = list(permutations(range(1, m + 1)))
    else:
        chosen = subdivision.sample_permutations(m, perms, seed)
    failures = []
    for pi in chosen:
        image = {x: x.permute(pi) for x in delta.vertices + q.vertices}

        def act(labels):
            return frozenset(image[x] for x in labels)

        broken = [side for side, faces in sides if any(act(f) not in faces for f in faces)]
        if broken:
            failures.append({"perm": list(pi), "detail": f"{broken[0]} not invariant"})
            continue
        for c in by_size_order(phi):
            labels = frozenset(delta.vertices[v] for v in c)
            if phi_labels[act(labels)] != act(phi_labels[labels]):
                failures.append(
                    {
                        "perm": list(pi),
                        "detail": "carrier map does not commute with the relabelling",
                        "chain": [delta.vertices[v].text() for v in sorted(c)],
                    }
                )
                break
    top = n - 3
    ranks = []
    for K in (delta, q):
        h = K.reduced_homology()
        ranks.append(h[top][0] if 0 <= top < len(h) else 0)
    return {
        "passed": not failures and ranks[0] == ranks[1],
        "permutations_checked": len(chosen),
        "top_rank": {"source": ranks[0], "target": ranks[1]},
        "failures": failures[:10],
    }


# The carrier check's geometry by Gaussian elimination on Fractions: the
# reference that the integer kernels of ktreesub.exact must match exactly,
# witness points included.


def fraction_mat_rank(rows) -> int:
    """Rank of a matrix of Fractions/ints by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    col = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def fraction_det(rows) -> Fraction:
    """Determinant of a square matrix of Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    sign = 1
    out = Fraction(1)
    for col in range(n):
        piv = None
        for i in range(col, n):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pv = m[col][col]
        out *= pv
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return out * sign


def fraction_affine_dim(points) -> int:
    """Dimension of the affine hull of a list of coordinate tuples."""
    if not points:
        return -1
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    return fraction_mat_rank(diffs)


def fraction_simplex_volume_ratio(points) -> Fraction:
    """Volume of the simplex spanned by d+1 points with barycentric
    coordinates in a d-face, relative to the volume of that face, with the
    sign of the orientation of the points in the order given.

    Points are tuples of d+1 coordinates summing to 1; dropping the first
    coordinate maps the face to the standard simplex, where the signed ratio
    is the determinant of the difference matrix."""
    d = len(points) - 1
    if d == 0:
        return Fraction(1)
    base = points[0][1:]
    return fraction_det([[a - b for a, b in zip(p[1:], base)] for p in points[1:]])


def fraction_solve_equalities(eqs, nvars):
    """Row reduce [A | b] rows meaning sum(A[i]*x) = b[i].

    Returns (expr, free) with expr[v] = (coeffs over free vars, constant) for
    every variable, or None when inconsistent."""
    rows = [[Fraction(x) for x in r] for r in eqs]
    pivots = {}
    r = 0
    for col in range(nvars):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots[col] = r
        r += 1
        if r == len(rows):
            break
    for i in range(len(rows)):
        if all(x == 0 for x in rows[i][:nvars]) and rows[i][nvars] != 0:
            return None
    free = [v for v in range(nvars) if v not in pivots]
    fpos = {v: t for t, v in enumerate(free)}
    expr = {}
    for v in range(nvars):
        if v in free:
            coeffs = [Fraction(0)] * len(free)
            coeffs[fpos[v]] = Fraction(1)
            expr[v] = (coeffs, Fraction(0))
        else:
            row = rows[pivots[v]]
            coeffs = [-row[f] for f in free]
            expr[v] = (coeffs, row[nvars])
    return expr, free


def fraction_fourier_motzkin(ineqs, nfree):
    """Feasibility of strict inequalities sum(c*x) + d > 0 over the reals.

    Returns a satisfying assignment (list of Fractions) or None."""
    system = [list(map(Fraction, c)) + [Fraction(d)] for c, d in ineqs]
    stack = []
    for v in range(nfree - 1, -1, -1):
        lowers, uppers, rest = [], [], []
        for row in system:
            c = row[v]
            if c > 0:
                lowers.append(row)  # x_v > -(rest)/c
            elif c < 0:
                uppers.append(row)  # x_v < -(rest)/(-c) i.e. bound above
            else:
                rest.append(row)
        stack.append((v, lowers, uppers))
        new = list(rest)
        for lo in lowers:
            for up in uppers:
                # lo: c1*x + r1 > 0 (c1>0); up: c2*x + r2 > 0 (c2<0)
                # combine: c1*r2 - c2*r1 ... eliminate x
                c1, c2 = lo[v], up[v]
                row = [c1 * b - c2 * a for a, b in zip(lo, up)]
                row[v] = Fraction(0)
                new.append(row)
        system = new
    for row in system:
        if row[-1] <= 0 and all(c == 0 for c in row[:-1]):
            return None
    # back-substitute, last-eliminated first
    assign = [Fraction(0)] * nfree
    for v, lowers, uppers in reversed(stack):
        lo_vals = []
        up_vals = []
        for row in lowers:
            val = row[-1] + sum(row[i] * assign[i] for i in range(nfree) if i != v)
            lo_vals.append(-val / row[v])
        for row in uppers:
            val = row[-1] + sum(row[i] * assign[i] for i in range(nfree) if i != v)
            up_vals.append(-val / row[v])
        lo = max(lo_vals) if lo_vals else None
        up = min(up_vals) if up_vals else None
        if lo is None and up is None:
            assign[v] = Fraction(0)
        elif lo is None:
            assign[v] = up - 1
        elif up is None:
            assign[v] = lo + 1
        else:
            assign[v] = (lo + up) / 2
    return assign


def fraction_open_simplices_intersect(pts_a, pts_b):
    """Common point of the relative interiors of two simplices, or None.

    Each simplex is a list of coordinate tuples (exact rationals); the
    interiors are the strictly positive convex combinations."""
    a, b = len(pts_a), len(pts_b)
    dim = len(pts_a[0])
    nvars = a + b
    eqs = []
    row = [Fraction(1)] * a + [Fraction(0)] * b + [Fraction(1)]
    eqs.append(row)
    row = [Fraction(0)] * a + [Fraction(1)] * b + [Fraction(1)]
    eqs.append(row)
    for c in range(dim):
        row = [Fraction(pts_a[i][c]) for i in range(a)]
        row += [-Fraction(pts_b[j][c]) for j in range(b)]
        row.append(Fraction(0))
        eqs.append(row)
    solved = fraction_solve_equalities(eqs, nvars)
    if solved is None:
        return None
    expr, free = solved
    ineqs = []
    for v in range(nvars):
        coeffs, const = expr[v]
        ineqs.append((coeffs, const))
    if not free:
        if all(const > 0 for _, const in ineqs):
            weights = [expr[i][1] for i in range(a)]
        else:
            return None
    else:
        assign = fraction_fourier_motzkin(ineqs, len(free))
        if assign is None:
            return None
        weights = [
            expr[i][1] + sum(c * x for c, x in zip(expr[i][0], assign)) for i in range(a)
        ]
    point = tuple(
        sum(w * Fraction(pts_a[i][c]) for i, w in enumerate(weights))
        for c in range(dim)
    )
    return point


# ---------------------------------------------------------------------------
# dense order oracles: the poset code as it was on an n x n boolean matrix
# ---------------------------------------------------------------------------


def dense_partition_order(pk):
    """The refinement matrix of ``pk``'s elements, in its element order, by
    :func:`refinement_leq` on their restricted growth strings."""
    rgs = np.array(
        [[next(c for c, b in enumerate(x.blocks) if i in b) for i in range(1, pk.m + 1)]
         for x in pk.poset.labels],
        dtype=np.int8,
    ).reshape(pk.poset.n, pk.m)
    return refinement_leq(rgs)


def dense_heights(leq):
    """Longest chain below each element: each element, taken by the number
    of elements below it, is one above the highest element strictly below."""
    n = len(leq)
    h = np.zeros(n, dtype=np.int64)
    for i in np.argsort(leq.sum(axis=0), kind="stable"):
        below = np.flatnonzero(leq[:, i])
        below = below[below != i]
        if below.size:
            h[i] = h[below].max() + 1
    return h


def dense_covers(leq):
    """Cover pairs, row by row: the elements above i that lie above no
    other element above i."""
    lt = leq & ~np.eye(len(leq), dtype=bool)
    out = []
    for i in range(len(leq)):
        above = lt[i]
        out += [(i, int(j)) for j in np.flatnonzero(above & ~lt[above].any(axis=0))]
    return out


def dense_maximal(leq, subset):
    s = sorted(set(subset))
    return [i for i in s if not any(j != i and leq[i, j] for j in s)]


def dense_minimal(leq, subset):
    s = sorted(set(subset))
    return [i for i in s if not any(j != i and leq[j, i] for j in s)]


def dense_upper_bounds(leq, subset):
    return [int(i) for i in np.flatnonzero(leq[list(subset)].all(axis=0))]


def dense_count_extensions(leq, subset, limit):
    """Linear extensions of ``subset`` counted by depth-first search over
    the dense order, stopping at ``limit``."""
    items = list(subset)
    found = 0

    def grow(placed, left):
        nonlocal found
        if not left:
            found += 1
            return
        for i in left:
            if found >= limit:
                return
            if not any(j != i and leq[j, i] for j in left):
                grow(placed + [i], [j for j in left if j != i])

    grow([], items)
    return min(found, limit)


def brute_count_extensions(leq, subset, limit):
    """Linear extensions of ``subset`` under the dense order ``leq``,
    counted over every permutation of it, at most ``limit``."""
    from itertools import permutations

    items = list(subset)
    count = sum(all(not leq[b, a] for t, a in enumerate(perm) for b in perm[t + 1:])
                for perm in permutations(items))
    return min(count, limit)


def dense_chain_count(leq, proper, limit):
    """The chains of ``proper`` under the dense order, as sets, or None once
    there are more than ``limit``."""
    above = {v: [w for w in proper if w != v and leq[v, w]] for v in proper}
    out = []

    def grow(chain):
        for w in above[chain[-1]]:
            if len(out) > limit:
                return
            out.append(frozenset(chain + (w,)))
            grow(chain + (w,))

    for v in proper:
        out.append(frozenset([v]))
        grow((v,))
    return None if len(out) > limit else set(out)
