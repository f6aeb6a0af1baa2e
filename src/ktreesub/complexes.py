"""Abstract simplicial complexes on labelled vertices: f-vectors, stellar
subdivision, reduced integer homology via Smith normal form, and
label-level group actions."""

from __future__ import annotations

from . import _kernels as kernels
from .errors import MAX_FACES, FaceNotPresent, ResourceLimit


class SimplicialComplex:
    """Family of nonempty faces over an indexed vertex list, downward closed.

    Faces are stored as frozensets of vertex indices; the empty face is
    implicit.  Complexes are immutable.  With ``close_downward`` the faces
    are closed under taking sub-faces, and the closure raises
    :class:`ResourceLimit` as it makes face ``max_faces + 1``.
    """

    def __init__(self, vertex_labels, faces, close_downward=False, max_faces=None):
        self.vertices = list(vertex_labels)
        self._index = {lab: i for i, lab in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise ValueError("vertex labels must be pairwise distinct")
        fs = {frozenset(f) for f in faces}
        fs.discard(frozenset())
        if close_downward:
            fs = _downward_closure(fs, max_faces)
        self.faces = frozenset(fs)
        by_dim = {}
        touched = set()
        for f in self.faces:
            by_dim.setdefault(len(f) - 1, []).append(f)
            touched |= f
        for d in by_dim:
            by_dim[d].sort(key=lambda f: tuple(sorted(f)))
        self._by_dim = by_dim
        if not close_downward:
            for f in self.faces:
                if len(f) > 1:
                    for v in f:
                        if f - {v} not in self.faces:
                            raise ValueError("face family is not downward closed")
        if touched != set(range(len(self.vertices))):
            missing = set(range(len(self.vertices))) - touched
            outside = touched - set(range(len(self.vertices)))
            if outside:
                raise ValueError(f"vertex indices {sorted(outside, key=repr)} are out of range")
            raise ValueError(f"vertices {sorted(missing)} appear in no face")

    @classmethod
    def from_label_faces(cls, faces, close_downward=True):
        """Build from faces given as iterables of labels; the vertex list is
        collected in sorted label order."""
        faces = [tuple(f) for f in faces]
        labels = sorted({v for f in faces for v in f}, key=_label_key)
        idx = {lab: i for i, lab in enumerate(labels)}
        return cls(labels, [frozenset(idx[v] for v in f) for f in faces], close_downward)

    @classmethod
    def empty(cls):
        return cls([], [])

    # ------------------------------------------------------------------
    # basic invariants
    # ------------------------------------------------------------------

    def dimension(self) -> int:
        return max(self._by_dim) if self._by_dim else -1

    def f_vector(self) -> tuple:
        d = self.dimension()
        return tuple(len(self._by_dim.get(i, ())) for i in range(d + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * fi for i, fi in enumerate(self.f_vector()))

    def facets(self):
        """Maximal faces in lexicographic order.  The face set is downward
        closed, so a face is maximal iff it is ``f - {v}`` for no face f."""
        covered = {f - {v} for f in self.faces if len(f) > 1 for v in f}
        return sorted((f for f in self.faces if f not in covered), key=lambda f: tuple(sorted(f)))

    def is_pure(self) -> bool:
        if not self.faces:
            return True
        d = self.dimension()
        return all(len(f) - 1 == d for f in self.facets())

    def faces_of_dim(self, d: int):
        return list(self._by_dim.get(d, ()))

    def has_face_labels(self, labels) -> bool:
        try:
            f = frozenset(self._index[l] for l in labels)
        except KeyError:
            return False
        return f in self.faces

    def face_from_labels(self, labels):
        return frozenset(self._index[l] for l in labels)

    def vertex_index(self, label) -> int:
        return self._index[label]

    # ------------------------------------------------------------------
    # stellar subdivision
    # ------------------------------------------------------------------

    def stellar_subdivide(self, face_labels, new_label=None) -> "SimplicialComplex":
        """Stellar subdivision at the face with the given vertex labels.

        Subdividing a vertex is the identity.  The new vertex is labelled by
        ``new_label`` (default: the tuple of the face's labels in sorted
        order).
        """
        state = MutableComplex(self)
        if not state.stellar_subdivide(face_labels, new_label):
            return self
        return state.freeze()

    # ------------------------------------------------------------------
    # homology
    # ------------------------------------------------------------------

    def reduced_homology(self):
        """Per-degree reduced integer homology: list of (betti, torsion
        coefficients) for degrees 0..dim.

        Betti number d is n_d - rank ∂_d - rank ∂_{d+1}, and the torsion of
        H̃_d is the invariant factors > 1 of ∂_{d+1}.  rank ∂_0 = 1.  A
        graph's incidence matrix is totally unimodular, so ∂_1 has no
        factor > 1, and its rank is #vertices - #components, from a union-find
        over the edges.  For d = 1 .. dim-1 the invariant factors of ∂_{d+1}
        are those of the coboundary δ_d = ∂_{d+1}ᵀ, reduced by
        :func:`~ktreesub._kernels.smith_reduce` over the d-faces that are not
        *cleared* (Chen and Kerber's twist, run on coboundaries as de Silva,
        Morozov and Vejdemo-Johansson recommend).

        Why clearing is exact over ℤ: each unit-pivot column z that the
        reduction of δ_{d-1} makes is a combination of its columns, so it is
        a coboundary and δ_d z = 0.  z is ±1 at its pivot row r, a d-face,
        and 0 on the pivot rows of the pivot columns made before it.  So
        these cocycles, against their pivot rows, form a triangular block
        with ±1 on the diagonal, and replacing the basis cochain of each
        pivot row r by its z is a unimodular change of basis of C^d.  In the
        new basis the column of δ_d at r is δ_d z = 0: dropping the pivot
        rows of δ_{d-1} from the columns of δ_d changes neither its rank nor
        its invariant factors.  In degree 1 the spanning-forest edges are
        the cleared faces: with each tree rooted, the indicator of the
        subtree below a vertex v has coboundary ±1 on the edge from v to its
        parent and 0 on every other forest edge.
        """
        dim = self.dimension()
        if dim < 0:
            return []
        sizes = [len(self._by_dim[d]) for d in range(dim + 1)]
        forest = _spanning_forest(self._by_dim.get(1, ()), sizes[0])
        # ranks[d] = rank ∂_d, d = 0 .. dim+1
        ranks = [1, len(forest)] + [0] * dim
        torsion = [()] * (dim + 1)
        cleared = set(forest)
        for d in range(1, dim):
            pivots, factors = kernels.smith_reduce(self._coboundary_columns(d, cleared))
            ranks[d + 1] = len(pivots) + len(factors)
            torsion[d] = tuple(x for x in factors if x > 1)
            cleared = set(pivots)
        return [(sizes[d] - ranks[d] - ranks[d + 1], torsion[d]) for d in range(dim + 1)]

    def _coboundary_columns(self, d: int, cleared):
        """δ_d as sparse columns: one {row: ±1} dict per d-face whose
        position is not in ``cleared``, in face order; row r is the r-th
        (d+1)-face."""
        cols = {f: {} for i, f in enumerate(self._by_dim[d]) if i not in cleared}
        for r, g in enumerate(self._by_dim.get(d + 1, ())):
            for t, x in enumerate(sorted(g)):
                col = cols.get(g - {x})
                if col is not None:
                    col[r] = -1 if t & 1 else 1
        return list(cols.values())

    # ------------------------------------------------------------------
    # comparisons and actions
    # ------------------------------------------------------------------

    def label_faces(self):
        """Faces as frozensets of labels (canonical comparison form)."""
        return frozenset(frozenset(self.vertices[i] for i in f) for f in self.faces)

    def __eq__(self, other):
        """Same vertex labels and same faces as sets of labels, compared
        through the map from ``other``'s vertex indices to this one's."""
        if not (
            isinstance(other, SimplicialComplex)
            and self._index.keys() == other._index.keys()
            and len(self.faces) == len(other.faces)
        ):
            return False
        idx = [self._index[lab] for lab in other.vertices]
        return all(frozenset(map(idx.__getitem__, f)) in self.faces for f in other.faces)

    def __hash__(self):
        return hash(self.label_faces())

    def apply_permutation(self, relabel) -> "SimplicialComplex":
        """Image under a label-level action; the face structure is carried
        along vertex by vertex."""
        new_labels = [relabel(l) for l in self.vertices]
        return SimplicialComplex(new_labels, self.faces)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json(self, label_fn=None):
        fn = label_fn if label_fn is not None else (lambda x: x)
        return {
            "vertices": [fn(l) for l in self.vertices],
            "facets": sorted([sorted(f) for f in self.facets()]),
        }

    @classmethod
    def from_json(cls, data, label_fn=None, max_faces=MAX_FACES):
        """Inverse of :meth:`to_json`.  Any other shape raises
        ``ValueError``: a missing key, ``vertices`` or ``facets`` not a list,
        a facet not a list of ``int`` vertex indices (bools and floats are
        not indices) or one out of range, labels unhashable or repeated, or
        a vertex in no facet.

        The facets are closed downward, and a facet of d vertices has
        2^d - 1 faces: one with more than ``max_faces`` is refused before it
        is expanded, and the closure stops at face ``max_faces + 1``, both
        with :class:`ResourceLimit`."""
        if not (
            isinstance(data, dict)
            and isinstance(data.get("vertices"), list)
            and isinstance(data.get("facets"), list)
            and all(isinstance(f, list) and all(type(v) is int for v in f) for f in data["facets"])
        ):
            raise ValueError("expected a list of vertices and facets as lists of integer indices")
        fn = label_fn if label_fn is not None else (lambda x: x)
        labels = [fn(l) for l in data["vertices"]]
        try:
            hash(tuple(labels))
        except TypeError:
            raise ValueError("vertex labels must be hashable") from None
        facets = [frozenset(f) for f in data["facets"]]
        widest = max(map(len, facets), default=0)
        if max_faces is not None and (1 << widest) - 1 > max_faces:
            raise ResourceLimit(f"a facet of {widest} vertices has more than {max_faces} faces")
        return cls(labels, facets, close_downward=True, max_faces=max_faces)

    def __repr__(self):
        return f"SimplicialComplex(f={self.f_vector()})"


class MutableComplex:
    """A complex under a sequence of stellar subdivisions, edited in place.

    Keeps the face set, the vertex labels and, per vertex, the faces through
    it, so that a subdivision rewrites only the star of the subdivided face.
    Nothing is validated until :meth:`freeze` builds a
    :class:`SimplicialComplex`.
    """

    def __init__(self, K: SimplicialComplex):
        self.vertices = list(K.vertices)
        self._index = dict(K._index)
        self.faces = set(K.faces)
        self._incident = [set() for _ in self.vertices]
        for f in self.faces:
            for v in f:
                self._incident[v].add(f)

    def stellar_subdivide(self, face_labels, new_label=None) -> bool:
        """Subdivide at the face with the given vertex labels, as
        :meth:`SimplicialComplex.stellar_subdivide` does; False (and no
        change) when the face is a vertex."""
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
        proper_subsets = _all_subsets(sigma) - {sigma}
        for gamma in star:
            rest = gamma - sigma
            for delta in proper_subsets:
                f = rest | delta | {v}
                self.faces.add(f)
                for u in f:
                    self._incident[u].add(f)
        return True

    def freeze(self) -> SimplicialComplex:
        return SimplicialComplex(self.vertices, self.faces)


def _spanning_forest(edges, n_vertices):
    """Positions of the edges, taken in order, that join two components: a
    spanning forest, found by union-find with path halving."""
    parent = list(range(n_vertices))
    forest = []
    for i, edge in enumerate(edges):
        a, b = edge
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            forest.append(i)
    return forest


def _downward_closure(faces, max_faces=None):
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


def _all_subsets(s):
    s = sorted(s)
    out = [frozenset()]
    for x in s:
        out += [f | {x} for f in out]
    return set(out)


def _label_key(label):
    """Deterministic sort key for mixed label types."""
    return (type(label).__name__, repr(label) if not isinstance(label, (int, str)) else label)
