"""Abstract simplicial complexes on labelled vertices: f-vectors, stellar
subdivision, reduced integer homology via Smith normal form, and
label-level group actions."""

from __future__ import annotations

from . import _kernels as kernels
from .errors import FaceNotPresent


class SimplicialComplex:
    """Family of nonempty faces over an indexed vertex list, downward closed.

    Faces are stored as frozensets of vertex indices; the empty face is
    implicit.  Complexes are immutable.
    """

    def __init__(self, vertex_labels, faces, close_downward=False):
        self.vertices = list(vertex_labels)
        self._index = {lab: i for i, lab in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise ValueError("vertex labels must be pairwise distinct")
        fs = {frozenset(f) for f in faces}
        fs.discard(frozenset())
        if close_downward:
            fs = _downward_closure(fs)
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

    def boundary_matrix(self, d: int):
        """Boundary map from d-faces to (d-1)-faces as sparse columns: one
        {row index: ±1} dict per d-face; d = 0 gives the augmentation, one
        {0: 1} per vertex."""
        if d == 0:
            return [{0: 1} for _ in self._by_dim.get(0, ())]
        rpos = {f: i for i, f in enumerate(self._by_dim.get(d - 1, ()))}
        return [
            {rpos[f - {x}]: (-1) ** t for t, x in enumerate(sorted(f))}
            for f in self._by_dim.get(d, ())
        ]

    def reduced_homology(self):
        """Per-degree reduced integer homology: list of (betti, torsion
        coefficients) for degrees 0..dim."""
        dim = self.dimension()
        if dim < 0:
            return []
        ranks = {dim + 1: 0}
        torsion_by_deg = {}
        for d in range(dim + 1):
            n_rows = len(self._by_dim.get(d - 1, ())) if d else 1
            diag = kernels.snf_diagonal(self.boundary_matrix(d), n_rows)
            ranks[d] = sum(1 for x in diag if x != 0)
            torsion_by_deg[d - 1] = [x for x in diag if x > 1]
        out = []
        for d in range(dim + 1):
            n_d = len(self._by_dim.get(d, ()))
            betti = n_d - ranks[d] - ranks[d + 1]
            out.append((betti, tuple(torsion_by_deg.get(d, ()))))
        return out

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
    def from_json(cls, data, label_fn=None):
        fn = label_fn if label_fn is not None else (lambda x: x)
        labels = [fn(l) for l in data["vertices"]]
        return cls(labels, [frozenset(f) for f in data["facets"]], close_downward=True)

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


def _downward_closure(faces):
    out = set()
    stack = list(faces)
    while stack:
        f = stack.pop()
        if f in out or not f:
            continue
        out.add(f)
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


def check_boundary_squares_to_zero(K: SimplicialComplex) -> bool:
    """d∘d = 0 for every consecutive boundary pair (test oracle hook)."""
    for d in range(0, K.dimension()):
        a = K.boundary_matrix(d)
        for col in K.boundary_matrix(d + 1):
            image = {}
            for r, v in col.items():
                for s, w in a[r].items():
                    image[s] = image.get(s, 0) + v * w
            if any(image.values()):
                return False
    return True
