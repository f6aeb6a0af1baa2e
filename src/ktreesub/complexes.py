"""Abstract simplicial complexes on labelled vertices: f-vectors, stellar
subdivision, reduced integer homology by coreductions on the face rows
(a Smith normal form only for what they leave in adjacent dimensions), and
label-level group actions.

A complex stores its faces as :class:`FaceRows`: per dimension d, one
lexicographically sorted int32 array of vertex-index rows.  A face is found
by binary search on one search key per row: the row packed into an int64
by mixed radix where it fits, its big-endian bytes where it does not.
The closure check, facets, equality and the coboundary columns are such
searches.  A complex built from rows (:meth:`SimplicialComplex.from_rows`,
as every complex is) has no frozenset per face until its ``faces`` view is
read.  One kernel, :func:`closure_rows`, closes rows of facets downward,
for ``close_downward``, ``from_json`` and the stellar replay.  The replay
(:class:`FacetReplay`) holds maximal faces only, as one int32 row array
per width with a mask of the rows alive, and applies a run of steps with
disjoint stars in one pass over the rows."""

from __future__ import annotations

from functools import cached_property
from heapq import merge
from itertools import chain, combinations

import numpy as np

from . import _kernels as kernels
from .errors import MAX_FACES, FaceNotPresent, ResourceLimit
from .poset import _gather

_ROW = np.dtype(">i4")
_CHUNK = 1 << 20  # rows read at a time by the closure check, made at a time by closure_rows; entries per replay scan


class FaceRows:
    """A family of faces as one sorted array of rows per dimension.

    ``rows[d]`` has shape (n_d, d+1): the faces of d+1 vertices, each as its
    vertex indices in increasing order, big-endian int32, with the rows in
    lexicographic order.  A face is found by binary search on the rows'
    search keys (:func:`_search_keys`, in one radix for all dimensions),
    made per dimension on the first search and kept.  A face's *position*
    is its place in the concatenation of the rows: by size, then
    lexicographically; ``offsets[d]`` is the position of the first face of
    dimension d.  The family holds rows only: a reader that needs faces as
    frozensets makes them from the rows (:meth:`faces_at`).

    The faces must be nonempty sets of integers in 0 .. 2**31 - 1.  The
    family need not be downward closed, and a size below the largest may
    have no face.
    """

    def __init__(self, faces):
        groups = {}
        for f in faces:
            groups.setdefault(len(f), []).append(f)
        rows = []
        for size in range(1, max(groups, default=0) + 1):
            group = groups.get(size, [])
            level = np.fromiter(chain.from_iterable(group), dtype=_ROW, count=size * len(group)).reshape(-1, size)
            level.sort(axis=1)
            # stable sorts here and below: the default one maps in its
            # vector kernels, about 0.4 MB of resident memory on first use
            rows.append(level[_search_keys(level, _radix_bits([level]))[0].argsort(kind="stable")])
        self._set_rows(rows)

    @classmethod
    def from_rows(cls, rows):
        """The family whose faces of dimension d are the rows of ``rows[d]``,
        a 2-d integer array of d+1 columns (empty dimensions at the top are
        dropped).  ``ValueError`` for any other shape, for an entry that
        is no int32 and unless every row increases strictly and each
        dimension's rows do, lexicographically: the order the searches
        need, with no face twice."""
        rows = [_as_rows(level, d) for d, level in enumerate(rows)]
        while rows and not len(rows[-1]):
            rows.pop()
        self = cls.__new__(cls)
        self._set_rows(rows)
        if not all(map(self._strictly_increasing, range(len(rows)))):
            raise ValueError("face rows are not strictly increasing")
        return self

    def _set_rows(self, rows):
        self.rows = rows
        self.offsets = [0, *np.cumsum([len(level) for level in rows], dtype=np.int64).tolist()]
        self._key_levels = None  # per dimension: its search keys and whether packed, once made

    def _keys_of(self, d):
        """The search keys of dimension d and whether they are packed, in
        the radix of ``_bits`` bits."""
        if self._key_levels is None:
            self._bits = _radix_bits(self.rows)
            self._key_levels = [None] * len(self.rows)
        if self._key_levels[d] is None:
            self._key_levels[d] = _search_keys(self.rows[d], self._bits)
        return self._key_levels[d]

    def faces_at(self, positions):
        """The faces at ``positions`` (an integer array), as new frozensets
        of vertex indices, in that order, made from the rows one dimension
        at a time and not kept."""
        positions = np.asarray(positions, dtype=np.intp)
        if not len(positions):
            return []
        dims = np.searchsorted(self.offsets, positions, side="right") - 1
        out = np.empty(len(positions), dtype=object)
        for d in range(dims.min(), dims.max() + 1):
            at = dims == d
            out[at] = _frozensets(self.rows[d][positions[at] - self.offsets[d]])
        return out.tolist()

    def _strictly_increasing(self, d) -> bool:
        """Whether every row of dimension d increases strictly, and the rows
        do, lexicographically: as their packed keys do where they are
        packed, else column by column, among the pairs of consecutive rows
        equal so far."""
        rows = self.rows[d]
        if (rows[:, 1:] <= rows[:, :-1]).any():
            return False
        keys, packed = self._keys_of(d)
        if packed:
            return bool((keys[1:] > keys[:-1]).all())
        tied = np.ones(max(len(rows) - 1, 0), dtype=bool)
        for column in rows.T:
            if (tied & (column[1:] < column[:-1])).any():
                return False
            tied &= column[1:] == column[:-1]
        return not tied.any()

    def find(self, d, rows):
        """Position within dimension ``d`` of each row of ``rows`` (vertex
        indices in increasing order, d+1 columns); -1 for a row that is no
        face."""
        rows = np.asarray(rows)
        if d >= len(self.rows) or not len(self.rows[d]) or not len(rows):
            return np.full(len(rows), -1, dtype=np.intp)
        keys, packed = self._keys_of(d)
        lo, hi = (0, (1 << self._bits) - 1) if packed else (-(1 << 31), (1 << 31) - 1)
        valid = True
        if rows.min() < lo or rows.max() > hi:
            # a row with an entry past the keys' range is no face: zeroed, it is searched for nothing
            valid = ((rows >= lo) & (rows <= hi)).all(axis=1)
            rows = np.where(valid[:, None], rows, 0)
        return _search(keys, _packed(rows, self._bits) if packed else _keys(rows), valid)

    def positions(self, faces):
        """The position of each of ``faces`` (a list of sets of vertex
        indices), -1 for one that is no face of the family."""
        out = np.full(len(faces), -1, dtype=np.intp)
        sizes = np.fromiter(map(len, faces), dtype=np.intp, count=len(faces))
        for size in set(sizes.tolist()) & set(range(1, len(self.rows) + 1)):
            at = np.flatnonzero(sizes == size)
            rows = np.fromiter(chain.from_iterable(map(faces.__getitem__, at.tolist())), dtype=np.int64,
                               count=size * len(at)).reshape(-1, size)
            rows.sort(axis=1, kind="stable")
            found = self.find(size - 1, rows)
            out[at] = np.where(found < 0, -1, found + self.offsets[size - 1])
        return out

    def facet_positions(self, d, at=slice(None)):
        """(n, d+1) array for the faces of dimension d at places ``at``
        within it (a slice or an integer array; all of them by default):
        entry (i, t) is the position within dimension d-1 of the i-th of
        them without its t-th vertex, -1 when that is no face."""
        return np.stack(list(self._facet_columns(d, at)), axis=1)

    def _facet_columns(self, d, at):
        """For t = 0 .. d, the positions within dimension d-1 of the faces of
        dimension d at places ``at`` (a slice or an integer array) without
        their t-th vertex, -1 where that is no face.  Where dimension d's
        keys are packed, so are those of d-1, which has one column less,
        and a facet's key is its face's key with the digit of the vertex cut
        out."""
        keys, packed = self._keys_of(d)
        below = self._keys_of(d - 1)[0] if packed and len(self.rows[d - 1]) else None
        for t in range(d + 1):
            if below is not None:
                after = self._bits * (d - t)  # the bits of the vertices after the t-th
                part = keys[at]
                yield _search(below, (part >> (after + self._bits)) << after | part & ((1 << after) - 1))
            else:
                yield self.find(d - 1, np.delete(self.rows[d][at], t, axis=1))

    def is_closed(self) -> bool:
        """Whether every face's facets are faces, so that the family is
        downward closed; read in parts of ``_CHUNK`` rows."""
        for d in range(1, len(self.rows)):
            for lo in range(0, len(self.rows[d]), _CHUNK):
                if any((column < 0).any() for column in self._facet_columns(d, slice(lo, lo + _CHUNK))):
                    return False
        return True

    def image(self, vertex_map):
        """The position of the image of every face, in position order, under
        the injective vertex map ``vertex_map`` (an integer array, entry v
        the image of vertex v); -1 where the image is no face.  Read in parts
        of ``_CHUNK`` rows."""
        out = np.full(self.offsets[-1], -1, dtype=np.intp)
        for d, rows in enumerate(self.rows):
            for lo in range(0, len(rows), _CHUNK):
                img = vertex_map[rows[lo:lo + _CHUNK]]
                img.sort(axis=1)
                at = self.find(d, img)
                out[self.offsets[d] + lo + np.flatnonzero(at >= 0)] = at[at >= 0] + self.offsets[d]
        return out


def closure_rows(facets, max_faces=None):
    """The downward closure of ``facets``, one array of increasing rows of w
    vertex indices per width w = 1, 2, ... (repeats and rows inside others
    allowed), as the rows per dimension that :meth:`FaceRows.from_rows`
    takes.  The vertices are counted; the faces of w ≥ 2 vertices are the
    w-column subsets of the rows of w or more, made in batches of about
    ``_CHUNK`` rows, each merged into those found so far: sorted by search
    key, a repeated key dropped.  :class:`ResourceLimit` is raised once the
    distinct faces pass ``max_faces``, before any array holds more than
    ``max_faces`` rows plus one batch."""
    bits = _radix_bits(facets)
    out = []

    def distinct(parts):
        level = np.concatenate(parts, dtype=_ROW)
        keys = _search_keys(level, bits)[0]
        order = keys.argsort(kind="stable")
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[order[1:]] != keys[order[:-1]]
        level = level[order[first]]
        if max_faces is not None and sum(map(len, out)) + len(level) > max_faces:
            raise ResourceLimit(f"complex exceeds {max_faces} faces")
        return level

    for w in range(1, len(facets) + 1):
        if w == 1:  # the vertices, counted
            entries = np.concatenate([np.zeros(0, dtype=_ROW), *(rows.ravel() for rows in facets)])
            parts = [np.flatnonzero(np.bincount(entries)).astype(_ROW)[:, None]]
        else:
            parts, size = [np.zeros((0, w), dtype=_ROW)], 0
            for width, rows in enumerate(facets[w - 1:], w):
                for columns in combinations(range(width), w) if len(rows) else ():
                    parts.append(rows if width == w else rows[:, columns])
                    size += len(rows)
                    if size >= _CHUNK:
                        parts, size = [distinct(parts)], 0
        out.append(distinct(parts))
    return out


def _frozensets(level):
    """The rows of a 2-d array as frozensets: from the columns as lists,
    zipped, so that no list is made per row (that many new containers set
    off collections over every live object)."""
    return list(map(frozenset, zip(*level.T.tolist())))


def _as_rows(level, d):
    """``level`` as a contiguous big-endian int32 array of rows of d+1
    vertex indices; ``ValueError`` when it is not 2-d with d+1 columns or
    has an entry past int32."""
    level = np.asarray(level)
    if level.ndim != 2 or level.shape[1] != d + 1:
        raise ValueError(f"the rows of dimension {d} need {d + 1} columns")
    if level.size and not np.issubdtype(level.dtype, np.integer):
        raise ValueError("face rows must hold integers")
    bounds = np.iinfo(np.int32)
    if not np.can_cast(level.dtype, np.int32) and level.size and (level.min() < bounds.min or level.max() > bounds.max):
        raise ValueError("a vertex index does not fit int32")
    return np.ascontiguousarray(level, dtype=_ROW)


def _radix_bits(levels):
    """The bit length b of the largest entry of the 2-d integer arrays
    ``levels`` (at least 1), so that every entry is a digit of radix 2**b;
    None when an entry is negative."""
    levels = [level for level in levels if level.size]
    if any(level.min() < 0 for level in levels):
        return None
    return max(max((int(level.max()) for level in levels), default=0).bit_length(), 1)


def _search_keys(rows, bits):
    """One search key per row of a 2-d integer array, ordered as the rows
    are lexicographically, and whether they are packed: a row of w entries
    in radix 2**bits packs into one int64 when w*bits <= 63
    (:func:`_packed`); otherwise, or with no bits, the keys are the rows'
    big-endian bytes (:func:`_keys`).  A query must be packed with the
    same bits."""
    if bits is not None and rows.shape[1] * bits <= 63:
        return _packed(rows, bits), True
    return _keys(rows), False


def _search(keys, query, found=True):
    """The place of each of ``query`` among the sorted ``keys``, -1 for one
    that is not there or where ``found`` is False."""
    at = np.minimum(keys.searchsorted(query), len(keys) - 1)
    hit = keys[at] == query
    return np.where(hit if found is True else hit & found, at, -1)


def _packed(rows, bits):
    """Each row of a 2-d array of entries in 0 .. 2**bits - 1 as one int64:
    its entries as the digits of radix 2**bits, the first the most
    significant."""
    out = np.zeros(len(rows), dtype=np.int64)
    for column in np.asarray(rows).T:
        out <<= bits
        out |= column
    return out


def _keys(rows):
    """The rows of a 2-d integer array as big-endian int32 byte strings, one
    void scalar per row."""
    rows = np.ascontiguousarray(rows, dtype=_ROW)
    return rows.view(np.dtype((np.void, _ROW.itemsize * rows.shape[1]))).ravel()


class SimplicialComplex:
    """Family of nonempty faces over an indexed vertex list, downward closed.

    The faces are stored as :class:`FaceRows`; the empty face is implicit.
    Complexes are immutable.  ``SimplicialComplex(labels, faces)`` takes
    the faces as sets of vertex indices; a vertex index outside the vertex
    list is refused with ``ValueError``.  With ``close_downward`` they are
    closed downward by :func:`closure_rows`, which raises
    :class:`ResourceLimit` past ``max_faces``.  The rows then go through
    the checks of :meth:`from_rows`, which takes the rows themselves, but
    the closure check when :func:`closure_rows` made them.
    :attr:`faces`, the faces as frozensets, is a view built on first read;
    the invariants, the homology, equality, the hash and :meth:`to_json`
    read the rows alone.
    """

    def __init__(self, vertex_labels, faces, close_downward=False, max_faces=MAX_FACES):
        self._set_vertices(vertex_labels)
        fs = {frozenset(f) for f in faces}
        fs.discard(frozenset())
        touched = set().union(*fs)
        # the range is checked before any row is made: an index past int32
        # would not fit a row, or would be truncated into one
        outside = touched.difference(range(len(self.vertices)))
        if outside:
            number = {v: i for i, v in enumerate(touched)}
            if not (close_downward or FaceRows([frozenset(map(number.__getitem__, f)) for f in fs]).is_closed()):
                raise ValueError("face family is not downward closed")
            raise ValueError(f"vertex indices {sorted(outside, key=repr)} are out of range")
        rows = FaceRows(fs).rows
        if close_downward:
            self._set_rows(closure_rows(rows, max_faces), closed=True)
        else:
            self._set_rows(rows)

    @classmethod
    def from_rows(cls, vertex_labels, rows):
        """The complex on ``vertex_labels`` whose faces of dimension d are
        the rows of ``rows[d]`` (see :meth:`FaceRows.from_rows`, whose
        order they must be in).  Refused with ``ValueError``, in this
        order: rows out of order, a family that is not downward closed, a
        vertex index outside the vertex list, a vertex in no face."""
        self = cls.__new__(cls)
        self._set_vertices(vertex_labels)
        self._set_rows(rows)
        return self

    @classmethod
    def _from_closure(cls, vertex_labels, facets):
        """The complex on ``vertex_labels`` closed down from ``facets`` (per
        width, increasing rows) by :func:`closure_rows`, with the checks of
        :meth:`from_rows` but the closure check."""
        self = cls.__new__(cls)
        self._set_vertices(vertex_labels)
        self._set_rows(closure_rows(facets), closed=True)
        return self

    def _set_rows(self, rows, closed=False):
        """Take ``rows`` as the faces, with the checks of :meth:`from_rows`;
        the closure check only unless ``closed``: rows that
        :func:`closure_rows` made are closed by construction."""
        self.face_rows = FaceRows.from_rows(rows)
        self._faces = None
        if not (closed or self.face_rows.is_closed()):
            raise ValueError("face family is not downward closed")
        # closed, so every vertex of a face is a one-vertex row
        vertices = self.face_rows.rows[0][:, 0] if self.face_rows.rows else np.zeros(0, dtype=_ROW)
        n = len(self.vertices)
        outside = vertices[(vertices < 0) | (vertices >= n)]
        if len(outside):
            raise ValueError(f"vertex indices {outside.tolist()} are out of range")
        if len(vertices) != n:
            raise ValueError(f"vertices {sorted(set(range(n)) - set(vertices.tolist()))} appear in no face")

    def _set_vertices(self, vertex_labels):
        self.vertices = list(vertex_labels)
        self._index = {lab: i for i, lab in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise ValueError("vertex labels must be pairwise distinct")

    @property
    def faces(self) -> frozenset:
        """All faces, as frozensets of vertex indices: made from the rows on
        first read and kept, the one view of the faces as sets."""
        if self._faces is None:
            self._faces = frozenset(chain.from_iterable(map(_frozensets, self.face_rows.rows)))
        return self._faces

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
        return len(self.face_rows.rows) - 1

    def f_vector(self) -> tuple:
        return tuple(map(len, self.face_rows.rows))

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * fi for i, fi in enumerate(self.f_vector()))

    def facets(self):
        """Maximal faces in lexicographic order of their sorted vertices."""
        return list(map(frozenset, self._facet_rows()))

    def _facet_rows(self):
        """The maximal faces as lists of vertex indices, in lexicographic
        order."""
        return merge(*(rows[at].tolist() for rows, at in zip(self.face_rows.rows, self._maximal)))

    @cached_property
    def _maximal(self):
        """Per dimension d, the positions within d of the maximal faces, those
        that are the facet of no face of dimension d+1 (vertex i is the i-th
        one-vertex face, so an edge's facets are its vertices)."""
        rows = self.face_rows.rows
        covered = [np.zeros(len(level), dtype=bool) for level in rows]
        for d in range(1, len(rows)):
            for column in [rows[1].ravel()] if d == 1 else self.face_rows._facet_columns(d, slice(None)):
                covered[d - 1][column] = True
        return [np.flatnonzero(~mask) for mask in covered]

    def is_pure(self) -> bool:
        return all(not len(at) for at in self._maximal[:-1])

    def faces_of_dim(self, d: int):
        """The faces of dimension d in row order, as new frozensets."""
        return _frozensets(self.face_rows.rows[d]) if 0 <= d <= self.dimension() else []

    def has_face_labels(self, labels) -> bool:
        try:
            row = sorted({self._index[l] for l in labels})
        except KeyError:
            return False
        d = len(row) - 1
        return 0 <= d <= self.dimension() and self.face_rows.find(d, np.array([row])).item() >= 0

    def has_face(self, face) -> bool:
        """Whether ``face``, a set of vertex indices, is a face: a set look-up
        when the ``faces`` view is built, else a row search."""
        if self._faces is not None:
            return face in self._faces
        return self.face_rows.positions([face])[0] >= 0

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
        state = FacetReplay(self)
        if not state.stellar_subdivide(face_labels, new_label):
            return self
        return state.freeze()

    # ------------------------------------------------------------------
    # homology
    # ------------------------------------------------------------------

    def reduced_homology(self):
        """Per-degree reduced integer homology: list of (betti, torsion
        coefficients) for degrees 0..dim.

        The homology is that of the augmented chain complex, whose one cell
        in degree -1 is the empty face, the boundary of every vertex.  It
        is read off after *coreductions* (Mrozek and Batko, DCG 2009): a
        pair (σ, τ) of alive cells, σ a facet of τ and the only alive facet
        of τ, is removed, which keeps the integer homology.  In the
        reduction of Kaczynski, Mrozek and Ślusarek (1998), removing a pair
        with ⟨∂τ, σ⟩ = ±1 changes the boundary of each cell c to
        ∂'c = ∂c − ⟨∂c, σ⟩/⟨∂τ, σ⟩ · ∂τ, and drops τ from the boundaries one
        dimension up.  ∂τ restricted to the alive cells is ±σ, so ∂'c is ∂c
        less its σ term: the reduced complex is the same boundary restricted
        to the cells still alive.  Every simplicial incidence is ±1, so this
        is exact over ℤ.

        The empty face is paired with vertex 0 first.  Then, for d = 1 ..
        dim, rounds run in bulk on the face rows: every alive d-face with
        exactly one alive facet is free, one free face is kept per facet
        (the first in a stable sort by facet), and each kept face is removed
        with its facet.  A pair in dimension d removes a (d-1)-face and a
        d-face, which changes the alive facets of d- and (d+1)-faces only,
        so once a round in dimension d pairs nothing, no later round makes a
        free face there again, and one pass up the dimensions leaves no
        coreduction.

        In dimension 1 the rounds pair every vertex of the component of
        vertex 0 and reach no other.  A vertex w of another component, which
        is then whole, is split off: the sum of the coefficients on that
        component's vertices vanishes on every restricted boundary and is 1
        on w, so the class of w spans a free summand ℤ of H̃_0, and removing
        w leaves the rest of the homology.  That is pairing w with the
        component's own empty face, and the rounds go on from w.

        When no two dimensions that still hold cells are adjacent, every
        restricted boundary is zero, and H̃_d is free of rank the number of
        d-cells left (on every k-tree complex and order complex of the
        ladder).  Otherwise the coboundary δ_d restricted to the cells left
        in dimensions d and d+1 goes to
        :func:`~ktreesub._kernels.smith_reduce`: the Betti number d is the
        count of d-cells left less the ranks of the restricted ∂_d and
        ∂_{d+1}, and the torsion of H̃_d is the invariant factors > 1 of
        ∂_{d+1}.
        """
        dim = self.dimension()
        if dim < 0:
            return []
        alive = [np.ones(len(level), dtype=bool) for level in self.face_rows.rows]
        alive[0][0] = False  # paired with the empty face
        split = 0  # vertices split off H̃_0, one per component without vertex 0
        if dim:
            # vertex i is the i-th one-vertex face, so an edge's facets are
            # its vertices, the last one first
            edges = self.face_rows.rows[1].astype(np.intp)
            cells = np.arange(len(edges))
            while True:
                _coreduce(alive[0], alive[1], edges[cells].T[::-1], cells)
                # the edges of the components no round reached
                cells = cells[alive[1][cells] & alive[0][edges[cells, 0]]]
                if not len(cells):
                    break
                alive[0][edges[cells[0], 0]] = False
                split += 1
        for d in range(2, dim + 1):
            _coreduce(alive[d - 1], alive[d], self.face_rows.facet_positions(d).T, np.arange(len(alive[d])))
        left = [int(np.count_nonzero(mask)) for mask in alive]
        # ranks[d] = rank of the restricted ∂_d, d = 0 .. dim+1
        ranks = [0] * (dim + 2)
        torsion = [()] * (dim + 1)
        for d in range(dim):
            if left[d] and left[d + 1]:
                pivots, factors = kernels.smith_reduce(self._coboundary_columns(d, alive[d], alive[d + 1]))
                ranks[d + 1] = len(pivots) + len(factors)
                torsion[d] = tuple(x for x in factors if x > 1)
        betti = [left[d] - ranks[d] - ranks[d + 1] for d in range(dim + 1)]
        betti[0] += split
        return list(zip(betti, torsion))

    def _coboundary_columns(self, d: int, columns, rows):
        """δ_d restricted to the d-faces where the boolean mask ``columns``
        holds and the (d+1)-faces where ``rows`` does, as sparse columns: one
        {row: ±1} dict per kept d-face, in face order; row r is the r-th
        (d+1)-face, with entry (-1)^t in the column of its facet without its
        t-th vertex, and each column's rows are increasing.  Needs
        d < dimension."""
        facets = self.face_rows.facet_positions(d + 1)
        cols = facets.ravel()
        live = columns[cols] & np.repeat(rows, d + 2)
        at = np.repeat(np.arange(len(facets)), d + 2)[live]
        signs = np.tile(1 - 2 * (np.arange(d + 2) & 1), len(facets))[live]
        cols = cols[live]
        by_col = cols.argsort(kind="stable")
        at, signs = at[by_col].tolist(), signs[by_col].tolist()
        counts = np.bincount(cols, minlength=len(columns))
        ends = np.cumsum(counts)
        starts = ends - counts
        kept = np.flatnonzero(columns)
        return [dict(zip(at[a:b], signs[a:b])) for a, b in zip(starts[kept].tolist(), ends[kept].tolist())]

    # ------------------------------------------------------------------
    # comparisons and actions
    # ------------------------------------------------------------------

    def label_faces(self):
        """Faces as frozensets of labels (canonical comparison form)."""
        return frozenset(frozenset(self.vertices[i] for i in f) for f in self.faces)

    def __eq__(self, other):
        """Same vertex labels and same faces as sets of labels: two
        complexes are equal iff their maximal faces are, so ``other``'s are
        compared with this one's (:func:`_same_maximal`)."""
        return (
            isinstance(other, SimplicialComplex)
            and self._index.keys() == other._index.keys()
            and self.f_vector() == other.f_vector()
            and _same_maximal(other.vertices, [rows[at] for rows, at in zip(other.face_rows.rows, other._maximal)],
                              self)
        )

    def __hash__(self):
        """From the vertex labels and the f-vector, which equal complexes
        share (:meth:`__eq__` compares both first)."""
        return hash((frozenset(self._index), self.f_vector()))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json(self, label_fn=None):
        fn = label_fn if label_fn is not None else (lambda x: x)
        return {
            "vertices": [fn(l) for l in self.vertices],
            "facets": list(self._facet_rows()),
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
        is expanded, and the closure stops once its distinct faces pass
        ``max_faces``, both with :class:`ResourceLimit`."""
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


class FacetReplay:
    """A complex under a sequence of stellar subdivisions, held by its
    maximal faces (the facet lemma in :func:`~ktreesub.subdivision.run_blowup`):
    per width w, an int32 array of increasing rows of w vertex indices and
    a mask of the rows alive.  Steps run in passes, each a run of steps
    with pairwise disjoint stars (the disjoint-stars lemma there), read in
    the complex at its start: the stars are marked dead, and each F in
    σ_j's star gives way to (F ∖ {s}) ∪ {v_j} for every s in σ_j, the new
    vertex v_j last, as it has the largest index yet.  ``passes`` and
    ``facets_made`` count the passes and the rows appended."""

    def __init__(self, K: SimplicialComplex):
        self.vertices = list(K.vertices)
        self._index = dict(K._index)
        self._rows = [K.face_rows.rows[d][at].astype(np.int32) for d, at in enumerate(K._maximal)]
        self._alive = [np.ones(len(at), dtype=bool) for at in K._maximal]
        self.passes = self.facets_made = 0

    def stellar_subdivide(self, face_labels, new_label=None) -> bool:
        """Subdivide at the face with the given vertex labels, as
        :meth:`SimplicialComplex.stellar_subdivide` does, in a pass of one
        step; False (and no change) when the face is a vertex."""
        n = len(self.vertices)
        self.subdivide_all([(face_labels, new_label)])
        return len(self.vertices) > n

    def subdivide_all(self, steps):
        """Subdivide at each (face labels, new label) of ``steps`` in turn,
        as that many :meth:`stellar_subdivide` calls do, raising where one
        would, after the steps before; in as few passes as the runs allow.
        The faces are read first, a new label standing for its vertex."""
        n0 = len(self.vertices)
        made = {}  # new label -> the index its vertex gets
        run, error = [], None  # run: (face labels, σ in increasing order, new label or None if taken)
        for face_labels, new_label in steps:
            sigma = {self._index.get(lab, made.get(lab)) for lab in face_labels}
            if None in sigma:
                error = KeyError(next(lab for lab in face_labels if lab not in self._index and lab not in made))
                break
            if len(sigma) == 1:  # every vertex is a face
                continue
            if not sigma:
                error = FaceNotPresent(f"face {sorted(face_labels, key=_label_key)} not in complex")
                break
            if new_label is None:
                new_label = tuple(sorted((self.vertices[v] if v < n0 else run[v - n0][2] for v in sigma),
                                         key=_label_key))
            taken = new_label in self._index or new_label in made
            run.append((face_labels, sorted(sigma), None if taken else new_label))
            if taken:  # refused once its star is found nonempty
                error = ValueError(f"label {new_label!r} already names a vertex")
                break
            made[new_label] = n0 + len(run) - 1
        done = 0
        while done < len(run):
            done += self._pass(run[done:])
        if error is not None:
            raise error

    def _pass(self, run) -> int:
        """Apply at once the steps of ``run`` up to the first that holds a
        vertex the pass makes, or whose star is empty or meets an earlier
        one's, and return how many; a first step with an empty star raises,
        and one whose label is taken is not applied."""
        self.passes += 1
        for w, alive in enumerate(self._alive):  # the dead rows dropped
            if not alive.all():
                self._rows[w], self._alive[w] = self._rows[w][alive], np.ones(np.count_nonzero(alive), dtype=bool)
        n = len(self.vertices)
        end = next((j for j, (_, sigma, label) in enumerate(run) if sigma[-1] >= n or label is None and j), len(run))
        cut, stars = self._stars(run[:end])
        if cut == 0:
            raise FaceNotPresent(f"face {sorted(run[0][0], key=_label_key)} not in complex")
        if run[0][2] is None:
            return 1
        self._claim(run[:cut], stars)
        return cut

    def _stars(self, run):
        """The number of steps of ``run`` before the first whose star is
        empty or meets an earlier one's, and the stars: per width, (w, step,
        row) arrays, with the σ (vertices by their number of rows, fewest
        first, padded with the vertex count) and their sizes.  The rows are
        scanned in parts of about ``_CHUNK`` entries: each entry a that is
        some σ's vertex of fewest rows is paired with every entry of its
        row, and the pair looked up among the steps' (a, b), b of second
        fewest rows; a step found is checked for its other vertices."""
        n = len(self.vertices)
        size = np.array([len(sigma) for _, sigma, _ in run])
        pad = [n] * int(size.max())
        sigmas = np.array([sigma + pad[len(sigma):] for _, sigma, _ in run], dtype=np.int32)
        degree = np.bincount(np.concatenate([rows.ravel() for rows in self._rows]), minlength=n + 1)
        degree[n] = np.iinfo(degree.dtype).max  # the pads sort last
        sigmas = np.take_along_axis(sigmas, degree[sigmas].argsort(axis=1, kind="stable"), axis=1)
        keys = sigmas[:, 0].astype(np.int64) * n + sigmas[:, 1]
        by_key = keys.argsort(kind="stable")
        keys = keys[by_key]
        rarest, second = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        rarest[sigmas[:, 0]] = second[sigmas[:, 1]] = True
        found = np.zeros(len(run), dtype=np.intp)
        cut, stars = len(run), []
        for w, rows in enumerate(self._rows, 1):
            steps, at = [], []
            step_rows = max(_CHUNK // w, 1)
            for lo in range(0, len(rows), step_rows):
                part = rows[lo:lo + step_rows]
                i, c = np.nonzero(rarest[part])
                b = part[i].ravel()  # the entries of each row through an a, by that a
                maybe = np.flatnonzero(second[b])
                query = part[i, c][maybe // w].astype(np.int64) * n + b[maybe]
                first = keys.searchsorted(query)
                count = keys.searchsorted(query, side="right") - first
                step = by_key[np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())]
                row = i[np.repeat(maybe // w, count)]
                inside = np.ones(len(row), dtype=bool)
                for other in sigmas[step, 2:].T:
                    inside &= (other == n) | (part[row] == other[:, None]).any(axis=1)
                steps.append(step[inside])
                at.append(lo + row[inside])
            if not steps:
                continue
            step, at = np.concatenate(steps), np.concatenate(at)
            found += np.bincount(step, minlength=len(run))
            by_row = np.lexsort((step, at))
            again = at[by_row[1:]] == at[by_row[:-1]]
            if again.any():
                cut = min(cut, int(step[by_row[1:][again]].min()))
            stars.append((w, step, at))
        empty = np.flatnonzero(found == 0)
        return min(cut, int(empty[0])) if len(empty) else cut, (stars, sigmas, size)

    def _claim(self, run, stars):
        """Apply the steps of ``run`` at once: name their new vertices, mark
        their stars dead and append the rows (F ∖ {s}) ∪ {v_j}."""
        stars, sigmas, size = stars
        v0 = len(self.vertices)
        for _, _, label in run:
            self._index[label] = len(self.vertices)
            self.vertices.append(label)
        for w, step, at in stars:
            keep = step < len(run)
            self._alive[w - 1][at[keep]] = False
            many = size[step[keep]]
            step, at = np.repeat(step[keep], many), np.repeat(at[keep], many)
            s = sigmas[step, np.arange(len(step)) - np.repeat(np.cumsum(many) - many, many)]
            rows = self._rows[w - 1][at]
            drop = np.count_nonzero(rows < s[:, None], axis=1)  # the place of s in F
            new = np.empty((len(rows), w), dtype=np.int32)
            new[:, :-1] = np.where(np.arange(w - 1) < drop[:, None], rows[:, :-1], rows[:, 1:])
            new[:, -1] = v0 + step
            self._rows[w - 1] = np.concatenate([self._rows[w - 1], new])
            self._alive[w - 1] = np.concatenate([self._alive[w - 1], np.ones(len(new), dtype=bool)])
            self.facets_made += len(new)

    def facet_rows(self):
        """The maximal faces now, as one array of increasing rows per width
        1 to K's widest: the alive rows."""
        return [rows[alive] for rows, alive in zip(self._rows, self._alive)]

    def freeze(self) -> SimplicialComplex:
        """The complex now, closed down from the maximal faces."""
        return SimplicialComplex._from_closure(self.vertices, self.facet_rows())

    def equals(self, K: SimplicialComplex) -> bool:
        """Whether the complex now is K, label by label, from the maximal
        faces alone (:func:`_same_maximal`)."""
        return self._index.keys() == K._index.keys() and _same_maximal(self.vertices, self.facet_rows(), K)


def _same_maximal(vertices, rows, K: SimplicialComplex) -> bool:
    """Whether the maximal faces ``rows`` (per dimension d, an array of
    increasing rows of d+1 indices into the labels ``vertices``, all of
    them labels of K) are K's, label by label: each row, mapped by label,
    is a face of K, and per dimension the faces found are exactly K's
    maximal ones (``SimplicialComplex._maximal``).  Two complexes on the
    same labels are equal iff their maximal faces are."""
    if len(rows) != len(K._maximal):
        return False
    idx = np.array([K._index[lab] for lab in vertices], dtype=np.int32)

    def found(d, level):
        level = idx[level]
        level.sort(axis=1)
        return np.sort(K.face_rows.find(d, level))

    return all(np.array_equal(found(d, level), at) for d, (level, at) in enumerate(zip(rows, K._maximal)))


def _coreduce(lower, upper, facets, cells):
    """Coreduce dimension d in rounds, until a round pairs nothing.

    ``lower`` and ``upper`` are the alive masks of the (d-1)- and d-faces,
    cleared in place.  ``cells`` lists the d-faces to read, among them every
    alive one with an alive facet, and ``facets`` holds one array per vertex
    left out, entry i the position of the facet of the d-face ``cells[i]``
    without it (as the columns of ``FaceRows.facet_positions(d)``).  A
    round finds every such face with exactly one alive facet and keeps one
    per facet, the first in a stable sort by facet; each kept face is
    removed with its facet.  A d-face's count of alive facets only falls,
    and a removed face, or a free one not kept, has none left, so only the
    faces with two or more are read again."""
    while len(cells):
        live = [lower[column] for column in facets]
        count = live[0].view(np.int8).copy()
        for at in live[1:]:
            count += at.view(np.int8)
        free = np.flatnonzero(count == 1)
        if not len(free):
            return
        partner = facets[-1][free]
        for column, at in zip(facets[:-1], live[:-1]):
            partner = np.where(at[free], column[free], partner)
        by_partner = partner.argsort(kind="stable")
        partner = partner[by_partner]
        first = np.ones(len(partner), dtype=bool)
        first[1:] = partner[1:] != partner[:-1]
        upper[cells[free[by_partner[first]]]] = False
        lower[partner[first]] = False
        again = np.flatnonzero(count > 1)
        cells = cells[again]
        facets = [column[again] for column in facets]


def _label_key(label):
    """Deterministic sort key for mixed label types."""
    return (type(label).__name__, repr(label) if not isinstance(label, (int, str)) else label)
