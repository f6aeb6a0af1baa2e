"""Finite posets stored as sorted strict up-sets and down-sets in CSR form.

Elements are referenced by integer indices; labels are opaque hashable
payloads.  The order is kept as two CSR arrays, ``up_indptr``/``up_indices``
(the elements strictly above each element, ascending) and
``down_indptr``/``down_indices`` (those strictly below), both int32, so a
poset costs memory in its number of comparable pairs, not in n².  Small
posets may be given as a dense boolean matrix, which is converted; the dense
view :attr:`Poset.leq` is built on first access, for the structural code on
small intervals and for outside callers.  Posets are immutable after
construction.
"""

from __future__ import annotations

import heapq
import random
from itertools import product as _iterproduct

import numpy as np

from .errors import (
    MAX_FACES,
    CycleDetected,
    NoLowerBound,
    NotComparable,
    NotLinearExtension,
    NotUnique,
    NoUpperBound,
    ResourceLimit,
)


def _validate_partial_order(arr: np.ndarray) -> None:
    n = arr.shape[0]
    if not arr.diagonal().all():
        raise ValueError("order relation is not reflexive")
    sym = arr & arr.T
    np.fill_diagonal(sym, False)
    if sym.any():
        i, j = np.argwhere(sym)[0]
        raise CycleDetected(f"antisymmetry violated between elements {i} and {j}")
    # boolean product: a uint8 product would count 2-paths modulo 256
    if ((arr @ arr) & ~arr).any():
        raise ValueError("order relation is not transitive")


def _csr(rows, cols, n):
    """CSR arrays (int32 indptr, indices) of the distinct pairs (rows[t],
    cols[t]), each row's entries ascending: the pairs sorted as the numbers
    rows[t] * n + cols[t], which are distinct, so any sort gives them in
    the same order."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = (np.sort(np.asarray(rows, dtype=np.int64) * n + cols) % n).astype(np.int32)
    for a in (indptr, indices):
        a.setflags(write=False)
    return indptr, indices


def _gather(indptr, indices, rows):
    """The entries of the given CSR rows, concatenated, with the position in
    ``rows`` each entry came from."""
    rows = np.asarray(rows, dtype=np.intp)
    starts = indptr[rows].astype(np.intp)
    counts = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(len(rows)), counts)
    offset = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, indices[np.repeat(starts, counts) + offset]


def _chains(indptr, indices, max_faces=None):
    """The nonempty chains of a strict order on 0 .. n-1 whose up-sets (the
    CSR arrays ``indptr``, ``indices``, each row ascending) hold only larger
    numbers, as one array of rows per length, each row ascending and each
    array in lexicographic order.

    A chain of length s+1 is a chain of length s extended by an element
    above its last one (:func:`_extend`).  The extensions of each chain
    come in ascending order, after those of the chains before it, so every
    length is in lexicographic order when the one before is.  The number of
    chains of the next length is the sum of the up-degrees of the last
    elements: past ``max_faces`` chains in all, ``ResourceLimit`` is raised
    before that length is made."""
    degree = np.diff(indptr).astype(np.intp)
    level = np.arange(len(degree), dtype=indices.dtype).reshape(-1, 1)
    rows, total = [], 0
    while len(level):
        rows.append(level)
        counts = degree[level[:, -1]]
        total += len(level)
        if max_faces is not None and total + counts.sum() > max_faces:
            raise ResourceLimit(f"order complex exceeds {max_faces} faces")
        level = _extend(level, counts, indptr, indices)
    return rows


def _extend(level, counts, indptr, indices):
    """The chains of ``level`` (rows) each extended by each element of the
    up-set of its last one, in row order, ``counts`` the up-degrees of the
    last elements; made in parts of about ``_CHUNK`` entries."""
    ends = np.cumsum(counts)
    width = level.shape[1] + 1
    out = np.empty((int(ends[-1]), width), dtype=level.dtype)
    step = max(1, _CHUNK // width)
    lo = 0
    while lo < len(level) and len(out):
        # parents lo .. hi-1, whose chains start at row `at`
        at = int(ends[lo] - counts[lo])
        hi = max(lo + 1, int(np.searchsorted(ends, at + step, side="right")))
        owner, above = _gather(indptr, indices, level[lo:hi, -1])
        out[at : at + len(owner), :-1] = level[lo:hi][owner]
        out[at : at + len(owner), -1] = above
        lo = hi
    return out


_CHUNK = 1 << 20  # entries of the chain rows made per part


class Poset:
    """Finite poset with sparse order queries.

    ``Poset(labels, leq)`` takes a dense boolean matrix, ``leq[i, j]`` iff
    element ``i`` is below element ``j``, and keeps only its strict part as
    CSR up-sets and down-sets; :meth:`from_pairs` builds the same from the
    strict pairs directly.  ``min_index`` and ``max_index`` optionally
    designate a bottom/top element; these are the elements stripped by
    :meth:`order_complex`.
    """

    def __init__(self, labels, leq, min_index=None, max_index=None, validate=True):
        arr = np.array(leq, dtype=bool, copy=True)
        n = len(labels)
        if arr.shape != (n, n):
            raise ValueError("leq matrix shape does not match label count")
        if validate:
            _validate_partial_order(arr)
        np.fill_diagonal(arr, False)
        below, above = np.nonzero(arr)
        self._setup(labels, below, above, min_index, max_index)

    @classmethod
    def from_pairs(cls, labels, below, above, min_index=None, max_index=None, heights=None):
        """The poset whose strict order is the pairs ``below[t] < above[t]``
        (a transitive, irreflexive relation; not checked).  ``heights``, when
        given, is the length of the longest chain below each element."""
        self = cls.__new__(cls)
        self._setup(labels, below, above, min_index, max_index)
        if heights is not None:
            self._heights = np.asarray(heights, dtype=np.int64)
        return self

    def _setup(self, labels, below, above, min_index, max_index):
        self.labels = list(labels)
        self.n = n = len(self.labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != n:
            raise ValueError("labels must be pairwise distinct")
        below, above = np.asarray(below, dtype=np.intp), np.asarray(above, dtype=np.intp)
        self.up_indptr, self.up_indices = _csr(below, above, n)
        self.down_indptr, self.down_indices = _csr(above, below, n)
        # the same offsets as Python ints, for the per-element slices below
        self._up_ptr = self.up_indptr.tolist()
        self._down_ptr = self.down_indptr.tolist()
        if min_index is not None and self._up_ptr[min_index + 1] - self._up_ptr[min_index] != n - 1:
            raise ValueError("designated minimum is not below every element")
        if max_index is not None and self._down_ptr[max_index + 1] - self._down_ptr[max_index] != n - 1:
            raise ValueError("designated maximum is not above every element")
        self.min_index = min_index
        self.max_index = max_index
        self._heights = None
        self._leq = None

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def index(self, label):
        return self._index[label]

    def up(self, i: int) -> list:
        """The elements strictly above ``i``, ascending."""
        p = self._up_ptr
        return self.up_indices[p[i] : p[i + 1]].tolist()

    def down(self, i: int) -> list:
        """The elements strictly below ``i``, ascending."""
        p = self._down_ptr
        return self.down_indices[p[i] : p[i + 1]].tolist()

    def is_leq(self, i: int, j: int) -> bool:
        if i == j:
            return True
        row = self.up_indices[self._up_ptr[i] : self._up_ptr[i + 1]]
        at = int(row.searchsorted(j))
        return at < row.size and int(row[at]) == j

    @property
    def leq(self) -> np.ndarray:
        """Read-only dense boolean view, ``leq[i, j]`` iff ``i`` is below
        ``j``, built on first access: n² bytes, for small posets."""
        if self._leq is None:
            arr = np.eye(self.n, dtype=bool)
            rows = np.repeat(np.arange(self.n), np.diff(self.up_indptr))
            arr[rows, self.up_indices] = True
            arr.setflags(write=False)
            self._leq = arr
        return self._leq

    def covers(self):
        """Cover pairs (i, j) with j covering i, sorted: the strict pairs
        i < j with no w such that i < w < j."""
        counts = np.diff(self.up_indptr)
        rows = np.repeat(np.arange(self.n, dtype=np.int64), counts)
        cols = self.up_indices.astype(np.int64)
        owner, far = _gather(self.up_indptr, self.up_indices, cols)
        two_step = np.unique(rows[owner] * self.n + far)
        keep = ~np.isin(rows * self.n + cols, two_step)
        return list(zip(rows[keep].tolist(), cols[keep].tolist()))

    def heights(self) -> np.ndarray:
        """Length of the longest chain below each element (minimal elements
        have height 0)."""
        if self._heights is None:
            # a strictly smaller element has strictly fewer elements below it
            h = np.zeros(self.n, dtype=np.int64)
            for i in np.argsort(np.diff(self.down_indptr), kind="stable").tolist():
                below = self.down_indices[self._down_ptr[i] : self._down_ptr[i + 1]]
                if below.size:
                    h[i] = h[below].max() + 1
            self._heights = h
        return self._heights

    def proper_indices(self):
        """All indices except the designated minimum/maximum."""
        skip = {self.min_index, self.max_index}
        return [i for i in range(self.n) if i not in skip]

    def maximal_in(self, subset):
        """Maximal elements of an index subset, ascending: those below no
        other member, read off the members' down-sets."""
        members = set(subset)
        dominated = set()
        for w in members:
            dominated.update(self.down(w))
        return sorted(members - dominated)

    def minimal_in(self, subset):
        """Minimal elements of an index subset, ascending: those above no
        other member, read off the members' up-sets."""
        members = set(subset)
        dominated = set()
        for w in members:
            dominated.update(self.up(w))
        return sorted(members - dominated)

    def induced_up(self, subset) -> list:
        """The strict order induced on the distinct indices ``subset``: for
        each position a, the positions b with ``subset[a]`` below
        ``subset[b]``."""
        idx = np.asarray(list(subset), dtype=np.intp)
        where = np.full(self.n, -1, dtype=np.intp)
        where[idx] = np.arange(idx.size)
        owner, above = _gather(self.up_indptr, self.up_indices, idx)
        b = where[above]
        keep = b >= 0
        bounds = np.searchsorted(owner[keep], np.arange(idx.size + 1)).tolist()
        b = b[keep].tolist()
        return [b[bounds[a] : bounds[a + 1]] for a in range(idx.size)]

    # ------------------------------------------------------------------
    # bounds, joins, meets
    # ------------------------------------------------------------------

    def upper_bounds(self, subset):
        idx = list(subset)
        if not idx:
            raise ValueError("upper bounds of an empty set are undefined")
        common = set(self.up(idx[0]))
        common.add(idx[0])
        for i in idx[1:]:
            common.intersection_update(self.up(i) + [i])
        return sorted(common)

    def lower_bounds(self, subset):
        idx = list(subset)
        if not idx:
            raise ValueError("lower bounds of an empty set are undefined")
        common = set(self.down(idx[0]))
        common.add(idx[0])
        for i in idx[1:]:
            common.intersection_update(self.down(i) + [i])
        return sorted(common)

    def minimal_upper_bounds(self, subset):
        """Minimal elements of the set of common upper bounds (may be empty)."""
        return self.minimal_in(self.upper_bounds(subset))

    def maximal_lower_bounds(self, subset):
        return self.maximal_in(self.lower_bounds(subset))

    def join(self, subset) -> int:
        mubs = self.minimal_upper_bounds(subset)
        if not mubs:
            raise NoUpperBound(f"no common upper bound for {sorted(subset)}")
        if len(mubs) > 1:
            raise NotUnique(
                f"{len(mubs)} minimal upper bounds for {sorted(subset)}",
                [self.labels[i] for i in mubs],
            )
        return mubs[0]

    def meet(self, subset) -> int:
        mlbs = self.maximal_lower_bounds(subset)
        if not mlbs:
            raise NoLowerBound(f"no common lower bound for {sorted(subset)}")
        if len(mlbs) > 1:
            raise NotUnique(
                f"{len(mlbs)} maximal lower bounds for {sorted(subset)}",
                [self.labels[i] for i in mlbs],
            )
        return mlbs[0]

    # ------------------------------------------------------------------
    # derived posets
    # ------------------------------------------------------------------

    def subposet(self, indices, min_index=None, max_index=None):
        """Induced subposet on the given element indices (order preserved)."""
        idx = list(indices)
        pos = {g: p for p, g in enumerate(idx)}
        later = self.induced_up(idx)
        return Poset.from_pairs(
            [self.labels[i] for i in idx],
            [a for a, bs in enumerate(later) for _ in bs],
            [b for bs in later for b in bs],
            min_index=None if min_index is None else pos[min_index],
            max_index=None if max_index is None else pos[max_index],
        )

    def interval(self, a: int, b: int) -> "Poset":
        """The induced subposet {x : a <= x <= b}."""
        if not self.is_leq(a, b):
            raise NotComparable(f"{self.labels[a]!r} is not below {self.labels[b]!r}")
        idx = sorted({a, *self.up(a)} & {b, *self.down(b)})
        return self.subposet(idx, min_index=a, max_index=b)

    def order_complex(self, max_faces=MAX_FACES):
        """Order complex of the proper part: vertices are the non-designated
        elements, faces are the nonempty chains.

        The chains are made one length at a time, as rows of vertex
        positions (:func:`_chains`), with the vertices numbered by height,
        ties by position: a chain extended upward then has increasing
        numbers.  When that numbering is the vertices' own, as in a
        partition poset, whose elements are in rank order, the rows come
        out in the order of :class:`~ktreesub.complexes.FaceRows`; otherwise
        each length is renumbered and sorted.  A complex past ``max_faces``
        faces is refused before the length that passes it is made."""
        from .complexes import _ROW, SimplicialComplex

        proper = np.asarray(self.proper_indices(), dtype=np.intp)
        nv = len(proper)
        # vertex numbers by height, ties by position, and back
        by_height = np.lexsort((np.arange(nv), self.heights()[proper]))
        number = np.empty(nv, dtype=np.intp)
        number[by_height] = np.arange(nv)
        where = np.full(self.n, -1, dtype=np.intp)
        where[proper] = number
        owner, above = _gather(self.up_indptr, self.up_indices, proper)
        above = where[above]
        keep = above >= 0
        indptr, indices = _csr(number[owner[keep]], above[keep], nv)
        rows = _chains(indptr, indices.astype(_ROW), max_faces)
        if (by_height != np.arange(nv)).any():
            for d, level in enumerate(rows):
                level = by_height[level].astype(_ROW)
                level.sort(axis=1)
                rows[d] = level[np.lexsort(level.T[::-1])]
        labels = [self.labels[i] for i in proper.tolist()]
        return SimplicialComplex.from_rows(labels, rows)

    # ------------------------------------------------------------------
    # linear extensions
    # ------------------------------------------------------------------

    def is_linear_extension(self, seq) -> bool:
        """True iff ``seq`` never lists an element after something above it
        (repeats of one element are allowed): no element strictly above f
        is first listed before f is last listed."""
        idx = np.asarray(list(seq), dtype=np.intp)
        if not idx.size:
            return True
        at = np.arange(idx.size)
        first = np.full(self.n, idx.size)
        last = np.full(self.n, -1)
        np.minimum.at(first, idx, at)
        np.maximum.at(last, idx, at)
        listed = np.flatnonzero(last >= 0)
        owner, above = _gather(self.up_indptr, self.up_indices, listed)
        return not (first[above] < last[listed[owner]]).any()

    def linear_extension(self, subset=None, policy="rank-then-canonical", seed=None):
        """A total order on ``subset`` compatible with the poset order.

        ``rank-then-canonical`` sorts by height with index ties; the seeded
        policy shuffles and then repairs the order (Kahn selection by shuffled
        priority), so every seed yields a valid extension.
        """
        idx = list(range(self.n)) if subset is None else list(subset)
        if policy == "rank-then-canonical":
            h = self.heights().tolist()
            out = sorted(idx, key=lambda i: (h[i], i))
        elif policy == "seeded-random":
            shuffled = list(idx)
            random.Random(seed).shuffle(shuffled)
            priority = {v: p for p, v in enumerate(shuffled)}
            if len(priority) < len(idx):
                raise ValueError("the subset repeats an element")
            # Kahn's algorithm over positions in idx: later[a] holds the
            # positions above idx[a]; waiting[b] counts the unplaced
            # elements below idx[b]
            later = self.induced_up(idx)
            waiting = [0] * len(idx)
            for bs in later:
                for b in bs:
                    waiting[b] += 1
            ready = [(priority[idx[b]], b) for b, w in enumerate(waiting) if not w]
            heapq.heapify(ready)
            out = []
            while ready:
                _, a = heapq.heappop(ready)
                out.append(idx[a])
                for b in later[a]:
                    waiting[b] -= 1
                    if not waiting[b]:
                        heapq.heappush(ready, (priority[idx[b]], b))
        else:
            raise ValueError(f"unknown linear extension policy {policy!r}")
        if not self.is_linear_extension(out):
            raise NotLinearExtension("generated sequence violates the order")
        return out

    # ------------------------------------------------------------------
    # isomorphism
    # ------------------------------------------------------------------

    def _iso_colors(self):
        lower = [[] for _ in range(self.n)]  # lower[j]: the elements j covers
        upper = [[] for _ in range(self.n)]  # upper[i]: the elements covering i
        for i, j in self.covers():
            upper[i].append(j)
            lower[j].append(i)
        h = self.heights()
        down, up = np.diff(self.down_indptr), np.diff(self.up_indptr)
        colors = [
            (int(down[i]) + 1, int(up[i]) + 1, len(lower[i]), len(upper[i]), int(h[i]))
            for i in range(self.n)
        ]
        for _ in range(2):
            sigs = [
                (
                    colors[i],
                    tuple(sorted(colors[j] for j in lower[i])),
                    tuple(sorted(colors[j] for j in upper[i])),
                )
                for i in range(self.n)
            ]
            rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
            colors = [rank[s] for s in sigs]
        return colors

    def is_isomorphic(self, other: "Poset", pins=None):
        """Order-preserving-and-reflecting bijection onto ``other`` as an index
        list, or None.  ``pins`` maps self indices to forced other indices."""
        if self.n != other.n:
            return None
        ca, cb = self._iso_colors(), other._iso_colors()
        if sorted(ca) != sorted(cb):
            return None
        targets_by_color = {}
        for j, c in enumerate(cb):
            targets_by_color.setdefault(c, []).append(j)
        mapping = [-1] * self.n
        used = [False] * other.n
        if pins:
            for i, j in pins.items():
                if ca[i] != cb[j]:
                    return None
                if mapping[i] == j:
                    continue
                if mapping[i] != -1 or used[j]:
                    return None
                mapping[i] = j
                used[j] = True
            pin_items = [i for i in range(self.n) if mapping[i] != -1]
            for a in pin_items:
                for b in pin_items:
                    if self.leq[a, b] != other.leq[mapping[a], mapping[b]]:
                        return None
        free = [i for i in range(self.n) if mapping[i] == -1]
        free.sort(key=lambda i: (len(targets_by_color.get(ca[i], ())), i))

        def consistent(i, j):
            for i2 in range(self.n):
                j2 = mapping[i2]
                if j2 == -1:
                    continue
                if self.leq[i, i2] != other.leq[j, j2]:
                    return False
                if self.leq[i2, i] != other.leq[j2, j]:
                    return False
            return True

        def search(pos):
            if pos == len(free):
                return True
            i = free[pos]
            for j in targets_by_color.get(ca[i], ()):
                if not used[j] and consistent(i, j):
                    mapping[i] = j
                    used[j] = True
                    if search(pos + 1):
                        return True
                    mapping[i] = -1
                    used[j] = False
            return False

        if search(0):
            return list(mapping)
        return None

    def __repr__(self):
        return f"Poset(n={self.n})"


def product(posets) -> Poset:
    """Direct product with componentwise order; labels are tuples."""
    posets = list(posets)
    if not posets:
        raise ValueError("product of zero posets is not supported")
    if len(posets) == 1:
        p = posets[0]
        return Poset(list(p.labels), p.leq, p.min_index, p.max_index, validate=False)
    labels = [tuple(t) for t in _iterproduct(*(p.labels for p in posets))]
    leq = posets[0].leq
    for p in posets[1:]:
        leq = np.kron(leq, p.leq)
    mins = [p.min_index for p in posets]
    maxs = [p.max_index for p in posets]
    dims = [p.n for p in posets]
    min_index = (
        int(np.ravel_multi_index(mins, dims)) if all(m is not None for m in mins) else None
    )
    max_index = (
        int(np.ravel_multi_index(maxs, dims)) if all(m is not None for m in maxs) else None
    )
    return Poset(labels, leq, min_index=min_index, max_index=max_index, validate=False)


def poset_to_json(p: Poset, label_fn=None):
    """JSON-ready dict with elements, cover pairs and designated bounds."""
    fn = label_fn if label_fn is not None else (lambda x: x)
    return {
        "elements": [fn(lab) for lab in p.labels],
        "covers": [[i, j] for i, j in sorted(p.covers())],
        "min": p.min_index,
        "max": p.max_index,
    }
