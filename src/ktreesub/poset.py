"""Finite posets backed by dense boolean order matrices.

Elements are referenced by integer indices; labels are opaque hashable
payloads.  Posets are immutable after construction.
"""

from __future__ import annotations

import heapq
import random
from itertools import product as _iterproduct

import numpy as np

from . import _kernels as kernels
from .errors import (
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


class Poset:
    """Finite poset with constant-time order queries.

    ``leq[i, j]`` iff element ``i`` is below element ``j``.  ``min_index`` and
    ``max_index`` optionally designate a bottom/top element; these are the
    elements stripped by :meth:`order_complex`.
    """

    def __init__(self, labels, leq, min_index=None, max_index=None, validate=True):
        self.labels = list(labels)
        self.n = len(self.labels)
        arr = np.array(leq, dtype=bool, copy=True)
        if arr.shape != (self.n, self.n):
            raise ValueError("leq matrix shape does not match label count")
        if validate:
            _validate_partial_order(arr)
        arr.setflags(write=False)
        self.leq = arr
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != self.n:
            raise ValueError("labels must be pairwise distinct")
        if min_index is not None and not arr[min_index].all():
            raise ValueError("designated minimum is not below every element")
        if max_index is not None and not arr[:, max_index].all():
            raise ValueError("designated maximum is not above every element")
        self.min_index = min_index
        self.max_index = max_index
        self._heights = None

    @classmethod
    def from_covers(cls, labels, covers, min_index=None, max_index=None):
        """Build from a cover (or any generating) relation on element indices.

        The order is the reflexive-transitive closure; a closure that merges
        two elements raises :class:`CycleDetected`.
        """
        n = len(labels)
        if n == 0:
            return cls([], np.zeros((0, 0), dtype=bool), validate=False)
        adj = np.zeros((n, n), dtype=bool)
        for i, j in covers:
            adj[i, j] = True
        closed = kernels.closure(adj)
        sym = closed & closed.T
        np.fill_diagonal(sym, False)
        if sym.any():
            i, j = np.argwhere(sym)[0]
            raise CycleDetected(f"cover relation creates a cycle through {i} and {j}")
        return cls(labels, closed, min_index=min_index, max_index=max_index, validate=False)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def index(self, label):
        return self._index[label]

    def is_leq(self, i: int, j: int) -> bool:
        return bool(self.leq[i, j])

    def _cover_matrix(self) -> np.ndarray:
        """Boolean matrix: out[i, j] iff j covers i."""
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        return lt & ~(lt @ lt)

    def covers(self):
        """Cover pairs (i, j) with j covering i."""
        return [(int(i), int(j)) for i, j in np.argwhere(self._cover_matrix())]

    def heights(self) -> np.ndarray:
        """Length of the longest chain below each element (minimal elements
        have height 0)."""
        if self._heights is None:
            down = self.leq.sum(axis=0)
            order = np.argsort(down, kind="stable")
            h = np.zeros(self.n, dtype=np.int64)
            for i in order:
                below = np.flatnonzero(self.leq[:, i])
                below = below[below != i]
                if below.size:
                    h[i] = h[below].max() + 1
            self._heights = h
        return self._heights

    def proper_indices(self):
        """All indices except the designated minimum/maximum."""
        skip = {self.min_index, self.max_index}
        return [i for i in range(self.n) if i not in skip]

    def maximal_in(self, subset):
        """Maximal elements of an index subset."""
        idx = sorted(set(subset))
        if not idx:
            return []
        sub = self.leq[np.ix_(idx, idx)]
        keep = ~(sub & ~np.eye(len(idx), dtype=bool)).any(axis=1)
        return [idx[p] for p in np.flatnonzero(keep)]

    def minimal_in(self, subset):
        idx = sorted(set(subset))
        if not idx:
            return []
        sub = self.leq[np.ix_(idx, idx)]
        keep = ~(sub & ~np.eye(len(idx), dtype=bool)).any(axis=0)
        return [idx[p] for p in np.flatnonzero(keep)]

    # ------------------------------------------------------------------
    # bounds, joins, meets
    # ------------------------------------------------------------------

    def upper_bounds(self, subset):
        idx = list(subset)
        if not idx:
            raise ValueError("upper bounds of an empty set are undefined")
        mask = np.logical_and.reduce(self.leq[idx, :])
        return [int(i) for i in np.flatnonzero(mask)]

    def lower_bounds(self, subset):
        idx = list(subset)
        if not idx:
            raise ValueError("lower bounds of an empty set are undefined")
        mask = np.logical_and.reduce(self.leq[:, idx], axis=1)
        return [int(i) for i in np.flatnonzero(mask)]

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
        sub = self.leq[np.ix_(idx, idx)]
        return Poset(
            [self.labels[i] for i in idx],
            sub,
            min_index=None if min_index is None else pos[min_index],
            max_index=None if max_index is None else pos[max_index],
            validate=False,
        )

    def interval(self, a: int, b: int) -> "Poset":
        """The induced subposet {x : a <= x <= b}."""
        if not self.leq[a, b]:
            raise NotComparable(f"{self.labels[a]!r} is not below {self.labels[b]!r}")
        idx = [int(i) for i in np.flatnonzero(self.leq[a, :] & self.leq[:, b])]
        return self.subposet(idx, min_index=a, max_index=b)

    def order_complex(self, max_faces=None):
        """Order complex of the proper part: vertices are the non-designated
        elements, faces are the nonempty chains."""
        from .complexes import SimplicialComplex

        proper = self.proper_indices()
        vpos = {g: p for p, g in enumerate(proper)}
        h = self.heights()
        by_height = sorted(proper, key=lambda i: (int(h[i]), i))
        ranked = np.array(by_height, dtype=np.intp)
        above = {
            v: [w for w in ranked[self.leq[v, ranked]].tolist() if w != v] for v in by_height
        }
        faces = []
        limit = max_faces

        def record(chain):
            faces.append(chain)
            if limit is not None and len(faces) > limit:
                raise ResourceLimit(f"order complex exceeds {limit} faces")

        # extending only upward enumerates every chain exactly once, since
        # comparable elements have strictly increasing heights
        def grow(chain):
            for nxt in above[chain[-1]]:
                new = chain + (nxt,)
                record(new)
                grow(new)

        for v in by_height:
            record((v,))
            grow((v,))
        labels = [self.labels[i] for i in proper]
        return SimplicialComplex(labels, [frozenset(vpos[i] for i in f) for f in faces])

    # ------------------------------------------------------------------
    # linear extensions
    # ------------------------------------------------------------------

    def is_linear_extension(self, seq) -> bool:
        """True iff ``seq`` never lists an element after something above it
        (repeats of one element are allowed)."""
        idx = np.asarray(list(seq), dtype=np.intp)
        # blocks of 128 rows keep the temporaries at 128 x len(seq) booleans
        for start in range(0, len(idx), 128):
            rows, earlier = idx[start : start + 128], idx[: start + 128]
            later_below_earlier = np.tril(self.leq[np.ix_(rows, earlier)], start - 1)
            later_below_earlier &= rows[:, None] != earlier[None, :]
            if later_below_earlier.any():
                return False
        return True

    def linear_extension(self, subset=None, policy="rank-then-canonical", seed=None):
        """A total order on ``subset`` compatible with the poset order.

        ``rank-then-canonical`` sorts by height with index ties; the seeded
        policy shuffles and then repairs the order (Kahn selection by shuffled
        priority), so every seed yields a valid extension.
        """
        idx = list(range(self.n)) if subset is None else list(subset)
        if policy == "rank-then-canonical":
            h = self.heights()
            out = sorted(idx, key=lambda i: (int(h[i]), i))
        elif policy == "seeded-random":
            shuffled = list(idx)
            random.Random(seed).shuffle(shuffled)
            priority = {v: p for p, v in enumerate(shuffled)}
            # Kahn's algorithm over positions in idx: strict[a, b] when idx[a]
            # is below idx[b]; waiting[b] counts the unplaced elements below
            strict = self.leq[np.ix_(idx, idx)]
            np.fill_diagonal(strict, False)
            waiting = strict.sum(axis=0).tolist()
            ready = [(priority[idx[b]], b) for b, w in enumerate(waiting) if not w]
            heapq.heapify(ready)
            out = []
            while ready:
                _, a = heapq.heappop(ready)
                out.append(idx[a])
                for b in np.flatnonzero(strict[a]).tolist():
                    waiting[b] -= 1
                    if not waiting[b]:
                        heapq.heappush(ready, (priority[idx[b]], b))
            if len(out) < len(idx):
                raise ValueError("the subset repeats an element")
        else:
            raise ValueError(f"unknown linear extension policy {policy!r}")
        if not self.is_linear_extension(out):
            raise NotLinearExtension("generated sequence violates the order")
        return out

    # ------------------------------------------------------------------
    # isomorphism
    # ------------------------------------------------------------------

    def _iso_colors(self):
        cov = self._cover_matrix()
        h = self.heights()
        colors = [
            (
                int(self.leq[:, i].sum()),
                int(self.leq[i, :].sum()),
                int(cov[:, i].sum()),
                int(cov[i, :].sum()),
                int(h[i]),
            )
            for i in range(self.n)
        ]
        for _ in range(2):
            sigs = [
                (
                    colors[i],
                    tuple(sorted(colors[j] for j in np.flatnonzero(cov[:, i]))),
                    tuple(sorted(colors[j] for j in np.flatnonzero(cov[i, :]))),
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


def poset_from_json(data, label_fn=None) -> Poset:
    fn = label_fn if label_fn is not None else (lambda x: x)
    labels = [fn(lab) for lab in data["elements"]]
    return Poset.from_covers(
        labels, [tuple(c) for c in data["covers"]], min_index=data.get("min"), max_index=data.get("max")
    )
