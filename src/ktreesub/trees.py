"""Rooted k-trees on labelled leaves, the contraction order, the bijection
with nested families of single-block partitions, and the enumeration of the
k-tree complex.

A tree is stored as nested tuples: leaves are the integers 1..m, internal
vertices are tuples of children sorted by minimal leaf.  Equality is
structural.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import MAX_FACES, FaceNotPresent, NotNested, ResourceLimit
from .complexes import _ROW, SimplicialComplex
from .partitions import Partition, PartitionPoset, _wide_masks, g_set, g_set_count


def _leafset(node) -> frozenset:
    if isinstance(node, int):
        return frozenset((node,))
    out = set()
    for c in node:
        out |= _leafset(c)
    return frozenset(out)


def _canonize(node):
    if isinstance(node, int):
        return node
    kids = tuple(sorted((_canonize(c) for c in node), key=lambda c: min(_leafset(c))))
    return kids


class KTree:
    """Rooted tree with leaves 1..m and every internal outdegree > 1 and
    ≡ 1 (mod k)."""

    __slots__ = ("m", "k", "root")

    def __init__(self, m: int, k: int, root):
        root = _canonize(root)
        leaves = _leafset(root)
        if leaves != frozenset(range(1, m + 1)) or not isinstance(root, tuple):
            raise ValueError("leaves must be exactly 1..m under an internal root")
        self.m = m
        self.k = k
        self.root = root
        for node in self.internal_nodes():
            out = len(node)
            if out <= 1 or (out - 1) % k != 0:
                raise ValueError(
                    f"internal outdegree {out} violates >1 and ≡1 (mod {k})"
                )

    def internal_nodes(self):
        """All internal vertices (root included), depth first."""
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, tuple):
                out.append(node)
                stack.extend(node)
        return out

    def internal_leafsets(self):
        """Leaf sets below the non-root internal vertices."""
        return [_leafset(n) for n in self.internal_nodes() if n is not self.root]

    def __eq__(self, other):
        return (
            isinstance(other, KTree)
            and (self.m, self.k, self.root) == (other.m, other.k, other.root)
        )

    def __hash__(self):
        return hash((self.m, self.k, self.root))

    def __repr__(self):
        return f"KTree({self.m}, {self.k}, {self.to_newick()!r})"

    def to_newick(self) -> str:
        def render(node):
            if isinstance(node, int):
                return str(node)
            return "(" + ",".join(render(c) for c in node) + ")"

        return render(self.root) + ";"


def star_tree(m: int, k: int) -> KTree:
    return KTree(m, k, tuple(range(1, m + 1)))


def tree_to_nested(t: KTree) -> frozenset:
    """Leaf sets of the non-root internal vertices, as single-block
    partitions."""
    return frozenset(Partition.atom(t.m, ls) for ls in t.internal_leafsets())


def nested_to_tree(m: int, k: int, family) -> KTree:
    """Tree whose non-root internal vertices carry the family's blocks.

    The covering relation puts U2 below U1 exactly when U2 is maximal among
    the blocks strictly inside U1; leaves attach to the smallest block
    containing them.  Raises NotNested when the blocks are neither disjoint
    nor nested pairwise, or when a block is the whole ground set.
    """
    blocks = set()
    for x in family:
        ns = x.nonsingleton_blocks()
        if len(ns) != 1 or (len(ns[0]) - 1) % k != 0:
            raise NotNested(f"{x.text()} is not a building-set element for k={k}")
        blocks.add(frozenset(ns[0]))
    root = frozenset(range(1, m + 1))
    if root in blocks:
        raise NotNested("the one-block partition cannot appear in a tree family")
    for a, b in combinations(blocks, 2):
        inter = a & b
        if inter and inter != a and inter != b:
            raise NotNested(f"blocks {sorted(a)} and {sorted(b)} overlap without nesting")

    children_blocks = {b: [] for b in blocks}
    children_blocks[root] = []
    for b in blocks:
        strict_supers = [c for c in blocks if b < c]
        parent = min(strict_supers, key=len) if strict_supers else root
        children_blocks[parent].append(b)

    def build(block):
        covered = set()
        for c in children_blocks[block]:
            covered |= c
        kids = [build(c) for c in children_blocks[block]]
        kids += [x for x in sorted(block - covered)]
        return tuple(kids)

    return KTree(m, k, build(root))


def contract(t: KTree, leafsets) -> KTree:
    """Contract the internal edges above the internal vertices with the given
    leaf sets (each given as an iterable of leaves or a single-block
    partition)."""
    wanted = set()
    for ls in leafsets:
        if isinstance(ls, Partition):
            ns = ls.nonsingleton_blocks()
            if len(ns) != 1:
                raise FaceNotPresent(f"{ls.text()} does not name an internal vertex")
            wanted.add(frozenset(ns[0]))
        else:
            wanted.add(frozenset(ls))
    present = set(t.internal_leafsets())
    missing = wanted - present
    if missing:
        raise FaceNotPresent(f"no internal vertex with leaves {sorted(map(sorted, missing))}")

    def rebuild(node):
        kids = []
        for c in node:
            if isinstance(c, int):
                kids.append(c)
                continue
            sub = rebuild(c)
            if _leafset(c) in wanted:
                kids.extend(sub)
            else:
                kids.append(sub)
        return tuple(kids)

    return KTree(t.m, t.k, rebuild(t.root))


def is_k_nested(pk: PartitionPoset, members) -> bool:
    """Nestedness of a family of building-set elements, checked literally:
    every subset of >= 2 pairwise-incomparable members must have exactly one
    minimal upper bound in the restricted poset, lying outside G."""
    parts = sorted(set(members), key=Partition.sort_key)
    gset = set(pk.g_partitions())
    for x in parts:
        if x not in gset:
            raise ValueError(f"{x.text()} is not a G-element")
    if Partition.one(pk.m) in parts:
        return False
    idx = [pk.poset.index(x) for x in parts]
    leq = pk.poset.is_leq
    n = len(idx)
    for size in range(2, n + 1):
        for sub in combinations(range(n), size):
            antichain = all(
                not leq(idx[a], idx[b]) and not leq(idx[b], idx[a])
                for a, b in combinations(sub, 2)
            )
            if not antichain:
                continue
            mubs = pk.poset.minimal_upper_bounds([idx[a] for a in sub])
            if len(mubs) != 1 or pk.poset.labels[mubs[0]] in gset:
                return False
    return True


def enumerate_ktree_complex(n: int, k: int, max_faces: int = MAX_FACES) -> SimplicialComplex:
    """The complex of k-trees on m = (n-1)k+1 leaves: vertices are the
    building-set elements below the top, faces are the nested families.

    Faces are generated as the cliques of the graph of blocks that are
    pairwise disjoint or nested, which coincides with the
    minimal-upper-bound condition (the content of the structural lemma on
    G, checked exhaustively in the test suite), as rows, one size at a
    time (:func:`_cliques`).  Every vertex is a face, so a vertex count past
    ``max_faces`` is refused before any partition is built, and each size
    is counted before it is made."""
    if n < 3 or k < 1:
        raise ValueError("need n >= 3 and k >= 1")
    m = (n - 1) * k + 1
    if g_set_count(m, k) - 1 > max_faces:
        raise ResourceLimit(f"k-tree complex exceeds {max_faces} faces")
    return _ktree_complex(g_set(m, k)[:-1], max_faces)  # all but 1̂, the one of rank m - 1, which sorts last


def _ktree_complex(verts, max_faces) -> SimplicialComplex:
    """The k-tree complex on the vertex labels ``verts``: ``g_set(m, k)``
    without its last member, or the same partitions in the same order, as
    a caller that holds them already passes them (the poset's own labels in
    :func:`subdivision._instance`).  More than ``max_faces`` vertices are
    refused before anything is built."""
    if len(verts) > max_faces:
        raise ResourceLimit(f"k-tree complex exceeds {max_faces} faces")
    return SimplicialComplex.from_rows(verts, _cliques(_later_compatible(verts), max_faces))


def _later_compatible(verts):
    """Packed bitsets, one row of little-endian uint64 words per vertex: bit
    j of row i is set iff j > i and the blocks of vertices i and j are
    disjoint or nested.  Built in parts of about ``_PAIRS`` pairs of
    vertices, a block of rows against the later vertices at a time, never
    as an nv x nv matrix of bytes."""
    masks = _wide_masks(verts)[1]
    nv = len(masks)
    words = max(1, -(-nv // 64))
    later = np.zeros((nv, 8 * words), dtype=np.uint8)
    step = max(1, _PAIRS // max(nv, 1))
    ids = np.arange(nv)
    for lo in range(0, nv, step):
        hi = min(nv, lo + step)
        a, rest = masks[lo:hi, None], masks[lo + 1:]
        inter = a & rest
        row = np.zeros((hi - lo, 64 * words), dtype=bool)
        row[:, lo + 1:nv] = ((inter == 0) | (inter == a) | (inter == rest)) & (ids[lo + 1:] > ids[lo:hi, None])
        later[lo:hi] = np.packbits(row, axis=1, bitorder="little")
    return later.view("<u8")


def _cliques(later, max_faces):
    """The cliques of the graph whose later neighbours are the packed
    bitsets ``later`` (see :func:`_later_compatible`), as one array of rows
    per size, each row ascending and each array in lexicographic order.

    A face's candidates are the later vertices compatible with all its
    members: those of a vertex are its row of ``later``, and those of a
    face grown by j are the face's candidates AND ``later[j]``.  A face grows
    by each of its candidates in ascending order, after the faces before
    it, so each size is in lexicographic order when the one before is.
    Only faces with a candidate are kept for growing.  The number of faces
    of the next size is the popcount of the candidates, read before the
    size is made: past ``max_faces`` faces in all, ``ResourceLimit`` is
    raised then."""
    level = np.arange(len(later), dtype=_ROW).reshape(-1, 1)
    parents, cand = _growing(np.arange(len(later)), later)
    rows, total = [], 0
    while len(level):
        rows.append(level)
        counts = _POPCOUNT[cand.view(np.uint8)].sum(axis=1, dtype=np.intp)
        total += len(level)
        if total + counts.sum() > max_faces:
            raise ResourceLimit(f"k-tree complex exceeds {max_faces} faces")
        level, parents, cand = _grow(level, parents, cand, counts, later)
    return rows


def _growing(at, cand):
    """The faces at positions ``at`` with a candidate left, and their
    candidates."""
    keep = cand.any(axis=1)
    return at[keep], cand[keep]


def _grow(level, parents, cand, counts, later):
    """The faces of the next size: each of the faces ``level[parents]``,
    with candidates ``cand`` (``counts`` of them each), grown by each
    candidate in turn; with the positions among them of those that can
    grow again, and their candidates.  Made in parts of about ``_CHUNK``
    bits or faces."""
    ends = np.cumsum(counts)
    width = level.shape[1] + 1
    out = np.empty((int(ends[-1]) if len(ends) else 0, width), dtype=_ROW)
    step = max(1, _CHUNK // max(width, cand.shape[1]))  # faces made
    span = max(1, _CHUNK // (64 * cand.shape[1]))  # faces whose bits are expanded
    grow_at, grow_cand = [], []
    lo = 0
    while lo < len(parents):
        # faces lo .. hi-1, whose new faces start at row `at`
        at = int(ends[lo] - counts[lo])
        hi = max(lo + 1, min(lo + span, int(np.searchsorted(ends, at + step, side="right"))))
        bits = np.unpackbits(cand[lo:hi].view(np.uint8), axis=1, bitorder="little")
        owner, j = np.nonzero(bits)
        out[at : at + len(j), :-1] = level[parents[lo:hi][owner]]
        out[at : at + len(j), -1] = j
        more, more_cand = _growing(np.arange(at, at + len(j)), cand[lo:hi][owner] & later[j])
        grow_at.append(more)
        grow_cand.append(more_cand)
        lo = hi
    if not grow_at:
        return out, np.zeros(0, dtype=np.intp), cand[:0]
    return out, np.concatenate(grow_at), np.concatenate(grow_cand)


_CHUNK = 1 << 20  # bits expanded, or faces made, per part
_PAIRS = 1 << 16  # pairs of vertices compared per part: larger parts leave the cache, and run slower
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)  # set bits of each byte
