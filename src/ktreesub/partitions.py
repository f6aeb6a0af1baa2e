"""Set partitions of {1..m} and the posets of partitions with block sizes
congruent to 1 modulo k, ordered by refinement.

The full partition lattice is the k = 1 case.  Blocks are kept in canonical
form (each block ascending, blocks sorted by least element) and mirrored as
bitmasks, so m is capped at 64.
"""

from __future__ import annotations

import re
from itertools import chain, combinations, groupby, repeat
from math import comb
from operator import attrgetter

import numpy as np

from . import _kernels as kernels
from .errors import MAX_POSET_ELEMENTS, ResourceLimit
from .poset import Poset

MAX_GROUND_SET = 64


class Partition:
    """A set partition of {1..m} in canonical block form."""

    __slots__ = ("m", "blocks", "_masks", "_hash", "_nonsingleton")

    def __init__(self, m: int, blocks):
        _check_ground_set(m)
        canon = [tuple(sorted(b)) for b in blocks]
        if not all(canon):
            raise ValueError(f"blocks do not partition 1..{m}")
        canon = tuple(sorted(canon, key=lambda b: b[0]))
        seen = set()
        for b in canon:
            for x in b:
                if not 1 <= x <= m or x in seen:
                    raise ValueError(f"blocks do not partition 1..{m}")
                seen.add(x)
        if len(seen) != m:
            raise ValueError(f"blocks do not partition 1..{m}")
        self.m = m
        self.blocks = canon
        self._masks = tuple(map(_mask, canon))
        self._hash = hash((m, canon))
        self._nonsingleton = tuple(b for b in canon if len(b) > 1)

    @classmethod
    def _canonical(cls, m: int, blocks, masks, nonsingleton) -> "Partition":
        """The partition with ``blocks``, already canonical (each block
        ascending, blocks by least element) and a partition of 1..m, given
        with their bitmasks ``masks`` and the ``nonsingleton`` blocks among
        them: trusted, not checked.  For the bulk builders, which check
        their input once for all of their labels."""
        self = cls.__new__(cls)
        self.m = m
        self.blocks = blocks
        self._masks = masks
        self._hash = hash((m, blocks))
        self._nonsingleton = nonsingleton
        return self

    # construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "Partition":
        return cls(m, [(i,) for i in range(1, m + 1)])

    @classmethod
    def one(cls, m: int) -> "Partition":
        return cls(m, [tuple(range(1, m + 1))])

    @classmethod
    def from_rgs(cls, rgs) -> "Partition":
        """From a restricted growth string (block id per element, 0-based)."""
        groups = {}
        for pos, c in enumerate(rgs):
            groups.setdefault(int(c), []).append(pos + 1)
        return cls(len(rgs), groups.values())

    @classmethod
    def atom(cls, m: int, block) -> "Partition":
        """Partition with the given block and singletons elsewhere."""
        block = tuple(sorted(block))
        inside = set(block)
        rest = [(i,) for i in range(1, m + 1) if i not in inside]
        return cls(m, [block] + rest)

    # basic data -----------------------------------------------------------

    @property
    def rank(self) -> int:
        """m minus the number of blocks."""
        return self.m - len(self.blocks)

    def nonsingleton_blocks(self):
        return self._nonsingleton

    def is_mod_k(self, k: int) -> bool:
        return all((len(b) - 1) % k == 0 for b in self.blocks)

    def sort_key(self):
        return (self.rank, self.blocks)

    # order and joins -------------------------------------------------------

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self is contained in a block of other."""
        if self.m != other.m:
            raise ValueError("partitions live on different ground sets")
        return all(any(bm & om == bm for om in other._masks) for bm in self._masks)

    def join(self, other: "Partition") -> "Partition":
        """Finest common coarsening (union-find over the two block sets)."""
        if self.m != other.m:
            raise ValueError("partitions live on different ground sets")
        parent = list(range(self.m + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for p in (self, other):
            for b in p.blocks:
                for y in b[1:]:
                    parent[find(y)] = find(b[0])
        groups = {}
        for x in range(1, self.m + 1):
            groups.setdefault(find(x), []).append(x)
        return Partition(self.m, groups.values())

    def permute(self, perm) -> "Partition":
        """Relabel by the permutation (perm[i-1] is the image of i) and
        recanonicalize."""
        if len(perm) != self.m:
            raise ValueError("permutation length does not match ground set")
        return Partition(self.m, [[perm[x - 1] for x in b] for b in self.blocks])

    # dunder ----------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.m == other.m
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"Partition({self.m}, {self.text()!r})"

    def text(self) -> str:
        """Shorthand like ``(123)4567``; comma form beyond single digits."""
        if self.m <= 9:
            out = []
            for b in self.blocks:
                s = "".join(str(x) for x in b)
                out.append(f"({s})" if len(b) > 1 else s)
            return "".join(out)
        return "".join("(" + ",".join(str(x) for x in b) + ")" for b in self.blocks)

    def to_json(self):
        return [list(b) for b in self.blocks]


def _check_ground_set(m: int):
    if m < 1:
        raise ValueError("ground set must be nonempty")
    if m > MAX_GROUND_SET:
        raise ResourceLimit(f"ground sets beyond {MAX_GROUND_SET} elements are out of scope")


def _mask(block) -> int:
    msk = 0
    for x in block:
        msk |= 1 << (x - 1)
    return msk


def parse_partition(text: str, m: int) -> Partition:
    """Parse CLI shorthand: ``(123)4567`` or ``(1,2,3)(4)(5)``; elements not
    mentioned are taken as singletons."""
    _check_ground_set(m)  # before up to m singletons are filled in
    text = text.strip()
    blocks = []
    seen = set()
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "(":
            end = text.index(")", pos)
            body = text[pos + 1 : end]
            if "," in body or " " in body:
                elems = [int(t) for t in re.split(r"[,\s]+", body.strip()) if t]
            elif m <= 9:
                elems = [int(c) for c in body]
            else:
                elems = [int(body)]
            blocks.append(elems)
            seen.update(elems)
            pos = end + 1
        elif ch.isdigit():
            blocks.append([int(ch)])
            seen.add(int(ch))
            pos += 1
        elif ch in ", ":
            pos += 1
        else:
            raise ValueError(f"cannot parse partition text {text!r}")
    for x in range(1, m + 1):
        if x not in seen:
            blocks.append([x])
    return Partition(m, blocks)


class PartitionPoset:
    """The poset of partitions of {1..m} with all block sizes ≡ 1 (mod k),
    under refinement.  k = 1 gives the full partition lattice."""

    def __init__(self, m: int, k: int, poset: Poset):
        self.m = m
        self.k = k
        self.poset = poset
        self._factors_cache = {}
        self._g_indices = None
        self._g_by_block = None

    def g_indices(self):
        """Indices of the building-set analogue G: single-nonsingleton-block
        partitions of rank divisible by k."""
        if self._g_indices is None:
            self._g_indices = [
                i
                for i, x in enumerate(self.poset.labels)
                if len(x.nonsingleton_blocks()) == 1 and x.rank % self.k == 0
            ]
        return self._g_indices

    def g_partitions(self):
        return [self.poset.labels[i] for i in self.g_indices()]

    def factors(self, x: Partition) -> frozenset:
        """Maximal G-elements below x.

        Every block of x has size ≡ 1 (mod k), so these are the single-block
        partitions of its non-singleton blocks: ``factors_I(x)``, as the
        poset's own label objects (looked up by block, not built afresh).
        """
        i = self.poset.index(x)
        got = self._factors_cache.get(i)
        if got is None:
            if self._g_by_block is None:
                self._g_by_block = {
                    g.nonsingleton_blocks()[0]: g for g in self.g_partitions()
                }
            got = frozenset(self._g_by_block[b] for b in x.nonsingleton_blocks())
            self._factors_cache[i] = got
        return got

    def chain_factors(self, chain) -> frozenset:
        """Union of factors over a chain of proper-part partitions."""
        out = set()
        for x in chain:
            out |= self.factors(x)
        return frozenset(out)

    def minimal_upper_bounds(self, parts) -> list:
        """All minimal upper bounds within this poset, as partitions."""
        idx = [self.poset.index(x) for x in parts]
        return sorted(
            (self.poset.labels[i] for i in self.poset.minimal_upper_bounds(idx)),
            key=Partition.sort_key,
        )


def enumerate_partitions(m: int, k: int, max_elements: int = MAX_POSET_ELEMENTS) -> PartitionPoset:
    """All partitions of {1..m} with block sizes ≡ 1 (mod k), with refinement
    order, canonical element order, and designated bounds.

    The order comes in closed form (:func:`_kernels.coarsening_pairs`): the
    elements above x are Π^(k)_b read over the b blocks of x, and the height
    of x is (m - b) / k.  The element count is checked against
    ``max_elements`` before any enumeration happens.  One growth makes the
    restricted growth strings on m symbols and on each fewer number
    (:func:`_kernels.rgs_filtered`): the labels are built in bulk from the
    first, which are checked once for all of them (:func:`_labels_of_rgs`),
    and the order reads the others.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive")
    if m > MAX_GROUND_SET:
        raise ResourceLimit(f"ground sets beyond {MAX_GROUND_SET} elements are out of scope")
    count = kernels.count_partitions_modk(m, k)
    if count > max_elements:
        raise ResourceLimit(
            f"poset would have {count} elements (cap {max_elements})"
        )
    tables = kernels.rgs_filtered(m, k)
    rgs = tables[m]
    labels, order = _labels_of_rgs(rgs, k)
    canonical = np.empty(len(order), dtype=np.intp)  # rgs row -> element index
    canonical[order] = np.arange(len(order))
    below, above = kernels.coarsening_pairs(tables)
    blocks = rgs[order].max(axis=1).astype(np.int64) + 1
    # the canonical order is by rank first: 0̂ is the only element of rank
    # 0 and 1̂, when its block size is ≡ 1 (mod k), the only one of rank m-1
    poset = Poset.from_pairs(
        labels, canonical[below], canonical[above], min_index=0,
        max_index=len(labels) - 1 if (m - 1) % k == 0 else None, heights=(m - blocks) // k,
    )
    return PartitionPoset(m, k, poset)


def _labels_of_rgs(rgs, k):
    """The partitions of the rows of ``rgs``, an (N, m) integer array of
    restricted growth strings with block sizes ≡ 1 (mod k), in canonical
    order (by :meth:`Partition.sort_key`), and the row of ``rgs`` each came
    from.

    The rows are checked once, in bulk, and raise ``ValueError`` unless
    each starts at 0, grows by at most one past its running maximum and
    has every block size ≡ 1 (mod k); each label is then built by the
    trusted :meth:`Partition._canonical`.  Block c of a row is the
    positions holding c, so a stable argsort of the row lists the blocks in
    order, each ascending, and the blocks are in canonical order.  The
    sort key compares as the row of those elements with a 0 after each
    block: a block that is a prefix of another is followed by the 0 that
    sorts first, as a shorter tuple does."""
    a = np.asarray(rgs, dtype=np.intp)
    n, m = a.shape
    top = np.maximum.accumulate(a, axis=1)
    if (a[:, 0] != 0).any() or (a[:, 1:] > top[:, :-1] + 1).any() or (a < 0).any():
        raise ValueError("a row is not a restricted growth string")
    counts = np.bincount((np.arange(n)[:, None] * m + a).ravel(), minlength=n * m).reshape(n, m)
    nblocks = top[:, -1] + 1
    exists = np.arange(m) < nblocks[:, None]
    if ((counts[exists] - 1) % k).any():
        raise ValueError(f"a block size is not 1 (mod {k})")
    grouped = a.argsort(axis=1, kind="stable")
    key = np.zeros((n, 2 * m), dtype=np.int8)
    key[np.arange(n)[:, None], np.arange(m) + np.take_along_axis(a, grouped, axis=1)] = grouped + 1
    order = np.lexsort((*key[:, ::-1].T, m - nblocks))
    # the mask of every block, rows in canonical order, from the positions
    # where each block starts among the grouped elements
    starts = (np.cumsum(counts, axis=1) - counts)[order] + np.arange(n)[:, None] * m
    bits = np.left_shift(np.uint64(1), grouped[order].astype(np.uint64))
    counts, exists, nblocks = counts[order], exists[order], nblocks[order]
    masks = np.bitwise_or.reduceat(bits.ravel(), starts[exists])
    # one tuple and one int per distinct block, made from the bits of its
    # mask, with the distinct blocks by size (so that _cuts makes those of
    # one size in one step); each label's are cut from the lists of all
    sizes = counts[exists]
    by = np.lexsort((masks, sizes))
    first = np.ones(len(by), dtype=bool)
    first[1:] = masks[by[1:]] != masks[by[:-1]]
    which = np.empty(len(by), dtype=np.intp)
    which[by] = np.cumsum(first) - 1
    which = which.tolist()
    distinct = masks[by[first]]
    members = np.nonzero(distinct[:, None] >> np.arange(m, dtype=np.uint64) & np.uint64(1))[1] + 1
    blocks = list(map(_cuts(members.tolist(), sizes[by[first]].tolist()).__getitem__, which))
    wide = list(map(blocks.__getitem__, np.flatnonzero(sizes > 1).tolist()))
    nblocks = nblocks.tolist()
    labels = list(map(
        Partition._canonical, repeat(m), _cuts(blocks, nblocks),
        _cuts(list(map(distinct.tolist().__getitem__, which)), nblocks), _cuts(wide, (counts > 1).sum(axis=1).tolist()),
    ))
    return labels, order


def _cuts(flat, sizes):
    """``flat``, a list, cut into consecutive tuples of ``sizes`` (a list)
    items.  A run of equal sizes is cut in one step, by zipping an iterator
    over the run with itself: the labels come in runs, by their number of
    blocks."""
    out, lo = [], 0
    for s, run in groupby(sizes):
        count = len(list(run))
        out += zip(*[iter(flat[lo : lo + s * count])] * s) if s else repeat((), count)
        lo += s * count
    return out


def _wide_masks(labels):
    """The bitmasks of the blocks of more than one element of the
    partitions ``labels``, and the position in ``labels`` of each."""
    per_label = list(map(attrgetter("_masks"), labels))
    masks = np.fromiter(chain.from_iterable(per_label), dtype=np.uint64)
    owner = np.repeat(np.arange(len(labels)), np.fromiter(map(len, per_label), dtype=np.intp, count=len(labels)))
    wide = (masks & (masks - np.uint64(1))) != 0
    return owner[wide], masks[wide]


def join_all(parts) -> Partition:
    """Join of a nonempty family in the full partition lattice."""
    parts = list(parts)
    out = parts[0]
    for p in parts[1:]:
        out = out.join(p)
    return out


def g_set_count(m: int, k: int) -> int:
    """``len(g_set(m, k))`` in closed form: C(m, s) summed over the block
    sizes s = 1 + jk, j >= 1."""
    return sum(comb(m, s) for s in range(1 + k, m + 1, k))


def g_set(m: int, k: int) -> list:
    """Members of the minimal building set (the partitions of {1..m} with
    exactly one block of size > 1; all of them for k = 1) whose rank is
    divisible by k, i.e. whose non-singleton block has size ≡ 1 (mod k),
    canonically sorted.
    Only blocks of those sizes are built, each as its canonical blocks (the
    singletons below its least element, the block, the other singletons)
    by the trusted :meth:`Partition._canonical`."""
    sizes = range(1 + k, m + 1, k)
    if sizes:
        _check_ground_set(m)
    singles = [((i,), 1 << (i - 1)) for i in range(1, m + 1)]
    canonical = Partition._canonical
    out = []
    for s in sizes:
        for block in combinations(range(1, m + 1), s):
            mask = _mask(block)
            rest = [b for b in singles[block[0] :] if not b[1] & mask]
            blocks, masks = zip(*singles[: block[0] - 1], (block, mask), *rest)
            out.append(canonical(m, blocks, masks, (block,)))
    return sorted(out, key=Partition.sort_key)


def factors_I(x: Partition) -> frozenset:
    """Factors of x in the minimal building set: one single-block partition
    per non-singleton block of x."""
    return frozenset(Partition.atom(x.m, b) for b in x.nonsingleton_blocks())

