"""Building-set verification, nested set complexes, join-closure lattices of
nested families, stellar-subdivision sequences with carrier tracking, the
chain-to-factors carrier map, and the exact-arithmetic subdivision verifier.

The carrier map sends a chain of the proper part of the restricted partition
poset to the union of the factors of its members; vertices are placed at
exact rational barycenters of their factor faces.  Verification is the
interior-partition criterion, run face by face in exact arithmetic.
"""

from __future__ import annotations

import random
from collections.abc import MutableMapping
from dataclasses import asdict, dataclass
from functools import cache, cached_property, partial
from fractions import Fraction
from itertools import chain, combinations, permutations
from math import factorial, lcm, prod

import numpy as np

from . import exact
from .complexes import _CHUNK, FaceRows, FacetReplay, SimplicialComplex, _search, _search_keys
from .errors import MAX_FACES, MAX_POSET_ELEMENTS, NotLinearExtension, NotNested, ResourceLimit
from .partitions import Partition, PartitionPoset, _cuts, _wide_masks, enumerate_partitions
from .poset import Poset, _gather, product
from .trees import enumerate_ktree_complex


# ---------------------------------------------------------------------------
# building sets and nested set complexes
# ---------------------------------------------------------------------------


def is_building_set(p: Poset, g_indices):
    """Whether the elements ``g_indices`` form a building set of ``p``.

    For every x above the designated minimum, the product of the intervals
    below the maximal G-elements under x must be isomorphic to the interval
    below x by a map fixing the unit tuples.  Returns (ok, witness_label).
    """
    if p.min_index is None:
        raise ValueError("building sets need a designated minimum")
    zero = p.min_index
    gset = set(g_indices)
    if zero in gset:
        raise ValueError("the minimum cannot belong to a building set")
    for x in range(p.n):
        if x == zero:
            continue
        factors = p.maximal_in(gset.intersection(p.down(x) + [x]))
        if factors == [x]:
            continue
        if not factors:
            return False, p.labels[x]
        target = p.interval(zero, x)
        intervals = [p.interval(zero, z) for z in factors]
        prod = product(intervals)
        if prod.n != target.n:
            return False, p.labels[x]
        pins = {}
        if len(factors) == 1:
            pins[prod.index(p.labels[factors[0]])] = target.index(p.labels[factors[0]])
        else:
            zero_label = p.labels[zero]
            for t, z in enumerate(factors):
                unit = tuple(
                    p.labels[z] if s == t else zero_label for s in range(len(factors))
                )
                pins[prod.index(unit)] = target.index(p.labels[z])
        if prod.is_isomorphic(target, pins=pins) is None:
            return False, p.labels[x]
    return True, None


def nested_set_complex(p: Poset, g_indices, keep_apex=False, max_faces=MAX_FACES) -> SimplicialComplex:
    """Complex of nonempty G-nested subsets: every antichain of size >= 2 must
    have a unique minimal upper bound lying outside G.

    The maximal element of the poset, when it belongs to G, is removed from
    the vertex set unless ``keep_apex`` is set; it still participates in the
    join-membership tests.
    """
    gset = set(g_indices)
    cand = sorted(gset)
    if p.max_index is not None and p.max_index in gset and not keep_apex:
        cand.remove(p.max_index)
    incomparable = {
        v: set(cand).difference(p.up(v), p.down(v), [v])
        for v in cand
    }
    faces = []

    def extension_ok(face, g):
        others = [s for s in face if s in incomparable[g]]
        for size in range(1, len(others) + 1):
            for sub in combinations(others, size):
                if any(w not in incomparable[a] for a, w in combinations(sub, 2)):
                    continue
                mubs = p.minimal_upper_bounds(list(sub) + [g])
                if len(mubs) != 1 or mubs[0] in gset:
                    return False
        return True

    def grow(face):
        start = cand.index(face[-1]) + 1 if face else 0
        for pos in range(start, len(cand)):
            g = cand[pos]
            if extension_ok(face, g):
                new = face + (g,)
                faces.append(frozenset(new))
                if len(faces) > max_faces:
                    raise ResourceLimit(f"nested set complex exceeds {max_faces} faces")
                grow(new)

    grow(())
    labels = [p.labels[i] for i in cand]
    pos = {g: t for t, g in enumerate(cand)}
    return SimplicialComplex(labels, [frozenset(pos[g] for g in f) for f in faces])


# ---------------------------------------------------------------------------
# the join-closure lattice of a nested family
# ---------------------------------------------------------------------------


@dataclass
class SigmaLattice:
    """Join closure of a nested family inside the restricted poset, with the
    induced order.  Carries the base family and the subposet (minimum is the
    all-singletons partition, maximum the join of the family)."""

    family: tuple
    poset: Poset

    @property
    def top(self) -> Partition:
        return self.poset.labels[self.poset.max_index]


def _unique_kjoin(pk: PartitionPoset, idx_set):
    """Index of the unique minimal upper bound; NotNested when ambiguous."""
    if not idx_set:
        return pk.poset.min_index
    mubs = pk.poset.minimal_upper_bounds(idx_set)
    if len(mubs) != 1:
        labels = [pk.poset.labels[i].text() for i in idx_set]
        raise NotNested(f"{len(mubs)} minimal upper bounds for {labels}")
    return mubs[0]


def sigma_lattice(pk: PartitionPoset, family) -> SigmaLattice:
    """Close a nested family under joins of subsets inside the restricted
    poset.  The lattice axioms, the factor identity a = join(max family
    below a), the meet formula, and the building-set property of the family
    are all asserted (:class:`NotNested` otherwise)."""
    fam = sorted(set(family), key=Partition.sort_key)
    fidx = [pk.poset.index(x) for x in fam]
    elements = set()
    for r in range(len(fidx) + 1):
        for sub in combinations(fidx, r):
            elements.add(_unique_kjoin(pk, list(sub)))
    order = sorted(elements, key=lambda i: pk.poset.labels[i].sort_key())
    top = _unique_kjoin(pk, fidx)
    sub = pk.poset.subposet(order, min_index=pk.poset.min_index, max_index=top)
    sigma = SigmaLattice(tuple(fam), sub)
    _check_sigma(pk, sigma, fidx)
    return sigma


def _check_sigma(pk: PartitionPoset, sigma: SigmaLattice, fidx):
    sub = sigma.poset
    n = sub.n
    pk_index = [pk.poset.index(lab) for lab in sub.labels]
    for a in range(n):
        below = [i for i in fidx if pk.poset.is_leq(i, pk_index[a])]
        expect = _unique_kjoin(pk, pk.poset.maximal_in(below))
        if expect != pk_index[a]:
            raise NotNested(
                f"{sub.labels[a].text()} is not the join of its family factors"
            )
    for a in range(n):
        for b in range(a + 1, n):
            if len(sub.minimal_upper_bounds([a, b])) != 1:
                raise NotNested("join closure is not a lattice (join fails)")
            mlbs = sub.maximal_lower_bounds([a, b])
            if len(mlbs) != 1:
                raise NotNested("join closure is not a lattice (meet fails)")
            shared = [
                i
                for i in fidx
                if pk.poset.is_leq(i, pk_index[a]) and pk.poset.is_leq(i, pk_index[b])
            ]
            formula = _unique_kjoin(pk, pk.poset.maximal_in(shared))
            if formula != pk_index[mlbs[0]]:
                raise NotNested("meet differs from the factor-intersection formula")
    ok, witness = is_building_set(sub, [sub.index(x) for x in sigma.family])
    if not ok:
        raise NotNested(f"family is not a building set (witness {witness})")


# ---------------------------------------------------------------------------
# stellar subdivision sequences
# ---------------------------------------------------------------------------


@dataclass
class BlowupStep:
    new_label: object
    subdivided_face: frozenset  # labels


@dataclass
class BlowupResult:
    initial: SimplicialComplex
    steps: list
    replay: FacetReplay  # the maximal faces after the last step
    recorded: list | None = None  # the initial complex and one after every step, when recorded

    @cached_property
    def factor_map(self) -> dict:
        """Label -> frozenset of initial vertex labels: each initial vertex's
        own label, and each new vertex's factor face."""
        out = {lab: frozenset([lab]) for lab in self.initial.vertices}
        out.update((step.new_label, step.subdivided_face) for step in reversed(self.steps))
        return out

    @cached_property
    def complexes(self) -> list:
        """The recorded complexes, else the initial and the final one."""
        return self.recorded or [self.initial, self.replay.freeze()]

    @property
    def final(self) -> SimplicialComplex:
        return self.complexes[-1]

    def carrier(self, face_labels) -> frozenset:
        """Carrier of a face of any intermediate complex inside the initial
        one: the union of the factor faces of its vertices."""
        out = set()
        for lab in face_labels:
            out |= self.factor_map[lab]
        return frozenset(out)


def run_blowup(order: Poset, initial: SimplicialComplex, ext_indices, record_intermediate=True) -> BlowupResult:
    """Perform the stellar subdivisions attached to a linear extension.

    ``ext_indices`` must be a linear extension (smallest first) of the induced
    order on the new elements; subdivisions are performed from its top end
    downward, so that each step subdivides the face spanned by the maximal
    current vertices below the new element.  Processing the extension upward
    instead provably breaks the intermediate building sets.  No element
    added before h is below h (it comes after h in the extension), so that
    face is h's factor face: the maximal initial vertices below h.

    The steps edit a :class:`FacetReplay`, which holds maximal faces only,
    by this lemma (the facet lemma).  Let K be a simplicial complex and σ a
    face with |σ| ≥ 2, subdivided by a new vertex v.  The maximal faces of sd_σ K
    are the maximal faces of K that do not contain σ, and (F ∖ {s}) ∪ {v}
    for each maximal F ⊇ σ and each s ∈ σ; distinct pairs (F, s) give
    distinct faces.  K need not be pure.  Proof sketch:

    * sd_σ K = (K ∖ st σ) ∪ (v ∗ ∂σ ∗ lk σ), and the facets of lk σ are
      the F ∖ σ;
    * a face that does not contain σ but lies in some F ⊇ σ lies in
      F ∖ {s}, for some s ∈ σ that it misses;
    * no new face lies in another one, and no old maximal face lies in a
      new one, because it would lie in F ∖ {s} ⊊ F.

    Without ``record_intermediate`` the steps run in passes
    (:meth:`FacetReplay.subdivide_all`), by the disjoint-stars lemma.  Let
    the stars (maximal faces F ⊇ σ_j) of σ_1 .. σ_r in K be pairwise
    disjoint, and let no σ_j hold a vertex v_i that a step makes.  Then the
    r steps in turn give the complex got at once: every star removed, and
    (F ∖ {s}) ∪ {v_j} added for each F in σ_j's star and s ∈ σ_j.  Proof
    sketch: a face (F ∖ {s}) ∪ {v_i} that step i makes holds σ_j only if
    F ⊇ σ_j, as v_i ∉ σ_j, and F is then in both stars; so no step before
    j adds a maximal face to σ_j's star or removes one.  σ_i ⊊ σ_j is
    covered, as the stars then meet.  A run ends before the first step
    whose star is empty or meets an earlier one's, or whose σ holds a
    vertex the run makes; that step is read again after the run.  Along
    the canonical extension the runs are the block counts.

    ``final`` is built (and validated) on first read, and with
    ``record_intermediate`` a complex after every step, one pass per step.
    """
    ext = list(ext_indices)
    if not order.is_linear_extension(ext):
        raise NotLinearExtension("supplied sequence is not a linear extension")
    labels = order.labels
    in_initial = np.zeros(order.n, dtype=bool)
    in_initial[np.fromiter(map(order._index.__getitem__, initial.vertices), dtype=np.intp,
                           count=len(initial.vertices))] = True
    # the initial elements below each h, and below each of those
    owner, below = _gather(order.down_indptr, order.down_indices, np.asarray(ext, dtype=np.intp))
    owner, below = owner[in_initial[below]], below[in_initial[below]]
    tops, top_of = np.unique(below, return_inverse=True)
    under_of, under = _gather(order.down_indptr, order.down_indices, tops)
    keep = in_initial[under]
    start = np.zeros(len(tops) + 1, dtype=np.intp)
    np.cumsum(np.bincount(under_of[keep], minlength=len(tops)), out=start[1:])
    # one below h is maximal there unless it is below another one below h
    inner, lower = _gather(start, under[keep], top_of)
    maximal = np.ones(len(below), dtype=bool)  # the numbers owner * n + below increase
    maximal[(owner * order.n + below).searchsorted(owner[inner] * order.n + lower)] = False
    owner, below = owner[maximal], below[maximal]
    faces = _cuts(list(map(labels.__getitem__, below.tolist())), np.bincount(owner, minlength=len(ext)).tolist())
    steps = [BlowupStep(labels[h], frozenset(face)) for h, face in zip(reversed(ext), reversed(faces))]
    replay = FacetReplay(initial)
    recorded = None
    if record_intermediate:
        recorded = [initial]
        for step in steps:
            if replay.stellar_subdivide(step.subdivided_face, new_label=step.new_label):
                recorded.append(replay.freeze())
    else:
        replay.subdivide_all((step.subdivided_face, step.new_label) for step in steps)
    return BlowupResult(initial=initial, steps=steps, replay=replay, recorded=recorded)


def blowup_sequence(
    l_poset: Poset,
    h_indices,
    g_indices,
    ext_indices=None,
    keep_apex=True,
    max_faces=MAX_FACES,
) -> BlowupResult:
    """Stellar-subdivision sequence from the nested set complex of the smaller
    building set to that of the larger one.

    ``ext_indices`` defaults to the canonical linear extension of G \\ H; any
    valid linear extension yields the same final complex.
    """
    hset, gset = set(h_indices), set(g_indices)
    if not hset <= gset:
        raise ValueError("the starting building set must be contained in the target")
    diff = sorted(gset - hset)
    if ext_indices is None:
        ext_indices = l_poset.linear_extension(diff)
    if set(ext_indices) != set(diff):
        raise NotLinearExtension("extension must enumerate exactly G \\ H")
    start = nested_set_complex(l_poset, hset, keep_apex=keep_apex, max_faces=max_faces)
    return run_blowup(l_poset, start, ext_indices)


# ---------------------------------------------------------------------------
# carrier maps
# ---------------------------------------------------------------------------


_DELETED = object()  # an override that removes a key's value
_PAD = np.iinfo(np.int32).max  # past every vertex index: pads sort last


class _ClosedForm(MutableMapping):
    """A mapping computed from ``carriers`` (one tuple of target vertex
    indices per vertex of the complex ``source``) when it is read, plus
    overrides.  Edits made through the mapping (``[]=``, ``del``,
    ``setdefault``) are kept in ``overrides``, which are read first.  With
    no carriers the mapping is its overrides alone.  A subclass gives the
    keys of the closed form (:meth:`_closed`, :meth:`_keys`) and the value
    of each (:meth:`_value`)."""

    def __init__(self, source, carriers=None, overrides=None):
        self.source = source
        self.carriers = carriers
        self.overrides = {} if overrides is None else overrides

    def __getitem__(self, key):
        if key in self.overrides:
            value = self.overrides[key]
            if value is _DELETED:
                raise KeyError(key)
            return value
        if self._closed(key):
            return self._value(key)
        raise KeyError(key)

    def __contains__(self, key):
        if key in self.overrides:
            return self.overrides[key] is not _DELETED
        return self._closed(key)

    def __setitem__(self, key, value):
        self.overrides[key] = value

    def __delitem__(self, key):
        if key not in self:
            raise KeyError(key)
        if self._closed(key):
            self.overrides[key] = _DELETED
        else:
            del self.overrides[key]

    def __iter__(self):
        if self.carriers is not None:
            yield from (key for key in self._keys() if self.overrides.get(key) is not _DELETED)
        yield from (key for key in self.overrides if not self._closed(key))

    def __len__(self):
        return sum(1 for _ in self)


class CarrierPhi(_ClosedForm):
    """φ of a carrier map: a face of ``source`` (a frozenset of its vertex
    indices) maps to the union of its vertices' carriers.  A plain dict
    given to :class:`CarrierMap` as φ becomes its overrides over no
    carriers."""

    def _closed(self, face) -> bool:
        return self.carriers is not None and self.source.has_face(face)

    def _value(self, face):
        return frozenset().union(*map(self.carriers.__getitem__, face))

    def _keys(self):
        return self.source.faces

    def carrier_rows(self):
        """The carriers as one int32 array, a row of target vertex indices
        per source vertex, padded with ``_PAD``."""
        sizes = np.fromiter(map(len, self.carriers), dtype=np.intp, count=len(self.carriers))
        rows = np.full((len(sizes), sizes.max(initial=1)), _PAD, dtype=np.int32)
        owner = np.repeat(np.arange(len(sizes)), sizes)
        rows[owner, np.arange(len(owner)) - np.repeat(sizes.cumsum() - sizes, sizes)] = np.fromiter(
            chain.from_iterable(self.carriers), dtype=np.int32, count=len(owner))
        return rows


class CarrierF0(_ClosedForm):
    """f0 of a carrier map: source vertex v (an index below the number of
    carriers) sits at the barycenter of its carrier, a dict of barycentric
    coordinates over target vertex indices in the carrier's order (empty
    for an empty carrier).  A plain dict given to :class:`CarrierMap` as f0
    becomes its overrides over no carriers."""

    def _closed(self, v) -> bool:
        return self.carriers is not None and isinstance(v, (int, np.integer)) and 0 <= v < len(self.carriers)

    def _value(self, v):
        carrier = self.carriers[v]
        return dict.fromkeys(carrier, Fraction(1, len(carrier)) if carrier else None)

    def _keys(self):
        return range(len(self.carriers))


class CarrierMap:
    """Face-poset map plus exact rational vertex placement witnessing a
    subdivision.

    ``phi`` maps faces of the source (frozensets of source vertex indices)
    to faces of the target, as a :class:`CarrierPhi`; ``f0`` places each
    source vertex inside the realization of the target, as sparse dicts of
    barycentric coordinates over target vertex indices, as a
    :class:`CarrierF0`.  A plain dict given for either is read as its
    overrides over no carriers.  ``p_faces``/``q_faces`` are the faces the
    checks read as source and target: all faces of the two complexes unless
    given or set.  The checks read the complexes' rows, and reading either
    attribute unset gives its complex's ``faces``.
    """

    def __init__(self, p_complex: SimplicialComplex, q_complex: SimplicialComplex, phi, f0,
                 p_faces=None, q_faces=None):
        self.p_complex, self.q_complex = p_complex, q_complex
        self.phi = phi if isinstance(phi, CarrierPhi) else CarrierPhi(p_complex, overrides=phi)
        self.f0 = f0 if isinstance(f0, CarrierF0) else CarrierF0(p_complex, overrides=f0)
        self.given_p_faces, self.given_q_faces = p_faces, q_faces

    @property
    def p_faces(self) -> frozenset:
        return self.p_complex.faces if self.given_p_faces is None else self.given_p_faces

    @p_faces.setter
    def p_faces(self, faces):
        self.given_p_faces = faces

    @property
    def q_faces(self) -> frozenset:
        return self.q_complex.faces if self.given_q_faces is None else self.given_q_faces

    @q_faces.setter
    def q_faces(self, faces):
        self.given_q_faces = faces


def _instance(k: int, n: int, max_poset_elements, max_faces):
    """m = (n-1)k + 1, Π^(k)_m, T^k_n and Δ(Π^(k)_m), built in that order."""
    m = (n - 1) * k + 1
    pk = enumerate_partitions(m, k, max_elements=max_poset_elements)
    q = enumerate_ktree_complex(n, k, max_faces=max_faces)
    return m, pk, q, pk.poset.order_complex(max_faces=max_faces)


def global_carrier_map(k: int, n: int, max_poset_elements=MAX_POSET_ELEMENTS, max_faces=MAX_FACES):
    """The carrier map from the order complex of the restricted partition
    poset onto the k-tree complex: chains map to the union of their members'
    factors, vertices to exact barycenters of their factor faces.

    Returns (carrier_map, partition_poset)."""
    _, pk, q, p = _instance(k, n, max_poset_elements, max_faces)
    return carrier_map_from_parts(p, q), pk


def carrier_map_from_parts(p: SimplicialComplex, q: SimplicialComplex) -> CarrierMap:
    """The carrier map from the order complex ``p`` of Π^(k)_m onto the
    k-tree complex ``q``.

    The factors of a source vertex x of ``p`` are the single-block
    partitions of its blocks of more than one element
    (:meth:`PartitionPoset.factors`), so its carrier face is read off those
    blocks: the target vertices with them as their one such block, in the
    order of their labels' sort key, with no partition hashed.  x sits at
    their barycenter.  The blocks are compared as bitmasks, all at once:
    one binary search finds the target vertex of every block of every
    source vertex, and one sort puts each carrier in order.  Only the
    carriers are stored, as tuples in that order: φ of a chain is the union
    of its vertices' carriers and f0 of a vertex the barycenter of its
    carrier, both computed when read (:class:`CarrierPhi`,
    :class:`CarrierF0`)."""
    keys = list(map(Partition.sort_key, q.vertices))
    place = np.empty(len(keys), dtype=np.intp)
    place[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    q_owner, q_masks = _wide_masks(q.vertices)
    single = np.bincount(q_owner, minlength=len(keys))[q_owner] == 1
    by_mask = np.argsort(q_masks[single])
    q_owner, q_masks = q_owner[single][by_mask], q_masks[single][by_mask]
    owner, masks = _wide_masks(p.vertices)
    at = _search(q_masks, masks)
    if (at < 0).any():
        raise KeyError(f"no target vertex has a block of {p.vertices[owner[at < 0][0]].text()}")
    target = q_owner[at]
    target = target[np.lexsort((place[target], owner))].tolist()
    carriers = tuple(_cuts(target, np.bincount(owner, minlength=len(p.vertices)).tolist()))
    return CarrierMap(p_complex=p, q_complex=q, phi=CarrierPhi(p, carriers), f0=CarrierF0(p, carriers))


@dataclass
class CheckFailure:
    check: str
    detail: str
    witness: object = None

    def to_json(self):
        out = {"check": self.check, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class CarrierCheckResult:
    """The outcome of :func:`verify_carrier_map`: whether the map passed,
    its failures in check order, and ``facet_volumes``, per target face
    with cells (keyed by its label, in check order) the total volume of its
    full-dimensional cells as a string.  ``facet_volumes`` is given, or
    made by ``volumes()`` on first read."""

    def __init__(self, passed: bool, failures: list, facet_volumes: dict | None = None, volumes=None):
        self.passed, self.failures, self._volumes = passed, failures, volumes
        if volumes is None:
            self.facet_volumes = {} if facet_volumes is None else facet_volumes

    @cached_property
    def facet_volumes(self) -> dict:
        return self._volumes()


def verify_carrier_map(cm: CarrierMap) -> CarrierCheckResult:
    """Exact verification that the carrier map witnesses a subdivision.

    Checks, in arbitrary-precision rational arithmetic: well-formedness
    (order preservation, vertex supports, injectivity), nondegeneracy of
    every cell image, pairwise disjointness of open cell images inside each
    target face, and the volume identity per target face: a global pass
    (:func:`_check_well_formed`), then :func:`check_target_face` on each
    target face, smallest first, all reading φ from one :class:`_PhiTable`.
    Failures are collected, not raised.  Where f0 is the closed form over
    φ's carriers (:class:`CarrierF0`), the vertex checks decide only the
    edited vertices (:func:`_edited_vertices`): every other vertex is the
    barycenter of its image under φ.  Likewise the order test compares only
    the pairs of a face σ and a facet τ of it where one of the two takes φ
    from elsewhere than the carriers: if both are faces of
    ``cm.phi.source`` with no entry in ``cm.phi.overrides``, then
    φ(τ) = ∪_{v∈τ} C_v ⊆ ∪_{v∈σ} C_v = φ(σ), C_v the carrier of v.  A
    target face's label is made only for a failure that names it, and
    ``facet_volumes`` only when it is read (:class:`CarrierCheckResult`).

    Disjointness is decided by a ridge certificate where it holds, and by
    one linear feasibility test per pair of cells (Fourier-Motzkin, which
    also gives the ``interiors_disjoint`` witness point) where it does not.
    For a target face qf of dimension d with cells C (phi = qf), the
    certificate needs: no cell of C meeting the source vertices that the
    well-formedness pass marks (those of a face with a φ failure or a
    missing sub-face, those failing a vertex check, both vertices of a
    coincidence), every cell of C nondegenerate, the d-cells' volumes
    summing to that of qf, every ridge r of a d-cell with phi(r) = qf in
    exactly two d-cells of C whose apexes lie on opposite sides of r, every
    other ridge (phi(r) a proper face of qf) in exactly one, and every lower
    cell of C a face of some d-cell of C.  A malformed vertex thus costs the
    pairwise tests only on the target faces with a cell through it.

    Why it suffices: when no cell of C meets a marked vertex, every face of
    a cell of C is a source face with an image in the target, φ is
    order-preserving on them, and their vertices sit at distinct points,
    each in the relative interior of its carrier, a face of qf.  So the
    d-cells are simplices in the closed target simplex P and a ridge with
    phi(r) < qf lies in the boundary of P.  Count the open d-cells over a
    generic point of P.  Along a generic path in the interior of P the count
    changes only where the path crosses a ridge, and every ridge there has
    one cell on each side, so the count is a constant: the degree.
    Integrating, the volumes sum to the degree times the volume of P, so the
    degree is 1.  A set of full-dimensional simplices with this
    pseudomanifold property and degree one is a triangulation (De Loera,
    Rambau and Santos, *Triangulations*, 2010, ch. 4): the cells meet in
    common faces.  The cells of C are distinct faces of that triangulation
    (their vertices sit at distinct points), so their open images are
    pairwise disjoint, which is what the pairwise test would have found.
    Nothing outside C enters the argument.

    A cell of at most :data:`exact.INT64_ORDER` vertices, all unedited,
    whose carriers C_v lie in qf, is decided in closed form
    (:meth:`_PhiTable.cells`): in the chart of qf its points are the rows
    of its 0/1 incidence matrix I (row v marks the vertices of qf in C_v)
    divided by |C_v|.  It is nondegenerate when I has full row rank.  If it
    is full-dimensional, its signed volume ratio is the determinant of its
    square barycentric matrix P (with the first column replaced by the row
    sums, all 1, this is the determinant of the difference matrix), so
    det(P) = det(I) / Π|C_v|.  Rank and det(I) come from
    :func:`exact.bareiss_int64` over all such cells of a batch, exact in
    int64 up to 22 rows: a 0/1 minor of order r is at most
    H(r) = (r+1)^((r+1)/2) / 2^r, and 2·H(22)² < 2^63.  Any other cell
    takes the ``Fraction`` path, as do the pairwise tests.

    The target faces are checked one per S_m-orbit where a generator
    certificate allows it.  With no marked vertex (so no well-formedness
    failure) and partition labels on both sides, let σ be (1 2) or
    (1 2 ... m), which generate S_m.  The certificate asks that σ map the
    source faces and the target faces into themselves, that φ(σc) = σφ(c)
    for every source face c (:func:`generator_certificate`) and that
    f0(σv) = σf0(v) for every source vertex v.  Then the cells over σ·qf
    are the images σc of the cells over qf, and the points of σc are those
    of c with their barycentric coordinates permuted: an affine isomorphism
    of the target simplex.  It keeps affine dimensions, volume ratios and
    the ridge counts, and flips the sides of both cells at a ridge together,
    so the check of σ·qf finds exactly what the check of qf finds, with its
    cells relabelled.  Each orbit is rooted at its first face in check
    order; a face copies its root's volume when the root passed with no
    failure, and is checked itself otherwise.  When the certificate fails,
    every orbit is a single face.  The failures, their order and the
    volumes are those of checking every face.

    Both sides are read in the row order of their :class:`FaceRows`, by
    size, then lexicographically: the φ failures, the target faces and the
    cells over each come in that order.
    """
    face_labels = cache(lambda: _FaceLabels(cm.q_complex))  # made for the first label read

    def label(face):
        return None if face is None else face_labels()(face)

    phi = _PhiTable(cm)
    failures, bad = _check_well_formed(cm, label, phi)
    n = phi.target.offsets[-1]
    roots = np.arange(n) if bad else _orbit_roots(cm, phi)
    is_root = roots == np.arange(n)

    target_face, cells = {}, {}  # target position -> its face, the faces of the cells over it
    on_face, known = {}, {}  # cell -> its ridge flags, its closed-form geometry (_PhiTable.cells)

    def read(targets):
        """The ascending target positions ``targets``, once their faces, the
        cells over them (in row order) and the cells' flags and geometry
        are made, one batch each."""
        if len(targets):
            wanted = np.zeros(n + 2, dtype=bool)  # the last two read φ table entries -2 and -1
            wanted[targets] = True
            over = np.flatnonzero(wanted[phi.pos])
            faces = phi.source.faces_at(over)
            for t, face in zip(phi.pos[over].tolist(), faces):
                cells.setdefault(t, []).append(face)
            target_face.update(zip(targets.tolist(), phi.target.faces_at(targets)))
            flags, geometry = phi.cells(over, faces)
            on_face.update(flags)
            known.update(geometry)
        return targets.tolist()

    def check(i):
        face_failures, total = check_target_face(cm, target_face[i], cells.get(i, []), bad, label, on_face, known)
        return face_failures, None if total is None else str(total)

    # the roots, then every face of an orbit whose root fails
    checked = {i: check(i) for i in read(np.flatnonzero(is_root))}
    failed = np.zeros(n, dtype=bool)
    failed[[i for i, (face_failures, _) in checked.items() if face_failures]] = True
    checked.update((i, check(i)) for i in read(np.flatnonzero(~is_root & failed[roots])))
    for i in sorted(checked):
        failures += checked[i][0]
    return CarrierCheckResult(passed=not failures, failures=failures,
                              volumes=partial(_facet_volumes, face_labels, phi.target, checked, roots))


def _facet_volumes(face_labels, rows: FaceRows, checked, roots) -> dict:
    """``CarrierCheckResult.facet_volumes`` of a check of the target faces
    ``rows``: per face with cells, in position order, its label from
    ``face_labels()`` (a :class:`_FaceLabels`) and its total volume, which
    ``checked`` (position -> its failures and total) holds where the face
    was checked, else holds for its orbit root ``roots[i]``.  It keeps
    only these, not the φ table."""
    n = rows.offsets[-1]
    total = np.full(n, None, dtype=object)
    total[list(checked)] = [t for _, t in checked.values()]
    own = np.zeros(n, dtype=bool)
    own[list(checked)] = True
    total = total[np.where(own, np.arange(n), roots)]
    at = np.flatnonzero(total != None)  # noqa: E711 (elementwise)
    bounds = np.searchsorted(at, rows.offsets)
    labels = chain.from_iterable(face_labels().rows(rows.rows[d][at[bounds[d]:bounds[d + 1]] - rows.offsets[d]])
                                 for d in range(len(rows.rows)) if bounds[d] < bounds[d + 1])
    return dict(zip(labels, total[at].tolist()))


class PermutationAction:
    """S_m acting on a complex whose vertex labels are partitions of 1..m.

    A label is determined by its blocks of more than one element.  Their
    bitmasks (``Partition._masks``, bit i-1 for element i) are read for all
    labels at once; the distinct ones are kept sorted, and a block is
    numbered by its place among them.  Each vertex is a row of block
    numbers, ascending and padded with the number of blocks, and the rows
    are searched by their sorted keys, so a permutation moves each distinct
    block once, as an array, not once per label.  :meth:`relabel`, the one
    relabelling test, maps ``rows``, a :class:`FaceRows` of faces over the
    vertices of ``K`` (``K.face_rows`` for all its faces); ``m`` is None
    when the labels are not all :class:`Partition` objects of one ground
    set."""

    def __init__(self, K: SimplicialComplex, rows: FaceRows):
        self.rows = rows
        ms = {lab.m if isinstance(lab, Partition) else None for lab in K.vertices}
        self.m = ms.pop() if len(ms) == 1 else None
        labels = [lab._masks for lab in (K.vertices if self.m else ())]
        sizes = np.fromiter(map(len, labels), dtype=np.intp, count=len(labels))
        masks = np.fromiter(chain.from_iterable(labels), dtype="<u8", count=sizes.sum())
        keep = (masks & (masks - np.uint64(1))) != 0  # blocks of more than one element
        owner = np.repeat(np.arange(len(labels)), sizes)[keep]  # ascending
        masks = masks[keep]
        order = masks.argsort(kind="stable")
        new = np.ones(len(order), dtype=bool)
        new[1:] = masks[order[1:]] != masks[order[:-1]]
        self._masks = masks[order[new]]  # the distinct blocks, ascending
        # each block's bits, one 0/1 column per element of 1..m
        self._bit_matrix = np.unpackbits(self._masks.view(np.uint8).reshape(-1, 8), axis=1,
                                         bitorder="little")[:, :self.m].astype(np.uint64)
        number = np.empty_like(order)
        number[order] = new.cumsum() - 1
        column = np.arange(len(owner)) - owner.searchsorted(owner)  # place among its label's blocks
        self._table = np.full((len(labels), column.max(initial=-1) + 1), len(self._masks), dtype=np.intp)
        self._table[owner, column] = number
        self._table.sort(axis=1)
        self._bits = max(len(self._masks).bit_length(), 1)
        keys = _search_keys(self._table, self._bits)[0]
        self._order = keys.argsort(kind="stable")  # the vertices by key
        self._keys = keys[self._order]

    def index_map(self, perm):
        """The vertex index map of relabelling by ``perm`` (``perm[i-1]`` is
        the image of i): entry v is the index of the image of vertex v.  None
        when ``perm`` does not act on the labels' ground set or an image is
        not a vertex.  The bits of the distinct blocks are permuted, the
        moved blocks found among the blocks, and the rows mapped, sorted and
        found among the rows by their keys."""
        if len(perm) != self.m:
            return None
        moved = np.bitwise_or.reduce(self._bit_matrix << (np.asarray(perm, dtype=np.uint64) - np.uint64(1)), axis=1)
        at = _search(self._masks, moved)
        if (at < 0).any():
            return None  # a block, so a label, leaves the family
        image = np.append(at, len(self._masks))[self._table]  # the padding stays last
        image.sort(axis=1)
        found = _search(self._keys, _search_keys(image, self._bits)[0])
        return None if (found < 0).any() else self._order[found].tolist()

    def relabel(self, perm):
        """The vertex index map of ``perm`` and the position of the image of
        every face, in position order; None when a label or a face leaves
        the family (so, being injective, it maps the faces onto themselves)."""
        idx = self.index_map(perm)
        if idx is None:
            return None
        image = self.rows.image(np.asarray(idx))
        return None if (image < 0).any() else (idx, image)


class _PhiTable:
    """φ of a carrier map as target positions.  ``source`` and ``target`` are
    the :class:`FaceRows` of ``cm.p_faces`` and ``cm.q_faces`` (the
    complexes' own rows for all faces), read by position; a reader makes
    the frozensets of the faces it needs from the rows
    (:meth:`FaceRows.faces_at`), and the complexes keep none.  For the
    source face at position i, ``pos[i]`` is the target position of its
    image, -1 when the image is no target face, -2 when there is none.  The
    positions come from the carriers of ``cm.phi``
    (:func:`_union_positions`, one dimension at a time) on the faces of its
    complex, and from ``cm.phi`` itself on its overrides; ``plain[i]``
    tells whether the first alone gives it: the face is one of
    ``cm.phi.source`` with no entry in ``cm.phi.overrides``.
    :meth:`image` reads one image from ``cm.phi``, where a message needs
    it.
    ``vertices`` are the source's one-vertex rows, in order, and
    ``edited`` the mask of :func:`_edited_vertices` over ``vertices``."""

    def __init__(self, cm: CarrierMap):
        self._phi = phi = cm.phi
        self._f0 = cm.f0
        self.source = src = cm.p_complex.face_rows if cm.given_p_faces is None else FaceRows(cm.given_p_faces)
        self.target = tgt = cm.q_complex.face_rows if cm.given_q_faces is None else FaceRows(cm.given_q_faces)
        self.pos = np.full(src.offsets[-1], -2, dtype=np.intp)
        self.plain = np.zeros(src.offsets[-1], dtype=bool)
        carriers = None if phi.carriers is None else phi.carrier_rows()
        if carriers is not None:
            for d, rows in enumerate(src.rows):
                level = slice(src.offsets[d], src.offsets[d + 1])
                closed = slice(None) if src is phi.source.face_rows else phi.source.face_rows.find(d, rows) >= 0
                self.pos[level][closed] = _union_positions(carriers, rows[closed], tgt)
                self.plain[level][closed] = True
        overrides = list(phi.overrides)
        at = src.positions(overrides)
        images = [phi.get(f) for f, i in zip(overrides, at.tolist()) if i >= 0]
        none = [img is None for img in images]
        self.pos[at[at >= 0]] = np.where(none, -2, tgt.positions([img or () for img in images]))
        self.plain[at[at >= 0]] = False
        self.vertices = src.rows[0][:, 0].tolist() if src.rows else []
        self.edited = _edited_vertices(cm, self.vertices, carriers, at[(at >= 0) & (at < len(self.vertices))])
        self.carriers = carriers

    def image(self, i):
        """The image of the source face at position i, None when it has
        none."""
        return self._phi.get(self.source.faces_at([i])[0])

    def cells(self, over, faces):
        """For the cells at the source positions ``over`` (their frozensets
        ``faces``), two dicts keyed by face, for :func:`check_target_face`:
        ``on_face``, per cell of as many vertices as its image, whether φ of
        the cell without each vertex (in sorted order) is that image; and
        ``known``, per cell that :func:`verify_carrier_map` decides in
        closed form, whether it is nondegenerate and, when it is
        full-dimensional, its signed volume ratio (else None)."""
        src, tgt = self.source, self.target
        image = self.pos[over]
        src_dim = np.searchsorted(src.offsets, over, side="right") - 1
        tgt_dim = np.searchsorted(tgt.offsets, image, side="right") - 1
        on_face = {}
        for d in range(min(len(src.rows), len(tgt.rows))):
            at = np.flatnonzero((src_dim == d) & (tgt_dim == d))
            if d == 0:
                on = np.zeros((len(at), 1), dtype=bool)
            else:
                ridges = src.facet_positions(d, over[at] - src.offsets[d])
                on = (ridges >= 0) & (self.pos[src.offsets[d - 1] + ridges] == image[at, None])
            on_face.update(zip(map(faces.__getitem__, at.tolist()), on.tolist()))
        at = np.flatnonzero(src_dim < exact.INT64_ORDER) if self.carriers is not None else over[:0]
        if not len(at):
            return on_face, {}
        # each cell's vertices and image as rows, padded to the widest: a
        # vertex slot past the cell's by ``pad`` and a vertex past the
        # carriers by ``pad + 1``, both rows of _PAD (no target vertex), and
        # an image slot by -1.  The padding adds zero rows and columns to an
        # incidence matrix, which hold no pivot: its rank and last pivot
        # stay the cell's own
        pad = len(self.carriers)
        carriers = np.vstack([self.carriers, np.full((2, self.carriers.shape[1]), _PAD, dtype=np.int32)])
        plain = np.zeros(pad + 2, dtype=bool)
        plain[np.asarray(self.vertices, dtype=np.intp)[~self.edited]] = True
        plain[pad] = True
        cell_dim, face_dim = src_dim[at], tgt_dim[at]
        vertices = np.full((len(at), cell_dim.max() + 1), pad, dtype=np.intp)
        for d in range(vertices.shape[1]):
            cell = np.flatnonzero(cell_dim == d)
            ids = src.rows[d][over[at[cell]] - src.offsets[d]]
            vertices[cell, :d + 1] = np.where(ids < pad, ids, pad + 1)
        face = _padded_rows(tgt, image[at])
        rows = carriers[vertices]
        incidence = (rows[..., None] == face[:, None, None, :]).any(axis=2)
        sizes = (rows != _PAD).sum(axis=2)
        decided = plain[vertices].all(axis=1) & (incidence.sum(axis=2) == sizes).all(axis=1)
        rank, det = exact.bareiss_int64(incidence[decided].astype(np.int64))
        full = (cell_dim == face_dim)[decided].tolist()
        volumes = [Fraction(x, prod(s)) if f else None
                   for x, s, f in zip(det.tolist(), np.maximum(sizes[decided], 1).tolist(), full)]
        nondegenerate = (rank == cell_dim[decided] + 1).tolist()
        return on_face, dict(zip(map(faces.__getitem__, at[decided].tolist()), zip(nondegenerate, volumes)))


def _union_positions(carriers, rows, into: FaceRows):
    """For each row of ``rows`` (an (n, r) array of source vertex indices),
    the position in ``into`` of the union of its vertices' rows of
    ``carriers`` (the :meth:`CarrierPhi.carrier_rows`), -1 when that is no
    face there.  Made in parts of about ``_CHUNK`` carrier entries, each
    gathered, sorted, cleared of repeats and sorted again."""
    out = np.full(len(rows), -1, dtype=np.intp)
    step = max(1, _CHUNK // (rows.shape[1] * carriers.shape[1]))
    for lo in range(0, len(rows), step):
        part = rows[lo:lo + step]
        union = carriers[part].reshape(len(part), -1)
        union.sort(axis=1)
        union[:, 1:][union[:, 1:] == union[:, :-1]] = _PAD
        union.sort(axis=1)
        sizes = (union != _PAD).sum(axis=1)
        for size in range(1, min(union.shape[1], len(into.rows)) + 1):
            at = np.flatnonzero(sizes == size)
            if len(at):
                found = into.find(size - 1, union[at, :size])
                out[lo + at] = np.where(found < 0, -1, found + into.offsets[size - 1])
    return out


def _padded_rows(rows: FaceRows, at):
    """The rows of the faces at positions ``at`` of ``rows``, as one int32
    array padded with -1 to the widest of them."""
    dims = np.searchsorted(rows.offsets, at, side="right") - 1
    out = np.full((len(at), dims.max(initial=-1) + 1), -1, dtype=np.int32)
    for d in range(out.shape[1]):
        top = np.flatnonzero(dims == d)
        out[top, :d + 1] = rows.rows[d][at[top] - rows.offsets[d]]
    return out


def _edited_vertices(cm: CarrierMap, vertices, carriers, phi_edited):
    """Per source vertex of ``vertices`` (in order), whether the vertex
    checks decide it on its own: when f0 does not share φ's carriers, when
    it has an override in f0 or one in φ on the vertex itself (the places
    ``phi_edited``), and when it has no carrier or its carrier is empty or
    repeats an index.  Any other vertex sits at the barycenter of the set
    φ maps it onto.  ``carriers`` are φ's :meth:`CarrierPhi.carrier_rows`,
    None when it has none."""
    f0, phi = cm.f0, cm.phi
    ids = np.asarray(vertices, dtype=np.int64)
    if carriers is None or not isinstance(f0, CarrierF0) or f0.source is not phi.source or f0.carriers is not phi.carriers:
        return np.ones(len(ids), dtype=bool)
    out = ids >= len(carriers)
    rows = np.sort(carriers[ids[~out]], axis=1)
    out[~out] = (rows[:, 0] == _PAD) | ((rows[:, 1:] == rows[:, :-1]) & (rows[:, 1:] != _PAD)).any(axis=1)
    out[phi_edited] = True
    out |= np.isin(ids, [v for v in f0.overrides if f0._closed(v)])
    return out


def generators(m: int):
    """(1 2) and (1 2 ... m), which generate S_m; none for m < 2, where S_m
    is trivial."""
    return ((2, 1, *range(3, m + 1)), (*range(2, m + 1), 1)) if m >= 2 else ()


def generator_certificate(source: PermutationAction, target: PermutationAction, phi):
    """For each of :func:`generators` σ, the source and target vertex index
    maps of σ and the position of the image under σ of every target face,
    when σ maps the source faces and the target faces into themselves and
    φ(σc) = σφ(c) for every source face c; else None.  ``phi`` is the φ
    table (:attr:`_PhiTable.pos`), and a negative entry gives None.  Per
    generator, both sides are relabelled by :meth:`PermutationAction.relabel`,
    and φ(σc) = σφ(c) is an array comparison of table positions, in parts
    of ``_CHUNK`` faces.

    The permutations that leave a face set invariant form a subgroup, and so
    do those that also commute with φ, so when the generators pass, every
    permutation of 1..m does."""
    if target.m is None or (phi < 0).any():
        return None
    maps = []
    for perm in generators(target.m):
        src, tgt = source.relabel(perm), target.relabel(perm)
        if src is None or tgt is None or not all((phi[src[1][lo:lo + _CHUNK]] == tgt[1][phi[lo:lo + _CHUNK]]).all()
                                                 for lo in range(0, len(phi), _CHUNK)):
            return None
        maps.append((src[0], tgt[0], tgt[1]))
    return maps


def _orbit_roots(cm: CarrierMap, phi: _PhiTable):
    """For each target position i, the position of the first face of the
    S_m-orbit of the i-th face.  Every face is its own root unless the map
    passes :func:`generator_certificate` on the φ table ``phi`` of ``cm``
    (with the S_m actions on the complexes' labels built here) and
    f0(σv) = σf0(v) on every source vertex v for both generators σ
    (:func:`_f0_commutes`).  Then every face starts as its own root r(i),
    and each round takes the least root of a face and its generator images,
    then jumps each root to its own root (``least = least[least]``), until a
    round changes nothing.  Each root is a face of the orbit no later than
    the face, and both steps keep that.  At the fixed point the jump
    changes nothing, so r(i) <= r(σi) for every face i and generator σ; σ
    permutes the faces, so r(i) <= r(σi) <= r(σ²i) <= ... <= r(i) around each
    of its cycles, and r is constant on each orbit.  The root of an orbit
    lies in it and is no later than any face of it: its least face.  Assumes
    the well-formedness pass marked no vertex (φ is total on the source
    faces)."""
    roots = np.arange(phi.target.offsets[-1])
    maps = generator_certificate(PermutationAction(cm.p_complex, phi.source),
                                 PermutationAction(cm.q_complex, phi.target), phi.pos)
    if maps and all(_f0_commutes(phi, src, tgt) for src, tgt, _ in maps):
        while True:
            least = np.minimum.reduce([roots] + [roots[image] for _, _, image in maps])
            least = least[least]
            if (least == roots).all():
                break
            roots = least
    return roots


def _f0_commutes(phi: _PhiTable, src, tgt) -> bool:
    """Whether f0(σv) = σf0(v) for every source vertex v, where σ has the
    source and target vertex index maps ``src`` and ``tgt``, maps the
    source vertices onto themselves and commutes with φ
    (:func:`generator_certificate`).  Only the pairs with v edited
    (``phi.edited``) are compared, as dicts, so with none edited it holds at
    once.  For any other v, follow σ from v through edited vertices
    w_1 .. w_r to the next unedited vertex u = σ^(r+1) v: the compared pairs
    give f0(w_1) = σ^(-r) f0(u), and f0(u), f0(v) are the barycenters of
    φ(u) = σ^(r+1) φ(v) and φ(v), so f0(σv) = f0(w_1) = σf0(v)."""
    edited = np.flatnonzero(phi.edited)
    if not len(edited):
        return True
    ids = np.asarray(phi.vertices)
    moved = ids[np.searchsorted(ids, np.asarray(src)[ids[edited]])]  # σv
    for v, w in zip(ids[edited].tolist(), moved.tolist()):
        coords = phi._f0.get(v)
        if phi._f0.get(w) != (None if coords is None else {tgt[t]: x for t, x in coords.items()}):
            return False
    return True


def _check_well_formed(cm: CarrierMap, label, phi: _PhiTable):
    """The global pass of :func:`verify_carrier_map`: φ total, into the
    target and order-preserving; the source closed under taking faces; every
    vertex strictly inside its carrier, with coordinates summing to one, at
    a point of its own.  Returns the failures and the set of source vertices
    they touch: those of a face that fails a φ check or misses a sub-face,
    each vertex that fails a vertex check, and both vertices of a
    coincidence.  The ridge certificate may be used on the cells that avoid
    this set.  The φ checks read the table ``phi``, face by face in row
    order, and the closure test the source's facet positions.  The vertex
    checks are :func:`_check_vertices`, which reads coordinates from
    ``cm.f0`` only at the edited vertices.

    The order test is implied where φ is the closed form on both faces of a
    pair.  Lemma: for a face σ and a facet τ of it, both faces of
    ``cm.phi.source`` with no entry in ``cm.phi.overrides`` (``phi.plain``),
    φ(τ) = ∪_{v∈τ} C_v ⊆ ∪_{v∈σ} C_v = φ(σ), C_v the carrier of v.  So
    only the other pairs are compared (:func:`_out_of_order`), and with no
    override none is."""
    rows, pos = phi.source, phi.pos
    flagged = pos < 0  # faces that fail a φ check or miss a sub-face
    disorder = np.zeros(len(pos), dtype=bool)
    for d in range(1, len(rows.rows)):
        # per facet position, then -1 (no source face): whether φ there may
        # be other than the carriers' union
        other = np.append(~phi.plain[rows.offsets[d - 1]:rows.offsets[d]], True)
        step = max(1, _CHUNK // (d + 1))
        for lo in range(rows.offsets[d], rows.offsets[d + 1], step):
            hi = min(lo + step, rows.offsets[d + 1])
            facets = rows.facet_positions(d, slice(lo - rows.offsets[d], hi - rows.offsets[d]))
            flagged[lo:hi] |= (facets < 0).any(axis=1)
            compared = ~phi.plain[lo:hi, None] | other[facets]
            at = np.flatnonzero(compared.any(axis=1))
            if len(at):
                disorder[lo + at] = _out_of_order(cm, phi, d, lo + at, facets[at], compared[at])
    failures = []
    failing = np.flatnonzero((pos < 0) | disorder)
    for i, face in zip(failing.tolist(), map(sorted, rows.faces_at(failing))):
        if pos[i] == -2:
            failures.append(CheckFailure("phi_total", f"no image for face {face}"))
        if pos[i] == -1:
            failures.append(
                CheckFailure("phi_into_target", f"image of {face} is not a target face", label(phi.image(i)))
            )
        if disorder[i]:
            failures.append(CheckFailure("phi_order", f"phi not order-preserving at {face}"))
    bad = set().union(*rows.faces_at(np.flatnonzero(flagged | disorder)))
    vertex_failures, touched = _check_vertices(cm, label, phi)
    return failures + vertex_failures, bad | touched


def _out_of_order(cm: CarrierMap, phi: _PhiTable, d, at, facets, compared):
    """Per source face of dimension d at the positions ``at``, with its
    :meth:`FaceRows.facet_positions` ``facets``, whether φ of one of its
    facets, among the pairs ``compared`` (a row of d+1 flags per face), is
    no subset of φ of the face: the target rows of the two images are
    compared, and the images themselves only where one is no target face;
    ``cm.phi`` is read only for a facet that is no source face."""
    rows, pos = phi.source, phi.pos
    missing = facets < 0
    img = np.broadcast_to(pos[at, None], facets.shape)
    sub = np.where(missing, -3, pos[rows.offsets[d - 1] + facets])  # -3: not a source face
    tested = compared & (img != -2) & (sub != -2)
    fast = tested & (img >= 0) & (sub >= 0)
    a, b = _padded_rows(phi.target, sub[fast]), _padded_rows(phi.target, img[fast])
    out = np.zeros(facets.shape, dtype=bool)
    out[fast] = ~((a[:, :, None] == b[:, None, :]).any(axis=2) | (a < 0)).all(axis=1)
    for i, t in zip(*np.nonzero(tested & ~fast)):
        below = (cm.phi.get(frozenset(np.delete(rows.rows[d][at[i] - rows.offsets[d]], t).tolist()))
                 if missing[i, t] else phi.image(rows.offsets[d - 1] + facets[i, t]))
        out[i, t] = below is not None and not below <= phi.image(at[i])
    return out.any(axis=1)


def _check_vertices(cm: CarrierMap, label, phi: _PhiTable):
    """The vertex checks of :func:`_check_well_formed`: each source vertex
    has coordinates, they are positive with its carrier (φ of the vertex)
    as support and sum to one, and no earlier vertex has the same ones.
    The first three are decided for the edited vertices (``phi.edited``)
    alone, each on its own in Python integers (:func:`_edited_point`); the
    others pass them by construction.  For coincidence an unedited vertex
    is keyed by its carrier, as is an edited one at the barycenter of the
    same set, and any other point by its coordinates.  The unedited
    vertices that share a key are found by one lexsort of their sorted
    carrier rows, beside the rows of the edited barycenters
    (:func:`_sharing`); every other unedited vertex is alone at its point.
    Only the edited vertices and those sharing one take the pass in vertex
    order.  Returns the failures, in vertex order, and the vertices they
    touch."""
    ids = phi.vertices
    checked, points = {}, {}  # position -> its failures, its point (None for no coordinates)
    for v in np.flatnonzero(phi.edited).tolist():
        checked[v], points[v] = _edited_point(cm, label, phi, v)
    for v in _sharing(phi, points.values()).tolist():
        checked[v], points[v] = [], frozenset(cm.f0.carriers[ids[v]])
    failures, touched, seen = [], set(), {}  # seen: point -> the last vertex there
    for v in sorted(points):
        u, point = ids[v], points[v]
        failures += checked[v]
        if checked[v]:
            touched.add(u)
        if point is None:
            continue
        if point in seen:
            failures.append(CheckFailure("vertex_map_injective", f"vertices {seen[point]} and {u} coincide"))
            touched |= {seen[point], u}
        seen[point] = u
    return failures, touched


def _edited_point(cm: CarrierMap, label, phi: _PhiTable, v):
    """The failures of the edited source vertex at position v of
    ``phi.vertices``, and its point for the coincidence test: its support
    when it is a barycenter, else its coordinates; None when it has none."""
    u = phi.vertices[v]
    coords = cm.f0.get(u)
    if coords is None:
        return [CheckFailure("vertex_map_total", f"no coordinates for vertex {u}")], None
    failures = []
    image = phi.image(v)
    if not (all(x > 0 for x in coords.values()) and frozenset(coords) == image):
        failures.append(CheckFailure("vertex_in_carrier_interior", f"vertex {cm.p_complex.vertices[u]!r} not "
                                     "strictly inside its carrier", label(image) if image else None))
    common = lcm(*(x.denominator for x in coords.values()))
    if sum(x.numerator * (common // x.denominator) for x in coords.values()) != common:
        failures.append(CheckFailure("vertex_coordinates_sum", f"coordinates of vertex {u} do not sum to 1"))
    barycenter = coords and all(x == Fraction(1, len(coords)) for x in coords.values())
    return failures, frozenset(coords) if barycenter else frozenset(coords.items())


def _sharing(phi: _PhiTable, points):
    """The positions of the unedited vertices whose carrier, as a set, is
    that of another unedited vertex or one of ``points``: their carriers,
    sorted and padded with ``_PAD``, with the points that are sets of
    target indices, lexsorted as rows; equal neighbours share a key."""
    plain = np.flatnonzero(~phi.edited)
    if not len(plain):
        return plain
    rows = np.sort(phi.carriers[np.asarray(phi.vertices)[plain]], axis=1)
    width = rows.shape[1]
    extra = [row + [_PAD] * (width - len(row)) for row in map(_index_row, points) if row and len(row) <= width]
    rows = np.vstack([rows, np.array(extra, dtype=np.int32).reshape(-1, width)])
    order = np.lexsort(rows.T[::-1])
    same = (rows[order[1:]] == rows[order[:-1]]).all(axis=1)
    shared = np.zeros(len(rows), dtype=bool)
    shared[order[1:][same]] = shared[order[:-1][same]] = True
    return plain[shared[:len(plain)]]


def _index_row(point):
    """The members of ``point`` as ascending target indices, when it is a
    nonempty set whose members equal int32 indices below ``_PAD``; else
    None."""
    try:
        row = sorted(map(int, point))
    except (TypeError, ValueError, OverflowError):
        return None
    return row if row and 0 <= row[0] and row[-1] < _PAD and set(row) == point else None


def check_target_face(cm: CarrierMap, qf, cells, bad, label, on_face, known):
    """The checks of :func:`verify_carrier_map` on one target face ``qf``
    whose preimage cells are ``cells``: surjectivity, nondegeneracy, disjoint
    open images (the ridge certificate when no cell meets the source
    vertices ``bad`` that failed well-formedness, else one Fourier-Motzkin
    test per pair of cells) and the volume identity.  ``on_face`` and
    ``known`` are :meth:`_PhiTable.cells`, for these cells and maybe others:
    a cell in ``known`` takes its nondegeneracy and volume from there, any
    other cell from its points, localised to ``qf`` from ``cm.f0``, as do
    the pairwise tests.  A cell through a vertex with no coordinates has no
    image: it adds no volume and enters no pairwise test.
    Returns the face's failures and the total volume of its full-dimensional
    cells (None when it has no cell)."""
    if not cells:
        return [CheckFailure("carrier_surjective", "target face has no preimage cell", label(qf))], None
    failures = []
    qs = sorted(qf)
    qdim = len(qs) - 1
    points = {}  # cell -> its vertices' points, None when one has no coordinates

    def place(cell):
        if cell not in points:
            coords = [cm.f0.get(v) for v in sorted(cell)]
            points[cell] = None if None in coords else [_localize_point(c, qs) for c in coords]
        return points[cell]

    degenerate = set()
    volumes = {}  # signed, of the nondegenerate full-dimensional cells
    for cell in cells:
        if cell in known:
            nondegenerate, volume = known[cell]
        elif (pts := place(cell)) is None:
            continue
        else:
            nondegenerate = exact.affine_dim(pts) == len(cell) - 1
            volume = exact.simplex_volume_ratio(pts) if nondegenerate and len(cell) - 1 == qdim else None
        if not nondegenerate:
            degenerate.add(cell)
            failures.append(
                CheckFailure(
                    "cell_nondegenerate",
                    f"cell {sorted(cell)} maps to a degenerate simplex",
                    label(qf),
                )
            )
        elif volume is not None:
            volumes[cell] = volume
    total = sum(map(abs, volumes.values()), Fraction(0))
    certified = (
        not degenerate and total == 1
        and all(bad.isdisjoint(cell) for cell in cells)
        and _ridge_certificate(qf, cells, volumes, on_face)
    )
    if not certified:
        drawn = [cell for cell in sorted(cells, key=_by_size) if cell not in degenerate and place(cell) is not None]
        for c1, c2 in combinations(drawn, 2):
            witness = exact.open_simplices_intersect(points[c1], points[c2])
            if witness is not None:
                failures.append(
                    CheckFailure(
                        "interiors_disjoint",
                        f"open images of cells {sorted(c1)} and {sorted(c2)} overlap",
                        {
                            "target_face": label(qf),
                            "point": [str(x) for x in witness],
                        },
                    )
                )
    if total != 1:
        failures.append(
            CheckFailure(
                "volume_partition",
                f"cell volumes sum to {total} of the target face",
                label(qf),
            )
        )
    return failures, total


def _ridge_certificate(qf, cells, volumes, on_face) -> bool:
    """The pseudomanifold part of the certificate in
    :func:`verify_carrier_map`.  ``volumes`` holds the signed volume of each
    full-dimensional cell over ``qf``, its vertices in sorted order, and
    ``on_face`` per such cell whether φ of its ridge without each vertex is
    ``qf``."""
    d = len(qf) - 1
    sides = {}
    inner = {}  # ridge -> whether φ maps it to qf
    through = {}
    for cell, vol in volumes.items():
        for j, (apex, on) in enumerate(zip(sorted(cell), on_face[cell])):
            through.setdefault(apex, []).append(cell)
            if d:
                # the ridge in sorted order, then the apex: moving the apex
                # from place j to the end takes d - j transpositions
                ridge = cell - {apex}
                inner[ridge] = on
                sides.setdefault(ridge, []).append((vol > 0) == ((d - j) % 2 == 0))
    for ridge, signs in sides.items():
        if inner[ridge]:
            if len(signs) != 2 or signs[0] == signs[1]:
                return False
        elif len(signs) != 1:
            return False
    return all(
        cell in volumes or any(cell < top for top in through.get(min(cell), ()))
        for cell in cells
    )


_ZERO = Fraction(0)


def _by_size(face):
    return (len(face), tuple(sorted(face)))


def _localize_point(coords, q_sorted):
    return tuple(coords.get(i, _ZERO) for i in q_sorted)


class _FaceLabels:
    """Labels of target faces: a face's vertex texts joined by "+", in order
    of the vertices' names (a partition's sort key and text, else its text
    twice), then, for a set that is no target face, each index that is no
    target vertex as "#" and the index, in increasing order.  The vertices
    are ranked by name once; :meth:`rows` labels the rows of a 2-d array of
    vertex indices by adding columns of an object array of texts, which
    allocates no list per row."""

    def __init__(self, q: SimplicialComplex):
        names = [(lab.sort_key(), lab.text()) if isinstance(lab, Partition) else (str(lab),) * 2
                 for lab in q.vertices]
        order = sorted(range(len(names)), key=names.__getitem__)
        self._rank = np.empty(len(names), dtype=np.intp)
        self._rank[order] = np.arange(len(names))
        self._texts = np.array([names[i][1] for i in order], dtype=object)

    def __call__(self, face):
        if face is None:
            return None
        ids = np.array(sorted(face), dtype=np.intp)
        vertex = (ids >= 0) & (ids < len(self._rank))
        return "+".join([*self._texts[np.sort(self._rank[ids[vertex]])], *(f"#{i}" for i in ids[~vertex].tolist())])

    def rows(self, rows):
        texts = self._texts[np.sort(self._rank[rows], axis=1)]
        out = texts[:, 0]
        for column in texts.T[1:]:
            out = out + "+" + column
        return out.tolist()


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------


@dataclass
class SubdivisionReport:
    """Outcome of the end-to-end subdivision verification for one instance."""

    instance: dict
    sizes: dict
    f_vectors: dict
    extension_used: list
    extensions_checked: int
    checks: list
    homology: dict
    facet_volumes: dict
    verdict: str

    def to_json(self):
        return asdict(self)


def _homology_json(groups):
    return [[betti, list(torsion)] for betti, torsion in groups]


def _distinct_extensions(poset: Poset, subset, count, seed):
    """The canonical extension plus seeded variants, all distinct: at most
    ``count``, fewer when the seeded draws find no more.  The draws stop
    once every linear extension of ``subset`` is found."""
    exts = [tuple(poset.linear_extension(subset))]
    wanted = _count_extensions(poset, subset, count) if count > 1 else count
    attempt = 0
    while len(exts) < wanted and attempt < 50 * count:
        attempt += 1
        cand = tuple(
            poset.linear_extension(subset, policy="seeded-random", seed=seed + attempt)
        )
        if cand not in exts:
            exts.append(cand)
    return exts


def _count_extensions(poset: Poset, subset, limit) -> int:
    """The number of linear extensions of ``subset`` under the order of
    ``poset``, or ``limit`` if there are more: a depth-first enumeration
    that stops at the ``limit``-th, in O(N + edges) memory.

    The items that may come next are kept in one list, edited in place:
    placing the j-th swaps it to the end and pops it, then appends the
    items it frees; undoing the step reverses both, which restores the
    list exactly.  Per depth only j, the item and the number it freed are
    kept, and the next choice there is place j + 1.  No partial placement
    is a dead end (every order ideal of a finite poset extends to a linear
    extension), so the search reaches the ``limit``-th extension within
    ``limit`` · N placements."""
    items = list(subset)
    above = poset.induced_up(items)  # positions of the items above each item
    below = [0] * len(items)  # unplaced items below each item
    for bs in above:
        for b in bs:
            below[b] += 1
    free = [i for i, count in enumerate(below) if count == 0]
    steps = []  # per depth: the place of the item placed there, the item, the number it freed
    found, j = 0, 0  # j: the next place to try at the current depth
    while True:
        if len(steps) < len(items) and j < len(free):
            free[j], free[-1] = free[-1], free[j]
            i = free.pop()
            before = len(free)
            for b in above[i]:
                below[b] -= 1
                if not below[b]:
                    free.append(b)
            steps.append((j, i, len(free) - before))
            j = 0
            continue
        if len(steps) == len(items):
            found += 1
            if found >= limit:
                return found
        if not steps:
            return found
        j, i, freed = steps.pop()
        del free[len(free) - freed:]
        for b in above[i]:
            below[b] += 1
        free.append(i)
        free[j], free[-1] = free[-1], free[j]
        j += 1


def verify_theorem(
    k: int,
    n: int,
    extensions: int = 1,
    seed: int = 0,
    max_poset_elements: int = MAX_POSET_ELEMENTS,
    max_faces: int = MAX_FACES,
) -> SubdivisionReport:
    """Full verification that the order complex of the restricted partition
    poset subdivides the k-tree complex for one instance.

    Builds both complexes and records the three checks the verdict rests on:

    * ``stellar_sequence_matches_order_complex[t]``: the stellar sequence
      along the t-th distinct linear extension (at most ``extensions`` of
      them) ends at the order complex, label by label (:meth:`FacetReplay.equals`);
    * ``carrier_map_partition``: the global carrier map partitions every
      target face, in exact arithmetic (``verify_carrier_map``);
    * ``homology_equal_all_degrees``: the reduced homology groups agree.

    Linear-extension independence, abstract isomorphism and equal Euler
    characteristics follow from these.
    """
    if k < 1 or n < 3:
        raise ValueError("need k >= 1 and n >= 3")
    m, pk, q, delta = _instance(k, n, max_poset_elements, max_faces)
    checks = []

    def record(name, ok, witness=None):
        entry = {"name": name, "pass": bool(ok)}
        if witness is not None:
            entry["witness"] = witness
        checks.append(entry)

    g_idx = set(pk.g_indices())
    ext_pool = [i for i in pk.poset.proper_indices() if i not in g_idx]
    exts = _distinct_extensions(pk.poset, ext_pool, extensions, seed)
    for t, ext in enumerate(exts):
        same = run_blowup(pk.poset, q, list(ext), record_intermediate=False).replay.equals(delta)
        record(
            f"stellar_sequence_matches_order_complex[{t}]",
            same,
            None if same else "final complex differs from the order complex",
        )
    cm = carrier_map_from_parts(delta, q)
    carrier_res = verify_carrier_map(cm)
    record(
        "carrier_map_partition",
        carrier_res.passed,
        None if carrier_res.passed else [f.to_json() for f in carrier_res.failures[:5]],
    )
    h_delta = delta.reduced_homology()
    h_q = q.reduced_homology()
    record(
        "homology_equal_all_degrees",
        h_delta == h_q,
        None if h_delta == h_q else {"source": _homology_json(h_delta), "target": _homology_json(h_q)},
    )

    verdict = "pass" if all(c["pass"] for c in checks) else "fail"
    return SubdivisionReport(
        instance={"k": k, "n": n, "m": m},
        sizes={
            "poset_elements": pk.poset.n,
            "proper_elements": len(pk.poset.proper_indices()),
            "source_vertices": len(delta.vertices),
            "target_vertices": len(q.vertices),
        },
        f_vectors={"source": list(delta.f_vector()), "target": list(q.f_vector())},
        extension_used=[pk.poset.labels[i].text() for i in exts[0]],
        extensions_checked=len(exts),
        checks=checks,
        homology={"source": _homology_json(h_delta), "target": _homology_json(h_q)},
        facet_volumes=carrier_res.facet_volumes,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# symmetric-group equivariance
# ---------------------------------------------------------------------------


@dataclass
class EquivarianceReport:
    passed: bool
    permutations_checked: int
    top_rank_source: int
    top_rank_target: int
    failures: list

    def to_json(self):
        return {
            "passed": self.passed,
            "permutations_checked": self.permutations_checked,
            "top_rank": {"source": self.top_rank_source, "target": self.top_rank_target},
            "failures": self.failures[:10],
        }


def sample_permutations(m: int, count: int, seed: int) -> list:
    """``min(count, m!)`` distinct permutations of 1..m, drawn with
    ``random.Random(seed)`` as ``rng.sample`` would draw them from the list of
    all permutations in lexicographic order, without building that list."""
    total = factorial(m)
    ranks = random.Random(seed).sample(range(total), min(count, total))
    out = []
    for r in ranks:
        rest = list(range(1, m + 1))
        perm = []
        for i in range(m - 1, -1, -1):
            q, r = divmod(r, factorial(i))
            perm.append(rest.pop(q))
        out.append(tuple(perm))
    return out


def tested_permutations(m: int, wanted, seed: int, certified: bool):
    """The permutations of 1..m an equivariance check tests, and their
    number: all of S_m when ``wanted`` is None, else ``min(wanted, m!)``
    drawn by :func:`sample_permutations`.  When ``certified`` (the
    generators of S_m pass, so no permutation can fail) none is drawn, and
    the number is the one the loop would have checked."""
    count = factorial(m) if wanted is None else min(wanted, factorial(m))
    if certified:
        return (), count
    return permutations(range(1, m + 1)) if wanted is None else sample_permutations(m, count, seed), count


def top_rank(groups, n: int) -> int:
    """The rank in degree n - 3, the top degree of T^k_n, of the reduced
    homology ``groups``; 0 when they stop below it."""
    return groups[n - 3][0] if 0 <= n - 3 < len(groups) else 0


def check_equivariance(k: int, n: int, perms="all", seed: int = 0,
                       max_poset_elements: int = MAX_POSET_ELEMENTS, max_faces: int = MAX_FACES) -> EquivarianceReport:
    """Leaf-relabelling equivariance of the whole carrier map.

    For each tested permutation (all of S_m, or ``perms`` of them:
    :func:`tested_permutations`) both complexes must be setwise invariant
    and the factor map must commute with the relabelling on every chain.
    Top reduced homology ranks of the two complexes are compared as well.

    The permutations with both properties form a subgroup of S_m, so it is
    enough that the generators (1 2) and (1 2 ... m) have them
    (:func:`generator_certificate`); then none is tested.  Otherwise every
    tested permutation is checked in turn, by the certificate's relabelling
    test and array comparison, and the failures are reported in order, at
    most one non-commuting chain (the first in row order) per permutation.
    A bad ``perms`` is refused before anything is built.
    """
    wanted = None if perms == "all" else int(perms)
    if wanted is not None and wanted < 0:
        raise ValueError("perms must be 'all' or a nonnegative count")
    m, pk, q, delta = _instance(k, n, max_poset_elements, max_faces)
    phi = _PhiTable(carrier_map_from_parts(delta, q))
    source, target = PermutationAction(delta, phi.source), PermutationAction(q, phi.target)
    certified = generator_certificate(source, target, phi.pos) is not None
    chosen, count = tested_permutations(m, wanted, seed, certified)
    failures = []
    for pi in chosen:
        src = source.relabel(pi)
        if src is None:
            failures.append({"perm": list(pi), "detail": "order complex not invariant"})
            continue
        tgt = target.relabel(pi)
        if tgt is None:
            failures.append({"perm": list(pi), "detail": "k-tree complex not invariant"})
            continue
        # φ(σc) = σφ(c) by table positions, and by images where both are no target face
        (_, src_img), (tgt_map, tgt_img) = src, tgt
        differ = phi.pos[src_img] != np.where(phi.pos < 0, phi.pos, tgt_img[phi.pos])
        for c in np.flatnonzero(~differ & (phi.pos == -1)).tolist():
            differ[c] = phi.image(src_img[c]) != frozenset(tgt_map[w] for w in phi.image(c))
        if differ.any():
            (face,) = phi.source.faces_at([differ.argmax()])
            failures.append({"perm": list(pi), "detail": "carrier map does not commute with the relabelling",
                             "chain": [delta.vertices[v].text() for v in sorted(face)]})
    rank_d, rank_q = top_rank(delta.reduced_homology(), n), top_rank(q.reduced_homology(), n)
    return EquivarianceReport(not failures and rank_d == rank_q, count, rank_d, rank_q, failures)
