"""Independent brute-force oracles, written against the definitions and kept
free of the production code paths they check."""

from fractions import Fraction
from itertools import combinations, product


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
