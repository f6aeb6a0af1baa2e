"""Workload plans and the reference values every output is checked against.

A plan is a list of operations, each a JSON-serialisable dict.  The worker
runs the whole list once per pass; the parent checks each operation's digest
against the expected digest built here.  The references are mathematical
facts about the instances (f-vectors, reduced homology, verdicts), not bytes
of any artifact, so they hold across refactors that keep the results.
"""

from __future__ import annotations

import random

WORKLOADS = ("gated", "homology", "frontier")

# The reference loop each workload's operations are timed against: the one
# like its dominant cost.  Interpreted Python dominates `gated` and
# `frontier`; numpy's dense Smith normal form dominates `homology`.
REFERENCE_LOOP = {"gated": "python", "homology": "numpy", "frontier": "python"}

# The acceptance ladder verified by the everyday `ktreesub verify` command.
GATED_LADDER = ((1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5))
EXTENSIONS = 3
EQUIVARIANCE_INSTANCES = ((2, 4), (4, 3))
EQUIVARIANCE_SAMPLE = 20
HOMOLOGY_INSTANCES = ((1, 6), (3, 4))
# The frontier instance, and the first steps of its stellar sequence, from
# T^3_4 at the top of the extension, as operations of so many steps each.
FRONTIER_INSTANCE = (3, 4)
STELLAR_STEPS = 100
STELLAR_STEPS_PER_OP = 25


def _groups(*betti):
    """Reduced homology with no torsion, as [[betti, []], ...] per degree."""
    return [[b, []] for b in betti]


# (k, n) -> f-vectors and reduced homology of the order complex (source) and
# the k-tree complex (target); the two homologies agree on every instance.
VERIFY_REF = {
    (1, 3): ([3], [3], _groups(2)),
    (2, 3): ([10], [10], _groups(9)),
    (3, 3): ([35], [35], _groups(34)),
    (1, 4): ([13, 18], [10, 15], _groups(0, 6)),
    (2, 4): ([126, 350], [56, 280], _groups(0, 225)),
    (1, 5): ([50, 205, 180], [25, 105, 105], _groups(0, 0, 24)),
}

# (k, n) -> top reduced Betti number, equal on both complexes.
EQUIVARIANCE_TOP_RANK = {(2, 4): 225, (4, 3): 125}

# (k, n) -> f-vector and reduced homology of T^k_n.
HOMOLOGY_REF = {
    (1, 6): ([56, 490, 1260, 945], _groups(0, 0, 0, 120)),
    (3, 4): ([330, 5775], _groups(0, 5446)),
}

# (k, n) -> f-vectors of the order complex (source) and the k-tree complex
# (target), and the number of elements the stellar sequence adds.
FRONTIER_REF = {(3, 4): ([1905, 7350], [330, 5775], 1575)}

# (k, n, steps) -> SHA-256 of the faces of the complex after the first
# ``steps`` stellar subdivisions, in the order of the benchmark's own linear
# extension (see ``worker.own_extension``); faces are compared as sets of
# partitions, each a tuple of sorted blocks (see ``worker.faces_sha256``).
# That complex is the nested set complex of the building set G together with
# the elements subdivided so far, which is how this value was cross-checked.
STELLAR_PREFIX_SHA256 = {
    (3, 4, 25): "9dfc1bf5e69b55710f6ddbf0125a6829a7c37e68ecffb66eb903b6001d26209b",
    (3, 4, 50): "1bcdad355e0b941244f3ba397ae0c7e73d1d3a0ab375de2bff97687307a9aceb",
    (3, 4, 75): "44a06d11659ec58f81f0b57aff198fe71e6572e7dc781f4010ac486ab7c3ab84",
    (3, 4, 100): "bae1ddab939fd38b26bad48ebb56d15aacad56373e46322287bc6dc13eff0c18",
}

# The (1,5) carrier map with the vertex placements of these two chains
# swapped is a broken subdivision that verify_carrier_map must reject.
NEGATIVE_CONTROL = {"k": 1, "n": 5, "swap": ["(12)345", "(12)(34)5"]}


def make_plan(workload: str, seed: int) -> list:
    """Operations of one pass.  The seed drives the seeded linear extensions,
    the equivariance samples and the order of instances; the same seed gives
    the same plan."""
    rng = random.Random(seed)
    if workload == "gated":
        plan = [
            {"kind": "verify_theorem", "k": k, "n": n, "extensions": EXTENSIONS,
             "seed": rng.randrange(2**31)}
            for k, n in GATED_LADDER
        ]
        plan += [
            {"kind": "check_equivariance", "k": k, "n": n, "sample": EQUIVARIANCE_SAMPLE,
             "seed": rng.randrange(2**31)}
            for k, n in EQUIVARIANCE_INSTANCES
        ]
        plan.append({"kind": "negative_control", **NEGATIVE_CONTROL})
        return plan
    if workload == "homology":
        instances = list(HOMOLOGY_INSTANCES)
        rng.shuffle(instances)
        return [{"kind": "homology", "k": k, "n": n} for k, n in instances]
    if workload == "frontier":
        # Nothing here is seeded: every operation works on the same instance,
        # and each needs the carrier map built by the first one in its pass.
        k, n = FRONTIER_INSTANCE
        return [
            {"kind": "global_carrier_map", "k": k, "n": n},
            {"kind": "verify_carrier_map", "k": k, "n": n},
            {"kind": "linear_extension", "k": k, "n": n},
        ] + [
            {"kind": "stellar_steps", "k": k, "n": n, "first": first, "steps": STELLAR_STEPS_PER_OP}
            for first in range(0, STELLAR_STEPS, STELLAR_STEPS_PER_OP)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def expected_digest(op: dict) -> dict:
    """The digest a correct program returns for this operation."""
    kind, kn = op["kind"], (op["k"], op["n"])
    if kind == "verify_theorem":
        source, target, groups = VERIFY_REF[kn]
        return {
            "verdict": "pass",
            "f_vectors": {"source": source, "target": target},
            "homology": {"source": groups, "target": groups},
        }
    if kind == "check_equivariance":
        rank = EQUIVARIANCE_TOP_RANK[kn]
        return {"passed": True, "permutations_checked": op["sample"], "top_rank": [rank, rank]}
    if kind == "negative_control":
        return {"passed": False, "interiors_disjoint_point": True}
    if kind == "homology":
        f_vector, groups = HOMOLOGY_REF[kn]
        return {"f_vector": f_vector, "homology": groups}
    if kind == "global_carrier_map":
        source, target, _ = FRONTIER_REF[kn]
        return {"f_vectors": {"source": source, "target": target}}
    if kind == "verify_carrier_map":
        return {"passed": True}
    if kind == "linear_extension":
        return {"is_linear_extension": True, "length": FRONTIER_REF[kn][2], "covers_pool": True}
    if kind == "stellar_steps":
        # Each step subdivides an edge of a graph: one more vertex, one more edge.
        _, (v, e), _ = FRONTIER_REF[kn]
        done = op["first"] + op["steps"]
        return {"f_vector": [v + done, e + done],
                "faces_sha256": STELLAR_PREFIX_SHA256[(*kn, done)]}
    raise ValueError(f"unknown operation {kind!r}")


def check(op: dict, digest: dict):
    """None when the digest is correct, else a one-line reason."""
    want = expected_digest(op)
    if digest == want:
        return None
    return f"{op['kind']}({op['k']},{op['n']}): got {digest}, want {want}"
