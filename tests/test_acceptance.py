"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Expected values marked as derived were computed with the independent
brute-force oracles in ``oracles.py`` (element-insertion partition
enumeration, fixed-point join, recursive tree generation) before being
frozen here.
"""

import time
from fractions import Fraction

import pytest

from ktreesub import (
    CarrierMap,
    Partition,
    carrier_map_from_parts,
    check_equivariance,
    enumerate_ktree_complex,
    enumerate_partitions,
    factors_I,
    is_building_set,
    is_k_nested,
    parse_partition,
    sigma_lattice,
    verify_carrier_map,
    verify_theorem,
)
from ktreesub.cli import main as cli_main
from ktreesub.subdivision import _distinct_extensions, run_blowup
from oracles import (
    brute_ktree_structures,
    brute_modk_partitions,
    brute_set_partitions,
    factors_search_oracle,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


TIME_BUDGETS = {(1, 3): 1.0, (2, 3): 1.0, (3, 3): 1.0, (1, 4): 10.0, (2, 4): 60.0}


@pytest.mark.parametrize("kn", sorted(TIME_BUDGETS))
def test_criterion_1_theorem_instances(kn, tmp_path):
    k, n = kn
    budget = TIME_BUDGETS[kn]
    out = tmp_path / f"verify-{k}-{n}.json"
    t0 = time.perf_counter()
    code = cli_main(
        ["verify", "--k", str(k), "--n", str(n), "--out", str(out), "-v", "0"]
    )
    elapsed = time.perf_counter() - t0
    report(
        f"1 verify_k{k}_n{n}",
        code == 0 and elapsed < budget,
        f"(exit {code}, {elapsed:.2f}s, budget {budget:.0f}s)",
    )


def test_criterion_1_stretch_15(tmp_path):
    # stretch instance, non-gating in spirit but comfortably inside budget
    out = tmp_path / "verify-1-5.json"
    t0 = time.perf_counter()
    code = cli_main(["verify", "--k", "1", "--n", "5", "--out", str(out), "-v", "0"])
    elapsed = time.perf_counter() - t0
    report("1 stretch verify_k1_n5", code == 0 and elapsed < 300.0, f"({elapsed:.2f}s)")


def test_criterion_2_counts(pk52, pk72, t14, delta41):
    ok = True
    detail = []
    checks = [
        ("pi_2_5", pk52.poset.n, len(brute_modk_partitions(5, 2)), 12),
        ("pi_2_7", pk72.poset.n, len(brute_modk_partitions(7, 2)), 128),
    ]
    for name, ours, oracle, frozen in checks:
        good = ours == oracle == frozen
        ok &= good
        detail.append(f"{name}={ours}")
    t23 = enumerate_ktree_complex(3, 2)
    trees14 = brute_ktree_structures(4, 1)
    good = (
        t14.f_vector() == (10, 15)
        and len(trees14) - 1 == 10 + 15  # star tree carries the empty face
        and t23.f_vector() == (10,)
        and delta41.f_vector() == (13, 18)
        and len(brute_set_partitions(4)) - 2 == 13
        and delta41.euler_characteristic() == -5
        and t14.euler_characteristic() == -5
    )
    ok &= good
    detail.append(f"T14={t14.f_vector()} T23={t23.f_vector()} D4={delta41.f_vector()}")
    report("2 counts", ok, " ".join(detail))


def test_criterion_3_homology(delta41, t14):
    h_d = delta41.reduced_homology()
    h_t = t14.reduced_homology()
    ok = h_d == h_t == [(0, ()), (6, ())]
    for k, n in sorted(TIME_BUDGETS):
        m = (n - 1) * k + 1
        pk = enumerate_partitions(m, k)
        delta = pk.poset.order_complex()
        q = enumerate_ktree_complex(n, k)
        ok &= delta.reduced_homology() == q.reduced_homology()
    report("3 homology", ok, f"betti1={h_d[1][0]} torsion-free, all instances equal")


LEMMA_INSTANCES = [(5, 2), (7, 2), (7, 3)]


@pytest.mark.parametrize("mk", LEMMA_INSTANCES)
def test_criterion_4_structural_lemmas(mk):
    m, k = mk
    pk = enumerate_partitions(m, k)
    n = (m - 1) // k + 1
    tree_complex = enumerate_ktree_complex(n, k)
    gset = pk.g_partitions()
    gmembers = set(gset)

    factor_ok = all(
        pk.factors(x) == factors_search_oracle(pk, x) == factors_I(x) for x in pk.poset.labels
    )

    blocks_ok = True
    for a in gset:
        for b in gset:
            if a == b:
                continue
            ba = set(a.nonsingleton_blocks()[0])
            bb = set(b.nonsingleton_blocks()[0])
            mubs = pk.minimal_upper_bounds([a, b])
            rhs = len(mubs) == 1 and mubs[0] not in gmembers
            blocks_ok &= (not (ba & bb)) == rhs

    delta = pk.poset.order_complex()
    chains_ok = all(
        tree_complex.has_face_labels(pk.chain_factors([delta.vertices[v] for v in f]))
        for f in delta.faces
    )

    sigma_ok = True
    for face in tree_complex.faces:
        fam = [tree_complex.vertices[v] for v in face]
        try:
            sig = sigma_lattice(pk, fam)  # asserts lattice + meet formula
            ok_b, _ = is_building_set(sig.poset, [sig.poset.index(x) for x in fam])
            sigma_ok &= ok_b
        except Exception:
            sigma_ok = False

    claim_ok = True
    proper = pk.poset.proper_indices()
    for i in proper:
        for j in proper:
            if i != j and pk.poset.leq[i, j]:
                union = pk.factors(pk.poset.labels[i]) | pk.factors(pk.poset.labels[j])
                claim_ok &= is_k_nested(pk, union)

    report(
        f"4 lemmas m{m} k{k}",
        factor_ok and blocks_ok and chains_ok and sigma_ok and claim_ok,
        f"(factors {factor_ok}, joins {blocks_ok}, chains {chains_ok}, "
        f"closures {sigma_ok}, unions {claim_ok})",
    )


@pytest.mark.parametrize("kn", [(1, 4), (2, 4)])
def test_criterion_5_extension_independence(kn):
    k, n = kn
    m = (n - 1) * k + 1
    pk = enumerate_partitions(m, k)
    q = enumerate_ktree_complex(n, k)
    g = set(pk.g_indices())
    pool = [i for i in pk.poset.proper_indices() if i not in g]
    exts = _distinct_extensions(pk.poset, pool, 3, seed=0)
    distinct = len({tuple(e) for e in exts}) == 3
    finals = [run_blowup(pk.poset, q, list(e), record_intermediate=False).final for e in exts]
    identical = finals[0] == finals[1] == finals[2]
    delta = pk.poset.order_complex()
    report(
        f"5 extension_independence k{k} n{n}",
        distinct and identical and finals[0] == delta,
        f"(3 distinct extensions, label-identical finals)",
    )


EQUIVARIANCE_CASES = [((2, 3), "all", 120), ((1, 4), "all", 24), ((2, 4), 200, 200)]


@pytest.mark.parametrize("case", EQUIVARIANCE_CASES)
def test_criterion_6_equivariance(case):
    (k, n), perms, expected = case
    rep = check_equivariance(k, n, perms=perms, seed=0)
    report(
        f"6 equivariance k{k} n{n}",
        rep.passed and rep.permutations_checked == expected,
        f"({rep.permutations_checked} permutations, top ranks "
        f"{rep.top_rank_source}={rep.top_rank_target})",
    )


def test_criterion_7_negative_controls(pk41, pk72, t14, delta41):
    cm = carrier_map_from_parts(delta41, t14)
    a = parse_partition("(12)34", 4)
    h = parse_partition("(12)(34)", 4)
    va, vh = delta41.vertex_index(a), delta41.vertex_index(h)
    bad_f0 = {v: dict(c) for v, c in cm.f0.items()}
    bad_f0[va], bad_f0[vh] = bad_f0[vh], bad_f0[va]
    bad = CarrierMap(
        p_complex=cm.p_complex, q_complex=cm.q_complex, phi=dict(cm.phi), f0=bad_f0
    )
    res = verify_carrier_map(bad)
    overlaps = [f for f in res.failures if f.check == "interiors_disjoint"]
    carrier_control = (not res.passed) and bool(overlaps) and "point" in overlaps[0].witness

    x = parse_partition("(123)4567", 7)
    y = parse_partition("1(234)567", 7)
    mubs = pk72.minimal_upper_bounds([x, y])
    nested_control = (
        not is_k_nested(pk72, [x, y])
        and {p.text() for p in mubs} == {"(12345)67", "(12346)57", "(12347)56"}
    )
    report(
        "7 negative_controls",
        carrier_control and nested_control,
        f"(overlap witness at {overlaps[0].witness['point'] if overlaps else '?'}, "
        f"three-bound family rejected)",
    )
