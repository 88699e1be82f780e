"""Full-pipeline runs on extensions beyond the three builtins.

These exercise code paths the builtins miss: a commutative ambient algebra,
a Klein-four quotient recognized from the generic quotient construction, a
12-dimensional normal part, an order-6 bismash with inverting action, and a
sweep of further exact factorizations where every internal theorem
cross-check runs for every character.
"""

import hashlib
import tracemalloc

import pytest

from hopfclifford.groups import (Subgroup, all_subgroups, derive_actions,
                                 group_from_permutations, is_exact_factorization,
                                 is_invariant_subgroup_under_lact)
from hopfclifford.hopf import verify_hopf_axioms
from hopfclifford.linalg import TOL_MATCH
from hopfclifford.repcalc import DEFAULT_SEED
from hopfclifford.scenarios import Scenario, build_scenario, run_scenario


def test_functions_on_s4_over_v4_cosets():
    # A = functions on the order-24 group, B = functions constant on
    # Klein-four cosets; the quotient is recognized as the Klein four-group
    sc = Scenario.from_dict({
        "name": "dual_s4_v4",
        "construction": "dual_group_algebra",
        "group": {"generators": ["(1 2 3 4)", "(1 2)"], "names": ["g", "t"]},
        "b_generators": ["(1 2)(3 4)", "(1 3)(2 4)"],
    })
    rep = run_scenario(sc)
    assert rep.dims_a == [1] * 24
    assert rep.dims_b == [1] * 6
    assert rep.dims_dual == [1, 1, 2, 3, 3]
    assert rep.f_labels is not None and len(rep.f_labels) == 4
    assert rep.cocentral is False
    # commutative ambient algebra: conjugation is trivial, so Z = A always
    for r in rep.alpha_reports:
        assert r.dim_z == 24
        assert r.direct_holds
        assert len(r.graded.h_members) == 4
    assert all(len(c) == 4 for c in rep.class_data["a_classes"])


def test_group_algebra_s4_over_a4():
    sc = Scenario.from_dict({
        "name": "s4_a4_classical",
        "construction": "group_algebra",
        "group": {"generators": ["(1 2 3 4)", "(1 2)"], "names": ["g", "t"]},
        "b_generators": ["(1 2 3)", "(1 2)(3 4)"],
    })
    rep = run_scenario(sc)
    assert rep.dims_a == [1, 1, 2, 3, 3]
    assert rep.dims_b == [1, 1, 1, 3]
    assert rep.cocentral is True
    assert rep.all_verdicts_hold()
    by_degree = {}
    for r in rep.alpha_reports:
        by_degree.setdefault((r.alpha_degree, r.b_class_degree), []).append(r)
    # the two nontrivial linear characters have stabilizer kA4
    for r in by_degree[(1, 2)]:
        assert r.dim_z == 12 and str(r.bound) == "12"
    # the 3-dimensional character is fixed by conjugation
    (three,) = by_degree[(3, 9)]
    assert three.dim_z == 24


FACTORIZATION_SWEEP = [
    # (name, sigma generators, f generators, g generators,
    #  expected block dims of A, expected cocentral, expected failing alphas)
    ("a4_v4_c3", ["(1 2 3)", "(1 2)(3 4)", "(1 3)(2 4)"],
     ["(1 2)(3 4)", "(1 3)(2 4)"], ["(1 2 3)"], [1] * 12, False, 0),
    ("a4_c3_v4", ["(1 2 3)", "(1 2)(3 4)", "(1 3)(2 4)"],
     ["(1 2 3)"], ["(1 2)(3 4)", "(1 3)(2 4)"], [1, 1, 1, 3], True, 0),
    ("s4_d4_c3", ["(1 2 3 4)", "(1 2)", "(1 2 3)"],
     ["(1 2 3 4)", "(1 3)"], ["(1 2 3)"], [1, 1, 1, 1, 2, 2, 2, 2, 2], False, 0),
    ("s4_v4_s3", ["(1 2 3 4)", "(1 2)", "(1 2 3)"],
     ["(1 2)(3 4)", "(1 3)(2 4)"], ["(1 2)", "(1 2 3)"], [1] * 24, False, 0),
]


@pytest.mark.parametrize(
    "name,gens,f_gens,g_gens,dims,cocentral,failing",
    FACTORIZATION_SWEEP, ids=[c[0] for c in FACTORIZATION_SWEEP])
def test_factorization_sweep(name, gens, f_gens, g_gens, dims, cocentral, failing):
    # analyze_alpha raises on any criterion mismatch, so completion of the
    # run is itself the cross-validation; expectations below are frozen
    sc = Scenario.from_dict({
        "name": name, "construction": "bismash",
        "sigma": {"generators": gens},
        "f_generators": f_gens, "g_generators": g_gens,
    })
    rep = run_scenario(sc)
    assert rep.dims_a == dims
    assert rep.cocentral is cocentral
    fails = [r for r in rep.alpha_reports if not r.direct_holds]
    assert len(fails) == failing


SMALL_GROUPS = [
    # (name, generators, exact factorizations F.G, those with F and G both
    #  proper, alphas analysed over all of them)
    ("S4", ["(1 2 3 4)", "(1 2)"], 70, 68, 401),
    ("A4", ["(1 2 3)", "(1 2)(3 4)"], 10, 8, 41),
    ("D4", ["(1 2 3 4)", "(1 3)"], 18, 16, 57),
]


@pytest.mark.parametrize("name,gens,count,nontrivial,alphas", SMALL_GROUPS,
                         ids=[c[0] for c in SMALL_GROUPS])
def test_every_exact_factorization_runs_end_to_end(name, gens, count, nontrivial, alphas):
    # each run builds the bismash, passes the axiom gate, the class formulas,
    # every alpha and the cocentral sweep, or raises; the coset check
    # raises on none of its flags, so each is read here.  The verdict of
    # each alpha must also be the prediction "its grading stabilizer H is
    # invariant under |>", from the action table alone
    group = group_from_permutations(gens)
    subs = all_subgroups(group)
    pairs = [(f, g) for f in subs for g in subs
             if f.order * g.order == group.order and is_exact_factorization(group, f, g)]
    assert len(pairs) == count
    assert sum(1 < f.order < group.order for f, _ in pairs) == nontrivial
    analysed = 0
    for f, g in pairs:
        mp = derive_actions(group, f, g)
        rep = run_scenario(Scenario.from_dict({
            "name": name, "construction": "bismash", "sigma": {"generators": gens},
            "f_generators": [group.labels[m] for m in f.members],
            "g_generators": [group.labels[m] for m in g.members]}))
        check = rep.coset_check
        assert all(check[flag] for flag in ("image_spans_match", "coset_components_match",
                                            "supports_partition", "coset_decomposition"))
        assert check["uniform_coefficient_residual"] <= TOL_MATCH
        for r in rep.alpha_reports:
            h = Subgroup(mp.f_group, r.graded.h_members)
            assert r.direct_holds is is_invariant_subgroup_under_lact(mp, h)
        analysed += len(rep.alpha_reports)
    assert analysed == alphas


def test_order_six_bismash_with_inversion():
    # the order-6 group factors as a three-cycle times a transposition;
    # the derived right action inverts, the left action is trivial
    sc = Scenario.from_dict({
        "name": "c3_c2_bismash",
        "construction": "bismash",
        "sigma": {"generators": ["(1 2 3)", "(1 2)"], "names": ["s", "t"]},
        "g_generators": ["s"],
        "f_generators": ["t"],
    })
    rep = run_scenario(sc)
    assert rep.dims_a == [1, 1, 2]
    assert rep.dims_b == [1, 1, 1]
    assert rep.cocentral is True
    assert rep.all_verdicts_hold()
    nontrivial = [r for r in rep.alpha_reports if r.b_class_degree == 2]
    assert len(nontrivial) == 2
    for r in nontrivial:
        assert r.dim_z == 3
        assert len(r.graded.h_members) == 1
        assert r.graded.orbit_size == 2


LARGE_BISMASH = [
    # (name, sigma generators, names, f generators, g generators,
    #  Irr(A) degrees, peak MB of the axiom gate on A, peak MB of the whole
    #  run, sha256 of the report JSON at the default seed or None).  The
    #  run peaked at 19 and 152 MB while `mult` and `comult` were stored
    #  dense, at 6 and 41 MB in COO form only, at 6 and 32 MB with the
    #  adjoint joins, and at 4 and 17 MB since the Hopf-subalgebra test,
    #  the Hopf-map residuals and the graded components read their 0/1
    #  operands through joins.  Crossed-product
    # Clifford theory (Montgomery-Witherspoon) predicts the degrees: the
    # F-orbit {1} of G = C5 gives Irr(F), and the orbit of size 4 with
    # stabilizer H gives 4 * Irr(H), H = C3 in A4 and H = S3 in S4.  The
    # d=120 report hashes to 149024b07669 on numpy 2.4; it stays unpinned
    # until that is shown on numpy 1.24, the declared floor.
    ("a5_a4_c5", ["(1 2 3 4 5)", "(1 2 3)", "(1 2)(3 4)"], ["c", "a", "v"],
     ["a", "v"], ["c"], [1, 1, 1, 3, 4, 4, 4], 100, 10, "d055468c9cd3"),
    ("s5_s4_c5", ["(1 2 3 4 5)", "(1 2 3 4)", "(1 2)"], ["c", "r", "t"],
     ["r", "t"], ["c"], [1, 1, 2, 3, 3, 4, 4, 8], 200, 40, None),
]


@pytest.mark.parametrize(
    "name,gens,names,f_gens,g_gens,dims,peak_mb,run_peak_mb,digest",
    LARGE_BISMASH, ids=[c[0] for c in LARGE_BISMASH])
def test_large_bismash(name, gens, names, f_gens, g_gens, dims, peak_mb,
                       run_peak_mb, digest):
    sc = Scenario.from_dict({
        "name": name, "construction": "bismash",
        "group": {"generators": gens, "names": names},
        "f_generators": f_gens, "g_generators": g_gens,
    })
    tracemalloc.start()
    try:
        rep = run_scenario(sc)
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run_peak < run_peak_mb * 1e6
    assert rep.dims_a == dims
    assert rep.cocentral is False
    verdicts = [r.direct_holds for r in rep.alpha_reports]
    assert (verdicts.count(False), verdicts.count(True)) == (4, 1)
    if digest is not None:
        assert hashlib.sha256(rep.to_json().encode()).hexdigest().startswith(digest)
    # the dense gate held d^4 complex arrays: 1.6 GB at d=60, 3.3 GB each at d=120
    A = build_scenario(sc, DEFAULT_SEED).A
    tracemalloc.start()
    try:
        assert verify_hopf_axioms(A).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_mb * 1e6
