"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from fractions import Fraction

import numpy as np

from hopfclifford import hopf, repcalc, scenarios
from hopfclifford.groups import group_from_permutations
from hopfclifford.scenarios import S4_LACT, S4_RACT, builtin_scenario, run_scenario

TABLE_CELLS_RIGHT = 15
TABLE_CELLS_LEFT = 15


def _line(n, ok, text):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_acceptance_1_counterexample(s4_pair, counterexample):
    t0 = time.perf_counter()
    report = run_scenario(builtin_scenario("s4_counterexample"),
                          alpha_selection="g")
    elapsed = time.perf_counter() - t0

    cells_right = sum(len(r) for r in S4_RACT.values())
    cells_left = sum(len(r) for r in S4_LACT.values())
    ok = cells_right == TABLE_CELLS_RIGHT and cells_left == TABLE_CELLS_LEFT
    for x_label, row in S4_RACT.items():
        for g_label, want in row.items():
            ok &= s4_pair.ract_label(g_label, x_label) == want
    for g_label, row in S4_LACT.items():
        for x_label, want in row.items():
            ok &= s4_pair.lact_label(g_label, x_label) == want

    rep = report.alpha_reports[0]
    g = rep.graded
    ok &= g.h_labels == ["1", "t"]
    ok &= s4_pair.lact_label("g", "t") == "ts" and "ts" not in g.h_labels
    from hopfclifford.groups import Subgroup, is_invariant_subgroup_under_lact
    stab = Subgroup(s4_pair.f_group, tuple(g.h_members))
    ok &= not is_invariant_subgroup_under_lact(s4_pair, stab)
    ok &= g.dim_s == 8 and not g.s_is_hopf
    ok &= rep.dim_z == 4 and not g.z_equals_s
    ok &= rep.bound == Fraction(8) and rep.dim_z < rep.bound
    row = rep.induction_table[0]
    ok &= not row["irreducible"]
    dims = [counterexample.dec_a.dims[c] for c in np.nonzero(row["image"])[0]]
    ok &= dims == [3, 3]
    ok &= rep.verdict == "FAILS"
    ok &= elapsed < 5.0
    _line(1, ok, f"counterexample reproduced (tables 15+15 cells, H={{1,t}}, "
                 f"dim S 8 not Hopf, Z=B dim 4, bound 4<8, induced reducible, "
                 f"verdict FAILS) in {elapsed:.2f}s")


def test_acceptance_2_classical_positive(classical):
    from hopfclifford.clifford import compute_stabilizer
    report = run_scenario(builtin_scenario("s3_a3_classical"))
    ok = True
    nontrivial = [r for r in report.alpha_reports if r.b_class_degree == 2]
    ok &= len(nontrivial) == 2
    for rep in nontrivial:
        ok &= rep.dim_z == 3
        ok &= rep.bound == Fraction(3)
        ok &= rep.socle_equality and rep.direct_holds
        ok &= len(rep.induction_table) == 1
        row = rep.induction_table[0]
        ok &= row["irreducible"]
        image_dim = [classical.dec_a.dims[c]
                     for c in np.nonzero(row["image"])[0]]
        ok &= image_dim == [2]
        # the stabilizer is literally the span of the normal subgroup
        sr = compute_stabilizer(classical, rep.alpha_index)
        ok &= sr.Z.equals(classical.b_sub)
    ok &= report.all_verdicts_hold()
    ok &= max(report.formula_residuals.values()) < 1e-8
    _line(2, ok, "classical case holds (Z = kA3 exactly, bound 3 attained, "
                 "induction bijects onto the 2-dim block)")


def test_acceptance_3_cocentral(cocentral8):
    t0 = time.perf_counter()
    report = run_scenario(builtin_scenario("cocentral_c4_c2"))
    elapsed = time.perf_counter() - t0
    ok = report.cocentral is True
    ok &= len(report.alpha_reports) == 4
    for rep in report.alpha_reports:
        ok &= rep.direct_holds
        ok &= rep.graded is not None and rep.graded.z_equals_s
    ok &= elapsed < 5.0
    _line(3, ok, f"cocentral extension detected and all 4 verdicts HOLD with "
                 f"Z = S in {elapsed:.2f}s")


def test_acceptance_4_formula_suite():
    worst = 0.0
    flags_ok = True
    for name in scenarios.BUILTIN_NAMES:
        report = run_scenario(builtin_scenario(name))
        worst = max(worst, max(report.formula_residuals.values()))
        for rep in report.alpha_reports:
            worst = max(worst, rep.stabilizer_induction_residual)
            g = rep.graded
            flags_ok &= g is not None
            if g is not None:
                flags_ok &= (rep.b_class_degree * len(g.h_members)
                             == len(report.f_labels) * rep.alpha_degree ** 2)
        cc = report.coset_check
        flags_ok &= cc is not None
        worst = max(worst, cc["uniform_coefficient_residual"])
        flags_ok &= cc["image_spans_match"] and cc["coset_components_match"]
        flags_ok &= cc["supports_partition"] and cc["coset_decomposition"]
    ok = worst < 1e-6 and flags_ok
    _line(4, ok, f"formula suite on all builtins, worst residual {worst:.2e}")


def test_acceptance_5_crosscheck_sweep():
    pairs = 0
    ok = True
    for name in scenarios.BUILTIN_NAMES:
        report = run_scenario(builtin_scenario(name))
        for rep in report.alpha_reports:
            pairs += 1
            ok &= rep.dim_z <= rep.bound
            equality = Fraction(rep.dim_z) == rep.bound
            ok &= equality == rep.socle_equality == rep.direct_holds
            if rep.graded is not None:
                ok &= rep.graded.z_equals_s == rep.direct_holds
    ok &= pairs >= 10
    _line(5, ok, f"theorem cross-validation over {pairs} (scenario, alpha) "
                 f"pairs with zero mismatches")


def test_acceptance_6_axiom_suite(s3_group, counterexample, cocentral8):
    cases = []
    kS3 = hopf.group_algebra(s3_group)
    c4 = group_from_permutations(["(1 2 3 4)"], names=["g"])
    kC4d = hopf.dual_group_algebra(c4)
    cases.append(("kS3", kS3, [1, 1, 2]))
    cases.append(("k^C4", kC4d, [1, 1, 1, 1]))
    cases.append(("bismash24", counterexample.A, [1, 1, 2, 3, 3]))
    cases.append(("bismash24 dual", counterexample.dual, None))
    cases.append(("bismash8", cocentral8.A, [1, 1, 1, 1, 2]))
    ok = True
    worst = 0.0
    for name, alg, dims in cases:
        rep = hopf.verify_hopf_axioms(alg)
        worst = max(worst, rep.max_residual)
        ok &= rep.ok and rep.residuals["antipode_squared"] < 1e-8
        dec = repcalc.wedderburn(alg)
        ok &= sum(n * n for n in dec.dims) == alg.dim
        if dims is not None:
            ok &= dec.dims == dims
    ok &= worst < 1e-8
    _line(6, ok, f"axioms and S^2=id pass on all five algebras "
                 f"(worst residual {worst:.2e}); block dims as predicted")


def test_acceptance_7_determinism(tmp_path):
    sc = builtin_scenario("s4_counterexample")
    a = run_scenario(sc, seed=1729).to_json()
    b = run_scenario(sc, seed=1729).to_json()
    ok = a == b and len(a) > 1000
    _line(7, ok, "two runs with the same seed give byte-identical JSON")


def test_acceptance_8_runtime_budget():
    t0 = time.perf_counter()
    for name in scenarios.BUILTIN_NAMES:
        run_scenario(builtin_scenario(name))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _line(8, ok, f"all three builtin analyses complete in {elapsed:.1f}s "
                 f"(suite budget 60s; see session wall time)")
