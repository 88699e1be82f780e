"""Equivalence classes, conjugation, stabilizers, and the correspondence checks."""

from fractions import Fraction

import numpy as np
import pytest

from hopfclifford import clifford, hopf
from hopfclifford.clifford import (Extension, analyze_alpha,
                                   check_stabilizer_induction,
                                   compute_stabilizer, conjugate_class_indices,
                                   conjugate_module, conjugation_matrix,
                                   coset_projection_check,
                                   direct_correspondence_check,
                                   graded_tensor_character,
                                   stabilizer_dimension_bound,
                                   subcoalgebra_as_dual_module,
                                   verify_class_formulas)
from hopfclifford.errors import TheoremViolationError
from hopfclifford.repcalc import (Character, construct_irreducible_module,
                                  decompose)


def alpha_with_support(ext, label):
    """Index of the Irr(B) indicator character supported on `label`."""
    return ext.supports.index(ext.inc.small.labels.index(label))


# ---------------------------------------------------------------------------
# classes and formulas

def test_classes_classical(classical):
    ecd = classical.ecd
    assert ecd.num_classes == 2
    sizes = sorted((len(a), len(b)) for a, b in zip(ecd.a_classes, ecd.b_classes))
    assert sizes == [(1, 2), (2, 1)]
    assert sorted(b.degree for b in ecd.b_sums) == [1, 2]
    for i in range(2):
        assert ecd.a_sums[i].degree == 2 * ecd.b_sums[i].degree


def test_classes_counterexample(counterexample):
    ecd = counterexample.ecd
    assert ecd.num_classes == 2
    trivial = alpha_with_support(counterexample, "d(1)")
    i0 = ecd.class_of_alpha(trivial)
    assert len(ecd.b_classes[i0]) == 1
    i1 = 1 - i0
    assert len(ecd.b_classes[i1]) == 3
    assert ecd.b_sums[i1].degree == 3
    assert ecd.a_sums[i1].degree == 18
    assert sorted(counterexample.dec_a.dims[c] for c in ecd.a_classes[i1]) == [3, 3]


def test_classes_when_b_equals_a(classical):
    A = classical.A
    inc = hopf.HopfInclusion(small=A, big=A,
                             embedding=np.eye(A.dim, dtype=complex))
    ecd = Extension(A, inc).ecd
    assert ecd.num_classes == len(classical.dec_a.irr)
    assert all(len(c) == 1 for c in ecd.a_classes)


def test_class_formulas(classical, counterexample, cocentral8):
    for ext in (classical, counterexample, cocentral8):
        res = verify_class_formulas(ext)
        assert max(res.values()) < 1e-10, res


# ---------------------------------------------------------------------------
# conjugation

def test_conjugate_by_unit(classical):
    A = classical.A
    C = conjugation_matrix(A, classical.inc, A.unit)
    assert np.max(np.abs(C - np.eye(classical.inc.small.dim))) < 1e-8


def test_conjugate_by_transposition_swaps_omegas(classical, s3_group):
    A = classical.A
    t_vec = np.zeros(A.dim, dtype=complex)
    t_vec[s3_group.label_index("t")] = 1.0
    dec_b = classical.dec_b
    omegas = [k for k, ch in enumerate(dec_b.irr)
              if np.max(np.abs(ch.values - 1.0)) > 1e-8]
    a, b = omegas
    C = conjugation_matrix(A, classical.inc, t_vec)
    assert np.max(np.abs(dec_b.irr[a].values @ C - dec_b.irr[b].values)) < 1e-8
    assert np.max(np.abs(dec_b.irr[b].values @ C - dec_b.irr[a].values)) < 1e-8


def test_conjugate_by_element_of_b(counterexample):
    # dual characters with coefficient space inside the commutative B act
    # by eps(d) on every B-character: C_d = eps(d) I
    ext = counterexample
    eye = np.eye(ext.inc.small.dim)
    found = 0
    for d, space, C in zip(ext.dec_dual.irr, ext.coefficient_spaces,
                           ext.conjugation):
        if ext.b_sub.contains(space):
            assert np.max(np.abs(C - d.degree * eye)) < 1e-8
            found += 1
    assert found == 4


def test_conjugation_composes(classical):
    # conjugating by d2 and then by d1 is conjugating by d1 d2
    A = classical.A
    duals, mats = classical.dec_dual.irr, classical.conjugation
    for d1, C1 in zip(duals, mats):
        for d2, C2 in zip(duals, mats):
            prod = A.product(d1.values, d2.values)
            rhs = conjugation_matrix(A, classical.inc, prod)
            assert float(np.max(np.abs(C2 @ C1 - rhs))) < 1e-8


def test_conjugation_composes_counterexample(counterexample):
    # same identity on the order-24 algebra, including the 4-dim dual block
    ext = counterexample
    duals = ext.dec_dual.irr
    i4 = [i for i, ch in enumerate(duals) if ch.degree == 4][0]
    picks = [i4, 0, 1, 2]
    for i1 in picks:
        for i2 in picks:
            prod = ext.A.product(duals[i1].values, duals[i2].values)
            rhs = conjugation_matrix(ext.A, ext.inc, prod)
            lhs = ext.conjugation[i2] @ ext.conjugation[i1]
            assert float(np.max(np.abs(lhs - rhs))) < 1e-7


def test_conjugate_module_matches_character(classical, s3_group):
    A = classical.A
    t_vec = np.zeros(A.dim, dtype=complex)
    t_vec[s3_group.label_index("t")] = 1.0
    C = hopf.coefficient_space(A, t_vec)
    W = subcoalgebra_as_dual_module(A, C)
    dec_b = classical.dec_b
    omegas = [k for k, ch in enumerate(dec_b.irr)
              if np.max(np.abs(ch.values - 1.0)) > 1e-8]
    M = construct_irreducible_module(classical.inc.small, dec_b, omegas[0])
    out = conjugate_module(A, classical.inc, W, M)
    conj = conjugation_matrix(A, classical.inc, t_vec)
    want = Character(dec_b.algebra, dec_b.irr[omegas[0]].values @ conj)
    assert out.character().close_to(want)


def test_conjugate_module_trivial_comodule(classical):
    A = classical.A
    one = hopf.SubspaceBasis.from_vectors(A, A.unit[:, None])
    W = subcoalgebra_as_dual_module(A, one)
    dec_b = classical.dec_b
    M = construct_irreducible_module(classical.inc.small, dec_b, 0)
    out = conjugate_module(A, classical.inc, W, M)
    assert out.character().close_to(dec_b.irr[0])


def test_isotypic_iff_stabilized(counterexample):
    # C (x) M is a sum of copies of M exactly when the dual character fixes alpha
    ext = counterexample
    A = ext.A
    k = alpha_with_support(ext, "d(g)")
    alpha = ext.dec_b.irr[k]
    M = construct_irreducible_module(ext.inc.small, ext.dec_b, k)
    sr = compute_stabilizer(ext, k)
    for idx, C in enumerate(ext.coefficient_spaces):
        W = subcoalgebra_as_dual_module(A, C)
        out = conjugate_module(A, ext.inc, W, M)
        isotypic = out.character().close_to(
            Character(alpha.parent, C.dim * alpha.values), 1e-7)
        assert isotypic == (idx in sr.stabilizing)


# ---------------------------------------------------------------------------
# the stabilizer and the correspondence criteria

def test_stabilizer_of_counit_is_everything(classical):
    eps_index = [k for k, ch in enumerate(classical.dec_b.irr)
                 if np.max(np.abs(ch.values - 1.0)) < 1e-8][0]
    sr = compute_stabilizer(classical, eps_index)
    assert sr.dim_z == classical.A.dim


def test_stabilizer_classical_omega(classical):
    dec_b = classical.dec_b
    omegas = [k for k, ch in enumerate(dec_b.irr)
              if np.max(np.abs(ch.values - 1.0)) > 1e-8]
    sr = compute_stabilizer(classical, omegas[0])
    assert sr.dim_z == 3
    assert sr.Z.equals(classical.b_sub)
    assert sr.z_class == (omegas[0],) or len(sr.z_class) == 1


def test_stabilizer_counterexample_is_b(counterexample):
    k = alpha_with_support(counterexample, "d(g)")
    sr = compute_stabilizer(counterexample, k)
    assert sr.dim_z == 4
    assert sr.Z.equals(counterexample.b_sub)
    assert len(sr.stabilizing) == 4
    assert len(sr.z_class) == 1


def test_stabilizing_set_closed(counterexample):
    # products and duals of stabilizing characters stabilize
    ext = counterexample
    A = ext.A
    k = alpha_with_support(ext, "d(g)")
    alpha = ext.dec_b.irr[k]
    sr = compute_stabilizer(ext, k)
    stab = set(sr.stabilizing)
    for i in stab:
        d = ext.dec_dual.irr[i]
        # the dual character S(d) stabilizes
        C = conjugation_matrix(A, ext.inc, A.antipode @ d.values)
        assert float(np.max(np.abs(alpha.values @ C - d.degree * alpha.values))) < 1e-8
        for j in stab:
            prod = Character(ext.dual, A.product(d.values,
                                                 ext.dec_dual.irr[j].values))
            for c in np.nonzero(decompose(prod, ext.dec_dual))[0]:
                assert int(c) in stab


def test_conjugates_span_the_class(counterexample):
    ext = counterexample
    for k in range(len(ext.dec_b.irr)):
        got = conjugate_class_indices(ext, k)
        i = ext.ecd.class_of_alpha(k)
        assert got == tuple(sorted(ext.ecd.b_classes[i]))


def test_restriction_within_z_class(counterexample, classical):
    # psi restricted to B is (psi(1)/alpha(1)) alpha for psi over alpha
    for ext in (classical, counterexample):
        for k in range(len(ext.dec_b.irr)):
            alpha = ext.dec_b.irr[k]
            sr = compute_stabilizer(ext, k)
            for j in sr.z_class:
                psi = sr.z_dec.irr[j]
                down = Character(ext.inc.small, sr.b_in_z.T @ psi.values)
                scale = Fraction(psi.degree, alpha.degree)
                assert float(np.max(np.abs(
                    down.values - float(scale) * alpha.values))) < 1e-8


def test_stabilizer_induction_formula(classical, counterexample, cocentral8):
    for ext in (classical, counterexample, cocentral8):
        for k in range(len(ext.dec_b.irr)):
            rep = check_stabilizer_induction(ext, compute_stabilizer(ext, k))
            assert rep["residual"] < 1e-8


def test_bound_classical(classical):
    dec_b = classical.dec_b
    omegas = [k for k, ch in enumerate(dec_b.irr)
              if np.max(np.abs(ch.values - 1.0)) > 1e-8]
    sr = compute_stabilizer(classical, omegas[0])
    rep = stabilizer_dimension_bound(classical, sr)
    assert rep.bound == 3 and rep.equality and rep.socle_equality


def test_bound_counterexample_strict(counterexample):
    k = alpha_with_support(counterexample, "d(g)")
    sr = compute_stabilizer(counterexample, k)
    rep = stabilizer_dimension_bound(counterexample, sr)
    assert rep.bound == 8 and sr.dim_z == 4
    assert not rep.equality and not rep.socle_equality
    assert rep.mult_z == 1 and rep.mult_full == 2


def test_bound_trivial_class(counterexample):
    k = alpha_with_support(counterexample, "d(1)")
    sr = compute_stabilizer(counterexample, k)
    rep = stabilizer_dimension_bound(counterexample, sr)
    assert rep.bound == 24 and rep.equality


def test_direct_check_counterexample(counterexample):
    k = alpha_with_support(counterexample, "d(g)")
    sr = compute_stabilizer(counterexample, k)
    rep = direct_correspondence_check(counterexample, sr)
    assert not rep.direct_holds
    assert len(rep.induction_table) == 1
    row = rep.induction_table[0]
    assert not row["irreducible"]
    i = counterexample.ecd.class_of_alpha(k)
    assert len(sr.z_class) == 1 != len(counterexample.ecd.a_classes[i])
    # the induced character is theta_1 + theta_2
    dims = [counterexample.dec_a.dims[c]
            for c in np.nonzero(row["image"])[0]]
    assert dims == [3, 3]


def test_full_sweep_consistency(classical, counterexample, cocentral8):
    verdicts = {}
    for name, ext in (("classical", classical), ("counterexample", counterexample),
                      ("cocentral", cocentral8)):
        for k in range(len(ext.dec_b.irr)):
            rep = analyze_alpha(ext, k)
            verdicts[(name, k)] = rep.direct_holds
            assert rep.socle_equality == rep.direct_holds
            if rep.graded is not None:
                assert rep.graded.z_equals_s == rep.direct_holds
                assert rep.graded.s_is_hopf == rep.direct_holds
    assert len(verdicts) >= 10
    fails = [key for key, held in verdicts.items() if not held]
    assert sorted(fails) == [("counterexample", 0), ("counterexample", 2)]


def test_graded_section_counterexample(counterexample):
    ext = counterexample
    k = alpha_with_support(ext, "d(g)")
    rep = analyze_alpha(ext, k)
    g = rep.graded
    assert g.h_labels == ["1", "t"]
    assert g.orbit_size == 3
    assert g.dim_s == 8
    assert not g.s_is_hopf
    assert rep.dim_z == 4 and not g.z_equals_s
    assert not g.cocentral
    assert rep.verdict == "FAILS"


def test_graded_section_cocentral(cocentral8):
    ext = cocentral8
    k = alpha_with_support(ext, "d(g)")
    rep = analyze_alpha(ext, k)
    g = rep.graded
    assert g.h_labels == ["1"]
    assert g.orbit_size == 2
    assert g.dim_s == 4 and g.z_equals_s and g.s_is_hopf
    assert g.cocentral
    assert rep.verdict == "HOLDS"


def test_graded_section_trivial_alpha(counterexample):
    ext = counterexample
    k = alpha_with_support(ext, "d(1)")
    rep = analyze_alpha(ext, k)
    g = rep.graded
    assert len(g.h_members) == ext.F.order
    assert g.dim_s == ext.A.dim
    assert rep.dim_z == ext.A.dim and g.z_equals_s
    assert rep.verdict == "HOLDS"


def test_graded_tensor_dimensions(counterexample):
    ext = counterexample
    k = alpha_with_support(ext, "d(g)")
    M = construct_irreducible_module(ext.inc.small, ext.dec_b, k)
    for f in range(ext.F.order):
        ch = graded_tensor_character(ext.bimodules[f], M)
        assert abs(ch.degree - M.dimension) < 1e-8


def test_orbit_identity_integers(counterexample, cocentral8, classical):
    # b_i(1) |H| = |F| alpha(1)^2 holds exactly for every alpha
    for ext in (classical, counterexample, cocentral8):
        for k in range(len(ext.dec_b.irr)):
            rep = analyze_alpha(ext, k)
            g = rep.graded
            i = rep.class_index
            assert (ext.ecd.b_sums[i].degree * len(g.h_members)
                    == ext.F.order * rep.alpha_degree ** 2)


def test_coset_projection_checks(classical, counterexample, cocentral8):
    for ext in (classical, counterexample, cocentral8):
        out = coset_projection_check(ext)
        assert out["uniform_coefficient_residual"] < 1e-10
        assert out["image_spans_match"]
        assert out["coset_components_match"]
        assert out["supports_partition"]
        assert out["coset_decomposition"]


def test_counterexample_coset_count(counterexample):
    out = coset_projection_check(counterexample)
    assert out["num_cosets"] == 3


def test_cocentral_sweep(classical, cocentral8):
    for ext in (classical, cocentral8):
        assert hopf.is_cocentral(ext.A, ext.piF)
        reports = [analyze_alpha(ext, k) for k in range(len(ext.dec_b.irr))]
        clifford.cocentral_sweep_check(reports)


def test_crosscheck_raises_on_forged_mismatch(counterexample):
    k = alpha_with_support(counterexample, "d(g)")
    sr = compute_stabilizer(counterexample, k)
    bound = stabilizer_dimension_bound(counterexample, sr)
    direct = direct_correspondence_check(counterexample, sr)
    forged = clifford.DirectReport(direct_holds=True,
                                   induction_table=direct.induction_table,
                                   image_indices=direct.image_indices)
    with pytest.raises(TheoremViolationError):
        clifford.crosscheck_correspondence(bound, forged)
