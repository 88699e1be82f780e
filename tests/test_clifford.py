"""Equivalence classes, conjugation, stabilizers, and the correspondence checks."""

from fractions import Fraction

import numpy as np
import pytest

from hopfclifford import clifford, hopf, linalg
from hopfclifford.clifford import (Extension, analyze_alphas,
                                   check_stabilizer_induction,
                                   compute_stabilizer, conjugate_class_indices,
                                   conjugation_matrices, coset_projection_check,
                                   direct_correspondence_check,
                                   stabilizer_dimension_bound,
                                   verify_class_formulas)
from hopfclifford.errors import (ConsistencyError, NormalityError, PreconditionError,
                                 TheoremViolationError)
from hopfclifford.hopf import SubspaceBasis, subalgebra_data
from hopfclifford.repcalc import (DEFAULT_SEED, Character, decompose,
                                  restriction_table, wedderburn)
from hopfclifford.scenarios import build_scenario, builtin_scenario

import clifford_reference as ref
from clifford_reference import (component_bimodule, conjugate_module,
                                construct_irreducible_module, graded_tensor_character,
                                subcoalgebra_as_dual_module)
from conftest import change_basis


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
    ext = Extension(A, inc)
    ecd = ext.ecd
    assert ecd.num_classes == len(classical.dec_a.irr)
    assert all(len(c) == 1 for c in ecd.a_classes)
    # the classes need no projection A -> A/AB+; the graded picture does
    with pytest.raises(PreconditionError, match="no projection"):
        ext.piF


def _classes_from(monkeypatch, ext, table):
    """`equivalence_classes` of ext read from a crafted restriction table."""
    monkeypatch.setattr(clifford, "restriction_table", lambda *args: table)
    return clifford.equivalence_classes(ext)


def test_classes_are_numbered_by_smallest_a_index(classical, counterexample, cocentral8):
    for ext in (classical, counterexample, cocentral8):
        firsts = [c[0] for c in ext.ecd.a_classes]
        assert firsts == sorted(firsts)


def test_classes_need_every_b_character_covered(monkeypatch, counterexample):
    # a B-character in no restriction is named before the overlapping
    # supports that the same table also has
    table = counterexample.ecd.restriction_table.copy()
    table[:, 0] = 0
    table[:, 1:] = 1
    with pytest.raises(ConsistencyError, match="misses every restriction"):
        _classes_from(monkeypatch, counterexample, table)


def test_classes_need_disjoint_supports(monkeypatch, counterexample):
    # one A-character restricting onto both B-classes joins them into a
    # block that is not complete bipartite
    ecd = counterexample.ecd
    table = ecd.restriction_table.copy()
    table[ecd.a_classes[0][0], ecd.b_classes[1][0]] = 1
    with pytest.raises(NormalityError, match="not complete bipartite"):
        _classes_from(monkeypatch, counterexample, table)


def test_class_formulas(classical, counterexample, cocentral8):
    for ext in (classical, counterexample, cocentral8):
        res = verify_class_formulas(ext)
        assert max(res.values()) < 1e-10, res


# ---------------------------------------------------------------------------
# conjugation

def test_conjugate_by_unit(classical):
    A = classical.A
    C = conjugation_matrices(A, classical.inc, A.unit[None])[0]
    assert np.max(np.abs(C - np.eye(classical.inc.small.dim))) < 1e-8


def test_conjugate_by_transposition_swaps_omegas(classical, s3_group):
    A = classical.A
    t_vec = np.zeros(A.dim, dtype=complex)
    t_vec[s3_group.label_index("t")] = 1.0
    dec_b = classical.dec_b
    omegas = [k for k, ch in enumerate(dec_b.irr)
              if np.max(np.abs(ch.values - 1.0)) > 1e-8]
    a, b = omegas
    C = conjugation_matrices(A, classical.inc, t_vec[None])[0]
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
            rhs = conjugation_matrices(A, classical.inc, prod[None])[0]
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
            rhs = conjugation_matrices(ext.A, ext.inc, prod[None])[0]
            lhs = ext.conjugation[i2] @ ext.conjugation[i1]
            assert float(np.max(np.abs(lhs - rhs))) < 1e-7


def test_conjugate_module_matches_character(classical, s3_group):
    A = classical.A
    t_vec = np.zeros(A.dim, dtype=complex)
    t_vec[s3_group.label_index("t")] = 1.0
    C = hopf.coefficient_spaces(A, t_vec[None])[0]
    W = subcoalgebra_as_dual_module(A, C)
    dec_b = classical.dec_b
    omegas = [k for k, ch in enumerate(dec_b.irr)
              if np.max(np.abs(ch.values - 1.0)) > 1e-8]
    M = construct_irreducible_module(classical.inc.small, dec_b, omegas[0])
    out = conjugate_module(A, classical.inc, W, M)
    conj = conjugation_matrices(A, classical.inc, t_vec[None])[0]
    want = dec_b.irr[omegas[0]].values @ conj
    assert np.max(np.abs(out.character().values - want)) < 1e-8


def test_conjugate_module_trivial_comodule(classical):
    A = classical.A
    one = hopf.SubspaceBasis.from_vectors(A, A.unit[:, None])
    W = subcoalgebra_as_dual_module(A, one)
    dec_b = classical.dec_b
    M = construct_irreducible_module(classical.inc.small, dec_b, 0)
    out = conjugate_module(A, classical.inc, W, M)
    assert np.max(np.abs(out.character().values - dec_b.irr[0].values)) < 1e-8


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
        isotypic = np.max(np.abs(out.character().values - C.dim * alpha.values)) < 1e-7
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
    assert sr.Z.dim == classical.b_sub.dim and sr.Z.contains(classical.b_sub)
    assert sr.z_class == (omegas[0],) or len(sr.z_class) == 1


def test_stabilizer_counterexample_is_b(counterexample):
    k = alpha_with_support(counterexample, "d(g)")
    sr = compute_stabilizer(counterexample, k)
    assert sr.dim_z == 4
    assert sr.Z.dim == counterexample.b_sub.dim and sr.Z.contains(counterexample.b_sub)
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
        C = conjugation_matrices(A, ext.inc, (A.antipode @ d.values)[None])[0]
        assert float(np.max(np.abs(alpha.values @ C - d.degree * alpha.values))) < 1e-8
        for j in stab:
            prod = Character(ext.dual, A.product(d.values,
                                                 ext.dec_dual.irr[j].values))
            for c in np.nonzero(decompose(prod, ext.dec_dual))[0]:
                assert int(c) in stab


def test_conjugates_span_the_class(counterexample):
    ext = counterexample
    alphas = range(len(ext.dec_b.irr))
    for k, got in zip(alphas, conjugate_class_indices(ext, alphas)):
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
        srs = [compute_stabilizer(ext, k) for k in range(len(ext.dec_b.irr))]
        for rep in check_stabilizer_induction(ext, srs):
            assert rep["residual"] < 1e-8


def test_bound_classical(classical):
    dec_b = classical.dec_b
    omegas = [k for k, ch in enumerate(dec_b.irr)
              if np.max(np.abs(ch.values - 1.0)) > 1e-8]
    sr = compute_stabilizer(classical, omegas[0])
    rep = stabilizer_dimension_bound(classical, [sr])[0]
    assert rep.bound == 3 and rep.equality and rep.socle_equality


def test_bound_counterexample_strict(counterexample):
    k = alpha_with_support(counterexample, "d(g)")
    sr = compute_stabilizer(counterexample, k)
    rep = stabilizer_dimension_bound(counterexample, [sr])[0]
    assert rep.bound == 8 and sr.dim_z == 4
    assert not rep.equality and not rep.socle_equality
    assert rep.mult_z == 1 and rep.mult_full == 2


def test_bound_trivial_class(counterexample):
    k = alpha_with_support(counterexample, "d(1)")
    sr = compute_stabilizer(counterexample, k)
    rep = stabilizer_dimension_bound(counterexample, [sr])[0]
    assert rep.bound == 24 and rep.equality


def test_direct_check_counterexample(counterexample):
    k = alpha_with_support(counterexample, "d(g)")
    sr = compute_stabilizer(counterexample, k)
    rep = direct_correspondence_check(counterexample, [sr])[0]
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
        for k, rep in enumerate(analyze_alphas(ext, range(len(ext.dec_b.irr)))):
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
    rep = analyze_alphas(ext, [k])[0]
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
    rep = analyze_alphas(ext, [k])[0]
    g = rep.graded
    assert g.h_labels == ["1"]
    assert g.orbit_size == 2
    assert g.dim_s == 4 and g.z_equals_s and g.s_is_hopf
    assert g.cocentral
    assert rep.verdict == "HOLDS"


def test_graded_section_trivial_alpha(counterexample):
    ext = counterexample
    k = alpha_with_support(ext, "d(1)")
    rep = analyze_alphas(ext, [k])[0]
    g = rep.graded
    assert len(g.h_members) == ext.F.order
    assert g.dim_s == ext.A.dim
    assert rep.dim_z == ext.A.dim and g.z_equals_s
    assert rep.verdict == "HOLDS"


def test_graded_tensor_dimensions(classical, counterexample, cocentral8, s4_a4):
    # theta_f fixes the unit of B, so A_f (x)_B M, with character alpha o theta_f,
    # has the dimension of M
    for ext in (classical, counterexample, cocentral8, s4_a4):
        theta, B = ext.twists, ext.inc.small
        assert theta.shape == (ext.F.order, B.dim, B.dim)
        assert np.max(np.abs(theta @ B.unit - B.unit)) < 1e-10
        for alpha in ext.dec_b.irr:
            for values in alpha.values @ theta:
                assert abs(Character(B, values).degree - alpha.degree) < 1e-8


def test_graded_solve_matches_per_component(classical, counterexample, cocentral8,
                                            s4_a4, a5, dual_s4_v4):
    # alpha o theta_f for every f and alpha against the character of
    # A_f (x)_B M solved with np.kron, one component and one module at a time
    dims = set()
    for ext in (classical, counterexample, cocentral8, s4_a4, a5, dual_s4_v4):
        bimodules = [component_bimodule(ext.A, ext.inc, comp) for comp in ext.components]
        for k, alpha in enumerate(ext.dec_b.irr):
            M = construct_irreducible_module(ext.inc.small, ext.dec_b, k, seed=ext.seed)
            dims.add(M.dimension)
            want = [graded_tensor_character(bimodule, M).values for bimodule in bimodules]
            got = alpha.values @ ext.twists
            assert np.max(np.abs(got - np.array(want))) < linalg.TOL_MATCH
    assert dims == {1, 3}                     # s4_a4: A4 has an irreducible of degree 3


def _fresh(ext, components):
    """An Extension of ext's pair whose graded components are `components`."""
    fresh = Extension(ext.A, ext.inc, seed=ext.seed)
    fresh.components = components
    return fresh


def test_graded_solve_checks_each_rank(classical):
    # A_1 replaced by span{e_0, e_1, t e_0}, for idempotents e_i of B = kA3:
    # a B-bimodule of dimension |B| in which u e_2 = 0 for every u, so no
    # element generates it and every Phi_1 is singular
    ext = classical
    A, E = ext.A, ext.inc.embedding
    e0, e1 = (E @ idem for idem in ext.dec_b.idempotents[:2])
    t = ext.components[1].matrix[:, 0]
    V = SubspaceBasis.from_vectors(A, np.stack([e0, e1, A.product(t, e0)], axis=1))
    assert V.dim == ext.inc.small.dim
    with pytest.raises(ConsistencyError, match="no element of graded component 1 generates it"):
        _fresh(ext, [ext.components[0], V]).twists


def test_graded_solve_checks_the_module(monkeypatch, counterexample):
    # theta_f that is no algebra map, so M twisted by it is no B-module
    ext = counterexample
    solve = linalg.solve

    def perturbed(a, b):
        return solve(a, b) + 0.1 * np.random.default_rng(3).standard_normal(b.shape)

    monkeypatch.setattr(linalg, "solve", perturbed)
    with pytest.raises(ConsistencyError, match="a twist of B is not multiplicative"):
        _fresh(ext, ext.components).twists


def test_grading_must_send_a_simple_to_a_simple(monkeypatch, counterexample):
    k = alpha_with_support(counterexample, "d(g)")
    sr = compute_stabilizer(counterexample, k)
    # A_1 (x)_B M becomes the sum of two simples, A_2 (x)_B M becomes 0
    theta = counterexample.twists.copy()
    theta[1] += theta[2]
    theta[2] = 0.0
    monkeypatch.setitem(counterexample.__dict__, "twists", theta)
    with pytest.raises(ConsistencyError, match="did not send a simple to a simple"):
        clifford.graded_stabilizer_analysis(counterexample, [sr])


def test_graded_components_of_unequal_dimension_rejected():
    ext = build_scenario(builtin_scenario("s3_a3_classical"), DEFAULT_SEED)
    comps = ext.components
    ext.components = [comps[0], SubspaceBasis(ext.A, comps[1].matrix[:, :-1])]
    with pytest.raises(ConsistencyError, match="graded component 1 has dimension 2"):
        ext.twists


def test_z_equal_to_a_is_read_on_the_basis_of_a(classical, counterexample, cocentral8, a5):
    # the trivial character's Z is A: its psi rows and both restriction tables
    # are those a random unitary basis Q of Z = A gives
    rng = np.random.default_rng(31)
    for ext in (classical, counterexample, cocentral8, a5):
        A = ext.A
        counit = ext.inc.small.counit
        trivial = [k for k, ch in enumerate(ext.dec_b.irr)
                   if np.max(np.abs(ch.values - counit)) < 1e-8]
        sr = compute_stabilizer(ext, trivial[0])
        assert sr.z_alg is A and sr.z_dec is ext.dec_a and sr.dim_z == A.dim
        Q = np.linalg.qr(rng.standard_normal((A.dim, A.dim))
                         + 1j * rng.standard_normal((A.dim, A.dim)))[0]
        z_alg = subalgebra_data(A, SubspaceBasis(A, Q))
        z_dec = wedderburn(z_alg, seed=ext.seed, frame=Q)
        rows = np.array([Q.conj() @ ch.values for ch in z_dec.irr])
        assert np.max(np.abs(rows - np.array([ch.values for ch in sr.z_dec.irr]))) < 1e-8
        b_in_z = Q.conj().T @ ext.inc.embedding
        b_inc = clifford.HopfInclusion(small=ext.inc.small, big=z_alg, embedding=b_in_z)
        z_inc = clifford.HopfInclusion(small=z_alg, big=A, embedding=Q)
        assert np.array_equal(sr.table_bz, restriction_table(b_inc, ext.dec_b, z_dec))
        assert np.array_equal(sr.table_za, restriction_table(z_inc, z_dec, ext.dec_a))


def _assert_read_as_built(ext, rng):
    """Every Z = B of `ext` is read on Irr(B) as the built Z would give it,
    on Z's SVD basis and on a random unitary basis of it: the order and
    degrees of Irr(Z), both restriction tables and every psi_alpha, each
    character compared as a functional on A.  Returns how many alphas have
    Z = B."""
    B, E = ext.inc.small, np.asarray(ext.inc.embedding, complex)
    key = np.linalg.pinv(E).T                     # a B-character as a functional on A
    count = 0
    for k in range(len(ext.dec_b.irr)):
        sr = compute_stabilizer(ext, k)
        if sr.dim_z != B.dim:
            continue
        count += 1
        assert sr.z_alg is B and sr.z_inc is ext.inc
        unitary = np.linalg.qr(rng.standard_normal((B.dim, B.dim))
                               + 1j * rng.standard_normal((B.dim, B.dim)))[0]
        for frame in (sr.Z.matrix, sr.Z.matrix @ unitary):
            built = ref.built_stabilizer(ext, sr.stabilizing, SubspaceBasis(ext.A, frame))
            assert built.z_dec.dims == sr.z_dec.dims
            assert np.array_equal(built.table_bz, sr.table_bz)
            assert np.array_equal(built.table_za, sr.table_za)
            got = np.array([key @ ch.values for ch in sr.z_dec.irr])
            want = np.array([frame.conj() @ ch.values for ch in built.z_dec.irr])
            assert np.max(np.abs(got - want)) < 1e-8
            psi = sum(built.z_dec.irr[j].degree * built.z_dec.irr[j].values for j in sr.z_class)
            assert np.max(np.abs(key @ sr.psi_alpha.values - frame.conj() @ psi)) < 1e-8
    return count


def test_z_equal_to_b_is_read_on_irr_b(classical, counterexample, cocentral8, s4_a4, a5):
    rng = np.random.default_rng(41)
    for ext in (classical, counterexample, cocentral8, s4_a4, a5):
        assert _assert_read_as_built(ext, rng) > 0
    # on a basis of B that is not orthonormal, the key is pinv(E)^T alpha
    P = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    B = change_basis(counterexample.inc.small, P)
    E = counterexample.inc.embedding @ P
    ext = Extension(counterexample.A, clifford.HopfInclusion(small=B, big=counterexample.A,
                                                             embedding=E))
    ext.quotient, ext.mp = counterexample.quotient, counterexample.mp
    assert _assert_read_as_built(ext, rng) == 2


def test_orbit_identity_integers(counterexample, cocentral8, classical):
    # b_i(1) |H| = |F| alpha(1)^2 holds exactly for every alpha
    for ext in (classical, counterexample, cocentral8):
        for rep in analyze_alphas(ext, range(len(ext.dec_b.irr))):
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
        reports = analyze_alphas(ext, range(len(ext.dec_b.irr)))
        clifford.cocentral_sweep_check(reports)


def test_crosscheck_raises_on_forged_mismatch(counterexample):
    k = alpha_with_support(counterexample, "d(g)")
    sr = compute_stabilizer(counterexample, k)
    bound = stabilizer_dimension_bound(counterexample, [sr])[0]
    direct = direct_correspondence_check(counterexample, [sr])[0]
    forged = clifford.DirectReport(direct_holds=True,
                                   induction_table=direct.induction_table,
                                   image_indices=direct.image_indices)
    with pytest.raises(TheoremViolationError):
        clifford.crosscheck_correspondence(bound, forged)
