"""Hopf algebra constructors, axiom verification, and the subspace calculus."""

import numpy as np
import pytest

from hopfclifford import hopf, repcalc
from hopfclifford.errors import (ConsistencyError, NormalityError,
                                 PreconditionError)
from hopfclifford.groups import group_from_permutations, subgroup_closure
from hopfclifford.hopf import (HopfAlgebraData, SubspaceBasis,
                               coefficient_space, comodule_map_rho,
                               dual_group_algebra, dual_hopf, graded_component,
                               group_algebra, hopf_map_residual, is_cocentral,
                               is_hopf_subalgebra, is_normal_hopf_subalgebra,
                               quotient_hopf, solve_antipode, subspace_product,
                               verify_hopf_axioms)


@pytest.fixture(scope="module")
def c4():
    return group_from_permutations(["(1 2 3 4)"], names=["g"])


def test_trivial_group_algebra():
    c1 = group_from_permutations(["e"])
    A = group_algebra(c1)
    assert A.dim == 1
    assert verify_hopf_axioms(A).ok


def test_group_algebra_s3(s3_group):
    A = group_algebra(s3_group)
    rep = verify_hopf_axioms(A)
    assert rep.ok
    assert rep.residuals["antipode_squared"] < 1e-12
    assert not A.is_commutative()
    assert A.is_cocommutative()


def test_group_algebra_c4(c4):
    A = group_algebra(c4)
    assert A.is_commutative() and A.is_cocommutative()
    assert verify_hopf_axioms(A).ok


def test_dual_group_algebra(c4, s3_group):
    B = dual_group_algebra(c4)
    assert verify_hopf_axioms(B).ok
    # four orthogonal idempotents
    for i in range(4):
        e = np.zeros(4, dtype=complex)
        e[i] = 1.0
        assert np.allclose(B.product(e, e), e)
    D = dual_group_algebra(s3_group)
    assert verify_hopf_axioms(D).ok
    assert D.is_commutative()
    assert not D.is_cocommutative()


def test_antipode_closed_forms(c4, s3_group, counterexample, cocentral8):
    for G in (c4, s3_group):
        A = group_algebra(G)
        S = solve_antipode(A)
        want = np.zeros((G.order, G.order))
        for j in range(G.order):
            want[G.inverse[j], j] = 1.0
        assert np.max(np.abs(S - want)) < 1e-10
        assert np.array_equal(A.antipode, want)
        B = dual_group_algebra(G)
        assert np.max(np.abs(solve_antipode(B) - want)) < 1e-10
        assert np.array_equal(B.antipode, want)
    # bismash: S(delta_g x) = delta_{(g<|x)^{-1}} (g|>x)^{-1}
    for ext in (counterexample, cocentral8):
        assert np.max(np.abs(solve_antipode(ext.A) - ext.A.antipode)) < 1e-10
    # a closed form that fails the antipode axioms is refused
    with pytest.raises(ConsistencyError):
        hopf._with_checked_antipode(group_algebra(c4), np.eye(4, dtype=complex), "id")


def test_products_match_einsum_definition(counterexample, cocentral8, classical):
    rng = np.random.default_rng(7)
    for ext in (counterexample, cocentral8, classical):
        A = ext.A
        U = rng.standard_normal((A.dim, 3)) + 1j * rng.standard_normal((A.dim, 3))
        V = rng.standard_normal((A.dim, 4)) + 1j * rng.standard_normal((A.dim, 4))
        want = np.einsum("ia,jb,ijk->kab", U, V, A.mult)
        assert A.products(U, V).shape == (A.dim, 3, 4)
        assert np.max(np.abs(A.products(U, V) - want)) < 1e-12
        for a in range(3):
            assert np.max(np.abs(A.left_mult_matrix(U[:, a]) @ V - want[:, a, :])) < 1e-12
            for b in range(4):
                assert np.max(np.abs(A.product(U[:, a], V[:, b]) - want[:, a, b])) < 1e-12
        for b in range(4):
            assert np.max(np.abs(A.right_mult_matrix(V[:, b]) @ U - want[:, :, b])) < 1e-12


def test_dual_is_involution(counterexample):
    A = counterexample.A
    dd = dual_hopf(dual_hopf(A))
    assert np.array_equal(dd.mult, A.mult)
    assert np.array_equal(dd.comult, A.comult)
    assert np.array_equal(dd.unit, A.unit)
    assert np.array_equal(dd.counit, A.counit)
    assert np.array_equal(dd.antipode, A.antipode)


def test_dual_of_group_algebra_is_dual_group_algebra(c4):
    lhs = dual_hopf(group_algebra(c4))
    rhs = dual_group_algebra(c4)
    assert np.array_equal(lhs.mult, rhs.mult)
    assert np.array_equal(lhs.comult, rhs.comult)


def test_bismash_axioms(counterexample, cocentral8):
    assert counterexample.A.dim == 24
    assert verify_hopf_axioms(counterexample.A).ok
    assert verify_hopf_axioms(counterexample.dual).ok
    assert cocentral8.A.dim == 8
    assert verify_hopf_axioms(cocentral8.A).ok
    inc, piF = counterexample.inc, counterexample.piF
    assert hopf_map_residual(inc.small, inc.big, inc.embedding) < 1e-10
    assert hopf_map_residual(piF.source, piF.target, piF.matrix) < 1e-10


def test_bismash_trivial_factor(c4):
    c1 = group_from_permutations(["e"])
    sigma = c4
    f = subgroup_closure(sigma, [])
    g = subgroup_closure(sigma, [1])
    from hopfclifford.groups import derive_actions
    mp = derive_actions(sigma, f, g)
    bm = hopf.bismash(mp)
    want = dual_group_algebra(c4)
    assert bm.algebra.dim == 4
    assert np.allclose(bm.algebra.mult, want.mult)
    assert np.allclose(bm.algebra.comult, want.comult)


def test_injected_fault_reported(c4):
    A = group_algebra(c4)
    mult = A.mult.copy()
    mult[1, 1, 0] += 0.1
    broken = HopfAlgebraData(mult, A.unit, A.comult, A.counit,
                             antipode=A.antipode)
    rep = verify_hopf_axioms(broken)
    assert not rep.ok
    assert 0.05 < rep.residuals["associativity"] < 0.5


def test_no_antipode_for_monoid_bialgebra():
    # multiplicative monoid {1, z} with z absorbing: a bialgebra, not Hopf
    mult = np.zeros((2, 2, 2), dtype=complex)
    mult[0, 0, 0] = 1.0
    mult[0, 1, 1] = 1.0
    mult[1, 0, 1] = 1.0
    mult[1, 1, 1] = 1.0
    comult = np.zeros((2, 2, 2), dtype=complex)
    comult[0, 0, 0] = 1.0
    comult[1, 1, 1] = 1.0
    unit = np.array([1.0, 0.0], dtype=complex)
    counit = np.array([1.0, 1.0], dtype=complex)
    B = HopfAlgebraData(mult, unit, comult, counit)
    from hopfclifford.errors import NoAntipodeError
    with pytest.raises(NoAntipodeError):
        solve_antipode(B)


def test_quotient_classical(classical):
    inc = classical.inc
    assert hopf_map_residual(inc.small, inc.big, inc.embedding) < 1e-10
    H, pi = quotient_hopf(classical.A, classical.b_sub)
    assert H.dim == 2
    assert verify_hopf_axioms(H).ok
    form = repcalc.group_algebra_form(H)
    assert form is not None and form[0].order == 2


def test_quotient_by_whole_algebra(classical):
    A = classical.A
    full = SubspaceBasis.from_vectors(A, np.eye(A.dim, dtype=complex))
    H, _ = quotient_hopf(A, full)
    assert H.dim == 1


def test_quotient_bismash_is_kf(counterexample):
    H, pi_q = quotient_hopf(counterexample.A, counterexample.b_sub)
    assert H.dim == 6
    F, piF = repcalc.as_group_algebra_surjection(pi_q)
    assert F.order == 6
    assert not F.is_abelian()
    assert hopf_map_residual(piF.source, piF.target, piF.matrix) < 1e-7


def test_normality(classical, counterexample, s3_group):
    assert is_normal_hopf_subalgebra(classical.A, classical.b_sub)
    assert is_normal_hopf_subalgebra(counterexample.A, counterexample.b_sub)
    # the span of a non-normal subgroup
    t_sub = subgroup_closure(s3_group, [s3_group.label_index("t")])
    E = np.zeros((6, 2), dtype=complex)
    for i, m in enumerate(t_sub.members):
        E[m, i] = 1.0
    V = SubspaceBasis.from_vectors(classical.A, E)
    assert not is_normal_hopf_subalgebra(classical.A, V)
    with pytest.raises(NormalityError):
        quotient_hopf(classical.A, V)


def test_rho_values(classical, counterexample):
    A, piF = classical.A, classical.piF
    rho = comodule_map_rho(A, piF)
    h = piF.target.dim
    out = (rho @ A.unit).reshape(A.dim, h)
    expect = np.outer(A.unit, piF.target.unit)
    assert np.max(np.abs(out - expect)) < 1e-10
    # group-likes map to g (x) class(g)
    for k in range(A.dim):
        e = np.zeros(A.dim, dtype=complex)
        e[k] = 1.0
        out = (rho @ e).reshape(A.dim, h)
        expect = np.outer(e, piF.matrix[:, k])
        assert np.max(np.abs(out - expect)) < 1e-10
    # bismash: only the t = 1 leg survives pi, so rho(delta_g x) = delta_g x (x) x
    A24 = counterexample.A
    rho24 = comodule_map_rho(A24, counterexample.piF).reshape(
        A24.dim, counterexample.piF.target.dim, A24.dim)
    mp = counterexample.mp
    nF = mp.f_group.order
    for g in range(mp.g_group.order):
        for x in range(nF):
            k = g * nF + x
            e = np.zeros(A24.dim, dtype=complex)
            e[k] = 1.0
            got = np.einsum("pfk,k->pf", rho24, e)
            expect = np.zeros_like(got)
            expect[k, x] = 1.0
            assert np.max(np.abs(got - expect)) < 1e-10


def test_graded_components(counterexample):
    A, piF, F = counterexample.A, counterexample.piF, counterexample.F
    comps = counterexample.components
    assert [c.dim for c in comps] == [4] * 6
    assert comps[0].equals(counterexample.b_sub)
    # product rule A_x A_y inside A_{xy}
    for x in range(F.order):
        for y in range(F.order):
            prod = subspace_product(comps[x], comps[y])
            assert comps[F.mul(x, y)].contains(prod)
    stacked = np.hstack([c.matrix for c in comps])
    assert np.linalg.matrix_rank(stacked) == A.dim


def test_graded_component_needs_group_algebra(classical):
    H, pi_q = quotient_hopf(classical.A, classical.b_sub)
    with pytest.raises(PreconditionError):
        graded_component(classical.A, pi_q, 0)


def test_subspace_products(counterexample):
    A = counterexample.A
    B = counterexample.b_sub
    assert subspace_product(B, B).equals(B)
    one = SubspaceBasis.from_vectors(A, A.unit[:, None])
    assert subspace_product(one, B).equals(B)
    # B C = C B for a simple subcoalgebra
    d4 = [ch for ch in counterexample.dec_dual.irr if ch.degree == 4][0]
    C = coefficient_space(A, d4.values)
    assert subspace_product(B, C).equals(subspace_product(C, B))


def test_coefficient_spaces(classical, counterexample):
    A = classical.A
    one = coefficient_space(A, A.unit)
    assert one.dim == 1
    # a group-like basis vector of kS3 spans its own line
    e = np.zeros(A.dim, dtype=complex)
    e[1] = 1.0
    assert coefficient_space(A, e).dim == 1
    # the 2-dim comodule of kS3 = 2-dim module of the dual
    d2 = [ch for ch in classical.dec_dual.irr if ch.degree == 2]
    assert d2 == []  # dual of kS3 is commutative: no 2-dim dual characters
    # instead check on the dual side: kS3 as a coalgebra has a 4-dim subcoalgebra
    dualA = classical.dual
    dec2 = repcalc.wedderburn(hopf.dual_hopf(dualA))
    # dual of k^S3 is kS3 again; its 2-dim character has a 4-dim coefficient space
    theta = [ch for ch in dec2.irr if ch.degree == 2][0]
    C = coefficient_space(dualA, theta.values)
    assert C.dim == 4
    # counterexample: the 4-dim dual character has a 16-dim coefficient space
    d4 = [ch for ch in counterexample.dec_dual.irr if ch.degree == 4][0]
    assert coefficient_space(counterexample.A, d4.values).dim == 16


def test_hopf_subalgebra_checks(counterexample):
    A, F = counterexample.A, counterexample.F
    comps = counterexample.components
    stab = [0, F.label_index("t")]
    S = SubspaceBasis.from_vectors(
        A, np.hstack([comps[i].matrix for i in stab]))
    assert S.dim == 8
    assert not is_hopf_subalgebra(A, S)
    assert is_hopf_subalgebra(A, counterexample.b_sub)
    full = SubspaceBasis.from_vectors(A, np.eye(A.dim, dtype=complex))
    assert is_hopf_subalgebra(A, full)


def test_cocentrality(classical, counterexample, cocentral8):
    assert is_cocentral(classical.A, classical.piF)
    assert not is_cocentral(counterexample.A, counterexample.piF)
    assert is_cocentral(cocentral8.A, cocentral8.piF)


def test_coefficient_space_rejects_reducible(classical):
    A = classical.A
    # sum of two group-likes: degree 2 but coefficient space of dimension 2
    d = np.zeros(A.dim, dtype=complex)
    d[0] = 1.0
    d[1] = 1.0
    with pytest.raises(PreconditionError):
        coefficient_space(A, d)


def test_bismash_refuses_corrupted_pair(s4_pair):
    from hopfclifford.groups import MatchedPair
    bad = MatchedPair(f_group=s4_pair.f_group, g_group=s4_pair.g_group,
                      ract=s4_pair.ract.copy(), lact=s4_pair.lact.copy(),
                      sigma=s4_pair.sigma, f_sub=s4_pair.f_sub,
                      g_sub=s4_pair.g_sub)
    bad.lact[1, 1] = (bad.lact[1, 1] + 1) % bad.f_group.order
    with pytest.raises(PreconditionError):
        hopf.bismash(bad)


def test_hopf_json_round_trip(cocentral8):
    A = cocentral8.A
    back = HopfAlgebraData.from_json_dict(A.to_json_dict())
    assert np.max(np.abs(back.mult - A.mult)) < 1e-9
    assert np.max(np.abs(back.comult - A.comult)) < 1e-9
    assert np.max(np.abs(back.antipode - A.antipode)) < 1e-9
    assert back.labels == A.labels
