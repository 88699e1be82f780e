"""The kernels that read `mult` and `comult` through their nonzeros, each
against its dense definition: on the constructor tensors, with a perturbed
entry, with a NaN, and after a change of basis that makes them dense."""

import tracemalloc

import numpy as np
import pytest

from hopfclifford import hopf, linalg, repcalc
from hopfclifford.clifford import (compute_stabilizer, conjugate_module,
                                   conjugation_matrix, subcoalgebra_as_dual_module)
from hopfclifford.errors import NumericDegeneracyError
from hopfclifford.groups import subgroup_closure
from hopfclifford.hopf import (HopfAlgebraData, SubspaceBasis, group_algebra,
                               is_normal_hopf_subalgebra, subalgebra_data)
from hopfclifford.repcalc import DEFAULT_SEED, construct_irreducible_module
from hopfclifford.scenarios import Scenario, build_scenario

A5_A4_C5 = {"name": "a5_a4_c5", "construction": "bismash",
            "group": {"generators": ["(1 2 3 4 5)", "(1 2 3)", "(1 2)(3 4)"],
                      "names": ["c", "a", "v"]},
            "f_generators": ["a", "v"], "g_generators": ["c"]}


@pytest.fixture(scope="module")
def a5():
    return build_scenario(Scenario.from_dict(A5_A4_C5), DEFAULT_SEED)


@pytest.fixture(scope="module")
def algebras(counterexample, cocentral8, classical, a5):
    """A, B and A* of the builtins, and A and A* of a5_a4_c5."""
    out = {}
    for name, ext in (("counterexample", counterexample), ("cocentral8", cocentral8),
                      ("classical", classical)):
        out.update({f"{name} A": ext.A, f"{name} B": ext.inc.small, f"{name} A*": ext.dual})
    out.update({"a5 A": a5.A, "a5 A*": a5.dual})
    return out


def _copy(A, tensor=None, index=None, value=None):
    """A copy of A, with one entry of `mult` or `comult` replaced."""
    parts = {"mult": A.mult.copy(), "comult": A.comult.copy()}
    if tensor is not None:
        parts[tensor][index] = value
    return HopfAlgebraData(parts["mult"], A.unit, parts["comult"], A.counit,
                           antipode=A.antipode)


def _dense(A):
    """A copy of A whose kernels take the dense path."""
    B = _copy(A)
    B.mult_coo.sparse = False
    B.comult_coo.sparse = False
    return B


def _random(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _kernels_match_definitions(A, rng):
    """products, the multiplication matrices, the multiplication map and Delta
    against einsums over the dense tensors; NaN where and only where they have it."""
    d = A.dim
    U, V, x, Y = _random(rng, d, 3), _random(rng, d, 2), _random(rng, 4, d), _random(rng, d, d, 2)
    pairs = [
        (A.products(U, V), np.einsum("ia,jb,ijk->kab", U, V, A.mult)),
        (A.left_mult_matrix(x[0]), np.einsum("i,ijk->kj", x[0], A.mult)),
        (A.right_mult_matrix(x[1]), np.einsum("j,ijk->ki", x[1], A.mult)),
        (A.multiply(Y), np.einsum("abm,abk->km", Y, A.mult)),
        (A.apply_comult(x), np.einsum("nk,kij->nij", x, A.comult)),
        (A.apply_comult(x[2]), np.einsum("k,kij->ij", x[2], A.comult)),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert np.max(np.abs(got[finite] - want[finite]), initial=0.0) < 1e-12 * d


def test_constructor_tensors_take_the_sparse_path(algebras):
    for name, A in algebras.items():
        assert A.mult_coo.sparse and A.comult_coo.sparse, name
        # the output indices of the nonzeros are distinct: one assignment scatters them
        for coo, axes in ((A.mult_coo, (0,)), (A.mult_coo, (1,)), (A.comult_coo, (0,))):
            assert coo._plan(axes)[3] is None, name


def test_kernels_match_dense_definitions(algebras):
    rng = np.random.default_rng(3)
    for A in list(algebras.values()) + [_shear(algebras["a5 A"])]:
        _kernels_match_definitions(A, rng)


@pytest.mark.parametrize("tensor", ["mult", "comult"])
def test_kernels_match_dense_definitions_under_faults(algebras, tensor):
    rng = np.random.default_rng(7)
    for name in ("counterexample A", "counterexample A*", "a5 A"):
        A = algebras[name]
        idx, _ = getattr(A, f"{tensor}_coo").entries
        n = int(rng.integers(idx[0].size))
        hit = tuple(int(i[n]) for i in idx)
        # a new entry beside a nonzero shares its output indices (the summing
        # path) and a NaN replaces a nonzero
        beside = ((hit[0] + 1) % A.dim,) + hit[1:]
        for index, value in ((beside, 0.3 - 0.1j), (hit, np.nan)):
            broken = _copy(A, tensor, index, value)
            coo = getattr(broken, f"{tensor}_coo")
            assert coo.sparse
            assert (coo._plan((0,))[3] is None) == (index == hit)
            _kernels_match_definitions(broken, rng)


def _change_basis(A, P):
    """A on the basis f_i = sum_a P[a, i] e_a."""
    Q = np.linalg.inv(P)
    return HopfAlgebraData(np.einsum("ai,bj,abc,kc->ijk", P, P, A.mult, Q, optimize=True),
                           Q @ A.unit,
                           np.einsum("ck,cab,ia,jb->kij", P, A.comult, Q, Q, optimize=True),
                           A.counit @ P, antipode=Q @ A.antipode @ P)


def _shear(A):
    """A on the basis e_1 + e_2, e_0, e_2, ...: its tensors stay sparse but
    some output indices repeat."""
    P = np.eye(A.dim)
    P[2, 1] = 1.0
    T = _change_basis(A, P)
    assert T.mult_coo.sparse and T.comult_coo.sparse
    assert T.mult_coo._plan((0,))[3] is not None
    return T


def test_change_of_basis_takes_the_dense_path(s4_sigma):
    rng = np.random.default_rng(11)
    A = group_algebra(s4_sigma)
    d = A.dim
    P, _ = np.linalg.qr(_random(rng, d, d))
    Q = P.conj().T
    T = _change_basis(A, P)
    assert not T.mult_coo.sparse and not T.comult_coo.sparse
    _kernels_match_definitions(T, rng)
    # the dense path finds kA4 normal in the new basis, and kS3 not
    for gens, normal in ((("s", "gg"), True), (("s", "t"), False)):
        B = _subgroup_algebra(T, s4_sigma, gens, basis=Q)
        assert is_normal_hopf_subalgebra(T, B) is normal


def _subgroup_algebra(A, G, labels, basis=None):
    """Span of the subgroup generated by `labels` ("gg" is g squared) in kG."""
    gens = [G.mul(G.label_index(lbl[0]), G.label_index(lbl[0])) if len(lbl) == 2
            else G.label_index(lbl) for lbl in labels]
    H = subgroup_closure(G, gens)
    vectors = np.eye(A.dim)[:, list(H.members)]
    return SubspaceBasis.from_vectors(A, vectors if basis is None else basis @ vectors)


def test_normality_matches_dense(s4_sigma, counterexample, a5):
    kS4 = group_algebra(s4_sigma)
    cases = [
        (kS4, _subgroup_algebra(kS4, s4_sigma, ("s", "gg")), True),   # A4 in S4
        (kS4, _subgroup_algebra(kS4, s4_sigma, ("s", "t")), False),   # S3 in S4
        (kS4, _subgroup_algebra(kS4, s4_sigma, ("s",)), False),       # C3 in S4
        (counterexample.A, counterexample.b_sub, True),
        (a5.A, a5.b_sub, True),
    ]
    for A, B, normal in cases:
        assert A.mult_coo.sparse and A.comult_coo.sparse
        assert is_normal_hopf_subalgebra(A, B) is normal
        assert is_normal_hopf_subalgebra(_dense(A), B) is normal


def test_adjoint_action_matches_dense(counterexample, a5):
    # a_1 b S(a_2) for random b; after a shear of the basis, pairs of
    # nonzeros meet at one coordinate and are summed
    rng = np.random.default_rng(13)
    for A in (counterexample.A, counterexample.dual, a5.A, _shear(counterexample.A)):
        Bm = _random(rng, A.dim, 2)
        got, want = hopf._adjoint_images(A, Bm), hopf._adjoint_images(_dense(A), Bm)
        assert np.max(np.abs(got - want)) < 1e-12 * A.dim


def test_normality_memory(a5):
    # the dense sandwich e_p b S(e_q) held 49.7 MB at d=60
    A, B = a5.A, a5.b_sub
    is_normal_hopf_subalgebra(A, B)        # the COO plans are built once per algebra
    tracemalloc.start()
    try:
        assert is_normal_hopf_subalgebra(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_conjugation_matrix_matches_conjugate_module(counterexample, cocentral8):
    # the character of the twisted module C (x) M is eps(d) alpha C_d
    for ext in (counterexample, cocentral8):
        A, inc, dec_b = ext.A, ext.inc, ext.dec_b
        modules = [construct_irreducible_module(inc.small, dec_b, k)
                   for k in range(len(dec_b.irr))]
        for d, C in zip(ext.dec_dual.irr, ext.coefficient_spaces):
            Cd = conjugation_matrix(A, inc, d.values)
            assert np.max(np.abs(Cd - conjugation_matrix(_dense(A), inc, d.values))) < 1e-12
            W = subcoalgebra_as_dual_module(A, C)
            for alpha, M in zip(dec_b.irr, modules):
                got = conjugate_module(A, inc, W, M).character().values
                assert np.max(np.abs(got - d.degree * alpha.values @ Cd)) < 1e-10


def test_conjugation_matrix_matches_definition(counterexample, a5):
    # C_d for an element d that is no character, so that Delta(d) is not symmetric
    rng = np.random.default_rng(17)
    for ext in (counterexample, a5):
        A, E = ext.A, ext.inc.embedding
        d_vec = _random(rng, A.dim)
        X = np.einsum("k,kpq->pq", d_vec, A.comult)
        U = np.einsum("rp,jm,rjk->pmk", A.antipode, E, A.mult, optimize=True)
        W = np.einsum("pq,pma,aqk->km", X, U, A.mult, optimize=True)     # S(d_1) b_m d_2
        want = np.linalg.lstsq(E, W, rcond=None)[0]
        assert np.max(np.abs(conjugation_matrix(A, ext.inc, d_vec) - want)) < 1e-10


def _commutant_of_basis(A):
    """The center as the null space of the d^2 x d commutation constraints."""
    d = A.dim
    M = A.mult
    return linalg.null_space((M.transpose(0, 2, 1) - M.transpose(1, 2, 0)).reshape(d * d, d))


def test_center_matches_constraint_null_space(algebras, counterexample, a5):
    subalgebras = []
    for ext in (counterexample, a5):
        for alpha in range(len(ext.dec_b.irr)):
            sr = compute_stabilizer(ext, alpha)
            subalgebras.append(sr.z_alg)
    for A in list(algebras.values()) + subalgebras:
        center = repcalc._center(A, DEFAULT_SEED)
        assert linalg.subspace_equal(center, _commutant_of_basis(A), 1e-9)


def test_center_retries_then_raises(monkeypatch, classical):
    # a zero element commutes with everything: every draw fails the check
    monkeypatch.setattr(linalg, "random_complex", lambda rng, n: np.zeros(n, complex))
    with pytest.raises(NumericDegeneracyError):
        repcalc._center(classical.A, DEFAULT_SEED)
    # a commutative algebra is its own center whatever the draws
    assert repcalc._center(classical.inc.small, DEFAULT_SEED).shape[1] == classical.inc.small.dim


def test_psi_order_does_not_depend_on_the_basis_of_z(counterexample):
    rng = np.random.default_rng(2)
    ext = counterexample
    for alpha in range(len(ext.dec_b.irr)):
        Z = compute_stabilizer(ext, alpha).Z
        orders = []
        for frame in (Z.matrix, Z.matrix @ np.linalg.qr(_random(rng, Z.dim, Z.dim))[0]):
            dec = repcalc.wedderburn(subalgebra_data(ext.A, SubspaceBasis(ext.A, frame)),
                                     frame=frame)
            orders.append(np.array([frame.conj() @ ch.values for ch in dec.irr]))
        assert np.max(np.abs(orders[0] - orders[1])) < 1e-8
