"""The kernels that read `mult` and `comult` through their nonzeros, each
against its dense definition: on the constructor tensors, with a perturbed
entry, with a NaN, and after a change of basis that makes them dense.  The
Hopf-subalgebra test, through a coordinate subspace's support or on V
itself, against projectors.  The adjoint action that the normality test,
the conjugation matrices and the antipode residuals read, through its joins
and its dense fallback, against the dense formulas, and the sizes of the
arrays they build.  The kernels that read 0/1 operands through joins (the
Hopf-map residual, cocentrality, products, the comodule map and graded
components, the centre's commutators), as the join rule stands and with
the joins taken at every dimension, against their dense definitions, under
NaN and Inf faults, and by the sizes of the arrays they build."""

import contextlib
import functools
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

from hopfclifford import cli, clifford, hopf, linalg, repcalc, scenarios
from hopfclifford.clifford import (Extension, compute_stabilizer,
                                   conjugation_matrices, graded_stabilizer_analysis)
from hopfclifford.errors import ConsistencyError, NumericDegeneracyError, PreconditionError
from hopfclifford.groups import subgroup_closure
from hopfclifford.hopf import (HopfAlgebraData, HopfInclusion, SubspaceBasis,
                               antipode_residuals, group_algebra, is_hopf_subalgebra,
                               is_normal_hopf_subalgebra, subalgebra_data)
from hopfclifford.repcalc import DEFAULT_SEED, construct_irreducible_module

import clifford_reference
from clifford_reference import conjugate_module, subcoalgebra_as_dual_module
from conftest import A5_A4_C5, change_basis, dense_rho

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
    """products, the multiplication matrices, the multiplication map, Delta,
    the regular trace, the trace form's contraction and the comodule map
    against einsums over the dense tensors; NaN where and only where they
    have it, except that the comodule map refuses a NaN or Inf in Delta.
    Then the residuals that read the tensors through these kernels
    (`_residuals_match_definitions`)."""
    d = A.dim
    U, V, x, Y = _random(rng, d, 3), _random(rng, d, 2), _random(rng, 4, d), _random(rng, d, d, 2)
    P = _random(rng, 3, d)
    U01, V01 = (np.eye(d)[:, rng.choice(d, n, replace=False)] for n in (3, 2))   # unit vectors
    pairs = [
        (A.products(U, V), np.einsum("ia,jb,ijk->kab", U, V, A.mult)),
        (A.products(U01, V01), np.einsum("ia,jb,ijk->kab", U01, V01, A.mult)),
        (A.left_mult_matrix(x[0]), np.einsum("i,ijk->kj", x[0], A.mult)),
        (A.right_mult_matrix(x[1]), np.einsum("j,ijk->ki", x[1], A.mult)),
        (A.multiply(Y), np.einsum("abm,abk->km", Y, A.mult)),
        (A.apply_comult(x), np.einsum("nk,kij->nij", x, A.comult)),
        (A.apply_comult(x[2]), np.einsum("k,kij->ij", x[2], A.comult)),
        (A.regular_trace_vector(), np.einsum("ijj->i", A.mult)),
        (A.mult_coo.along((2,), x[3]), np.einsum("ijp,p->ij", A.mult, x[3])),
    ]
    for M in (np.eye(3, d), P):
        if A.comult_coo.finite:
            pairs.append((dense_rho(A, M), np.einsum("kpq,fq->pfk", A.comult, M)))
        else:
            with pytest.raises(PreconditionError, match="finite"):
                dense_rho(A, M)
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert np.max(np.abs(got[finite] - want[finite]), initial=0.0) < 1e-12 * d
    _residuals_match_definitions(A, rng)


def _axiom_terms_definition(A):
    """The unit, counit and bialgebra unit/counit residuals by dense einsum."""
    M, D, eye = A.mult, A.comult, np.eye(A.dim)
    max_abs = linalg.max_abs
    return {"unit": max_abs(np.einsum("i,ijk->jk", A.unit, M) - eye,
                            np.einsum("j,ijk->ik", A.unit, M) - eye),
            "counit": max_abs(np.einsum("kij,i->kj", D, A.counit) - eye,
                              np.einsum("kij,j->ki", D, A.counit) - eye),
            "bialgebra_counit": max_abs(np.einsum("ijp,p->ij", M, A.counit)
                                        - np.outer(A.counit, A.counit)),
            "bialgebra_unit": max_abs(np.einsum("k,kij->ij", A.unit, D) - np.outer(A.unit, A.unit),
                                      complex(A.counit @ A.unit) - 1.0)}


def _hopf_map_definition(src, dst, phi):
    """`hopf.hopf_map_residual` of a full-rank phi by dense einsum."""
    return linalg.max_abs(
        np.einsum("ijk,ak->ija", src.mult, phi)
        - np.einsum("ai,bj,abc->ijc", phi, phi, dst.mult, optimize=True),
        phi @ src.unit - dst.unit,
        np.einsum("kij,ai,bj->kab", src.comult, phi, phi, optimize=True)
        - np.einsum("ak,abc->kbc", phi, dst.comult),
        dst.counit @ phi - src.counit,
        phi @ src.antipode - dst.antipode @ phi)


def _commutator_definition(A, X):
    """max |e_i x_c - x_c e_i| by dense einsum."""
    return linalg.max_abs(np.einsum("ijo,jc->ico", A.mult, X) - np.einsum("jc,jio->ico", X, A.mult))


def _module_residual_definition(A, mats):
    lhs = np.einsum("...iab,...jbc->...ijac", mats, mats)
    rhs = np.einsum("ijk,...kac->...ijac", A.mult, mats)
    unit = np.einsum("i,...iab->...ab", A.unit, mats) - np.eye(mats.shape[-1])
    return linalg.max_abs(lhs - rhs, unit)


def _cocentral_definition(A, P):
    t1 = np.einsum("kpq,fp->kfq", A.comult, P)
    t2 = np.einsum("kpq,fq->kfp", A.comult, P)
    return linalg.max_abs(t1 - t2) < linalg.TOL_ALG


def _residuals_match_definitions(A, rng):
    """verify_hopf_axioms' unit and counit terms, hopf_map_residual, module_residual,
    the commutator residual and is_cocentral against their dense definitions."""
    d = A.dim
    got = hopf.verify_hopf_axioms(A).residuals
    _residuals_match({k: got[k] for k in ("unit", "counit", "bialgebra_counit", "bialgebra_unit")},
                     _axiom_terms_definition(A))
    # the identity, twice the identity (0/1 maps up to scale) and a dense map
    for phi in (np.eye(d), 2 * np.eye(d), _random(rng, d, d)):
        _residuals_match({"map": hopf.hopf_map_residual(A, A, phi)},
                         {"map": _hopf_map_definition(A, A, phi)})
    X = _random(rng, d, 3)
    _residuals_match({"commutator": A.commutator_residual(X)},
                     {"commutator": _commutator_definition(A, X)})
    mats = _random(rng, 2, d, 2, 2)
    _residuals_match({"module": repcalc.module_residual(A, mats)},
                     {"module": _module_residual_definition(A, mats)})
    # a projection onto coordinates, under which a cocommutative Delta is cocentral
    for P in (np.eye(2, d), _random(rng, 2, d)):
        assert hopf.is_cocentral(A, hopf.HopfSurjection(A, None, P)) is _cocentral_definition(A, P)


def test_constructor_tensors_take_the_sparse_path(algebras):
    for name, A in algebras.items():
        assert A.mult_coo.sparse and A.comult_coo.sparse, name
        # the output indices of the nonzeros are distinct: one assignment scatters them
        for coo, axes in ((A.mult_coo, (0,)), (A.mult_coo, (1,)), (A.comult_coo, (0,))):
            assert coo._plan(axes)[3] is None, name


@pytest.mark.parametrize("name", ["s4_counterexample", "cocentral_c4_c2", "s3_a3_classical",
                                  "a5_a4_c5"])
def test_requests_build_no_dense_constructor_tensor(monkeypatch, name):
    # A, B, A* and a bismash's kF keep their tensors in COO form through an
    # analyze, a list-irr and a verify-axioms request
    built, build = [], scenarios.build_scenario

    def capture(*args, **kw):
        built.append(build(*args, **kw))
        return built[-1]

    monkeypatch.setattr(scenarios, "build_scenario", capture)
    sc = (scenarios.Scenario.from_dict(A5_A4_C5) if name == "a5_a4_c5"
          else scenarios.builtin_scenario(name))
    scenarios.run_scenario(sc)
    scenarios.list_irr(sc)
    scenarios.verify_axioms(sc)
    assert len(built) == 3
    for ext in built:
        kF = [ext.piF.target] if ext.mp is not None else []
        for alg in [ext.A, ext.inc.small, ext.dual] + kF:
            for coo in (alg.mult_coo, alg.comult_coo):
                assert "tensor" not in vars(coo)


# the join rule as it stands, and with the joins of 0/1 operands taken at
# every dimension, so that the d <= 24 algebras read them too
GATES = (None, 1)


@contextlib.contextmanager
def _join_min_dim(value):
    with pytest.MonkeyPatch.context() as m:
        if value is not None:
            m.setattr(linalg, "JOIN_MIN_DIM", value)
        yield


@pytest.fixture
def joins_everywhere(monkeypatch):
    monkeypatch.setattr(linalg, "JOIN_MIN_DIM", 1)


def test_kernels_match_dense_definitions(algebras):
    rng = np.random.default_rng(3)
    for gate in GATES:
        with _join_min_dim(gate):
            for A in list(algebras.values()) + [_shear(algebras["a5 A"])]:
                _kernels_match_definitions(A, rng)


@pytest.mark.parametrize("tensor", ["mult", "comult"])
def test_kernels_match_dense_definitions_under_faults(algebras, tensor):
    rng = np.random.default_rng(7)
    for gate, name in itertools.product(GATES, ("counterexample A", "counterexample A*", "a5 A")):
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
            with _join_min_dim(gate):
                _kernels_match_definitions(broken, rng)


def _shear(A):
    """A on the basis e_1 + e_2, e_0, e_2, ...: its tensors stay sparse but
    some output indices repeat."""
    P = np.eye(A.dim)
    P[2, 1] = 1.0
    T = change_basis(A, P)
    assert T.mult_coo.sparse and T.comult_coo.sparse
    assert T.mult_coo._plan((0,))[3] is not None
    return T


def test_change_of_basis_takes_the_dense_path(s4_sigma):
    rng = np.random.default_rng(11)
    A = group_algebra(s4_sigma)
    d = A.dim
    P, _ = np.linalg.qr(_random(rng, d, d))
    Q = P.conj().T
    T = change_basis(A, P)
    assert not T.mult_coo.sparse and not T.comult_coo.sparse
    _kernels_match_definitions(T, rng)
    # with the joins taken at every dimension, 0/1 operands of T's kernels
    # still take the dense path, as T's tensors are dense; cocentrality has
    # only its joins, whose verdict is the dense definition's
    E, P2 = np.eye(d)[:, :3], np.eye(2, d)
    with _join_min_dim(1):
        _kernels_match_definitions(T, rng)
        for call in (lambda: hopf.hopf_map_residual(T, T, np.eye(d)),
                     lambda: is_hopf_subalgebra(T, SubspaceBasis(T, E)),
                     lambda: T.products(E, E), lambda: T.commutator_residual(E)):
            assert _path(call)[0] == "dense"
        path, cocentral = _path(lambda: hopf.is_cocentral(T, hopf.HopfSurjection(T, None, P2)))
        assert path == "joins"
        assert cocentral is _cocentral_definition(T, P2)
    # the dense path finds kA4 normal in the new basis, and kS3 not
    for gens, normal in ((("s", "gg"), True), (("s", "t"), False)):
        B = _subgroup_algebra(T, s4_sigma, gens, basis=Q)
        assert is_normal_hopf_subalgebra(T, B) is normal


def test_commutator_joins_only_what_pairs_fewer_entries(joins_everywhere, s4_sigma, a5):
    # the identity basis of a commutative centre (k^S4) takes the joins; a
    # dense centre of kS4 would pair as many entries as its dense sides hold
    # and takes Coo.along, while a dense centre of a bismash's dual, whose
    # mult is sparser than kG's, takes the joins; each is the einsum's, 0
    kG, kG_dual = group_algebra(s4_sigma), hopf.dual_group_algebra(s4_sigma)
    for A, X, path in ((kG_dual, np.eye(kG.dim), "joins"),
                       (kG, repcalc._center(kG, DEFAULT_SEED), "dense"),
                       (a5.dual, repcalc._center(a5.dual, DEFAULT_SEED), "joins")):
        got_path, got = _path(lambda: A.commutator_residual(X))
        assert got_path == path
        _residuals_match({"commutator": got}, {"commutator": _commutator_definition(A, X)})
        assert got < 1e-12
    # the identity and a dense X, neither central, read the same on either form
    rng = np.random.default_rng(43)
    for A, X, path in ((kG, np.eye(kG.dim), "joins"), (kG, _random(rng, kG.dim, 3), "dense"),
                       (a5.dual, _random(rng, a5.A.dim, 3), "joins")):
        got_path, got = _path(lambda: A.commutator_residual(X))
        assert got_path == path and got > 0.1
        _residuals_match({"commutator": got}, {"commutator": _commutator_definition(A, X)})


def _subgroup_algebra(A, G, labels, basis=None):
    """Span of the subgroup generated by `labels` ("gg" is g squared) in kG."""
    gens = [G.mul(G.label_index(lbl[0]), G.label_index(lbl[0])) if len(lbl) == 2
            else G.label_index(lbl) for lbl in labels]
    H = subgroup_closure(G, gens)
    vectors = np.eye(A.dim)[:, list(H.members)]
    return SubspaceBasis.from_vectors(A, vectors if basis is None else basis @ vectors)


def _joins_only(call):
    """Whether `call()` reads the adjoint action through its joins alone, no
    `_coo_einsum` join having refused its pairs for the dense fallback; and
    what it returns."""
    refused = []
    einsum = hopf._coo_einsum

    def recording(spec, *args, **kw):
        try:
            return einsum(spec, *args, **kw)
        except hopf._TooManyPairs:
            refused.append(spec)
            raise

    with pytest.MonkeyPatch.context() as m:
        m.setattr(hopf, "_coo_einsum", recording)
        out = call()
    return not refused, out


def test_normality_matches_dense(s4_sigma, counterexample, a5):
    # the joins on the constructor's basis, the dense fallback on a unitary one
    rng = np.random.default_rng(47)
    kS4 = group_algebra(s4_sigma)
    cases = [
        (kS4, _subgroup_algebra(kS4, s4_sigma, ("s", "gg")), True),   # A4 in S4
        (kS4, _subgroup_algebra(kS4, s4_sigma, ("s", "t")), False),   # S3 in S4
        (kS4, _subgroup_algebra(kS4, s4_sigma, ("s",)), False),       # C3 in S4
        (counterexample.A, counterexample.b_sub, True),
        (a5.A, a5.b_sub, True),
    ]
    for A, B, normal in cases:
        P = np.linalg.qr(_random(rng, A.dim, A.dim))[0]
        T = change_basis(A, P)
        rotated = SubspaceBasis(T, P.conj().T @ B.matrix)
        assert _joins_only(lambda: is_normal_hopf_subalgebra(A, B)) == (True, normal)
        assert _joins_only(lambda: is_normal_hopf_subalgebra(T, rotated)) == (False, normal)


def test_adjoint_action_matches_dense(counterexample, a5):
    # a_1 b S(a_2) for random b against the einsum; after a shear of the
    # basis, pairs of nonzeros meet at one coordinate and are summed
    rng = np.random.default_rng(13)
    for A in (counterexample.A, counterexample.dual, a5.A, _shear(counterexample.A)):
        d, Bm = A.dim, _random(rng, A.dim, 2)
        bS = np.einsum("jm,rq,jrc->cmq", Bm, A.antipode, A.mult, optimize=True)  # b_m S(e_q)
        # e_k1 (b_m S(e_k2)), then the product: one tensor at a time, each
        # step a matrix product of 2 d^4 terms, not einsum's d^5 loop
        want = np.tensordot(np.tensordot(A.comult, bS, axes=([2], [2])),   # [k, p, c, m]
                            A.mult, axes=([1, 2], [0, 1]))                 # [k, m, o]
        idx, val = hopf._adjoint_entries(A, A.antipode, Bm, left=True)
        got = np.zeros(want.shape, complex)
        np.add.at(got, idx, val)
        assert np.max(np.abs(got - want)) < 1e-12 * d


def test_normality_memory(a5):
    # a dense sandwich e_p b S(e_q) would hold 49.7 MB at d=60
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
            Cd = conjugation_matrices(A, inc, d.values[None])[0]
            dense = conjugation_matrices(_dense(A), inc, d.values[None])[0]
            assert np.max(np.abs(Cd - dense)) < 1e-12
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
        assert np.max(np.abs(conjugation_matrices(A, ext.inc, d_vec[None])[0] - want)) < 1e-10


def _scenarios(counterexample, cocentral8, classical, s4_a4, dual_s4_v4, a5):
    return {"counterexample": counterexample, "cocentral8": cocentral8,
            "classical": classical, "s4_a4": s4_a4, "dual_s4_v4": dual_s4_v4, "a5": a5}


def test_conjugation_matrices_match_the_dense_formula(monkeypatch, counterexample, cocentral8,
                                                      classical, s4_a4, dual_s4_v4, a5):
    # every dual character, and two random elements, whose Delta is not
    # symmetric; on dual_s4_v4 (A = k^S4) Delta(d) is dense.  One block of
    # rows, or one row a block with STACK_BYTES = 1, gives the C_d of the
    # per-character formula, and every alpha the same stabilizing set
    rng = np.random.default_rng(29)
    for name, ext in _scenarios(counterexample, cocentral8, classical, s4_a4, dual_s4_v4,
                                a5).items():
        A, inc, irr = ext.A, ext.inc, ext.dec_dual.irr
        D = np.vstack([[d.values for d in irr], _random(rng, 2, A.dim)])
        want = clifford_reference.conjugation_matrices(A, inc, D)
        got = conjugation_matrices(A, inc, D)
        with monkeypatch.context() as m:
            m.setattr(linalg, "STACK_BYTES", 1)
            cut = conjugation_matrices(A, inc, D)
        degrees = np.array([d.degree for d in irr])[:, None]
        for C in (got, cut):
            assert np.max(np.abs(C - want)) < 1e-12 * max(1.0, np.max(np.abs(want))), name
            for alpha in ext.dec_b.irr:
                stabilizing = [np.abs(alpha.values @ M[:len(irr)] - degrees * alpha.values)
                               .max(axis=1) < linalg.TOL_MATCH for M in (C, want)]
                assert np.array_equal(*stabilizing), name


def test_conjugation_matrices_do_not_depend_on_the_basis(counterexample):
    # in the sheared basis the joins sum repeated indices; in a unitary one
    # they would pair more than d^2 entries, and the dense fallback is taken
    ext = counterexample
    A, E = ext.A, ext.inc.embedding
    D = np.array([d.values for d in ext.dec_dual.irr])
    want = conjugation_matrices(A, ext.inc, D)
    shear = np.eye(A.dim)
    shear[2, 1] = 1.0
    unitary = np.linalg.qr(_random(np.random.default_rng(31), A.dim, A.dim))[0]
    for P, joins in ((shear, True), (unitary, False)):
        T = change_basis(A, P)
        Q = np.linalg.inv(P)
        inc = HopfInclusion(small=ext.inc.small, big=T, embedding=Q @ E)
        # an element x has coordinates Q x
        joined, got = _joins_only(lambda: conjugation_matrices(T, inc, D @ Q.T))
        assert joined is joins
        assert np.max(np.abs(got - want)) < 1e-10


def test_conjugation_out_of_a_non_normal_subalgebra_fails(classical, s3_group):
    # k<t> is not normal in kS3: s^-1 t s leaves it, while t and 1 keep it
    A = classical.A
    inc = HopfInclusion(small=None, big=A,
                        embedding=_subgroup_algebra(A, s3_group, ("t",)).matrix)
    basis = np.eye(A.dim)
    for label, stays in (("t", True), ("s", False)):
        d_vec = basis[s3_group.label_index(label)]
        for conjugation in (conjugation_matrices, clifford_reference.conjugation_matrices):
            if stays:
                conjugation(A, inc, d_vec[None, :])
            else:
                with pytest.raises(ConsistencyError, match="conjugation left the subalgebra"):
                    conjugation(A, inc, d_vec[None, :])


def test_conjugation_by_a_nan_fails_where_no_join_reads_it(dual_s4_v4):
    # in k^S4, S(d_1) b d_2 = eps(d) b: only the unit's entries of d are read
    ext = dual_s4_v4
    (k, _, _), _ = hopf._adjoint_entries(ext.A, ext.A.antipode, ext.inc.embedding)
    assert set(k.tolist()) == {0}
    d_vec = ext.dec_dual.irr[-1].values.copy()
    d_vec[5] = np.nan
    with pytest.raises(ConsistencyError, match="NaN"):
        conjugation_matrices(ext.A, ext.inc, d_vec[None])


def _recording_array_sizes(monkeypatch, sizes):
    """Wrap every function of `hopf` and `linalg`, and the methods of `Coo` and
    the algebra classes, so that the size of each array they return is recorded."""
    def record(out):
        if isinstance(out, np.ndarray):
            sizes.append(out.size)
        elif isinstance(out, tuple):
            for x in out:
                record(x)

    def recording(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kw):
            out = fn(*args, **kw)
            record(out)
            return out
        return wrapped

    for owner in (hopf, linalg, hopf.Coo, hopf.AlgebraData, hopf.HopfAlgebraData):
        for name, fn in list(vars(owner).items()):
            if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn) and name != "dataclass":
                monkeypatch.setattr(owner, name, recording(fn))


def test_adjoint_kernels_build_no_cube(monkeypatch, counterexample, cocentral8, classical,
                                       s4_a4, dual_s4_v4, a5):
    # the dense conjugation held (d, d, |B|) products, the antipode
    # residuals a (d^2, d) contraction and the normality test a (d, d, d, |B|)
    # sandwich; the joins hold at most d^2 pairs
    exts = _scenarios(counterexample, cocentral8, classical, s4_a4, dual_s4_v4, a5)
    duals = {name: np.array([d.values for d in ext.dec_dual.irr]) for name, ext in exts.items()}
    sizes: list[int] = []
    _recording_array_sizes(monkeypatch, sizes)
    for name, ext in exts.items():
        d, b = ext.A.dim, ext.inc.small.dim
        sizes.clear()
        conjugation_matrices(ext.A, ext.inc, duals[name])
        assert 0 < max(sizes) < min(d ** 3, d * d * b), name
        B = ext.b_sub
        sizes.clear()
        assert is_normal_hopf_subalgebra(ext.A, B)
        assert 0 < max(sizes) < d ** 3, name
        for alg in (ext.A, ext.inc.small, ext.dual):
            monkeypatch.setattr(alg, "checked_antipode", None)     # check the pair afresh
            sizes.clear()
            assert max(antipode_residuals(alg, alg.antipode).values()) < 1e-12
            assert 0 < max(sizes) <= alg.dim ** 2, name


def test_graded_kernels_build_no_cube(monkeypatch, counterexample, cocentral8, classical,
                                      s4_a4, dual_s4_v4, a5):
    # with the joins of 0/1 operands taken at every dimension, S = A(H) of
    # every alpha, the Hopf maps B -> A and A -> kF, cocentrality and the
    # graded components hold no d^2 k or d^3 array: the dense Hopf-subalgebra
    # test held (d, d, codim S) legs, the Hopf-map residual (d^2, |F|) and
    # (|G|, d, d) contractions, cocentrality two (d, d, |F|) arrays and the
    # comodule map a (d, |F|, d) one.  S is a coordinate subspace, read
    # through its support by masks of at most d entries
    exts = _scenarios(counterexample, cocentral8, classical, s4_a4, dual_s4_v4, a5)
    graded = {name: [S for S in _graded_sums(ext) if S.dim < ext.A.dim]
              for name, ext in exts.items()}
    assert all(S.support is not None for sums in graded.values() for S in sums)
    sizes: list[int] = []
    monkeypatch.setattr(linalg, "JOIN_MIN_DIM", 1)
    _recording_array_sizes(monkeypatch, sizes)
    for name, ext in exts.items():
        A, inc, piF = ext.A, ext.inc, ext.piF
        d, nf = A.dim, piF.target.dim

        def built(call, k):
            sizes.clear()
            out = call()
            assert 0 < max(sizes) < min(d ** 3, d * d * k), name
            return out

        for S in graded[name]:
            sizes.clear()
            path, got = _subalgebra_path(lambda: is_hopf_subalgebra(A, S))
            assert path == "coordinate" and max(sizes, default=0) <= d, name
            assert got is _projector_verdict(A, S), name
        assert built(lambda: hopf.hopf_map_residual(inc.small, A, inc.embedding),
                     inc.small.dim) < 1e-12
        # a bismash's projection is 0/1, and so is one found from a generic
        # quotient, once rounded
        assert np.count_nonzero(piF.matrix) <= d
        assert built(lambda: hopf.hopf_map_residual(A, piF.target, piF.matrix), nf) < 1e-12
        assert built(lambda: hopf.is_cocentral(A, piF), nf) is _cocentral_definition(A, piF.matrix)
        fresh = Extension(A, inc)
        fresh.quotient = piF, ext.F
        comps = built(lambda: fresh.components, nf)
        assert all(c.equals(want) for c, want in zip(comps, ext.components))
    # S = A(H) is read through its support, except where A(H) = A
    assert any(graded.values())


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
    # Z = A is A on its own basis; A on a rotated basis keeps the dense path covered
    frame = np.linalg.qr(_random(np.random.default_rng(5), a5.A.dim, a5.A.dim))[0]
    rotated = subalgebra_data(a5.A, SubspaceBasis(a5.A, frame))
    assert not rotated.mult_coo.sparse
    for A in list(algebras.values()) + subalgebras + [rotated]:
        center = repcalc._center(A, DEFAULT_SEED)
        assert linalg.subspace_equal(center, _commutant_of_basis(A), 1e-9)


def test_center_retries_then_raises(monkeypatch, classical):
    # a zero element commutes with everything: every draw fails the check
    monkeypatch.setattr(linalg, "random_complex", lambda rng, n: np.zeros(n, complex))
    with pytest.raises(NumericDegeneracyError):
        repcalc._center(classical.A, DEFAULT_SEED)
    # a commutative algebra is its own center whatever the draws
    assert repcalc._center(classical.inc.small, DEFAULT_SEED).shape[1] == classical.inc.small.dim


def test_casimir_trace_counts_the_blocks(algebras, counterexample, a5):
    # on every algebra the test above builds, tau of the inverse trace form is
    # a projection whose trace is the number of Wedderburn blocks, and its
    # range is the common commutant of two random elements
    subalgebras = [compute_stabilizer(ext, alpha).z_alg for ext in (counterexample, a5)
                   for alpha in range(len(ext.dec_b.irr))]
    frame = np.linalg.qr(_random(np.random.default_rng(5), a5.A.dim, a5.A.dim))[0]
    rotated = subalgebra_data(a5.A, SubspaceBasis(a5.A, frame))
    for A in list(algebras.values()) + subalgebras + [rotated]:
        tau = A.casimir(np.linalg.inv(A.mult_coo.along((2,), A.regular_trace_vector())))
        assert abs(np.trace(tau) - len(repcalc.wedderburn(A).dims)) < 1e-9
        assert np.max(np.abs(tau @ tau - tau)) < 1e-9
        assert linalg.subspace_equal(repcalc._center(A, DEFAULT_SEED),
                                     clifford_reference.center_of_two_elements(A), 1e-9)


def test_casimir_matches_its_definition(monkeypatch, counterexample, a5):
    # the joins (the inverse trace form of a constructor's algebra), the
    # dense form of a sparse mult (a dense H, whose joins would pair more
    # than d^2 entries) and of a dense mult, and the dense form one j at a time
    rng = np.random.default_rng(61)
    for A in (counterexample.A, counterexample.dual, a5.A, _dense(counterexample.A)):
        d = A.dim
        G = A.mult_coo.along((2,), A.regular_trace_vector())
        for H in (np.linalg.inv(G), _random(rng, d, d)):
            want = np.einsum("ji,ixp,pjo->ox", H, A.mult, A.mult, optimize=True)
            assert np.max(np.abs(A.casimir(H) - want)) < 1e-10
            with monkeypatch.context() as m:
                m.setattr(linalg, "STACK_BYTES", 1)
                assert np.max(np.abs(A.casimir(H) - want)) < 1e-10


def test_a_nan_in_mult_is_a_numeric_degeneracy(monkeypatch, capsys, counterexample):
    # the inverse of the trace form fails, or the Casimir projection's trace
    # is NaN, which is no dimension
    idx, val = counterexample.A.mult_coo.entries
    for k in range(val.size):
        broken = hopf.AlgebraData(hopf.Coo(counterexample.A.dim, idx, np.where(
            np.arange(val.size) == k, np.nan, val)), counterexample.A.unit)
        with pytest.raises(NumericDegeneracyError, match="solve failed|trace nan"):
            repcalc._center(broken, DEFAULT_SEED)
    # on the command line, with or without the trace form's condition gate
    # before the centre: exit 4 and one line on stderr
    wedderburn = clifford.wedderburn

    def on_a_nan(A, *args, **kw):
        idx, v = A.mult_coo.entries
        return wedderburn(hopf.AlgebraData(hopf.Coo(A.dim, idx, np.where(
            np.arange(v.size) == 0, np.nan, v)), A.unit), *args, **kw)

    monkeypatch.setattr(clifford, "wedderburn", on_a_nan)
    for gated in (True, False):
        if not gated:
            monkeypatch.setattr(linalg, "cond", lambda M: 1.0)
        assert cli.main(["list-irr", "--builtin", "s4_counterexample"]) == cli.EXIT_THEOREM
        err = capsys.readouterr().err
        assert err.startswith("internal consistency failure: ") and err.count("\n") == 1
        assert ("cond failed" in err) is gated


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


def _antipode_definition(A, S):
    """The antipode residuals as Delta against the d^4 products S(e_i) e_j and e_i S(e_j)."""
    d = A.dim
    eye = np.eye(d)
    D = A.comult.reshape(d, d * d)
    target = np.outer(A.counit, A.unit)
    left = D @ np.einsum("pi,pjq->ijq", S, A.mult, optimize=True).reshape(d * d, d)
    right = D @ np.einsum("pj,ipq->ijq", S, A.mult, optimize=True).reshape(d * d, d)
    return {"antipode_left": linalg.max_abs(left - target),
            "antipode_right": linalg.max_abs(right - target),
            "antipode_squared": linalg.max_abs(S @ S - eye)}


def _residuals_match(got, want):
    assert got.keys() == want.keys()
    for key in want:
        if np.isnan(want[key]):
            assert np.isnan(got[key]), key
        else:
            assert abs(got[key] - want[key]) <= 1e-12 * max(1.0, want[key]), key


def test_antipode_residuals_match_dense_definition(algebras):
    # the antipode gives zeros; a random S tells the two legs apart
    rng = np.random.default_rng(19)
    for name, A in list(algebras.items()) + [("shear", _shear(algebras["a5 A"]))]:
        assert max(antipode_residuals(A, A.antipode).values()) < 1e-12, name
        S = _random(rng, A.dim, A.dim)
        _residuals_match(antipode_residuals(A, S), _antipode_definition(A, S))
        _residuals_match(antipode_residuals(_dense(A), S), _antipode_definition(A, S))


@pytest.mark.parametrize("tensor", ["mult", "comult"])
def test_antipode_residuals_match_dense_definition_under_faults(algebras, tensor):
    rng = np.random.default_rng(23)
    for name in ("counterexample A", "counterexample A*", "a5 A"):
        A = algebras[name]
        idx, _ = getattr(A, f"{tensor}_coo").entries
        n = int(rng.integers(idx[0].size))
        hit = tuple(int(i[n]) for i in idx)
        beside = ((hit[0] + 1) % A.dim,) + hit[1:]
        S = _random(rng, A.dim, A.dim)
        for index, value in ((beside, 0.3 - 0.1j), (hit, np.nan)):
            broken = _copy(A, tensor, index, value)
            assert broken.comult_coo.sparse
            # a random S carries a NaN into both sides
            want = _antipode_definition(broken, S)
            assert np.isnan([want["antipode_left"], want["antipode_right"]]).all() == np.isnan(value)
            _residuals_match(antipode_residuals(broken, S), want)


def _sparse_antipodes(A, rng):
    """S with the antipode's nonzeros and random values, and a random
    permutation with random values: both are read by the adjoint joins."""
    d = A.dim
    perm = np.eye(d)[:, rng.permutation(d)]
    out = [(A.antipode != 0) * _random(rng, d, d), perm * _random(rng, d, d)]
    for S in out:
        hopf._adjoint_entries(A, S)
        hopf._adjoint_entries(A, S, left=True)
    return out


def _adjoint_definitions(A, S, X):
    """The adjoint actions of the basis by dense einsum: S(e_k1) x_m e_k2 and
    e_k1 x_m S(e_k2) as [k, m, o], and their x = 1 cases as [k, o]."""
    d, M = A.dim, A.mult
    D = A.comult.reshape(d, d * d)                               # [k, (i, j)]
    right = np.einsum("pi,pjo->ijo", S, M, optimize=True)        # S(e_i) e_j
    left = np.einsum("ipo,pj->ijo", M, S, optimize=True)         # e_i S(e_j)
    Mx = np.einsum("prc,rm->pmc", M, X, optimize=True)           # e_p x_m
    Sx = np.einsum("pi,pmc->imc", S, Mx, optimize=True)          # S(e_i) x_m
    n = X.shape[1]

    def sandwich(first, last):                                   # sum over c of first[i, m, c] last[c, j, o]
        inner = np.einsum("imc,cjo->ijmo", first, last, optimize=True)
        return (D @ inner.reshape(d * d, n * d)).reshape(d, n, d)

    return {(False, True): sandwich(Sx, M), (True, True): sandwich(Mx, left),
            (False, False): D @ right.reshape(d * d, d), (True, False): D @ left.reshape(d * d, d)}


def test_adjoint_entries_match_definitions(algebras):
    # both actions, on two random columns x_m and on x = 1; the columns have
    # two nonzeros each from d = 24 on, one below, so that the joins stay
    # within d^2 pairs.  A dense S pairs d^2 |G| entries with Delta, so
    # unless |G| = 1 the dense fallback answers for it
    rng = np.random.default_rng(43)
    for name, A in list(algebras.items()) + [("shear", _shear(algebras["a5 A"]))]:
        d = A.dim
        per = 2 if d >= 24 else 1
        X = np.zeros((d, 2), complex)
        X[rng.choice(d, 2 * per, replace=False), np.repeat([0, 1], per)] = _random(rng, 2 * per)
        dense = _random(rng, d, d)
        for S in _sparse_antipodes(A, rng) + [dense]:
            for (left, with_x), want in _adjoint_definitions(A, S, X).items():
                joined, (idx, val) = _joins_only(
                    lambda: hopf._adjoint_entries(A, S, X if with_x else None, left=left))
                if S is not dense:
                    assert joined, name
                elif A.comult_coo.entries[1].size > d:
                    assert not joined, name
                got = np.zeros(want.shape, complex)
                np.add.at(got, idx, val)
                assert np.max(np.abs(got - want)) < 1e-12 * d, (name, left, with_x)


def test_antipode_joins_match_dense_definition(algebras):
    rng = np.random.default_rng(37)
    for name, A in list(algebras.items()) + [("shear", _shear(algebras["a5 A"]))]:
        for S in _sparse_antipodes(A, rng):
            _residuals_match(antipode_residuals(A, S), _antipode_definition(A, S))


@pytest.mark.parametrize("tensor", ["mult", "comult"])
def test_antipode_joins_match_dense_definition_under_faults(algebras, tensor):
    # a NaN makes both sides NaN, as it does in the dense sums, even where no
    # pair of entries reads it
    rng = np.random.default_rng(41)
    for name in ("counterexample A", "counterexample A*", "a5 A"):
        A = algebras[name]
        idx, _ = getattr(A, f"{tensor}_coo").entries
        n = int(rng.integers(idx[0].size))
        hit = tuple(int(i[n]) for i in idx)
        beside = ((hit[0] + 1) % A.dim,) + hit[1:]
        for index, value in ((beside, 0.3 - 0.1j), (hit, np.nan)):
            broken = _copy(A, tensor, index, value)
            for S in _sparse_antipodes(broken, rng):
                want = _antipode_definition(broken, S)
                assert np.isnan([want["antipode_left"], want["antipode_right"]]).all() == np.isnan(value)
                _residuals_match(antipode_residuals(broken, S), want)


def _projector_residuals(A, Vb):
    """`hopf._subalgebra_residuals` through P = V V^H and Q = I - P."""
    d, k = Vb.shape
    P = Vb @ Vb.conj().T
    Q = np.eye(d) - P
    coprods = np.einsum("ka,kij->aij", Vb, A.comult)
    prods = np.einsum("ia,jb,ijq->qab", Vb, Vb, A.mult, optimize=True).reshape(d, k * k)
    return [np.linalg.norm(Q @ A.unit),
            linalg.max_abs(Q @ prods),
            linalg.max_abs(np.linalg.norm(coprods - P @ coprods @ P.T, axis=(1, 2))),
            linalg.max_abs(Q @ A.antipode @ Vb)]


def _projector_verdict(A, V):
    """The Hopf-subalgebra test with the projector P = V V^H on every condition."""
    Vb = V.matrix
    P = Vb @ Vb.conj().T
    coprods = A.apply_comult(Vb.T)
    return bool(np.linalg.norm(A.unit - P @ A.unit) < 1e-8
                and linalg.contains_vectors(Vb, A.products(Vb, Vb).reshape(A.dim, -1), 1e-8)
                and linalg.max_abs(np.linalg.norm(coprods - P @ coprods @ P.T,
                                                  axis=(1, 2))) < 1e-8
                and linalg.contains_vectors(Vb, A.antipode @ Vb, 1e-8))


def _residuals_match_projectors(A, V):
    """The residuals `is_hopf_subalgebra` reads on V against P = V V^H on the
    basis they are taken on: V's own, or, for a coordinate V, the unit
    vectors of its support, whichever basis of the span V stores."""
    got = list(hopf._subalgebra_residuals(A, V.matrix, V.support))
    basis = V.matrix if V.support is None else np.eye(A.dim, dtype=complex)[:, V.support]
    want = _projector_residuals(A, basis)
    if V.dim == A.dim:                  # V = A: nothing lies outside it
        assert got == [] and max(want) < 1e-12
    else:
        assert np.max(np.abs(np.subtract(got, want))) < 1e-10


def _coordinate_bases(V, rng):
    """Three bases of the coordinate span V: its unit vectors, those with
    random signs, and those rotated by a random unitary."""
    E = np.eye(V.matrix.shape[0], dtype=complex)[:, V.support]
    signs = np.where(rng.random(V.dim) < 0.5, -1.0, 1.0)
    return [E, E * signs, E @ np.linalg.qr(_random(rng, V.dim, V.dim))[0]]


def _graded_sums(ext):
    """S = A(H) of every alpha, on the stacked components of H."""
    srs = [compute_stabilizer(ext, alpha) for alpha in range(len(ext.dec_b.irr))]
    return [SubspaceBasis.spanned_by(ext.A, np.hstack([ext.components[f].matrix
                                                       for f in g.h_members]))
            for g in graded_stabilizer_analysis(ext, srs)]


def _stabilizer_subspaces(ext):
    """B, and Z and S = A(H) of every alpha, S on the stacked components of H
    and on the SVD basis of their span."""
    out = [ext.b_sub]
    for alpha, S in enumerate(_graded_sums(ext)):
        out += [compute_stabilizer(ext, alpha).Z, S, SubspaceBasis.from_vectors(ext.A, S.matrix)]
    return out


def test_hopf_subalgebra_matches_projectors(counterexample, a5):
    verdicts, thick = [], []
    for ext in (counterexample, a5):
        A = ext.A
        for V in _stabilizer_subspaces(ext):
            verdicts.append(is_hopf_subalgebra(A, V))
            thick.append(2 * V.dim > A.dim)
            assert verdicts[-1] is _projector_verdict(A, V)
            _residuals_match_projectors(A, V)
    # both verdicts, and subspaces thinner and thicker than d/2, are reached
    assert set(verdicts) == set(thick) == {True, False}


def test_coordinate_forms_match_projectors(counterexample, cocentral8, classical, a5):
    # B, Z and S = A(H) of every alpha are coordinate spans.  On their unit
    # vectors, with random signs and rotated, each keeps its support; the
    # residuals read from the entries that leave it are the projector's on
    # the unit vectors, the verdict is the projector's on the basis given,
    # and contains and equals are the projections'
    rng = np.random.default_rng(67)
    verdicts = set()
    for ext in (counterexample, cocentral8, classical, a5):
        A = ext.A
        for V in _stabilizer_subspaces(ext):
            assert V.support is not None
            other = SubspaceBasis(A, np.roll(np.eye(A.dim, dtype=complex), 1, axis=0)[:, V.support])
            for M in _coordinate_bases(V, rng):
                W = SubspaceBasis(A, M)
                assert np.array_equal(W.support, V.support)
                verdicts.add(is_hopf_subalgebra(A, W))
                assert is_hopf_subalgebra(A, W) is _projector_verdict(A, W)
                _residuals_match_projectors(A, W)
                for X, Y in ((V, W), (W, V), (W, other), (other, W), (W, ext.b_sub)):
                    assert X.contains(Y) is linalg.contains_vectors(X.matrix, Y.matrix, 1e-8)
                    assert X.equals(Y) is linalg.subspace_equal(X.matrix, Y.matrix, 1e-8)
    assert verdicts == {True, False}


def test_coordinate_forms_fail_on_nan(counterexample, a5):
    # a NaN in mult, comult, the antipode or V fails the test of a coordinate
    # Hopf subalgebra, on an entry that leaves its support, which the
    # coordinate form reads, and on one that does not; contains and equals
    # read a NaN in the other basis
    for ext in (counterexample, a5):
        A, B = ext.A, ext.b_sub
        d, inside = A.dim, B.support
        off = np.setdiff1d(np.arange(d), inside)
        s, t, o = inside[0], inside[-1], off[0]
        assert is_hopf_subalgebra(A, B)
        for tensor, read, unread in (("mult", (s, t, o), (o, o, s)),
                                     ("comult", (s, s, o), (o, s, s))):
            for index in (read, unread):
                broken = _copy(A, tensor, index, np.nan)
                assert is_hopf_subalgebra(broken, B) is False
            residuals = list(hopf._coordinate_subalgebra_residuals(_copy(A, tensor, read, np.nan),
                                                                   inside))
            assert np.isnan(residuals).any()
        for index in ((o, s), (s, o)):
            S = A.antipode.copy()
            S[index] = np.nan
            broken = HopfAlgebraData(A.mult_coo, A.unit, A.comult_coo, A.counit, antipode=S)
            assert is_hopf_subalgebra(broken, B) is False
        M = B.matrix.copy()
        M[o, 0] = np.nan
        V = SubspaceBasis(A, M)
        assert V.support is None and is_hopf_subalgebra(A, V) is False
        assert not B.contains(V) and not B.equals(V) and not V.equals(B)


def test_normality_reads_the_support(counterexample, s4_a4, a5, s4_sigma):
    # a coordinate B sums only the adjoint entries that leave its support,
    # with no (d, d |B|) scatter; on rotated bases of the same span, and for
    # kA4 and kS3 in kS4, it gives the projection's verdict
    rng = np.random.default_rng(73)
    for ext in (counterexample, s4_a4, a5):
        A, B = ext.A, ext.b_sub
        assert B.support is not None
        for M in _coordinate_bases(B, rng):
            assert is_normal_hopf_subalgebra(A, SubspaceBasis(A, M))
    A = group_algebra(s4_sigma)
    d = A.dim
    for gens, normal in ((("s", "gg"), True), (("s", "t"), False)):
        B = _subgroup_algebra(A, s4_sigma, gens)
        assert B.support is not None
        (k, m, o), val = hopf._adjoint_entries(A, A.antipode, B.matrix, left=True)
        images = hopf._scatter_sum((o * d + k) * B.dim + m, val, d * d * B.dim)
        assert linalg.contains_vectors(B.matrix, images.reshape(d, -1), 1e-8) is normal
        assert is_normal_hopf_subalgebra(A, B) is normal


def test_hopf_subalgebra_in_a_unitary_basis(s4_sigma, counterexample):
    # dense tensors: V = A has nothing outside it, kA4 and kS3 are read on V
    rng = np.random.default_rng(29)
    for A0 in (counterexample.A, group_algebra(s4_sigma)):
        d = A0.dim
        P, _ = np.linalg.qr(_random(rng, d, d))
        T = change_basis(A0, P)
        assert not T.comult_coo.sparse
        V = SubspaceBasis(T, np.linalg.qr(_random(rng, d, d))[0])
        assert is_hopf_subalgebra(T, V) and _projector_verdict(T, V)
    for gens in (("s", "gg"), ("s", "t")):              # T is kS4 in the last basis
        B = _subgroup_algebra(T, s4_sigma, gens, basis=P.conj().T)
        assert is_hopf_subalgebra(T, B) and _projector_verdict(T, B)
        _residuals_match_projectors(T, B)


def _no_null_space(*args, **kw):
    raise AssertionError("the Hopf-subalgebra test took a null space")


def test_subspaces_that_are_not_hopf_subalgebras(monkeypatch, counterexample, a5):
    # thick ones (2 dim V > d, V != A) and thin ones are read on V itself,
    # with no null space taken; every residual is checked against P = V V^H
    monkeypatch.setattr(linalg, "null_space", _no_null_space)
    rng = np.random.default_rng(31)
    for A in (counterexample.A, a5.A, change_basis(counterexample.A,
                                                    np.linalg.qr(_random(rng, 24, 24))[0])):
        d = A.dim
        drop_one = SubspaceBasis(A, np.eye(d, dtype=complex)[:, 1:])
        # the unit and d - 3 random directions
        codim_2 = SubspaceBasis.from_vectors(
            A, np.column_stack([A.unit, _random(rng, d, d - 3)]))
        assert codim_2.dim == d - 2
        unit_and_one = SubspaceBasis.from_vectors(A, np.column_stack([A.unit, _random(rng, d, 1)]))
        no_unit = SubspaceBasis.from_vectors(A, _random(rng, d, 3))
        for V, thick in ((drop_one, True), (codim_2, True),
                         (unit_and_one, False), (no_unit, False)):
            assert (2 * V.dim > d) is thick
            assert is_hopf_subalgebra(A, V) is False
            assert _projector_verdict(A, V) is False
            _residuals_match_projectors(A, V)


def test_hopf_subalgebra_reads_the_thinner_side(monkeypatch, a5):
    # B (dim 5 of 60) is read on itself: through its support on its 0/1
    # basis and on a rotated basis of the same span, through V on a dense
    # basis of a span that is not coordinate; no null space is taken.
    # V = A yields no residual: neither V.V nor Delta(V), 3.5 MB each, is
    # formed
    A = a5.A
    rng = np.random.default_rng(53)
    rotated = SubspaceBasis(A, a5.b_sub.matrix @ np.linalg.qr(_random(rng, 5, 5))[0])
    tilted = SubspaceBasis(A, np.linalg.qr(_random(rng, 60, 60))[0] @ a5.b_sub.matrix)
    assert rotated.support is not None and tilted.support is None
    monkeypatch.setattr(linalg, "null_space", _no_null_space)
    assert _subalgebra_path(lambda: is_hopf_subalgebra(A, a5.b_sub)) == ("coordinate", True)
    assert _subalgebra_path(lambda: is_hopf_subalgebra(A, rotated)) == ("coordinate", True)
    assert _subalgebra_path(lambda: is_hopf_subalgebra(A, tilted)) == ("dense", False)
    V = SubspaceBasis(A, np.eye(A.dim, dtype=complex))
    assert is_hopf_subalgebra(A, V)         # the COO plans are built once per algebra
    tracemalloc.start()
    try:
        assert is_hopf_subalgebra(A, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def _path(call):
    """Which path `call()` took: "joins" when it read its operands through
    `_coo_einsum` joins alone, "fallback" when a join refused its pairs and
    the dense path answered, "dense" when it started no join; and what it
    returned."""
    started, refused = [], []
    einsum = hopf._coo_einsum

    def recording(spec, *args, **kw):
        started.append(spec)
        try:
            return einsum(spec, *args, **kw)
        except hopf._TooManyPairs:
            refused.append(spec)
            raise

    with pytest.MonkeyPatch.context() as m:
        m.setattr(hopf, "_coo_einsum", recording)
        out = call()
    return ("fallback" if refused else "joins" if started else "dense"), out


def _subalgebra_path(call):
    """Which form of the Hopf-subalgebra residuals `call()` read:
    "coordinate" from a support, "dense" on V itself, or None when it read
    neither, as for V = A or a NaN it failed on first; and what it
    returned."""
    forms = []

    def recording(name):
        form = getattr(hopf, f"_{name}_subalgebra_residuals")

        def reading(*args):
            forms.append(name)
            yield from form(*args)
        return reading

    with pytest.MonkeyPatch.context() as m:
        for name in ("coordinate", "dense"):
            m.setattr(hopf, f"_{name}_subalgebra_residuals", recording(name))
        out = call()
    assert len(set(forms)) <= 1
    return (forms[0] if forms else None), out


def test_subalgebra_forms_match_projectors(counterexample, cocentral8, classical,
                                           dual_s4_v4, dual_s4c2_c2, a5):
    # B, Z and S = A(H) are coordinate subspaces, which the Hopf-subalgebra
    # test reads through their supports, on their 0/1 and SVD bases alike.
    # Given as bases alone, each is read through the dense residuals on V,
    # as is a B of functions on the cosets of N, whose basis has |N| equal
    # entries a column and is not coordinate: dual_s4_v4's (|N| = 4) at
    # d = 24 and dual_s4c2_c2's (|N| = 2) at d = 48, above JOIN_MIN_DIM.
    # With the joins of `products` taken as the rule stands and at every
    # dimension, the verdicts and every residual agree with P = V V^H
    subspaces = [(ext.A, [V for V in _stabilizer_subspaces(ext) if V.dim < ext.A.dim])
                 for ext in (counterexample, cocentral8, classical, a5)]
    assert dual_s4c2_c2.A.dim >= linalg.JOIN_MIN_DIM
    for gate in GATES:
        with _join_min_dim(gate):
            for A, Vs in subspaces:
                for V in Vs:
                    assert _subalgebra_path(lambda: is_hopf_subalgebra(A, V)) == \
                        ("coordinate", _projector_verdict(A, V))
                    _residuals_match_projectors(A, V)
                    form, got = _subalgebra_path(
                        lambda: list(hopf._subalgebra_residuals(A, V.matrix)))
                    assert form == "dense"
                    want = _projector_residuals(A, V.matrix)
                    assert np.max(np.abs(np.subtract(got, want))) < 1e-10
            for ext in (dual_s4_v4, dual_s4c2_c2):
                A, B = ext.A, ext.b_sub
                assert B.support is None
                assert set(np.count_nonzero(B.matrix, axis=0).tolist()) == {A.dim // B.dim}
                assert _subalgebra_path(lambda: is_hopf_subalgebra(A, B)) == ("dense", True)
                assert _projector_verdict(A, B)
                _residuals_match_projectors(A, B)


def test_hopf_map_joins_match_definition(joins_everywhere, counterexample, cocentral8, a5):
    # the embedding of k^G and the projection onto kF, as they are, scaled
    # and with their basis images permuted: 0/1 maps read through the joins
    rng = np.random.default_rng(59)
    for ext in (counterexample, cocentral8, a5):
        for src, dst, phi in ((ext.inc.small, ext.A, ext.inc.embedding),
                              (ext.A, ext.piF.target, ext.piF.matrix)):
            for M in (phi, 2 * phi, phi[:, rng.permutation(phi.shape[1])]):
                path, got = _path(lambda: hopf.hopf_map_residual(src, dst, M))
                assert path == "joins"
                _residuals_match({"map": got}, {"map": _hopf_map_definition(src, dst, M)})
            assert hopf.hopf_map_residual(src, dst, phi) < 1e-12
            assert hopf.hopf_map_residual(src, dst, 2 * phi) > 0.5


def test_cocentrality_joins_match_definition(joins_everywhere, counterexample, cocentral8, a5):
    rng = np.random.default_rng(61)
    for ext in (counterexample, cocentral8, a5):
        A, P = ext.A, ext.piF.matrix
        for M in (P, P[:, rng.permutation(A.dim)]):
            path, got = _path(lambda: hopf.is_cocentral(A, hopf.HopfSurjection(A, None, M)))
            assert path == "joins"
            assert got is _cocentral_definition(A, M)
    assert [hopf.is_cocentral(ext.A, ext.piF) for ext in (counterexample, cocentral8, a5)] == \
        [False, True, False]


def _svd_components(A, P):
    """A_f as the range of rho_f, by SVD of the dense comodule map."""
    rho = np.einsum("kpq,fq->pfk", A.comult, P)
    return [linalg.orthonormal_columns(rho[:, f, :]) for f in range(P.shape[0])]


def test_graded_components_match_the_svd_definition(counterexample, cocentral8, classical,
                                                    s4_a4, dual_s4_v4, a5):
    # a bismash's A_f is spanned by unit vectors, taken as they stand; a
    # quotient found numerically gives columns that are not orthonormal, and
    # their SVD; in a unitary basis rho is dense, and its one join, whose
    # limit nnz(Delta) |F| no entry of Delta can pass, forms it all the same
    rng = np.random.default_rng(67)
    for name, ext in _scenarios(counterexample, cocentral8, classical, s4_a4, dual_s4_v4,
                                a5).items():
        A, P = ext.A, ext.piF.matrix
        rho = hopf.comodule_map_rho(A, ext.piF)
        wants = _svd_components(A, P)
        for got, want in zip(hopf.graded_components(A, rho, len(wants)), wants):
            assert linalg.subspace_equal(got.matrix, want, 1e-10), name
            if ext.mp is not None:
                assert set(np.abs(got.matrix).ravel().tolist()) == {0.0, 1.0}, name
    A, P = counterexample.A, counterexample.piF.matrix
    U = np.linalg.qr(_random(rng, A.dim, A.dim))[0]
    T = change_basis(A, U)
    pi = hopf.HopfSurjection(T, None, P @ U)
    path, rho = _path(lambda: hopf.comodule_map_rho(T, pi))
    assert path == "joins"
    assert not T.comult_coo.sparse and rho[1].size > T.dim ** 2
    comps = counterexample.components
    for got, comp in zip(hopf.graded_components(T, rho, len(comps)), comps):
        assert linalg.subspace_equal(got.matrix, U.conj().T @ comp.matrix, 1e-10)


def _twists(ext):
    """Extension.twists of ext's graded components, made afresh."""
    fresh = Extension(ext.A, ext.inc, seed=ext.seed)
    fresh.components = ext.components
    return fresh.twists


def test_component_bimodules_read_through_the_joins(counterexample, a5):
    # the products u_f b_m and b_m u_f of the twists, for generators u_f on
    # the 0/1 bases of the A_f, joined or contracted densely, give the same
    # twists
    for ext in (counterexample, a5):
        with _join_min_dim(ext.A.dim + 1):
            dense = _twists(ext)
        with _join_min_dim(1):
            path, joined = _path(lambda: _twists(ext))
        assert path == "joins"
        assert np.max(np.abs(joined - dense)) < 1e-12


def test_spanned_by_keeps_an_orthonormal_basis(counterexample):
    # stacked components are orthogonal to each other and kept; vectors that
    # are not orthonormal get the SVD basis of their span
    A = counterexample.A
    stacked = np.hstack([c.matrix for c in counterexample.components[:2]])
    assert np.array_equal(SubspaceBasis.spanned_by(A, stacked).matrix, stacked)
    skew = stacked.copy()
    skew[:, 1] += skew[:, 0]
    V = SubspaceBasis.spanned_by(A, skew)
    assert V.dim == stacked.shape[1] and V.equals(SubspaceBasis(A, stacked))
    assert not np.array_equal(V.matrix, skew)
    twice = np.hstack([stacked, stacked[:, :1]])
    assert SubspaceBasis.spanned_by(A, twice).dim == stacked.shape[1]


def _no_joined_map_defects(monkeypatch):
    """Make the joined defects of the Hopf-map residual unreachable."""
    def unreachable(*args, **kw):
        raise AssertionError("a non-finite operand reached the joins")
    monkeypatch.setattr(hopf, "_joined_map_defects", unreachable)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("tensor", ["mult", "comult"])
def test_join_kernels_fail_on_nan_and_inf(monkeypatch, joins_everywhere, counterexample,
                                          cocentral8, a5, tensor, value):
    # a NaN or Inf in a tensor fails the Hopf-subalgebra test before it
    # reads either form, sends the Hopf-map residual to its dense path, where
    # it fails as it always did (inf * 0 is NaN there, which numpy warns
    # of), and makes the commutator NaN, even where no join would read it;
    # cocentrality fails on one in Delta and the comodule map refuses it.  A
    # NaN or Inf in a comodule map given by hand fails the graded components
    rng = np.random.default_rng(71)
    for ext in (counterexample, cocentral8, a5):
        A = ext.A
        idx, _ = getattr(A, f"{tensor}_coo").entries
        broken = _copy(A, tensor, tuple(int(i[-1]) for i in idx), value)
        S = next(S for S in _graded_sums(ext) if S.dim < A.dim)
        with monkeypatch.context() as m, np.errstate(invalid="ignore"):
            _no_joined_map_defects(m)
            assert _subalgebra_path(lambda: is_hopf_subalgebra(broken, S)) == (None, False)
            for src, dst, phi in ((ext.inc.small, broken, ext.inc.embedding),
                                  (broken, ext.piF.target, ext.piF.matrix),
                                  (broken, broken, np.eye(A.dim))):
                assert np.isnan(hopf.hopf_map_residual(src, dst, phi))
            if tensor == "mult":
                assert np.isnan(broken.commutator_residual(_random(rng, A.dim, 2)))
                continue
            # cocentral8 is cocentral, and a Delta with a NaN or Inf is not
            assert _path(lambda: hopf.is_cocentral(broken, ext.piF)) == ("dense", False)
            with pytest.raises(PreconditionError, match="finite"):
                hopf.comodule_map_rho(broken, ext.piF)
            idx, val = hopf.comodule_map_rho(A, ext.piF)
            val = val.copy()
            val[-1] = value
            with pytest.raises((PreconditionError, NumericDegeneracyError)):
                hopf.graded_components(A, (idx, val), ext.F.order)


def test_join_kernels_fail_on_a_nan_in_the_operand(joins_everywhere, cocentral8):
    ext = cocentral8
    A = ext.A
    E = ext.inc.embedding.copy()
    E[0, 0] = np.nan
    with pytest.raises(NumericDegeneracyError):
        hopf.hopf_map_residual(ext.inc.small, A, E)      # the rank of phi reads it first
    P = ext.piF.matrix.copy()
    P[0, 1] = np.inf
    with np.errstate(invalid="ignore"):
        assert _path(lambda: hopf.is_cocentral(A, hopf.HopfSurjection(A, None, P))) == \
            ("dense", False)
    with pytest.raises(PreconditionError, match="finite"):
        hopf.comodule_map_rho(A, hopf.HopfSurjection(A, None, P))
    S = next(S for S in _graded_sums(ext) if S.dim < A.dim)
    broken = S.matrix.copy()
    broken[0, 0] = np.nan
    assert _subalgebra_path(lambda: is_hopf_subalgebra(A, SubspaceBasis(A, broken))) == \
        (None, False)
