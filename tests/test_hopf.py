"""Hopf algebra constructors, axiom verification, and the subspace calculus."""

import tracemalloc

import numpy as np
import pytest

from hopfclifford import hopf, linalg, repcalc, scenarios
from hopfclifford.errors import (ConsistencyError, NormalityError,
                                 NumericDegeneracyError, PreconditionError)
from hopfclifford.groups import group_from_permutations, subgroup_closure
from hopfclifford.clifford import Extension
from hopfclifford.hopf import (HopfAlgebraData, HopfInclusion, SubspaceBasis,
                               coefficient_spaces, comodule_map_rho,
                               dual_group_algebra, dual_hopf, graded_components,
                               group_algebra, hopf_map_residual, is_cocentral,
                               is_hopf_subalgebra, is_normal_hopf_subalgebra,
                               quotient_hopf, subspace_product,
                               verify_hopf_axioms)

from conftest import A5_A4_C5, DUAL_S4_V4, S4_A4, change_basis, dense_rho, solve_antipode


def coefficient_space(A, d_vec, seed=linalg.DEFAULT_SEED):
    """`coefficient_spaces` of the one dual character d_vec."""
    return coefficient_spaces(A, np.asarray(d_vec)[None], seed=seed)[0]


def _is_commutative(A):
    return np.max(np.abs(A.mult - A.mult.transpose(1, 0, 2))) < 1e-8


def _is_cocommutative(A):
    return np.max(np.abs(A.comult - A.comult.transpose(0, 2, 1))) < 1e-8


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
    assert not _is_commutative(A)
    assert _is_cocommutative(A)


def test_group_algebra_c4(c4):
    A = group_algebra(c4)
    assert _is_commutative(A) and _is_cocommutative(A)
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
    assert _is_commutative(D)
    assert not _is_cocommutative(D)


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


def test_antipode_residuals_once_per_pair(monkeypatch, c4):
    # a request computes each (algebra, S) pair once: the axiom gate reads
    # the check of A's and B's closed forms, and quotient_hopf's gate that
    # of A/AB+'s pi S_A pi^H, where it computed 8 before; A*'s residuals
    # are A's (verify_dual_axioms), where A*'s own check made 5
    computed = []
    adjoint = hopf._adjoint_entries

    def counting(A, S, X=None, left=False):
        if X is None and not left:
            computed.append((id(A), S.tobytes()))
        return adjoint(A, S, X, left=left)

    sc = scenarios.builtin_scenario("s4_counterexample")
    monkeypatch.setattr(hopf, "_adjoint_entries", counting)
    report = scenarios.run_scenario(sc)
    assert len(computed) == len(set(computed)) == 4
    monkeypatch.undo()
    # the gate reports the values of a fresh check, A*'s read from A's included
    for sc in [sc] + [scenarios.builtin_scenario(name) for name in
                      ("s3_a3_classical", "cocentral_c4_c2")] + [
            scenarios.Scenario.from_dict(data) for data in (S4_A4, DUAL_S4_V4, A5_A4_C5)]:
        report = scenarios.run_scenario(sc)
        ext = scenarios.build_scenario(sc, report.seed)
        for tag, alg in (("A", ext.A), ("B", ext.inc.small), ("A_dual", ext.dual)):
            alg.checked_antipode = None
            fresh = verify_hopf_axioms(alg).residuals
            assert {k: report.axiom_residuals[f"{tag}.{k}"] for k in fresh} == fresh, sc.name
    # an antipode changed in place, or replaced, is checked afresh
    A = group_algebra(c4)
    assert verify_hopf_axioms(A).ok
    A.antipode[:, :] = np.eye(4)
    assert not verify_hopf_axioms(A).ok
    A.antipode = solve_antipode(A)
    assert verify_hopf_axioms(A).ok
    A.antipode = A.antipode + 0.1
    assert verify_hopf_axioms(A).failing() == ["antipode_left", "antipode_right", "antipode_squared"]


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


def _loop_tensors(G):
    """mult and comult of kG, then of k^G, filled one entry at a time."""
    n = G.order
    out = [np.zeros((n, n, n), dtype=complex) for _ in range(4)]
    for i in range(n):
        out[1][i, i, i] = out[2][i, i, i] = 1.0
        for j in range(n):
            out[0][i, j, G.cayley[i, j]] = out[3][G.cayley[i, j], i, j] = 1.0
    return out


def _loop_bismash(mp):
    """mult, comult, unit, counit and antipode of k^G # kF, filled one entry at a time."""
    F, G = mp.f_group, mp.g_group
    nF, nG = F.order, G.order
    d = nF * nG

    def bi(g, x):
        return g * nF + x

    mult = np.zeros((d, d, d), dtype=complex)
    comult = np.zeros((d, d, d), dtype=complex)
    unit, counit = np.zeros(d, dtype=complex), np.zeros(d, dtype=complex)
    S = np.zeros((d, d), dtype=complex)
    for g in range(nG):
        unit[bi(g, 0)] = 1.0
        for x in range(nF):
            h = int(mp.ract[g, x])
            S[bi(G.inv(h), F.inv(int(mp.lact[g, x]))), bi(g, x)] = 1.0
            for y in range(nF):
                mult[bi(g, x), bi(h, y), bi(g, F.mul(x, y))] = 1.0
            for t in range(nG):
                s = G.mul(g, G.inv(t))
                comult[bi(g, x), bi(s, int(mp.lact[t, x])), bi(t, x)] = 1.0
    for x in range(nF):
        counit[bi(0, x)] = 1.0
    return mult, comult, unit, counit, S


def _assert_coo_is(coo, tensor):
    """The COO entries are those of `tensor`, in np.nonzero's order, and no
    dense tensor was built."""
    idx, val = coo.entries
    want = np.nonzero(tensor)
    assert len(idx) == 3 and all(np.array_equal(a, b) for a, b in zip(idx, want))
    assert np.array_equal(val, tensor[want])
    assert "tensor" not in vars(coo)


def test_constructors_emit_the_loops_tensors(s3_group, s4_sigma, s4_pair, c4c2_pair, a5):
    for G in (s3_group, s4_sigma):
        tensors = _loop_tensors(G)
        algebras = (group_algebra(G), dual_group_algebra(G))
        for A, (mult, comult) in zip(algebras, (tensors[:2], tensors[2:])):
            _assert_coo_is(A.mult_coo, mult)
            _assert_coo_is(A.comult_coo, comult)
    for mp in (s4_pair, c4c2_pair, a5.mp):
        bm = hopf.bismash(mp)
        A = bm.algebra
        mult, comult, unit, counit, S = _loop_bismash(mp)
        _assert_coo_is(A.mult_coo, mult)
        _assert_coo_is(A.comult_coo, comult)
        for got, want in ((A.unit, unit), (A.counit, counit), (A.antipode, S)):
            assert np.array_equal(got, want)
        nF = mp.f_group.order
        assert np.array_equal(bm.b_inclusion.embedding, np.eye(A.dim)[:, ::nF])
        assert np.array_equal(bm.pi.matrix, np.eye(A.dim)[:nF])
        # the dual permutes the same entries
        D = dual_hopf(A)
        _assert_coo_is(D.mult_coo, comult.transpose(1, 2, 0))
        _assert_coo_is(D.comult_coo, mult.transpose(2, 0, 1))


def _broken(A, tensor, index, value):
    """A copy of A with one entry of mult, comult or the antipode replaced."""
    parts = {"mult": A.mult.copy(), "comult": A.comult.copy(), "antipode": A.antipode.copy()}
    parts[tensor][index] = value
    return HopfAlgebraData(parts["mult"], A.unit, parts["comult"], A.counit,
                           antipode=parts["antipode"])


def _dense_gate(A, monkeypatch):
    """The axiom gate with the sparse contractions refused: the dense reference."""
    def refuse(*args, **kwargs):
        raise hopf._TooManyPairs("dense reference")
    with monkeypatch.context() as m:
        m.setattr(hopf, "_sparse_contraction_residuals", refuse)
        return verify_hopf_axioms(A)


def _takes_sparse_path(A):
    try:
        hopf._sparse_contraction_residuals(A)
    except hopf._TooManyPairs:
        return False
    return True


def test_injected_fault_reported(c4):
    A = group_algebra(c4)
    broken = _broken(A, "mult", (1, 1, 0), A.mult[1, 1, 0] + 0.1)
    rep = verify_hopf_axioms(broken)
    assert not rep.ok
    assert 0.05 < rep.residuals["associativity"] < 0.5
    broken = _broken(A, "comult", (1, 2, 2), A.comult[1, 2, 2] + 0.1)
    rep = verify_hopf_axioms(broken)
    assert not rep.ok
    assert 0.05 < rep.residuals["coassociativity"] < 0.5
    assert {"coassociativity", "counit", "bialgebra_mult"} <= set(rep.failing())


@pytest.mark.parametrize("tensor,index,axiom", [
    ("mult", (1, 1, 0), "associativity"),
    ("comult", (1, 2, 2), "coassociativity"),
    ("antipode", (2, 1), "antipode_left"),
], ids=["mult", "comult", "antipode"])
def test_nan_fails_every_gate(tensor, index, axiom, monkeypatch):
    A = group_algebra(group_from_permutations(["(1 2 3)"]))
    broken = _broken(A, tensor, index, np.nan)
    assert _takes_sparse_path(broken)
    for rep in (verify_hopf_axioms(broken), _dense_gate(broken, monkeypatch)):
        assert not rep.ok
        assert np.isnan(rep.max_residual)
        assert axiom in rep.failing()
    assert np.isnan(hopf_map_residual(broken, A, np.eye(3)))
    if tensor == "antipode":
        with pytest.raises(ConsistencyError):
            hopf._with_checked_antipode(A, broken.antipode, "with a NaN")


def test_sparse_gate_matches_dense(counterexample, cocentral8, classical, monkeypatch):
    # no join pairs more entries than the dense result holds: the dense
    # path is chosen on the whole joins' pair counts, before any is formed
    formed, pairs = [], hopf._Join.pairs

    def counted(join, *rows):
        out = pairs(join, *rows)
        formed.append(out[1].size)
        return out

    monkeypatch.setattr(hopf._Join, "pairs", counted)
    dense_path = []
    for name, ext in (("counterexample", counterexample), ("cocentral8", cocentral8),
                      ("classical", classical)):
        for tag, alg in (("A", ext.A), ("B", ext.inc.small), ("A*", ext.dual),
                         ("A/AB+", ext.generic_quotient.target)):
            formed.clear()
            assert verify_hopf_axioms(alg).residuals == _dense_gate(alg, monkeypatch).residuals
            assert max(formed, default=0) <= alg.dim ** 4
            if not _takes_sparse_path(alg):
                dense_path.append((name, tag))
    # the d=2 generic quotient kC2 has dense tensors: 256 pairs > d^4 = 16
    assert dense_path == [("classical", "A/AB+")]


def test_dual_gate_reads_a_or_checks_the_dual_directly(monkeypatch, counterexample, a5):
    # A*'s residuals are read from A's only when its structure is exactly
    # A's transposed; one entry off and A* is checked as verify_hopf_axioms
    # checks it, failing the same axioms
    contracted = []
    sparse = hopf._sparse_contraction_residuals
    monkeypatch.setattr(hopf, "_sparse_contraction_residuals",
                        lambda A: contracted.append(A) or sparse(A))
    for ext in (counterexample, a5):
        A, D = ext.A, ext.dual
        rep = verify_hopf_axioms(A)
        contracted.clear()
        assert hopf.verify_dual_axioms(D, A, rep).residuals == verify_hopf_axioms(D).residuals
        assert contracted == [D]
        (i, j, k), val = D.mult_coo.entries
        hit = (i[0], j[0], k[0])
        for name, index, value in (("mult", hit, val[0] + 0.1), ("unit", (1,), 0.1),
                                   ("antipode", (0, 0), D.antipode[0, 0] + 0.1)):
            parts = {"mult": D.mult.copy(), "unit": D.unit.copy(), "antipode": D.antipode.copy()}
            parts[name][index] = value
            off = HopfAlgebraData(parts["mult"], parts["unit"], D.comult_coo, D.counit,
                                  antipode=parts["antipode"])
            contracted.clear()
            got = hopf.verify_dual_axioms(off, A, rep)
            assert contracted == [off], name
            off.checked_antipode = None
            want = verify_hopf_axioms(off)
            assert got.residuals == want.residuals
            assert got.failing() == want.failing() != [], name


def test_dual_gate_swaps_the_residuals_of_a(counterexample):
    # an A that is no Hopf algebra, with exact entries: A*'s residuals read
    # from A's are those of a direct check, associativity and
    # coassociativity swapped
    A = _broken(_broken(counterexample.A, "mult", (1, 2, 3), 0.5), "comult", (4, 5, 6), 0.25)
    D = dual_hopf(A)
    rep = verify_hopf_axioms(A)
    got = hopf.verify_dual_axioms(D, A, rep).residuals
    assert got == verify_hopf_axioms(D).residuals
    assert (got["associativity"], got["coassociativity"]) == (
        rep.residuals["coassociativity"], rep.residuals["associativity"])
    assert 0 < got["coassociativity"] != got["associativity"] > 0


def test_nan_in_a_fails_a_and_its_dual(counterexample):
    broken = _broken(counterexample.A, "comult", (1, 2, 2), np.nan)
    reps = {tag: rep for tag, _, rep in
            scenarios.axiom_gate(Extension(broken, counterexample.inc), linalg.TOL_ALG)}
    assert reps["B"].ok
    for tag in ("A", "A_dual"):
        assert not reps[tag].ok and np.isnan(reps[tag].max_residual), tag


def test_blocks_are_bitwise_one_block(monkeypatch, counterexample, cocentral8, classical, a5):
    # one leading index per block against one block for all of them: the
    # same floats, NaN included, from a lower tracemalloc peak
    rng = np.random.default_rng(13)
    d = 12

    def random_sparse():
        idx = np.unravel_index(rng.choice(d ** 3, 3 * d * d // 4, replace=False), (d,) * 3)
        return hopf.Coo.from_entries(d, idx, rng.standard_normal(idx[0].size)
                                     + 1j * rng.standard_normal(idx[0].size))

    pair = HopfAlgebraData(random_sparse(), np.ones(d), random_sparse(), np.ones(d))
    algebras = [ext.A for ext in (counterexample, cocentral8, classical, a5)] + [pair]
    algebras.append(_broken(counterexample.A, "mult", (3, 4, 7), np.nan))
    blocks = []
    difference = hopf._difference
    monkeypatch.setattr(hopf, "_difference", lambda *a: blocks.append(1) or difference(*a))
    for A in algebras:
        one = hopf._sparse_contraction_residuals(A)
        assert len(blocks) == 3
        blocks.clear()
        with monkeypatch.context() as m:
            m.setattr(linalg, "STACK_BYTES", 1)
            many = hopf._sparse_contraction_residuals(A)
        assert len(blocks) > 3 * A.dim // 2
        blocks.clear()
        assert many.keys() == one.keys()
        assert np.array_equal(list(many.values()), list(one.values()), equal_nan=True)
    assert np.isnan(many["associativity"]) and not np.isnan(many["coassociativity"])
    assert min(hopf._sparse_contraction_residuals(pair).values()) > 1.0
    peaks = []
    for stack in (linalg.STACK_BYTES, 48 * 1000):
        monkeypatch.setattr(linalg, "STACK_BYTES", stack)
        tracemalloc.start()
        try:
            hopf._sparse_contraction_residuals(a5.A)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] / 2


@pytest.mark.parametrize("tensor", ["mult", "comult"])
@pytest.mark.parametrize("build", [group_algebra, dual_group_algebra])
def test_sparse_gate_matches_dense_under_faults(build, tensor, s3_group, s4_sigma,
                                                monkeypatch):
    rng = np.random.default_rng(5)
    for G in (s3_group, s4_sigma):
        A = build(G)
        for value in (0.1, -0.3, 0.05j, 1.0, 0.7 + 0.2j):
            index = tuple(int(i) for i in rng.integers(0, A.dim, 3))
            broken = _broken(A, tensor, index, getattr(A, tensor)[index] + value)
            sparse, dense = verify_hopf_axioms(broken), _dense_gate(broken, monkeypatch)
            assert _takes_sparse_path(broken)
            assert sparse.residuals == dense.residuals
            assert sparse.failing() == dense.failing() != []


def test_dense_basis_takes_dense_path(s3_group, s4_sigma, monkeypatch):
    rng = np.random.default_rng(11)
    for G in (s3_group, s4_sigma):
        A = group_algebra(G)
        d = A.dim
        # f_i = sum_a P[a, i] e_a for a random unitary P
        P, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        T = change_basis(A, P)
        assert not _takes_sparse_path(T)
        rep = verify_hopf_axioms(T)
        assert rep.ok
        assert rep.residuals == _dense_gate(T, monkeypatch).residuals


def test_quotient_classical(classical):
    inc = classical.inc
    assert hopf_map_residual(inc.small, inc.big, inc.embedding) < 1e-10
    H, pi = quotient_hopf(classical.A, classical.b_sub)
    assert H.dim == 2
    assert verify_hopf_axioms(H).ok
    form = repcalc.group_algebra_form(H)
    assert form is not None and form[0].order == 2


def test_quotient_antipode_is_pushed_forward(classical, s4_a4, dual_s4_v4, counterexample, a5):
    # H's antipode is pi S_A pi^H, not solved: on every generic quotient it
    # is the solution of the antipode law, for B = A and B = k1 too
    A = classical.A
    by_whole, by_unit = (quotient_hopf(A, SubspaceBasis.from_vectors(A, V))[1]
                         for V in (np.eye(A.dim), A.unit[:, None]))
    for pi in [ext.generic_quotient for ext in (classical, s4_a4, dual_s4_v4, counterexample, a5)
               ] + [by_whole, by_unit]:
        H = pi.target
        assert np.max(np.abs(H.antipode - pi.matrix @ pi.source.antipode @ pi.matrix.conj().T)
                      ) < 1e-14
        assert np.max(np.abs(H.antipode - solve_antipode(H))) < 1e-10
    assert (by_whole.target.dim, by_unit.target.dim) == (1, A.dim)


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
    assert not np.array_equal(F.cayley, F.cayley.T)       # F = S3 is not abelian
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


def _span(A, *members):
    E = np.zeros((A.dim, len(members)), dtype=complex)
    E[list(members), range(len(members))] = 1.0
    return SubspaceBasis.from_vectors(A, E)


def test_quotient_gates_after_normality(classical, s3_group, monkeypatch):
    # the gates that follow the normality test, reached with that test bypassed
    A, a3 = classical.A, classical.b_sub
    r, t = s3_group.label_index("s"), s3_group.label_index("t")
    monkeypatch.setattr(hopf, "is_normal_hopf_subalgebra", lambda A, B: True)
    # span{1, r} is no subalgebra: read on it, r r = 0 and no Lambda has eps(Lambda) = 1
    with pytest.raises(ConsistencyError, match="B has no normalized integral"):
        quotient_hopf(A, _span(A, 0, r))
    # k<t>: Lambda = (1 + t)/2 is not central
    with pytest.raises(ConsistencyError, match=r"A B\+ is not a two-sided ideal"):
        quotient_hopf(A, _span(A, 0, t))
    # a complement one short of d/|B|
    orthonormal_columns = linalg.orthonormal_columns
    monkeypatch.setattr(linalg, "orthonormal_columns", lambda v: orthonormal_columns(v)[:, 1:])
    with pytest.raises(ConsistencyError, match=r"has dimension 1, not d/\|B\| = 6/3"):
        quotient_hopf(A, a3)


def _refused(*args, **kw):
    raise AssertionError("quotient_hopf took a null space or a containment test")


def test_quotient_reads_the_integral_only(monkeypatch, classical, dual_s4_v4, counterexample, a5):
    # past the normality test, A B+ is read as the kernel of x -> x Lambda:
    # no null space is taken and no ideal is tested for containment
    for ext in (classical, dual_s4_v4, counterexample, a5):
        pi = ext.generic_quotient
        with monkeypatch.context() as m:
            m.setattr(hopf, "is_normal_hopf_subalgebra", lambda A, B: True)
            m.setattr(linalg, "null_space", _refused)
            m.setattr(linalg, "contains_vectors", _refused)
            H, again = quotient_hopf(ext.A, ext.b_sub)
        assert H.dim * ext.b_sub.dim == ext.A.dim
        assert np.array_equal(again.matrix, pi.matrix)


def test_hopf_map_residual_refuses_rank_deficient_map(classical):
    # the zero map onto kF is neither injective nor surjective
    A, kF = classical.A, classical.piF.target
    assert hopf_map_residual(A, kF, np.zeros((kF.dim, A.dim))) == np.inf


def test_bismash_crosscheck_refuses_quotient_of_other_rank(counterexample):
    # B = k1 gives H = A on its own basis: H factors the closed-form projection
    # onto kF, but has rank d = 24, not |F| = 6
    A = counterexample.A
    one = HopfInclusion(small=group_algebra(group_from_permutations(["e"])), big=A,
                        embedding=A.unit[:, None])
    with pytest.raises(ConsistencyError, match="different ranks"):
        hopf._crosscheck_bismash_quotient(A, one, counterexample.piF)


def test_rho_values(classical, counterexample):
    A, piF = classical.A, classical.piF
    h = piF.target.dim
    rho = dense_rho(A, piF.matrix).reshape(A.dim * h, A.dim)
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
    rho24 = dense_rho(A24, counterexample.piF.matrix)
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
        graded_components(classical.A, comodule_map_rho(classical.A, pi_q), H.dim)


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


def test_coefficient_space_names_the_mismatch(counterexample):
    # a dual character off by 0.1 %: the message shows eps(d) unrounded
    d4 = [ch for ch in counterexample.dec_dual.irr if ch.degree == 4][0]
    with pytest.raises(PreconditionError,
                       match=r"eps\(d\) = 4\.004\S*, but its coefficient space has dimension 16"):
        coefficient_space(counterexample.A, d4.values * (1 + 1e-3))


def _a5_dual_characters(a5):
    """The ten degree-1 and the two degree-5 dual characters of A5 = A4.C5."""
    irr = a5.dec_dual.irr
    return ([ch.values for ch in irr if ch.degree == 1],
            [ch.values for ch in irr if ch.degree == 5])


def test_coefficient_space_rejects_a_larger_space(a5):
    one, five = _a5_dual_characters(a5)
    # eps = 5 - 4 = 1, and a 26-dimensional space: the sketch's two columns have rank 2
    with pytest.raises(PreconditionError,
                       match=r"eps\(d\) = 1\S*, but its coefficient space has dimension 26$"):
        coefficient_space(a5.A, five[0] - 4 * one[0])
    # eps = 1 and a 2-dimensional space, which two columns span: only the rank gate sees it
    with pytest.raises(PreconditionError, match="dimension 2$"):
        coefficient_space(a5.A, 2 * one[1] - one[2])


def test_coefficient_space_checks_the_sketch_spans_the_space(monkeypatch, a5):
    # with the extra column a copy of the first, the sketch of the
    # 26-dimensional space has rank 1 = eps(d)^2: only the containment gate sees it
    one, five = _a5_dual_characters(a5)
    draw = linalg.random_complex

    def repeated(rng, shape):
        omega = draw(rng, shape)
        omega[:, -1] = omega[:, 0]
        return omega

    monkeypatch.setattr(linalg, "random_complex", repeated)
    with pytest.raises(PreconditionError, match="dimension 26$"):
        coefficient_space(a5.A, five[0] - 4 * one[0])
    assert coefficient_space(a5.A, five[0]).dim == 25


def test_coefficient_space_of_a_nan_is_a_numeric_degeneracy(a5):
    # as before the sketch: the SVD of Delta(d) fails, not a gate
    _, five = _a5_dual_characters(a5)
    for k in (0, 7):
        d_vec = five[1].copy()
        d_vec[k] = np.nan
        with pytest.raises(NumericDegeneracyError, match="^svd failed: "):
            coefficient_space(a5.A, d_vec)


def test_coefficient_space_follows_the_seed(counterexample):
    A = counterexample.A
    d4 = [ch for ch in counterexample.dec_dual.irr if ch.degree == 4][0]
    first, again, other = (coefficient_space(A, d4.values, seed=s) for s in (1729, 1729, 7))
    assert np.array_equal(first.matrix, again.matrix)
    assert not np.allclose(first.matrix, other.matrix)
    assert first.equals(other)


def test_coefficient_space_sketches_stay_thin(monkeypatch, a5):
    # the SVD of each coefficient space sees eps(d)^2 + 1 columns, not d, in
    # one stacked SVD per degree; the sketch is drawn from the context's seed
    ext = Extension(a5.A, a5.inc, seed=11)
    ext.dec_dual = a5.dec_dual
    shapes = []
    svd = linalg.svd

    def recording(mat, *args, **kw):
        shapes.append(mat.shape)
        return svd(mat, *args, **kw)

    monkeypatch.setattr(linalg, "svd", recording)
    degrees = [d.degree for d in a5.dec_dual.irr]
    assert [C.dim for C in ext.coefficient_spaces] == [n ** 2 for n in degrees]
    assert shapes == [(degrees.count(n), a5.A.dim, n ** 2 + 1) for n in sorted(set(degrees))]
    monkeypatch.undo()
    for d, C in zip(a5.dec_dual.irr, ext.coefficient_spaces):
        assert np.array_equal(C.matrix, coefficient_space(a5.A, d.values, seed=11).matrix)
