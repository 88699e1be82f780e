"""Semisimple decomposition, characters, induction, explicit modules.

Expected values come from independent oracles: classical character tables
looked up by cycle type, and orbit-stabilizer counting for bismash products.
"""

import numpy as np
import pytest

from hopfclifford import hopf, repcalc
from hopfclifford.errors import ConsistencyError, NotACharacterError, SemisimplicityError
from hopfclifford.groups import group_from_permutations, orbit_and_stabilizer
from hopfclifford.hopf import AlgebraData, dual_group_algebra, group_algebra
from hopfclifford.repcalc import (Character, construct_irreducible_module,
                                  decompose, group_algebra_form,
                                  induce_character, multiplicity,
                                  regular_character, restrict_character,
                                  wedderburn)


def classical_s3_table(group):
    """Character table of the symmetric group on three letters, by cycle type."""
    def cycle_type(p):
        moved = sum(1 for i, j in enumerate(p) if i != j)
        return {0: "e", 2: "transposition", 3: "three-cycle"}[moved]

    triv = {"e": 1, "transposition": 1, "three-cycle": 1}
    sgn = {"e": 1, "transposition": -1, "three-cycle": 1}
    theta = {"e": 2, "transposition": 0, "three-cycle": -1}
    rows = []
    for table in (triv, sgn, theta):
        rows.append(np.array([table[cycle_type(p)] for p in group.perms],
                             dtype=complex))
    return rows


def bismash_dims_oracle(mp):
    """Block sizes from orbits of <| and irreducibles of the stabilizers."""
    dims = []
    seen = set()
    for g in mp.g_group.elements():
        if g in seen:
            continue
        orbit, stab = orbit_and_stabilizer(mp, g)
        seen.update(orbit)
        sub = [[mp.f_group.cayley[a, b] for b in stab.members]
               for a in stab.members]
        idx = {m: i for i, m in enumerate(stab.members)}
        abelian = all(mp.f_group.mul(a, b) == mp.f_group.mul(b, a)
                      for a in stab.members for b in stab.members)
        if abelian:
            stab_dims = [1] * stab.order
        elif stab.order == 6:
            stab_dims = [1, 1, 2]
        else:
            raise AssertionError("oracle only knows abelian stabilizers and S3")
        dims.extend(len(orbit) * d for d in stab_dims)
    return sorted(dims)


def test_wedderburn_dual_c4():
    c4 = group_from_permutations(["(1 2 3 4)"], names=["g"])
    dec = wedderburn(dual_group_algebra(c4))
    assert dec.dims == [1, 1, 1, 1]
    # characters are the four indicator functionals
    vals = sorted(tuple(np.round(ch.values.real, 6)) for ch in dec.irr)
    assert vals == sorted(tuple(np.eye(4)[k]) for k in range(4))


def test_wedderburn_s3_matches_classical_table(s3_group):
    dec = wedderburn(group_algebra(s3_group))
    assert dec.dims == [1, 1, 2]
    expected = classical_s3_table(s3_group)
    for want in expected:
        assert any(float(np.max(np.abs(ch.values - want))) < 1e-8
                   for ch in dec.irr), f"missing character {want}"


def test_wedderburn_bismash_dims_oracle(counterexample, cocentral8):
    assert counterexample.dec_a.dims == bismash_dims_oracle(counterexample.mp)
    assert counterexample.dec_a.dims == [1, 1, 2, 3, 3]
    assert cocentral8.dec_a.dims == bismash_dims_oracle(cocentral8.mp)
    assert cocentral8.dec_a.dims == [1, 1, 1, 1, 2]
    assert sum(n * n for n in counterexample.dec_dual.dims) == 24


def test_idempotent_invariants(counterexample):
    A = counterexample.A
    dec = counterexample.dec_a
    total = np.sum(dec.idempotents, axis=0)
    assert np.max(np.abs(total - A.unit)) < 1e-9
    for i, e in enumerate(dec.idempotents):
        assert np.max(np.abs(A.product(e, e) - e)) < 1e-9
        for j in range(i + 1, len(dec.idempotents)):
            assert np.max(np.abs(A.product(e, dec.idempotents[j]))) < 1e-9
    assert sum(n * n for n in dec.dims) == A.dim


def test_wedderburn_deterministic(s3_group):
    a = wedderburn(group_algebra(s3_group), seed=5)
    b = wedderburn(group_algebra(s3_group), seed=5)
    for ca, cb in zip(a.irr, b.irr):
        assert np.array_equal(ca.values, cb.values)


def test_non_semisimple_rejected():
    # k[x]/(x^2): nilpotent radical, degenerate trace form
    mult = np.zeros((2, 2, 2), dtype=complex)
    mult[0, 0, 0] = 1.0
    mult[0, 1, 1] = 1.0
    mult[1, 0, 1] = 1.0
    unit = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(SemisimplicityError):
        wedderburn(AlgebraData(mult, unit))


def test_decompose_regular(s3_group):
    A = group_algebra(s3_group)
    dec = wedderburn(A)
    reg = regular_character(A)
    coeffs = decompose(reg, dec)
    assert list(coeffs) == dec.dims
    for k, ch in enumerate(dec.irr):
        unit_vec = decompose(ch, dec)
        assert list(unit_vec) == [1 if i == k else 0 for i in range(3)]


def test_decompose_rejects_non_characters(s3_group):
    A = group_algebra(s3_group)
    dec = wedderburn(A)
    bad = Character(A, dec.irr[0].values * 0.5)
    with pytest.raises(NotACharacterError):
        decompose(bad, dec)
    outside = Character(A, np.array([1, 0, 0, 0, 0, 0.3], dtype=complex))
    with pytest.raises(NotACharacterError):
        decompose(outside, dec)


def test_decompose_a_stack_row_by_row(s3_group):
    # a stack of characters gives the rows decompose gives one at a time, and
    # each row is gated on its own scale, not on the largest in the stack
    A = group_algebra(s3_group)
    dec = wedderburn(A)
    chars = [regular_character(A)] + list(dec.irr)
    stack = decompose(Character(A, np.stack([ch.values for ch in chars])), dec)
    assert np.array_equal(stack, [decompose(ch, dec) for ch in chars])
    X = np.stack([ch.values for ch in dec.irr], axis=1)
    w = np.eye(A.dim)[-1] - X @ np.linalg.lstsq(X, np.eye(A.dim)[-1], rcond=None)[0]
    w /= np.max(np.abs(w))
    off = dec.irr[0].values + 5e-7 * w                        # bound 1e-7: outside
    big = 100 * regular_character(A).values + 1e-5 * w       # bound 6e-5: inside
    assert list(decompose(Character(A, big), dec)) == [100, 100, 200]
    for values in (off, np.stack([big, off])):
        with pytest.raises(NotACharacterError, match="character span"):
            decompose(Character(A, values), dec)


def test_multiplicity_pairings(classical):
    dec_a, dec_b = classical.dec_a, classical.dec_b
    reg = regular_character(classical.A)
    for k, ch in enumerate(dec_a.irr):
        assert multiplicity(ch, ch, dec_a) == 1
        assert multiplicity(reg, ch, dec_a) == dec_a.dims[k]
    theta = [ch for ch in dec_a.irr if ch.degree == 2][0]
    down = restrict_character(theta, classical.inc)
    coeffs = decompose(down, dec_b)
    omegas = [k for k in range(3) if coeffs[k] > 0]
    assert len(omegas) == 2
    for k in omegas:
        assert multiplicity(down, dec_b.irr[k], dec_b) == 1


def test_restriction_classical(classical):
    # counit restricts to counit, theta to the two nontrivial characters
    dec_a, dec_b = classical.dec_a, classical.dec_b
    eps_a = Character(classical.A, classical.A.counit)
    eps_b = restrict_character(eps_a, classical.inc)
    assert np.max(np.abs(eps_b.values - classical.inc.small.counit)) < 1e-10
    theta = [ch for ch in dec_a.irr if ch.degree == 2][0]
    down = decompose(restrict_character(theta, classical.inc), dec_b)
    trivial_b = [k for k, ch in enumerate(dec_b.irr)
                 if np.max(np.abs(ch.values - 1.0)) < 1e-8][0]
    assert down[trivial_b] == 0 and sorted(down) == [0, 1, 1]


def test_restriction_bismash(counterexample):
    # each 3-dim block restricts to the full nontrivial orbit of B-characters
    dec_a, dec_b = counterexample.dec_a, counterexample.dec_b
    trivial_b = counterexample.supports.index(counterexample.inc.small.labels.index("d(1)"))
    for c, chi in enumerate(dec_a.irr):
        if dec_a.dims[c] != 3:
            continue
        down = decompose(restrict_character(chi, counterexample.inc), dec_b)
        assert down[trivial_b] == 0
        assert sorted(down) == [0, 1, 1, 1]


def test_induction_classical(classical):
    dec_a, dec_b = classical.dec_a, classical.dec_b
    trivial_b = [k for k, ch in enumerate(dec_b.irr)
                 if np.max(np.abs(ch.values - 1.0)) < 1e-8][0]
    ind = induce_character(dec_b.irr[trivial_b], classical.inc, dec_b, dec_a,
                           classical.ecd.restriction_table)
    coeffs = decompose(ind, dec_a)
    # trivial + sign, not the 2-dim
    assert sum(coeffs) == 2
    assert all(coeffs[c] == 0 for c in range(3) if dec_a.dims[c] == 2)
    omega = [k for k in range(3) if k != trivial_b][0]
    ind = induce_character(dec_b.irr[omega], classical.inc, dec_b, dec_a,
                           classical.ecd.restriction_table)
    coeffs = decompose(ind, dec_a)
    assert [dec_a.dims[c] for c in np.nonzero(coeffs)[0]] == [2]


def test_induction_bismash(counterexample):
    dec_a, dec_b = counterexample.dec_a, counterexample.dec_b
    g_char = counterexample.supports.index(counterexample.inc.small.labels.index("d(g)"))
    ind = induce_character(dec_b.irr[g_char], counterexample.inc, dec_b, dec_a,
                           counterexample.ecd.restriction_table)
    coeffs = decompose(ind, dec_a)
    assert [dec_a.dims[c] for c in np.nonzero(coeffs)[0]] == [3, 3]
    assert ind.degree == 6


def test_frobenius_reciprocity(classical, counterexample, cocentral8):
    for ext in (classical, counterexample, cocentral8):
        for alpha in ext.dec_b.irr:
            ind = induce_character(alpha, ext.inc, ext.dec_b, ext.dec_a,
                                   ext.ecd.restriction_table)
            for chi in ext.dec_a.irr:
                lhs = multiplicity(ind, chi, ext.dec_a)
                rhs = multiplicity(alpha, restrict_character(chi, ext.inc),
                                   ext.dec_b)
                assert lhs == rhs


def test_regular_restriction_identity(classical, counterexample):
    # sum n_i chi_i restricted equals |A|/|B| copies of the regular B-character
    for ext in (classical, counterexample):
        reg_a = regular_character(ext.A)
        down = restrict_character(reg_a, ext.inc)
        reg_b = regular_character(ext.inc.small)
        ratio = ext.A.dim // ext.inc.small.dim
        assert np.max(np.abs(down.values - ratio * reg_b.values)) < 1e-8
        stacked = sum(n * ch.values for n, ch in zip(ext.dec_a.dims, ext.dec_a.irr))
        assert np.max(np.abs(stacked - reg_a.values)) < 1e-8


def test_explicit_modules(classical, counterexample):
    dec = classical.dec_a
    for idx in range(len(dec.dims)):
        mod = construct_irreducible_module(classical.A, dec, idx)
        assert mod.dimension == dec.dims[idx]
        assert mod.verify() < 1e-8
        assert mod.character().close_to(dec.irr[idx], 1e-8)
    idx3 = counterexample.dec_a.dims.index(3)
    mod = construct_irreducible_module(counterexample.A, counterexample.dec_a, idx3)
    assert mod.dimension == 3
    assert mod.verify() < 1e-7
    assert mod.character().close_to(counterexample.dec_a.irr[idx3], 1e-7)
    # the 4-dim block of the dual
    idx4 = counterexample.dec_dual.dims.index(4)
    mod = construct_irreducible_module(counterexample.dual,
                                       counterexample.dec_dual, idx4)
    assert mod.dimension == 4
    assert mod.verify() < 1e-7


def test_induced_degree_consistency(classical):
    # a forged decomposition with a wrong-degree character must be caught
    dec_b = classical.dec_b
    alpha = dec_b.irr[0]
    ind = induce_character(alpha, classical.inc, dec_b, classical.dec_a,
                           classical.ecd.restriction_table)
    assert ind.degree == 2


def test_recognised_projections_onto_kf_are_0_1(classical, s4_a4):
    # the group-likes found in A/AB+ carry rounding; the map onto kF they
    # give is the exact 0/1 map, with one 1 per basis element of A
    for ext in (classical, s4_a4):
        M = ext.piF.matrix
        assert np.count_nonzero(M) == ext.A.dim
        assert np.all(M[M != 0] == 1)
        assert hopf.hopf_map_residual(ext.A, ext.piF.target, M) == 0


def test_recognised_projection_onto_kf_is_gated(monkeypatch, classical):
    monkeypatch.setattr(repcalc, "hopf_map_residual", lambda *args: 1.0)
    with pytest.raises(ConsistencyError, match="not a Hopf map"):
        repcalc.as_group_algebra_surjection(classical.generic_quotient)


def test_group_algebra_form(classical, counterexample, s3_group):
    H, _ = hopf.quotient_hopf(classical.A, classical.b_sub)
    form = group_algebra_form(H)
    assert form is not None
    F, P = form
    assert F.order == 2
    # structure constants in the group-like basis agree with the literal kF
    kF = group_algebra(F)
    Pinv = np.linalg.inv(P)
    got = np.einsum("ijk,ia,jb,zk->abz", H.mult, P, P, Pinv, optimize=True)
    assert np.max(np.abs(got - kF.mult)) < 1e-8
    # kS3 itself is a group algebra; the bismash is not
    assert group_algebra_form(hopf.group_algebra(s3_group)) is not None
    assert group_algebra_form(counterexample.A) is None
