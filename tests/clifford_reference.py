"""Independent, slower forms of the clifford, hopf and repcalc kernels, kept as test references.

`conjugate_module` twists W (x) M by an explicit module of the dual, built
from a subcoalgebra by `subcoalgebra_as_dual_module`; its character is the
reference for `clifford.conjugation_matrices`.  `conjugation_matrices`
forms the dense products S(e_p) b_m and multiplies Delta(d)^T by them for
each d, the per-character formula the COO joins of
`clifford.conjugation_matrices` replace.  `graded_tensor_character` solves
A_f (x)_B M for one component and one module at a time, with np.kron, from
the B-bimodule `component_bimodule` of A_f; it is the reference for the
characters alpha o theta_f that `clifford.Extension.twists` gives.

The per-item forms the stacked kernels replace: `coefficient_space` sketches
one dual character at a time (`hopf.coefficient_spaces`), `component_bimodule`
reads one graded component at a time, and with a generator u_f of A_f
gives its twist theta_f (`Extension.twists`),
`coset_projection_check` takes one SVD per dual character for its image and
for B C_d (`clifford.coset_projection_check`), `wedderburn` scales, gates
and traces one block at a time with two products per block and sorts on the
eagerly rounded `char_sort_key` (`repcalc.wedderburn`, `repcalc._CharSortKey`).

The forms the Casimir projection and the central idempotents replace:
`center_of_two_elements` is the common commutant of two random elements, the
null space of a stacked (2d, d) commutator matrix (`repcalc._center`);
`decompose` solves for the multiplicities by least squares
(`repcalc.decompose`); `built_stabilizer` builds every Z, B included, as an
algebra on its orthonormal basis Q and decomposes it on the frame Q, with
both restriction tables (`clifford.stabilizer_of_set`).
"""

from fractions import Fraction

import numpy as np

from hopfclifford import linalg, repcalc
from hopfclifford.clifford import Stabilizer
from hopfclifford.errors import (ConsistencyError, NotACharacterError, NumericDegeneracyError,
                                 PreconditionError, SemisimplicityError)
from hopfclifford.hopf import (HopfAlgebraData, HopfInclusion, SubspaceBasis, dual_hopf,
                               subalgebra_data, subspace_product)
from hopfclifford.linalg import (COND_LIMIT, DEFAULT_SEED, TOL_ALG, TOL_MATCH, TOL_NUM,
                                 TOL_ZERO, max_abs, nearest_int, require)
from hopfclifford.repcalc import Character, ExplicitModule, SemisimpleDecomposition


def subcoalgebra_as_dual_module(A: HopfAlgebraData, C: SubspaceBasis) -> ExplicitModule:
    """A subcoalgebra of A as a module over the dual algebra."""
    Cb = C.matrix
    k = Cb.shape[1]
    mats = []
    for i in range(A.dim):
        img = np.zeros((A.dim, k), dtype=complex)
        for q in range(k):
            X = A.apply_comult(Cb[:, q])
            img[:, q] = X[:, i]
        coords, resid = linalg.lstsq_coords(Cb, img)
        require(resid, TOL_ALG, PreconditionError, "subspace is not a subcoalgebra")
        mats.append(coords)
    return ExplicitModule(dual_hopf(A), mats)


def conjugate_module(A: HopfAlgebraData, inc: HopfInclusion,
                     W: ExplicitModule, M_mod: ExplicitModule) -> ExplicitModule:
    """Twist of W (x) M by b(w (x) m) = w_0 (x) (S(w_1) b w_2) m."""
    E = np.asarray(inc.embedding, complex)
    S, Mt = A.antipode, A.mult
    T = np.stack(W.matrices)                       # [i, a, b] action of dual basis
    R2 = np.einsum("iab,ipq->abpq", T, A.comult, optimize=True)   # double comodule coefficients
    mats = []
    for m in range(E.shape[1]):
        v = E[:, m]
        Sv = np.einsum("rp,j,rjk->pk", S, v, Mt, optimize=True)   # S(e_p) * v
        sand = np.einsum("pa,aqk->pqk", Sv, Mt, optimize=True)    # S(e_p) * v * e_q
        u = np.einsum("abpq,pqk->abk", R2, sand, optimize=True)
        coords, resid = linalg.lstsq_coords(E, u.reshape(-1, A.dim).T)
        require(resid, TOL_ALG * max(1.0, max_abs(u)), ConsistencyError,
                "conjugate action leaves the subalgebra")
        cb = coords.T.reshape(u.shape[0], u.shape[1], E.shape[1])
        stack = np.stack(M_mod.matrices)
        act = np.einsum("abl,lij->aibj", cb, stack, optimize=True)
        n = act.shape[0] * act.shape[1]
        mats.append(act.reshape(n, n))
    out = ExplicitModule(M_mod.parent, mats)
    require(out.verify(), TOL_MATCH, ConsistencyError,
            "conjugate module fails the multiplication table")
    return out


def conjugation_matrices(A: HopfAlgebraData, inc: HopfInclusion, D: np.ndarray) -> np.ndarray:
    """C_d of every row d of D: the coordinates on B of S(d_1) b_m d_2, from
    the dense (d, d, |B|) products U = S(e_p) b_m and a d^3 |B| product per d."""
    E = np.asarray(inc.embedding, complex)
    U = A.products(A.antipode, E)                  # U[:, p, m] = S(e_p) b_m
    out = []
    for d_vec in np.asarray(D, complex):
        X = A.apply_comult(d_vec)                  # X[p, q]: Delta(d) on e_p (x) e_q
        W = A.multiply(X.T @ U)                    # W[:, m] = S(d_1) b_m d_2
        coords, resid = linalg.lstsq_coords(E, W)
        require(resid, TOL_ALG * max(1.0, max_abs(W)), ConsistencyError,
                "conjugation left the subalgebra")
        out.append(coords)
    return np.array(out)


def graded_tensor_character(bimodule: tuple[np.ndarray, np.ndarray],
                            M_mod: ExplicitModule) -> Character:
    """B-character of A_f (x)_B M, the quotient of A_f (x) M by ab (x) m - a (x) bm;
    `bimodule` is component_bimodule of A_f."""
    right, left = bimodule
    r, b, n = right.shape[0], right.shape[2], M_mod.dimension
    act = np.stack(M_mod.matrices)                  # act[m] is the action of b_m on M

    # relation (j, m, i): (a_j b_m) (x) e_i - a_j (x) b_m e_i, on the basis (p, q)
    rels = (right[:, None, :, :, None] * np.eye(n)[None, :, None, None, :]
            - np.eye(r)[:, None, :, None, None] * act.transpose(1, 0, 2)[None, :, None, :, :])
    rel_basis = linalg.orthonormal_columns(rels.reshape(r * n, r * b * n))
    C = linalg.null_space(rel_basis.conj().T)
    if C.shape[1] != n:
        raise ConsistencyError(
            f"tensor over B has dimension {C.shape[1]}, expected {n}")

    mats = [C.conj().T @ np.kron(left[:, m, :], np.eye(n)) @ C for m in range(b)]
    out = ExplicitModule(M_mod.parent, mats)
    require(out.verify(), TOL_MATCH, ConsistencyError,
            "tensor over B does not carry a B-module structure")
    return out.character()


def coefficient_space(A: HopfAlgebraData, d_vec: np.ndarray,
                      seed: int = DEFAULT_SEED) -> SubspaceBasis:
    """The simple subcoalgebra of one dual character d: the range of
    Delta(d)^T Omega for n^2 + 1 columns Omega from stream 1 of `seed`, with
    its rank and containment gates."""
    d_vec = np.asarray(d_vec, complex)
    spans = A.apply_comult(d_vec).T
    deg = complex(A.counit @ d_vec)
    n = nearest_int(deg.real)
    if abs(deg.imag) <= TOL_ALG and abs(deg.real - n) <= TOL_MATCH and n * n <= A.dim:
        omega = linalg.random_complex(linalg.random_stream(seed, 1), (A.dim, n * n + 1))
        sub = SubspaceBasis.from_vectors(A, spans @ omega)
        if sub.dim == n * n and linalg.contains_vectors(
                sub.matrix, spans, TOL_ALG * max(1.0, max_abs(spans))):
            return sub
    raise PreconditionError(
        f"not an irreducible dual character: eps(d) = {deg:.10g}, but its "
        f"coefficient space has dimension {linalg.orthonormal_columns(spans).shape[1]}")


def component_bimodule(A: HopfAlgebraData, inc: HopfInclusion, comp: SubspaceBasis
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(right, left) of one graded component A_f: the coordinates in A_f of
    a_j b_m and of b_m a_j; both must stay in A_f."""
    U = comp.matrix
    E = np.asarray(inc.embedding, complex)
    out = []
    for side, prods in (("right", A.products(U, E)), ("left", A.products(E, U))):
        coords = np.tensordot(U.conj().T, prods, axes=1)
        require(max_abs(np.tensordot(U, coords, axes=1) - prods), TOL_ALG, ConsistencyError,
                f"component is not stable under {side} B-multiplication")
        out.append(coords)
    return out[0], out[1]


def coset_projection_check(ext) -> dict:
    """The coset check with one SVD per dual character for pi(C_d) and for B C_d."""
    A, piF, F, components = ext.A, ext.piF, ext.F, ext.components
    piM = piF.matrix
    uniform_defects = []
    images_match = cosets_match = True
    supports = []
    cosets: list[SubspaceBasis] = []
    for d, C in zip(ext.dec_dual.irr, ext.coefficient_spaces):
        pd = piM @ d.values
        support = tuple(sorted(int(f) for f in np.nonzero(np.abs(pd) > TOL_MATCH)[0]))
        if not support:
            raise ConsistencyError("projected dual character vanished")
        coeff = Fraction(d.degree, len(support))
        expect = np.zeros(F.order, dtype=complex)
        for f in support:
            expect[f] = float(coeff)
        uniform_defects.append(pd - expect)
        supports.append(support)

        img = SubspaceBasis.from_vectors(piF.target, piM @ C.matrix)
        span = np.zeros((F.order, len(support)), dtype=complex)
        for c, f in enumerate(support):
            span[f, c] = 1.0
        images_match &= img.equals(SubspaceBasis(piF.target, span))

        bc = subspace_product(ext.b_sub, C)
        graded = SubspaceBasis.spanned_by(A, np.hstack([components[f].matrix for f in support]))
        cosets_match &= bc.equals(graded)
        cosets.append(bc)

    flat = [f for sup in sorted(set(supports)) for f in sup]
    distinct: list[SubspaceBasis] = []
    for bc in cosets:
        if not any(bc.equals(other) for other in distinct):
            distinct.append(bc)
    total = sum(bc.dim for bc in distinct)
    stacked = np.hstack([bc.matrix for bc in distinct])
    disjoint_ok = linalg.orthonormal_columns(stacked).shape[1] == total
    return {
        "uniform_coefficient_residual": max_abs(*uniform_defects),
        "image_spans_match": images_match,
        "coset_components_match": cosets_match,
        "supports_partition": sorted(flat) == list(range(F.order)),
        "coset_decomposition": bool(disjoint_ok and total == A.dim),
        "num_cosets": len(distinct),
    }


def char_sort_key(values: np.ndarray, degree: int):
    """The eager sort key of a character: (degree, every value rounded)."""
    return (degree, [(round(x, 6) + 0.0, round(y, 6) + 0.0)
                     for x, y in zip(values.real.tolist(), values.imag.tolist())])


def wedderburn(A, seed: int = DEFAULT_SEED, frame=None) -> SemisimpleDecomposition:
    """Central primitive idempotents, block sizes and characters, one block at a time."""
    trL = A.regular_trace_vector()
    require(linalg.cond(A.mult_coo.along((2,), trL)), COND_LIMIT, SemisimplicityError,
            "regular trace form is degenerate: condition number")
    center = repcalc._center(A, seed)
    r = center.shape[1]
    rng = linalg.random_stream(seed, 2)
    for _ in range(repcalc.MAX_RETRIES):
        z = center @ linalg.random_complex(rng, r)
        vals, vecs = linalg.eig(center.conj().T @ A.left_mult_matrix(z) @ center)
        scale = max(1.0, max_abs(vals))
        if r > 1:
            i, j = np.triu_indices(r, 1)
            if not np.min(np.abs(vals[i] - vals[j])) >= TOL_MATCH * scale:
                continue
        blocks = []
        for k in range(r):
            v = center @ vecs[:, k]
            lam = complex(np.vdot(v, A.product(v, v)) / np.vdot(v, v))
            if not abs(lam) >= TOL_ZERO:
                break
            e = v / lam
            if not max_abs(A.product(e, e) - e) <= TOL_NUM * max(1.0, max_abs(e) ** 2):
                break
            nn = complex(trL @ e)
            n = nearest_int(np.sqrt(max(nn.real, 0.0)))
            if n < 1 or not abs(nn - n * n) <= TOL_MATCH * max(1.0, abs(nn)):
                break
            blocks.append((n, e, (trL @ A.right_mult_matrix(e)) / n))
        if len(blocks) < r or not max_abs(sum(b[1] for b in blocks) - A.unit) <= TOL_NUM:
            continue
        blocks.sort(key=lambda b: char_sort_key(
            b[2] if frame is None else frame.conj() @ b[2], b[0]))
        E = np.stack([b[1] for b in blocks], axis=1)
        i, j = np.triu_indices(r, 1)
        require(max_abs(A.products(E, E)[:, i, j]), TOL_NUM, ConsistencyError,
                "central idempotents are not orthogonal")
        return SemisimpleDecomposition(algebra=A, idempotents=[b[1] for b in blocks],
                                       dims=[b[0] for b in blocks],
                                       irr=[Character(A, b[2]) for b in blocks])
    raise NumericDegeneracyError("central splitting failed after max retries")


def center_of_two_elements(A, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Orthonormal basis of the center: the elements commuting with two
    random ones from stream 0 of `seed` (Eberly and Giesbrecht, J. Symbolic
    Comput. 2000), checked against every basis element."""
    rng = linalg.random_stream(seed, 0)
    for _ in range(repcalc.MAX_RETRIES):
        rs = [linalg.random_complex(rng, A.dim) for _ in range(2)]
        center = linalg.null_space(
            np.vstack([A.left_mult_matrix(x) - A.right_mult_matrix(x) for x in rs]))
        if A.commutator_residual(center) <= TOL_NUM:
            return center
    raise NumericDegeneracyError("center of two random elements failed after max retries")


def decompose(chi: Character, dec: SemisimpleDecomposition) -> np.ndarray:
    """Multiplicities of `chi` (one character or a stack of rows) by least
    squares in the irreducible characters, with the gates of `repcalc.decompose`."""
    X = np.stack([c.values for c in dec.irr], axis=1)
    values = np.atleast_2d(chi.values).T
    coeffs = linalg.lstsq(X, values, rcond=None)[0]
    resid = np.abs(X @ coeffs - values).max(axis=0)
    bound = TOL_NUM * np.maximum(1.0, np.abs(values).max(axis=0))
    worst = int(np.argmax(resid / bound))
    require(resid[worst], bound[worst], NotACharacterError,
            "values are not in the character span")
    n = np.rint(coeffs.real)
    bad = ~(np.abs(coeffs - n) <= TOL_MATCH) | (n < 0)
    if bad.any():
        raise NotACharacterError(f"multiplicity {coeffs[bad][0]} is not a nonnegative integer")
    n = n.T.astype(np.int64)
    return n if chi.values.ndim == 2 else n[0]


def built_stabilizer(ext, stabilizing, Z: SubspaceBasis) -> Stabilizer:
    """The Stabilizer of `stabilizing` with Z built on its orthonormal basis:
    subalgebra_data, wedderburn on the frame Z.matrix, B's coordinates in Z
    by least squares and both restriction tables."""
    inc = ext.inc
    z_alg = subalgebra_data(ext.A, Z, labels=[f"z{i}" for i in range(Z.dim)])
    z_dec = repcalc.wedderburn(z_alg, seed=ext.seed, frame=Z.matrix)
    b_in_z, resid = linalg.lstsq_coords(Z.matrix, np.asarray(inc.embedding, complex))
    require(resid, TOL_ALG, ConsistencyError, "B does not sit inside Z numerically")
    b_inc = HopfInclusion(small=inc.small, big=z_alg, embedding=b_in_z)
    z_inc = HopfInclusion(small=z_alg, big=ext.A, embedding=Z.matrix)
    return Stabilizer(stabilizing=list(stabilizing), Z=Z, z_alg=z_alg, z_dec=z_dec,
                      b_in_z=b_in_z, b_inc=b_inc, z_inc=z_inc,
                      table_bz=repcalc.restriction_table(b_inc, ext.dec_b, z_dec),
                      table_za=repcalc.restriction_table(z_inc, z_dec, ext.dec_a))
