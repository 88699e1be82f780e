"""Independent, slower forms of three clifford kernels, kept as test references.

`conjugate_module` twists W (x) M by an explicit module of the dual, built
from a subcoalgebra by `subcoalgebra_as_dual_module`; its character is the
reference for `clifford.conjugation_matrices`.  `conjugation_matrices`
forms the dense products S(e_p) b_m and multiplies Delta(d)^T by them for
each d, the per-character formula the COO joins of
`clifford.conjugation_matrices` replace.  `graded_tensor_character` solves
A_f (x)_B M for one component at a time, with np.kron; it is the reference
for the batched `clifford.graded_tensor_characters`.
"""

import numpy as np

from hopfclifford import linalg
from hopfclifford.errors import ConsistencyError, PreconditionError
from hopfclifford.hopf import HopfAlgebraData, HopfInclusion, SubspaceBasis, dual_hopf
from hopfclifford.linalg import TOL_ALG, TOL_MATCH, max_abs, require
from hopfclifford.repcalc import Character, ExplicitModule


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
