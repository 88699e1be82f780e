"""Finite-dimensional Hopf algebras as structure-constant tensors.

Conventions, for an algebra of dimension d with basis e_0..e_{d-1}:

    mult[i, j, k]    coefficient of e_k in e_i * e_j
    unit[k]          coefficients of the unit element
    comult[k, i, j]  coefficient of e_i (x) e_j in Delta(e_k)
    counit[k]        value of the counit on e_k
    antipode[p, i]   coefficient of e_p in S(e_i), i.e. columns are images

Scalars are complex double precision; every constructor here produces exact
0/1 entries, so axiom residuals measure only solver error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import (ConsistencyError, NoAntipodeError, NormalityError,
                     PreconditionError)
from .groups import FiniteGroup, MatchedPair, verify_matched_pair

TOL_ALG = 1e-8


class AlgebraData:
    """Associative unital algebra given by structure constants."""

    def __init__(self, mult, unit, labels: Optional[Sequence[str]] = None):
        self.mult = np.ascontiguousarray(mult, dtype=complex)
        self.unit = np.ascontiguousarray(unit, dtype=complex)
        self.dim = int(self.unit.shape[0])
        if self.mult.shape != (self.dim,) * 3:
            raise ValueError("mult tensor shape mismatch")
        self.labels = list(labels) if labels is not None else [f"e{i}" for i in range(self.dim)]

    def products(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """All pairwise products: out[:, a, b] = U[:, a] * V[:, b], shape (d, |U|, |V|)."""
        d = self.dim
        U, V = np.asarray(U, complex), np.asarray(V, complex)
        T = (U.T @ self.mult.reshape(d, d * d)).reshape(-1, d, d)   # T[a, j] = U[:, a] * e_j
        out = V.T @ T.transpose(1, 0, 2).reshape(d, -1)              # out[b, (a, k)]
        return out.reshape(V.shape[1], U.shape[1], d).transpose(2, 1, 0)

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.left_mult_matrix(x) @ y

    def left_mult_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix L with L @ y = x * y."""
        d = self.dim
        return (np.asarray(x, complex) @ self.mult.reshape(d, d * d)).reshape(d, d).T

    def right_mult_matrix(self, y: np.ndarray) -> np.ndarray:
        """Matrix R with R @ x = x * y."""
        return (np.asarray(y, complex) @ self.mult).T

    def regular_trace_vector(self) -> np.ndarray:
        """tr of left multiplication by each basis element."""
        return np.einsum("ijj->i", self.mult, optimize=True)


class HopfAlgebraData(AlgebraData):
    """Hopf algebra structure constants; antipode may stay unset until solved."""

    def __init__(self, mult, unit, comult, counit,
                 labels: Optional[Sequence[str]] = None,
                 antipode: Optional[np.ndarray] = None):
        super().__init__(mult, unit, labels=labels)
        self.comult = np.ascontiguousarray(comult, dtype=complex)
        self.counit = np.ascontiguousarray(counit, dtype=complex)
        if self.comult.shape != (self.dim,) * 3 or self.counit.shape != (self.dim,):
            raise ValueError("coalgebra tensor shape mismatch")
        self.antipode = None if antipode is None else np.asarray(antipode, dtype=complex)

    def apply_comult(self, x: np.ndarray) -> np.ndarray:
        """Delta(x) as a (d, d) coefficient matrix over e_i (x) e_j; (n, d, d) for rows x."""
        return np.tensordot(np.asarray(x, complex), self.comult, axes=1)

    def is_group_like_basis(self, tol: float = TOL_ALG) -> bool:
        """True iff every basis element is group-like with counit one."""
        expect = np.zeros_like(self.comult)
        for k in range(self.dim):
            expect[k, k, k] = 1.0
        return (float(np.max(np.abs(self.comult - expect))) < tol
                and float(np.max(np.abs(self.counit - 1.0))) < tol)

    def is_commutative(self, tol: float = TOL_ALG) -> bool:
        return float(np.max(np.abs(self.mult - self.mult.transpose(1, 0, 2)))) < tol

    def is_cocommutative(self, tol: float = TOL_ALG) -> bool:
        return float(np.max(np.abs(self.comult - self.comult.transpose(0, 2, 1)))) < tol

    def to_json_dict(self, digits: int = 10) -> dict:
        def triples(t):
            out = []
            for idx in np.argwhere(np.abs(t) > 10.0 ** (-digits)):
                v = t[tuple(idx)]
                out.append([int(idx[0]), int(idx[1]), int(idx[2]),
                            linalg.round_for_json(v.real, digits),
                            linalg.round_for_json(v.imag, digits)])
            return out

        def vec(v):
            return [[linalg.round_for_json(x.real, digits),
                     linalg.round_for_json(x.imag, digits)] for x in v]

        data = {
            "dim": self.dim,
            "basis_labels": list(self.labels),
            "mult": triples(self.mult),
            "comult": triples(self.comult),
            "unit": vec(self.unit),
            "counit": vec(self.counit),
            "antipode": None if self.antipode is None else [vec(row) for row in self.antipode],
        }
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "HopfAlgebraData":
        d = int(data["dim"])

        def tensor(triple_list):
            t = np.zeros((d, d, d), dtype=complex)
            for i, j, k, re, im in triple_list:
                t[i, j, k] = re + 1j * im
            return t

        def vec(pairs):
            return np.array([re + 1j * im for re, im in pairs], dtype=complex)

        antipode = None
        if data.get("antipode") is not None:
            antipode = np.array([[re + 1j * im for re, im in row]
                                 for row in data["antipode"]], dtype=complex)
        return cls(tensor(data["mult"]), vec(data["unit"]),
                   tensor(data["comult"]), vec(data["counit"]),
                   labels=data.get("basis_labels"), antipode=antipode)


@dataclass
class SubspaceBasis:
    """Subspace of an algebra, stored as orthonormal columns."""

    parent: AlgebraData
    matrix: np.ndarray

    @classmethod
    def from_vectors(cls, parent: AlgebraData, vectors: np.ndarray) -> "SubspaceBasis":
        return cls(parent, linalg.orthonormal_columns(np.asarray(vectors, complex)))

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def contains(self, other: "SubspaceBasis", tol: float = TOL_ALG) -> bool:
        return linalg.contains_vectors(self.matrix, other.matrix, tol)

    def equals(self, other: "SubspaceBasis", tol: float = TOL_ALG) -> bool:
        return linalg.subspace_equal(self.matrix, other.matrix, tol)


@dataclass
class HopfInclusion:
    """Injective map small -> big, columns of `embedding` are basis images."""

    small: AlgebraData
    big: AlgebraData
    embedding: np.ndarray


@dataclass
class HopfSurjection:
    """Surjective map source -> target given by `matrix` (target_dim x source_dim)."""

    source: AlgebraData
    target: AlgebraData
    matrix: np.ndarray


# ---------------------------------------------------------------------------
# constructors

def group_algebra(G: FiniteGroup) -> HopfAlgebraData:
    """kG: basis the group, Delta(g) = g (x) g, S(g) = g^{-1}."""
    n = G.order
    mult = np.zeros((n, n, n), dtype=complex)
    comult = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        comult[i, i, i] = 1.0
        for j in range(n):
            mult[i, j, G.cayley[i, j]] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[0] = 1.0
    counit = np.ones(n, dtype=complex)
    A = HopfAlgebraData(mult, unit, comult, counit, labels=list(G.labels))
    return _with_checked_antipode(A, np.eye(n, dtype=complex)[:, G.inverse], "g -> g^{-1}")


def dual_group_algebra(G: FiniteGroup) -> HopfAlgebraData:
    """k^G: orthogonal idempotents delta_g, Delta(delta_g) = sum_{st=g} delta_s (x) delta_t."""
    n = G.order
    mult = np.zeros((n, n, n), dtype=complex)
    comult = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        mult[i, i, i] = 1.0
        for j in range(n):
            comult[G.cayley[i, j], i, j] = 1.0
    unit = np.ones(n, dtype=complex)
    counit = np.zeros(n, dtype=complex)
    counit[0] = 1.0
    labels = [f"d({lbl})" for lbl in G.labels]
    A = HopfAlgebraData(mult, unit, comult, counit, labels=labels)
    return _with_checked_antipode(A, np.eye(n, dtype=complex)[:, G.inverse],
                                  "delta_g -> delta_{g^{-1}}")


def _with_checked_antipode(A: HopfAlgebraData, S: np.ndarray,
                           formula: str) -> HopfAlgebraData:
    """Set a closed-form antipode once it passes the antipode axioms."""
    res = antipode_residuals(A, S)
    if max(res.values()) > TOL_ALG:
        raise ConsistencyError(f"closed-form antipode {formula} fails the axioms: {res}")
    A.antipode = S
    return A


def dual_hopf(A: HopfAlgebraData) -> HopfAlgebraData:
    """Dual Hopf algebra on the dual basis: transpose every structure tensor."""
    if A.antipode is None:
        raise PreconditionError("dual_hopf needs the antipode")
    mult = A.comult.transpose(1, 2, 0)
    comult = A.mult.transpose(2, 0, 1)
    labels = [f"{lbl}^" for lbl in A.labels]
    return HopfAlgebraData(mult, A.counit.copy(), comult, A.unit.copy(),
                           labels=labels, antipode=A.antipode.T.copy())


def solve_antipode(A: HopfAlgebraData, tol: float = TOL_ALG) -> np.ndarray:
    """Solve sum S(a_1) a_2 = eps(a) 1 for the antipode matrix.

    Verifies the right convolution law and S o S = id afterwards, both of
    which must hold in the semisimple characteristic-zero setting.
    """
    d = A.dim
    # coefficient of unknown S[p, i] in equation (k, q)
    K = np.einsum("kij,pjq->kqpi", A.comult, A.mult, optimize=True).reshape(d * d, d * d)
    rhs = np.outer(A.counit, A.unit).reshape(d * d)
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoAntipodeError(f"antipode system is singular: {exc}") from exc
    if float(np.max(np.abs(K @ sol - rhs))) > tol:
        raise NoAntipodeError("antipode system has no solution within tolerance")
    S = sol.reshape(d, d)
    res = antipode_residuals(A, S)
    if res["antipode_right"] > tol:
        raise ConsistencyError("left antipode fails the right convolution law")
    if res["antipode_squared"] > tol:
        raise ConsistencyError("S^2 is not the identity")
    return S


def antipode_residuals(A: HopfAlgebraData, S: np.ndarray) -> dict[str, float]:
    """Max residuals of S(a_1) a_2 = eps(a) 1 = a_1 S(a_2) and of S^2 = id."""
    d = A.dim
    eye = np.eye(d)
    D = A.comult.reshape(d, d * d)
    target = np.outer(A.counit, A.unit)
    left = D @ A.products(S, eye).reshape(d, d * d).T     # [k, q]: sum S(e_i) e_j
    right = D @ A.products(eye, S).reshape(d, d * d).T    # [k, q]: sum e_i S(e_j)
    return {"antipode_left": float(np.max(np.abs(left - target))),
            "antipode_right": float(np.max(np.abs(right - target))),
            "antipode_squared": float(np.max(np.abs(S @ S - eye)))}


@dataclass
class BismashResult:
    algebra: HopfAlgebraData
    b_inclusion: HopfInclusion
    pi: HopfSurjection
    pair: MatchedPair
    quotient: HopfSurjection           # the generic A -> A/AB+ it was checked against


def bismash(mp: MatchedPair) -> BismashResult:
    """Smash product and coproduct k^G # kF of a matched pair.

    Basis delta_g x with (delta_g x)(delta_h y) = [g <| x = h] delta_g (xy)
    and Delta(delta_g x) = sum_{st=g} delta_s (t |> x) (x) delta_t x.
    The k^G factor embeds as span{delta_g 1}; the projection sends
    delta_g x to [g = 1] x and is cross-checked against the quotient
    construction.  The antipode is S(delta_g x) = delta_{(g<|x)^{-1}} (g|>x)^{-1}.
    """
    rep = verify_matched_pair(mp)
    if not rep.ok:
        raise PreconditionError(
            "matched pair fails verification: " + "; ".join(rep.violations[:3]))
    F, G = mp.f_group, mp.g_group
    nF, nG = F.order, G.order
    d = nF * nG

    def bi(g: int, x: int) -> int:
        return g * nF + x

    mult = np.zeros((d, d, d), dtype=complex)
    comult = np.zeros((d, d, d), dtype=complex)
    counit = np.zeros(d, dtype=complex)
    unit = np.zeros(d, dtype=complex)
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
    labels = [f"d({G.labels[g]})*{F.labels[x]}" for g in range(nG) for x in range(nF)]
    A = _with_checked_antipode(HopfAlgebraData(mult, unit, comult, counit, labels=labels),
                               S, "delta_g x -> delta_{(g<|x)^{-1}} (g|>x)^{-1}")

    kG = dual_group_algebra(G)
    embed = np.zeros((d, nG), dtype=complex)
    for g in range(nG):
        embed[bi(g, 0), g] = 1.0
    inc = HopfInclusion(small=kG, big=A, embedding=embed)
    rep_inc = hopf_map_residual(kG, A, embed)
    if rep_inc > TOL_ALG:
        raise ConsistencyError(f"k^G embedding fails Hopf-map checks ({rep_inc:.2e})")

    kF = group_algebra(F)
    piM = np.zeros((nF, d), dtype=complex)
    for x in range(nF):
        piM[x, bi(0, x)] = 1.0
    pi = HopfSurjection(source=A, target=kF, matrix=piM)
    rep_pi = hopf_map_residual(A, kF, piM)
    if rep_pi > TOL_ALG:
        raise ConsistencyError(f"projection onto kF fails Hopf-map checks ({rep_pi:.2e})")

    return BismashResult(algebra=A, b_inclusion=inc, pi=pi, pair=mp,
                         quotient=_crosscheck_bismash_quotient(A, inc, pi))


def _crosscheck_bismash_quotient(A: HopfAlgebraData, inc: HopfInclusion,
                                 pi: HopfSurjection) -> HopfSurjection:
    """The closed-form projection must agree with the generic quotient, which is returned."""
    Bsub = SubspaceBasis.from_vectors(A, inc.embedding)
    Hq, pi_q = quotient_hopf(A, Bsub)
    # transport the quotient onto the closed form through any linear section
    section = np.linalg.pinv(pi_q.matrix)
    phi = pi.matrix @ section
    if float(np.max(np.abs(phi @ pi_q.matrix - pi.matrix))) > 1e-7:
        raise ConsistencyError("closed-form projection does not factor through the quotient")
    if np.linalg.matrix_rank(phi) != Hq.dim:
        raise ConsistencyError("quotient and closed-form projections have different ranks")
    resid = hopf_map_residual(Hq, pi.target, phi)
    if resid > 1e-7:
        raise ConsistencyError(
            f"quotient is not isomorphic to kF via the closed form ({resid:.2e})")
    return pi_q


# ---------------------------------------------------------------------------
# axiom verification

@dataclass
class AxiomReport:
    residuals: dict[str, float]
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_residual < self.tol

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def failing(self) -> list[str]:
        return [k for k, v in self.residuals.items() if v >= self.tol]


def verify_hopf_axioms(A: HopfAlgebraData, tol: float = TOL_ALG) -> AxiomReport:
    """Residual per axiom: associativity through S^2 = id."""
    M, D = A.mult, A.comult
    d = A.dim
    res: dict[str, float] = {}

    assoc = np.einsum("ijp,pkq->ijkq", M, M, optimize=True) - np.einsum("jkp,ipq->ijkq", M, M, optimize=True)
    res["associativity"] = float(np.max(np.abs(assoc)))
    eye = np.eye(d)
    res["unit"] = max(
        float(np.max(np.abs(np.einsum("i,ijk->jk", A.unit, M, optimize=True) - eye))),
        float(np.max(np.abs(np.einsum("j,ijk->ik", A.unit, M, optimize=True) - eye))))

    coassoc = np.einsum("kij,iab->kabj", D, D, optimize=True) - np.einsum("kij,jab->kiab", D, D, optimize=True)
    res["coassociativity"] = float(np.max(np.abs(coassoc)))
    res["counit"] = max(
        float(np.max(np.abs(np.einsum("kij,i->kj", D, A.counit, optimize=True) - eye))),
        float(np.max(np.abs(np.einsum("kij,j->ki", D, A.counit, optimize=True) - eye))))

    # Delta and eps are algebra maps
    lhs = np.einsum("ijp,pab->ijab", M, D, optimize=True)
    x = np.einsum("iab,acu->ibcu", D, M, optimize=True)
    y = np.einsum("jcd,bdv->jcbv", D, M, optimize=True)
    rhs = np.einsum("ibcu,jcbv->ijuv", x, y, optimize=True)
    res["bialgebra_mult"] = float(np.max(np.abs(lhs - rhs)))
    res["bialgebra_counit"] = float(np.max(np.abs(
        np.einsum("ijp,p->ij", M, A.counit, optimize=True) - np.outer(A.counit, A.counit))))
    res["bialgebra_unit"] = max(
        float(np.max(np.abs(np.einsum("k,kij->ij", A.unit, D, optimize=True) - np.outer(A.unit, A.unit)))),
        abs(complex(A.counit @ A.unit) - 1.0))

    if A.antipode is not None:
        res.update(antipode_residuals(A, A.antipode))
    return AxiomReport(residuals=res, tol=tol)


# ---------------------------------------------------------------------------
# subspace calculus

def is_hopf_subalgebra(A: HopfAlgebraData, V: SubspaceBasis, tol: float = TOL_ALG) -> bool:
    """1 in V, V closed under product, Delta(V) in V (x) V, S(V) in V."""
    if A.antipode is None:
        raise PreconditionError("is_hopf_subalgebra needs the antipode")
    Vb = V.matrix
    P = Vb @ Vb.conj().T
    if np.linalg.norm(A.unit - P @ A.unit) >= tol:
        return False
    if not linalg.contains_vectors(Vb, A.products(Vb, Vb).reshape(A.dim, -1), tol):
        return False
    # Delta(v) in V (x) V iff P Delta(v) P^T = Delta(v), P the projector onto V
    coprods = A.apply_comult(Vb.T)
    if np.max(np.linalg.norm(coprods - P @ coprods @ P.T, axis=(1, 2))) >= tol:
        return False
    if not linalg.contains_vectors(Vb, A.antipode @ Vb, tol):
        return False
    return True


def is_normal_hopf_subalgebra(A: HopfAlgebraData, B: SubspaceBasis,
                              tol: float = TOL_ALG) -> bool:
    """True iff a_1 b S(a_2) stays in span(B) for all basis a and b in B."""
    if not is_hopf_subalgebra(A, B, tol):
        raise PreconditionError("B is not a Hopf subalgebra")
    d, k = A.dim, B.dim
    pb = A.products(np.eye(d), B.matrix).reshape(d, d * k)                # e_p b_c
    sand = A.products(pb, A.antipode).reshape(d, d, k, d)                 # e_p b_c S(e_q)
    w = A.comult.reshape(d, d * d) @ sand.transpose(1, 3, 2, 0).reshape(d * d, k * d)
    return linalg.contains_vectors(B.matrix, w.reshape(d * k, d).T, tol)  # a_1 b_c S(a_2)


def subspace_product(U: SubspaceBasis, V: SubspaceBasis) -> SubspaceBasis:
    """Span of all pairwise products of the two subspaces."""
    if U.parent is not V.parent:
        raise PreconditionError("subspaces live in different algebras")
    A = U.parent
    return SubspaceBasis.from_vectors(A, A.products(U.matrix, V.matrix).reshape(A.dim, -1))


def coefficient_space(A: HopfAlgebraData, d_vec: np.ndarray,
                      tol: float = TOL_ALG) -> SubspaceBasis:
    """Simple subcoalgebra spanned by the matrix coefficients of d.

    d is an irreducible character of the dual, given as an element of A;
    the result has dimension eps(d)^2.
    """
    d_vec = np.asarray(d_vec, complex)
    spans = np.einsum("k,kpq->qp", d_vec, A.comult, optimize=True)
    sub = SubspaceBasis.from_vectors(A, spans)
    deg = complex(A.counit @ d_vec)
    expected = int(round(deg.real)) ** 2
    if abs(deg.imag) > tol or abs(deg.real - round(deg.real)) > 1e-6 or sub.dim != expected:
        raise PreconditionError(
            f"not an irreducible dual character: dim {sub.dim} != eps(d)^2 = {expected}")
    return sub


def comodule_map_rho(A: HopfAlgebraData, pi: HopfSurjection) -> np.ndarray:
    """rho = (id (x) pi) Delta as a (dim*dim_H, dim) matrix, row index p*dim_H + f."""
    piM = pi.matrix
    h = piM.shape[0]
    rho = np.einsum("kpq,fq->pfk", A.comult, piM, optimize=True)
    return rho.reshape(A.dim * h, A.dim)


def graded_component(A: HopfAlgebraData, pi: HopfSurjection, f: int,
                     tol: float = TOL_ALG) -> SubspaceBasis:
    """A_f = rho^{-1}(A (x) kf) for a group-algebra quotient kF."""
    target = pi.target
    if not isinstance(target, HopfAlgebraData) or not target.is_group_like_basis(tol):
        raise PreconditionError("quotient is not a group algebra on its basis")
    h = target.dim
    rho = comodule_map_rho(A, pi).reshape(A.dim, h, A.dim)
    rows = rho[:, [x for x in range(h) if x != f], :].reshape(-1, A.dim)
    return SubspaceBasis(A, linalg.null_space(rows))


def is_cocentral(A: HopfAlgebraData, pi: HopfSurjection, tol: float = TOL_ALG) -> bool:
    """Check pi(a_1) (x) a_2 = pi(a_2) (x) a_1 on every basis element."""
    piM = pi.matrix
    t1 = np.einsum("kpq,fp->kfq", A.comult, piM, optimize=True)
    t2 = np.einsum("kpq,fq->kfp", A.comult, piM, optimize=True)
    return float(np.max(np.abs(t1 - t2))) < tol


# ---------------------------------------------------------------------------
# quotients and structure maps

def quotient_hopf(A: HopfAlgebraData, B: SubspaceBasis,
                  tol: float = TOL_ALG) -> tuple[HopfAlgebraData, HopfSurjection]:
    """Quotient by the ideal A B+ where B+ = B intersect ker(eps)."""
    if not is_normal_hopf_subalgebra(A, B, tol):
        raise NormalityError("quotient requires a normal Hopf subalgebra")
    eps_on_b = (A.counit @ B.matrix)[None, :]
    bplus_coords = linalg.null_space(eps_on_b)
    bplus = B.matrix @ bplus_coords
    eye = np.eye(A.dim)
    # columns e_i b_j, ordered by j then i
    ideal = linalg.orthonormal_columns(
        A.products(eye, bplus).transpose(0, 2, 1).reshape(A.dim, -1))
    if not linalg.contains_vectors(ideal, A.products(bplus, eye).reshape(A.dim, -1), tol):
        raise ConsistencyError("A B+ is not a two-sided ideal")
    comp = linalg.null_space(ideal.conj().T)
    piM = comp.conj().T
    h = comp.shape[1]
    mult = (piM @ A.products(comp, comp).reshape(A.dim, -1)).reshape(h, h, h).transpose(1, 2, 0)
    unit = piM @ A.unit
    comult = piM @ A.apply_comult(comp.T) @ piM.T
    counit = A.counit @ comp
    H = HopfAlgebraData(mult, unit, comult, counit,
                        labels=[f"h{i}" for i in range(h)])
    H.antipode = solve_antipode(H)
    rep = verify_hopf_axioms(H, tol=max(tol, 1e-7))
    if not rep.ok:
        raise ConsistencyError(
            f"induced quotient structure fails axioms: {rep.failing()}")
    resid = hopf_map_residual(A, H, piM)
    if resid > 1e-7:
        raise ConsistencyError(f"quotient projection is not a Hopf map ({resid:.2e})")
    return H, HopfSurjection(source=A, target=H, matrix=piM)


def hopf_map_residual(src: HopfAlgebraData, dst: HopfAlgebraData,
                      phi: np.ndarray) -> float:
    """Max residual of phi: src -> dst being a Hopf map of full rank.

    Returns inf when phi is neither injective nor surjective; otherwise
    the worst of the mult, unit, comult and counit residuals, and of the
    antipode residual when both sides carry an antipode.
    """
    phi = np.asarray(phi, complex)
    if np.linalg.matrix_rank(phi) != min(phi.shape):
        return float("inf")
    push = np.einsum("ijk,ak->ija", src.mult, phi, optimize=True)
    pull = np.einsum("ai,bj,abc->ijc", phi, phi, dst.mult, optimize=True)
    r = float(np.max(np.abs(push - pull)))
    r = max(r, float(np.max(np.abs(phi @ src.unit - dst.unit))))
    push = np.einsum("kij,ai,bj->kab", src.comult, phi, phi, optimize=True)
    pull = np.einsum("ak,abc->kbc", phi, dst.comult, optimize=True)
    r = max(r, float(np.max(np.abs(push - pull))))
    r = max(r, float(np.max(np.abs(dst.counit @ phi - src.counit))))
    if src.antipode is not None and dst.antipode is not None:
        r = max(r, float(np.max(np.abs(phi @ src.antipode - dst.antipode @ phi))))
    return r


def subalgebra_data(A: AlgebraData, basis: SubspaceBasis,
                    tol: float = TOL_ALG,
                    labels: Optional[Sequence[str]] = None) -> AlgebraData:
    """Algebra structure induced on a unital subalgebra (orthonormal basis)."""
    Vb = basis.matrix
    k = Vb.shape[1]
    proj = Vb.conj().T
    prods = A.products(Vb, Vb).reshape(A.dim, k * k)
    coords = proj @ prods
    if float(np.max(np.abs(Vb @ coords - prods))) > tol:
        raise PreconditionError("subspace is not closed under multiplication")
    mult = coords.reshape(k, k, k).transpose(1, 2, 0)
    unit = proj @ A.unit
    if float(np.max(np.abs(Vb @ unit - A.unit))) > tol:
        raise PreconditionError("subspace does not contain the unit")
    return AlgebraData(mult, unit, labels=labels)
