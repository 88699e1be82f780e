"""Clifford theory across a normal Hopf subalgebra B of A.

An Extension holds A, B and everything derived from the pair once: the
decompositions, the matched equivalence classes of Irr(A) and Irr(B) with
class sums and restriction table, and the conjugation matrix C_d of each
irreducible dual character d.  Pipeline per irreducible B-character alpha:

  * the stabilizer Hopf subalgebra Z built from dual characters d
    with conjugate character  alpha C_d = eps(d) alpha,
  * the dimension bound |Z| <= |A| alpha(1)^2 / b_i(1) together with the
    socle multiplicity test, and the direct check that induction from Z
    is a bijection onto the class of alpha,
  * for group-algebra quotients kF, the graded picture: components A_f,
    the stabilizer subgroup H of the orbit action A_f (x)_B M, and
    S = A(H), with the criterion "correspondence holds iff Z = S iff
    S is a Hopf subalgebra".

Cross-checks between the independent criteria raise TheoremViolationError
on mismatch since any mismatch means an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .errors import (ConsistencyError, NormalityError, PreconditionError,
                     TheoremViolationError)
from .groups import FiniteGroup, MatchedPair, orbit_and_stabilizer
from .hopf import (TOL_ALG, HopfAlgebraData, HopfInclusion, HopfSurjection,
                   SubspaceBasis, coefficient_space, dual_hopf,
                   graded_component, is_cocentral, is_hopf_subalgebra,
                   quotient_hopf, subalgebra_data, subspace_product)
from .repcalc import (Character, DEFAULT_SEED, ExplicitModule,
                      SemisimpleDecomposition, as_group_algebra_surjection,
                      construct_irreducible_module, decompose,
                      induce_character, restrict_character, restriction_table,
                      wedderburn)

TOL_MATCH = 1e-6


# ---------------------------------------------------------------------------
# the per-scenario context

class Extension:
    """A normal Hopf subalgebra B of A with everything derived from the pair.

    Each derived object is built on first use and kept: the dual A*, the
    Wedderburn decompositions of A, B and A*, the quotient A/AB+ (the one
    normality test of B), the equivalence classes with their restriction
    table, the group-algebra quotient kF with its graded components and
    their B-bimodule matrices, and the conjugation matrix of every
    irreducible dual character.  Bismash products give `piF`, `F` and the
    A/AB+ `pi_q` they were checked against; otherwise A/AB+ is built and
    recognized as kF when it is one.
    """

    def __init__(self, A: HopfAlgebraData, inc: HopfInclusion,
                 seed: int = DEFAULT_SEED,
                 piF: Optional[HopfSurjection] = None,
                 F: Optional[FiniteGroup] = None,
                 mp: Optional[MatchedPair] = None,
                 pi_q: Optional[HopfSurjection] = None):
        self.A = A
        self.inc = inc
        self.seed = seed
        self.mp = mp
        self._given_quotient = (piF, F)
        if pi_q is not None:
            self.generic_quotient = pi_q

    @cached_property
    def dual(self) -> HopfAlgebraData:
        return dual_hopf(self.A)

    @cached_property
    def dec_a(self) -> SemisimpleDecomposition:
        return wedderburn(self.A, seed=self.seed)

    @cached_property
    def dec_b(self) -> SemisimpleDecomposition:
        return wedderburn(self.inc.small, seed=self.seed)

    @cached_property
    def dec_dual(self) -> SemisimpleDecomposition:
        return wedderburn(self.dual, seed=self.seed)

    @cached_property
    def b_sub(self) -> SubspaceBasis:
        return SubspaceBasis.from_vectors(self.A, self.inc.embedding)

    @cached_property
    def ecd(self) -> "EquivalenceClassData":
        return equivalence_classes(self)

    @cached_property
    def generic_quotient(self) -> HopfSurjection:
        """A -> A/AB+; raises NormalityError unless B is normal in A."""
        return quotient_hopf(self.A, self.b_sub)[1]

    @cached_property
    def quotient(self) -> tuple[Optional[HopfSurjection], Optional[FiniteGroup]]:
        """(piF, F) for a quotient A -> kF, or (None, None) if A/AB+ is no group algebra."""
        if self._given_quotient[0] is not None:
            return self._given_quotient
        found = as_group_algebra_surjection(self.generic_quotient, seed=self.seed)
        return (None, None) if found is None else (found[1], found[0])

    @property
    def piF(self) -> Optional[HopfSurjection]:
        return self.quotient[0]

    @property
    def F(self) -> Optional[FiniteGroup]:
        return self.quotient[1]

    @cached_property
    def components(self) -> Optional[list[SubspaceBasis]]:
        """Graded components A_f, f in F; None without a kF quotient."""
        if self.piF is None:
            return None
        return [graded_component(self.A, self.piF, f) for f in range(self.F.order)]

    @cached_property
    def bimodules(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """B-bimodule matrices of each graded component A_f (see component_bimodule)."""
        return [component_bimodule(self.A, self.inc, comp) for comp in self.components]

    @cached_property
    def cocentral(self) -> Optional[bool]:
        return None if self.piF is None else is_cocentral(self.A, self.piF)

    @cached_property
    def coefficient_spaces(self) -> list[SubspaceBasis]:
        """Simple subcoalgebra of each irreducible dual character."""
        return [coefficient_space(self.A, d.values) for d in self.dec_dual.irr]

    @cached_property
    def conjugation(self) -> list[np.ndarray]:
        """C_d for each irreducible dual character d: alpha o conj_d = alpha C_d."""
        return [conjugation_matrix(self.A, self.inc, d.values)
                for d in self.dec_dual.irr]

    @cached_property
    def supports(self) -> list[Optional[int]]:
        """B-basis index of each irreducible B-character that is a 0/1 indicator, else None."""
        out: list[Optional[int]] = []
        for ch in self.dec_b.irr:
            k = int(np.argmax(np.abs(ch.values)))
            indicator = np.eye(len(ch.values))[k]
            out.append(k if float(np.max(np.abs(ch.values - indicator))) < TOL_ALG else None)
        return out

    @cached_property
    def alpha_labels(self) -> list[str]:
        """Group-element label of each indicator character, else chiK."""
        labels = []
        for k, sup in enumerate(self.supports):
            if sup is None:
                labels.append(f"chi{k}")
            elif self.mp is not None:
                labels.append(self.mp.g_group.labels[sup])
            else:
                labels.append(self.inc.small.labels[sup])
        return labels


# ---------------------------------------------------------------------------
# equivalence classes of irreducible characters

@dataclass
class EquivalenceClassData:
    a_classes: list[tuple[int, ...]]
    b_classes: list[tuple[int, ...]]
    a_sums: list[Character]
    b_sums: list[Character]
    restriction_table: np.ndarray  # [chi index, alpha index] multiplicities

    @property
    def num_classes(self) -> int:
        return len(self.a_classes)

    def class_of_alpha(self, alpha_index: int) -> int:
        for i, cls in enumerate(self.b_classes):
            if alpha_index in cls:
                return i
        raise ValueError(f"alpha index {alpha_index} not in any class")


def equivalence_classes(ext: Extension) -> EquivalenceClassData:
    """Matched partitions of Irr(A) and Irr(B) from the restriction graph."""
    A, inc, dec_a, dec_b = ext.A, ext.inc, ext.dec_a, ext.dec_b
    ext.generic_quotient  # raises NormalityError unless B is normal in A
    na, nb = len(dec_a.irr), len(dec_b.irr)
    table = restriction_table(inc, dec_b, dec_a)

    # connected components of the bipartite support graph
    a_comp = [-1] * na
    b_comp = [-1] * nb
    comp = 0
    for start in range(na):
        if a_comp[start] != -1:
            continue
        stack_a, stack_b = [start], []
        a_comp[start] = comp
        while stack_a or stack_b:
            if stack_a:
                c = stack_a.pop()
                for k in range(nb):
                    if table[c, k] > 0 and b_comp[k] == -1:
                        b_comp[k] = comp
                        stack_b.append(k)
            else:
                k = stack_b.pop()
                for c in range(na):
                    if table[c, k] > 0 and a_comp[c] == -1:
                        a_comp[c] = comp
                        stack_a.append(c)
        comp += 1
    if -1 in b_comp:
        raise ConsistencyError("some irreducible B-character misses every restriction")

    a_classes = [tuple(c for c in range(na) if a_comp[c] == i) for i in range(comp)]
    b_classes = [tuple(k for k in range(nb) if b_comp[k] == i) for i in range(comp)]
    for i in range(comp):
        for c in a_classes[i]:
            for k in b_classes[i]:
                if table[c, k] == 0:
                    raise NormalityError(
                        "restriction blocks are not complete bipartite; "
                        "B cannot be normal in A")

    a_sums, b_sums = [], []
    ratio = Fraction(A.dim, inc.small.dim)
    for i in range(comp):
        a_sum = Character(A, sum(dec_a.irr[c].degree * dec_a.irr[c].values
                                 for c in a_classes[i]))
        b_sum = Character(inc.small, sum(dec_b.irr[k].degree * dec_b.irr[k].values
                                         for k in b_classes[i]))
        if Fraction(a_sum.degree) != ratio * b_sum.degree:
            raise ConsistencyError("class sum degrees violate the index ratio")
        a_sums.append(a_sum)
        b_sums.append(b_sum)
    return EquivalenceClassData(a_classes=a_classes, b_classes=b_classes,
                                a_sums=a_sums, b_sums=b_sums,
                                restriction_table=table)


def verify_class_formulas(ext: Extension) -> dict[str, float]:
    """Residuals of the three restriction/induction proportionality identities."""
    ecd, inc, dec_a, dec_b = ext.ecd, ext.inc, ext.dec_a, ext.dec_b
    A, B = inc.big, inc.small
    s = Fraction(A.dim, B.dim)
    r_restrict = 0.0
    r_induce = 0.0
    r_class_sum = 0.0
    for i in range(ecd.num_classes):
        b_i = ecd.b_sums[i]
        a_i = ecd.a_sums[i]
        for c in ecd.a_classes[i]:
            chi = dec_a.irr[c]
            lhs = restrict_character(chi, inc).values / chi.degree
            rhs = b_i.values / b_i.degree
            r_restrict = max(r_restrict, float(np.max(np.abs(lhs - rhs))))
        for k in ecd.b_classes[i]:
            alpha = dec_b.irr[k]
            ind = induce_character(alpha, inc, dec_b, dec_a, ecd.restriction_table)
            lhs = ind.values / alpha.degree
            rhs = float(s) * a_i.values / a_i.degree
            r_induce = max(r_induce, float(np.max(np.abs(lhs - rhs))))
        lhs = restrict_character(a_i, inc).values
        rhs = float(s) * b_i.values
        r_class_sum = max(r_class_sum, float(np.max(np.abs(lhs - rhs))))
    return {"restriction_proportionality": r_restrict,
            "induction_proportionality": r_induce,
            "class_sum_restriction": r_class_sum}


# ---------------------------------------------------------------------------
# conjugate characters and modules

def conjugation_matrix(A: HopfAlgebraData, inc: HopfInclusion,
                       d_vec: np.ndarray, tol: float = TOL_ALG) -> np.ndarray:
    """C_d with C_d[j, m] the coordinate on b_j of S(d_1) b_m d_2.

    The conjugate of a B-character alpha by d, x -> alpha(S(d_1) x d_2),
    is the row vector alpha C_d; C_d does not depend on alpha.
    """
    E = np.asarray(inc.embedding, complex)
    X = A.apply_comult(np.asarray(d_vec, complex))
    S, M = A.antipode, A.mult
    # U[p, m, :] = S(e_p) * (m-th basis vector of B)
    U = np.einsum("rp,jm,rjk->pmk", S, E, M, optimize=True)
    W = np.einsum("pq,pma,aqk->mk", X, U, M, optimize=True)      # rows: S(d_1) b_m d_2
    coords, resid = linalg.lstsq_coords(E, W.T)
    if resid > tol * max(1.0, float(np.max(np.abs(W)))):
        raise ConsistencyError(
            f"conjugation left the subalgebra (residual {resid:.2e})")
    return coords


def subcoalgebra_as_dual_module(A: HopfAlgebraData, C: SubspaceBasis,
                                tol: float = TOL_ALG) -> ExplicitModule:
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
        if resid > tol:
            raise PreconditionError("subspace is not a subcoalgebra")
        mats.append(coords)
    return ExplicitModule(dual_hopf(A), mats)


def conjugate_module(A: HopfAlgebraData, inc: HopfInclusion,
                     W: ExplicitModule, M_mod: ExplicitModule,
                     tol: float = TOL_ALG) -> ExplicitModule:
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
        if resid > tol * max(1.0, float(np.max(np.abs(u)))):
            raise ConsistencyError("conjugate action leaves the subalgebra")
        cb = coords.T.reshape(u.shape[0], u.shape[1], E.shape[1])
        stack = np.stack(M_mod.matrices)
        act = np.einsum("abl,lij->aibj", cb, stack, optimize=True)
        n = act.shape[0] * act.shape[1]
        mats.append(act.reshape(n, n))
    out = ExplicitModule(M_mod.parent, mats)
    if out.verify() > 1e-6:
        raise ConsistencyError("conjugate module fails the multiplication table")
    return out


# ---------------------------------------------------------------------------
# the stabilizer Hopf subalgebra

@dataclass
class StabilizerResult:
    alpha_index: int
    alpha: Character
    stabilizing: list[int]             # indices into Irr(A^*)
    Z: SubspaceBasis
    dim_z: int
    z_alg: object                      # AlgebraData on the orthonormal basis of Z
    z_dec: SemisimpleDecomposition
    b_in_z: np.ndarray                 # embedding of B into Z coordinates
    b_inc: HopfInclusion               # B -> Z
    z_inc: HopfInclusion               # Z -> A
    table_bz: np.ndarray               # restriction table Irr(Z) x Irr(B)
    table_za: np.ndarray               # restriction table Irr(A) x Irr(Z)
    z_class: tuple[int, ...]           # indices of Irr(Z) lying over alpha
    psi_alpha: Character


def compute_stabilizer(ext: Extension, alpha_index: int) -> StabilizerResult:
    """Z = sum of the simple subcoalgebras whose dual characters fix alpha."""
    A, inc = ext.A, ext.inc
    alpha = ext.dec_b.irr[alpha_index]
    stabilizing = []
    expected_dim = 0
    for idx, (d, C) in enumerate(zip(ext.dec_dual.irr, ext.conjugation)):
        eps_d = d.degree
        if float(np.max(np.abs(alpha.values @ C - eps_d * alpha.values))) < TOL_MATCH:
            stabilizing.append(idx)
            expected_dim += eps_d * eps_d
    Z = SubspaceBasis.from_vectors(
        A, np.hstack([ext.coefficient_spaces[idx].matrix for idx in stabilizing]))
    if Z.dim != expected_dim:
        raise ConsistencyError(
            f"dim Z = {Z.dim} but the stabilizing degrees predict {expected_dim}")
    if not Z.contains(ext.b_sub):
        raise ConsistencyError("Z does not contain B")
    if not is_hopf_subalgebra(A, Z):
        raise ConsistencyError("stabilizing subcoalgebras do not close into a Hopf subalgebra")

    z_alg = subalgebra_data(A, Z, labels=[f"z{i}" for i in range(Z.dim)])
    z_dec = wedderburn(z_alg, seed=ext.seed)
    b_in_z, resid = linalg.lstsq_coords(Z.matrix, np.asarray(inc.embedding, complex))
    if resid > TOL_ALG:
        raise ConsistencyError("B does not sit inside Z numerically")
    b_inc = HopfInclusion(small=inc.small, big=z_alg, embedding=b_in_z)
    z_inc = HopfInclusion(small=z_alg, big=A, embedding=Z.matrix)
    table_bz = restriction_table(b_inc, ext.dec_b, z_dec)
    table_za = restriction_table(z_inc, z_dec, ext.dec_a)

    z_class = tuple(int(j) for j in np.nonzero(table_bz[:, alpha_index])[0])
    psi_alpha = Character(z_alg, sum(z_dec.irr[j].degree * z_dec.irr[j].values
                                     for j in z_class))
    expected = Fraction(Z.dim, inc.small.dim) * alpha.degree ** 2
    if Fraction(psi_alpha.degree) != expected:
        raise ConsistencyError("psi_alpha degree violates |Z|/|B| alpha(1)^2")
    return StabilizerResult(alpha_index=alpha_index, alpha=alpha,
                            stabilizing=stabilizing, Z=Z, dim_z=Z.dim,
                            z_alg=z_alg, z_dec=z_dec, b_in_z=b_in_z,
                            b_inc=b_inc, z_inc=z_inc,
                            table_bz=table_bz, table_za=table_za,
                            z_class=z_class, psi_alpha=psi_alpha)


def check_stabilizer_induction(ext: Extension, sr: StabilizerResult) -> dict[str, float]:
    """Induce psi_alpha up to A and compare with the scaled class sum."""
    ecd = ext.ecd
    i = ecd.class_of_alpha(sr.alpha_index)
    ind = induce_character(sr.psi_alpha, sr.z_inc, sr.z_dec, ext.dec_a, sr.table_za)
    scale = Fraction(sr.alpha.degree ** 2, ecd.b_sums[i].degree)
    target = float(scale) * ecd.a_sums[i].values
    residual = float(np.max(np.abs(ind.values - target)))
    return {"residual": residual}


@dataclass
class BoundReport:
    bound: Fraction
    equality: bool
    socle_equality: bool
    mult_full: int
    mult_z: int


def stabilizer_dimension_bound(ext: Extension, sr: StabilizerResult) -> BoundReport:
    """dim Z <= |A| alpha(1)^2 / b_i(1), with the socle multiplicity test.

    The bound is attained exactly when inducing to Z and inducing to A give
    the same alpha-multiplicity after restricting back to B.  By Frobenius
    reciprocity m(alpha^A|, alpha) is the squared norm of the alpha column
    of the restriction table, and likewise for Z.
    """
    A, inc, ecd = ext.A, ext.inc, ext.ecd
    alpha, k = sr.alpha, sr.alpha_index
    i = ecd.class_of_alpha(k)
    b_deg = ecd.b_sums[i].degree
    bound = Fraction(A.dim * alpha.degree ** 2, b_deg)
    if sr.dim_z > bound:
        raise TheoremViolationError(
            f"dim Z = {sr.dim_z} exceeds the bound {bound}")

    s = Fraction(A.dim, inc.small.dim)
    up_a = ecd.restriction_table[:, k]
    mult_full = int(up_a @ up_a)
    if Fraction(mult_full) != s * alpha.degree ** 2 / b_deg:
        raise ConsistencyError(
            f"m(alpha^A|, alpha) = {mult_full} != s alpha(1)^2/b_i(1)")

    induce_character(alpha, sr.b_inc, ext.dec_b, sr.z_dec, sr.table_bz)  # index-degree check
    up_z = sr.table_bz[:, k]
    mult_z = int(up_z @ up_z)
    if Fraction(mult_z) != Fraction(sr.dim_z, inc.small.dim):
        raise ConsistencyError(f"m(alpha^Z|, alpha) = {mult_z} != |Z|/|B|")

    equality = Fraction(sr.dim_z) == bound
    socle = mult_z == mult_full
    if equality != socle:
        raise TheoremViolationError(
            "bound equality and socle multiplicity test disagree")
    return BoundReport(bound=bound, equality=equality, socle_equality=socle,
                       mult_full=mult_full, mult_z=mult_z)


@dataclass
class DirectReport:
    direct_holds: bool
    induction_table: list[dict]
    image_indices: list[Optional[int]]


def direct_correspondence_check(ext: Extension, sr: StabilizerResult) -> DirectReport:
    """Is psi -> psi^A a bijection from the class over alpha onto A_i?"""
    i = ext.ecd.class_of_alpha(sr.alpha_index)
    target = set(ext.ecd.a_classes[i])
    table = []
    images: list[Optional[int]] = []
    all_irreducible = True
    for j in sr.z_class:
        psi = sr.z_dec.irr[j]
        induce_character(psi, sr.z_inc, sr.z_dec, ext.dec_a, sr.table_za)  # index-degree check
        coeffs = sr.table_za[:, j]
        irreducible = int(coeffs @ coeffs) == 1
        img = int(np.argmax(coeffs)) if irreducible else None
        images.append(img)
        all_irreducible &= irreducible
        table.append({
            "psi": int(j),
            "psi_degree": psi.degree,
            "image": [int(c) for c in coeffs],
            "irreducible": bool(irreducible),
        })
    hits = [img for img in images if img is not None]
    injective = len(hits) == len(set(hits))
    onto = set(hits) == target and len(hits) == len(sr.z_class)
    direct_holds = bool(all_irreducible and injective and onto)
    return DirectReport(direct_holds=direct_holds, induction_table=table,
                        image_indices=images)


def crosscheck_correspondence(bound: BoundReport, direct: DirectReport) -> bool:
    """The bound-equality criterion and the direct bijection must agree."""
    if bound.equality != direct.direct_holds:
        raise TheoremViolationError(
            f"bound equality ({bound.equality}) and direct check "
            f"({direct.direct_holds}) disagree")
    return direct.direct_holds


def conjugate_class_indices(ext: Extension, alpha_index: int) -> tuple[int, ...]:
    """Irreducible constituents of all conjugates of alpha, as Irr(B) indices."""
    alpha = ext.dec_b.irr[alpha_index]
    seen: set[int] = set()
    for C in ext.conjugation:
        coeffs = decompose(Character(alpha.parent, alpha.values @ C), ext.dec_b)
        seen.update(int(k) for k in np.nonzero(coeffs)[0])
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# group-graded picture for quotients kF

def component_bimodule(A: HopfAlgebraData, inc: HopfInclusion, comp: SubspaceBasis,
                       tol: float = TOL_ALG) -> tuple[np.ndarray, np.ndarray]:
    """(right, left): right[:, j, m] and left[:, m, j] are the coordinates in A_f of
    a_j b_m and of b_m a_j, for a_j in A_f and b_m in B; both must stay in A_f."""
    U = comp.matrix
    E = np.asarray(inc.embedding, complex)
    out = []
    for side, prods in (("right", A.products(U, E)), ("left", A.products(E, U))):
        coords = np.tensordot(U.conj().T, prods, axes=1)
        if float(np.max(np.abs(np.tensordot(U, coords, axes=1) - prods))) > tol:
            raise ConsistencyError(f"component is not stable under {side} B-multiplication")
        out.append(coords)
    return out[0], out[1]


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
    if out.verify() > 1e-6:
        raise ConsistencyError("tensor over B does not carry a B-module structure")
    return out.character()


@dataclass
class GradedSection:
    h_members: tuple[int, ...]
    h_labels: list[str]
    orbit_size: int
    dim_s: int
    s_is_hopf: bool
    z_in_s: bool
    z_equals_s: bool
    orbit_class: tuple[int, ...]
    cocentral: bool


def graded_stabilizer_analysis(ext: Extension, sr: StabilizerResult) -> GradedSection:
    """Stabilizer subgroup H of alpha under the grading action, and S = A(H)."""
    A, inc, F, components = ext.A, ext.inc, ext.F, ext.components
    alpha = sr.alpha
    M_mod = construct_irreducible_module(inc.small, ext.dec_b, sr.alpha_index,
                                         seed=ext.seed)
    h_members = []
    orbit_class: set[int] = set()
    for f in range(F.order):
        ch = graded_tensor_character(ext.bimodules[f], M_mod)
        coeffs = decompose(ch, ext.dec_b)
        if int(coeffs @ coeffs) != 1:
            raise ConsistencyError("grading action did not send a simple to a simple")
        orbit_class.add(int(np.argmax(coeffs)))
        if float(np.max(np.abs(ch.values - alpha.values))) < TOL_MATCH:
            h_members.append(f)
    hset = set(h_members)
    if 0 not in hset:
        raise ConsistencyError("grading stabilizer misses the identity component")
    for x in h_members:
        for y in h_members:
            if F.mul(x, y) not in hset:
                raise ConsistencyError("grading stabilizer is not a subgroup")
    if F.order % len(h_members) != 0:
        raise ConsistencyError("stabilizer order does not divide |F|")
    orbit_size = F.order // len(h_members)

    i = ext.ecd.class_of_alpha(sr.alpha_index)
    if Fraction(ext.ecd.b_sums[i].degree) * len(h_members) != Fraction(F.order) * alpha.degree ** 2:
        raise TheoremViolationError("orbit identity b_i(1) |H| = |F| alpha(1)^2 fails")

    S = SubspaceBasis.from_vectors(
        A, np.hstack([components[f].matrix for f in h_members]))
    if S.dim != inc.small.dim * len(h_members):
        raise ConsistencyError("dim A(H) != |B| |H|")
    s_hopf = is_hopf_subalgebra(A, S)
    z_in_s = S.contains(sr.Z)
    if not z_in_s:
        raise TheoremViolationError("Z is not contained in S = A(H)")
    z_eq_s = z_in_s and sr.dim_z == S.dim

    alpha_group_index = ext.supports[sr.alpha_index]
    if ext.mp is not None and alpha_group_index is not None:
        orbit, stab = orbit_and_stabilizer(ext.mp, alpha_group_index)
        if tuple(sorted(h_members)) != tuple(stab.members):
            raise ConsistencyError(
                "grading stabilizer disagrees with the matched-pair action")
        if len(orbit) != orbit_size:
            raise ConsistencyError("orbit sizes disagree with the matched-pair action")

    return GradedSection(
        h_members=tuple(sorted(h_members)),
        h_labels=[F.labels[f] for f in sorted(h_members)],
        orbit_size=orbit_size, dim_s=S.dim, s_is_hopf=bool(s_hopf),
        z_in_s=bool(z_in_s), z_equals_s=bool(z_eq_s),
        orbit_class=tuple(sorted(orbit_class)), cocentral=bool(ext.cocentral))


def coset_projection_check(ext: Extension) -> dict:
    """Projections of dual characters, their images, and the coset decomposition.

    For every irreducible dual character d: pi(d) is eps(d)/|F_j| times the
    indicator sum of a subset F_j of F, pi maps the subcoalgebra of d onto
    span{F_j}, B C_d equals the sum of the graded components over F_j, the
    supports partition F, and the distinct subspaces B C_d decompose A.
    """
    A, piF, F, components = ext.A, ext.piF, ext.F, ext.components
    piM = piF.matrix
    uniform_resid = 0.0
    image_resid = 0.0
    coset_resid = 0.0
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
        uniform_resid = max(uniform_resid, float(np.max(np.abs(pd - expect))))
        supports.append(support)

        img = SubspaceBasis.from_vectors(piF.target, piM @ C.matrix)
        span = np.zeros((F.order, len(support)), dtype=complex)
        for c, f in enumerate(support):
            span[f, c] = 1.0
        image_resid = max(image_resid, 0.0 if img.equals(
            SubspaceBasis(piF.target, span)) else 1.0)

        bc = subspace_product(ext.b_sub, C)
        graded = SubspaceBasis.from_vectors(
            A, np.hstack([components[f].matrix for f in support]))
        coset_resid = max(coset_resid, 0.0 if bc.equals(graded) else 1.0)
        cosets.append(bc)

    support_sets = sorted(set(supports))
    flat = [f for sup in support_sets for f in sup]
    partition_ok = sorted(flat) == list(range(F.order))

    distinct: list[SubspaceBasis] = []
    for bc in cosets:
        if not any(bc.equals(other) for other in distinct):
            distinct.append(bc)
    total = sum(bc.dim for bc in distinct)
    disjoint_ok = True
    stacked = np.hstack([bc.matrix for bc in distinct])
    if linalg.orthonormal_columns(stacked).shape[1] != total:
        disjoint_ok = False
    decomposition_ok = disjoint_ok and total == A.dim

    return {
        "uniform_coefficient_residual": uniform_resid,
        "image_spans_match": image_resid == 0.0,
        "coset_components_match": coset_resid == 0.0,
        "supports_partition": bool(partition_ok),
        "coset_decomposition": bool(decomposition_ok),
        "num_cosets": len(distinct),
    }


# ---------------------------------------------------------------------------
# per-alpha orchestration

@dataclass
class AlphaReport:
    alpha_index: int
    alpha_label: str
    alpha_degree: int
    class_index: int
    b_class_degree: int
    bound: Fraction
    dim_z: int
    stabilizing: list[int]
    socle_equality: bool
    direct_holds: bool
    induction_table: list[dict]
    stabilizer_induction_residual: float
    conjugate_class: tuple[int, ...]
    graded: Optional[GradedSection] = None

    @property
    def verdict(self) -> str:
        return "HOLDS" if self.direct_holds else "FAILS"


def analyze_alpha(ext: Extension, alpha_index: int) -> AlphaReport:
    """Full stabilizer pipeline for one irreducible B-character."""
    sr = compute_stabilizer(ext, alpha_index)
    lemma = check_stabilizer_induction(ext, sr)
    bound = stabilizer_dimension_bound(ext, sr)
    direct = direct_correspondence_check(ext, sr)
    crosscheck_correspondence(bound, direct)
    conj_class = conjugate_class_indices(ext, alpha_index)
    ecd = ext.ecd
    i = ecd.class_of_alpha(alpha_index)
    if conj_class != tuple(sorted(ecd.b_classes[i])):
        raise TheoremViolationError(
            "conjugates of alpha do not span exactly its equivalence class")

    graded = None
    if ext.piF is not None:
        graded = graded_stabilizer_analysis(ext, sr)
        if graded.z_equals_s != direct.direct_holds:
            raise TheoremViolationError(
                "Z = S criterion disagrees with the direct check")
        if graded.s_is_hopf != direct.direct_holds:
            raise TheoremViolationError(
                "Hopf-subalgebra criterion for S disagrees with the direct check")
        if graded.orbit_class != tuple(sorted(ecd.b_classes[i])):
            raise TheoremViolationError(
                "grading orbit does not reproduce the equivalence class")

    return AlphaReport(
        alpha_index=alpha_index, alpha_label=ext.alpha_labels[alpha_index],
        alpha_degree=sr.alpha.degree, class_index=i,
        b_class_degree=ecd.b_sums[i].degree,
        bound=bound.bound, dim_z=sr.dim_z, stabilizing=sr.stabilizing,
        socle_equality=bound.socle_equality, direct_holds=direct.direct_holds,
        induction_table=direct.induction_table,
        stabilizer_induction_residual=lemma["residual"],
        conjugate_class=conj_class, graded=graded)


def cocentral_sweep_check(reports: list[AlphaReport]) -> None:
    """In a cocentral extension every correspondence must hold."""
    for rep in reports:
        if not rep.direct_holds:
            raise TheoremViolationError(
                f"cocentral extension but correspondence fails for alpha "
                f"{rep.alpha_index}")
        if rep.graded is not None and not rep.graded.z_equals_s:
            raise TheoremViolationError(
                f"cocentral extension but Z != S for alpha {rep.alpha_index}")
