"""Clifford theory across a normal Hopf subalgebra B of A.

An Extension holds A, B and everything derived from the pair once: the
decompositions, the matched equivalence classes of Irr(A) and Irr(B) with
class sums and restriction table, the coefficient space and the
conjugation matrix C_d of each irreducible dual character d, the twist
of B by each graded component, and one Stabilizer per distinct
stabilizing set.  The pipeline runs per stage over all characters at
once, not per character: the coefficient spaces are one stacked sketch
SVD per degree, each the range of a sketch with eps(d)^2 + 1 columns;
every C_d is read from one join of the right adjoint action
S(e_k1) b_m e_k2, built once per request, scattered and solved for a
block of dual characters at once; the graded components come from one
call and their twists from one product per side; the restrictions the
class formulas read are the product the restriction table decomposes,
and the coset check projects every dual character at once.
`analyze_alphas` takes the selected irreducible B-characters alpha
through each stage in one call:

  * the stabilizer Hopf subalgebra Z built from dual characters d
    with conjugate character  alpha C_d = eps(d) alpha; Z, its algebra,
    decomposition and restriction tables are shared by every alpha with
    the same stabilizing set, and Z = A and Z = B are read on the bases
    and decompositions of A and B,
  * the dimension bound |Z| <= |A| alpha(1)^2 / b_i(1) together with the
    socle multiplicity test, and the direct check that induction from Z
    is a bijection onto the class of alpha; the inductions of one stage
    are one `decompose` per stabilizer, and the conjugates of every alpha
    one `decompose` in Irr(B),
  * for group-algebra quotients kF, the graded picture: components A_f,
    the stabilizer subgroup H of the orbit action A_f (x)_B M, whose
    characters alpha o theta_f for every f and every alpha are one product
    with the twists theta_f, and S = A(H), built and tested once per
    distinct H, with the criterion "correspondence holds iff Z = S iff S
    is a Hopf subalgebra".  S is the stack of the components' bases, with
    no fresh SVD, whenever they are orthonormal together
    (`SubspaceBasis.spanned_by`): for a bismash they are unit vectors, and
    S, like B and Z, is a coordinate subspace, which `hopf` tests through
    its support.

The coset check forms no basis of pi(C_d) or of B C_d: it reads the
products B C_d in the graded components, which must decompose A, and
takes singular values only (`coset_projection_check`).

Every cross-check and every error stays per alpha.  Cross-checks between
the independent criteria raise TheoremViolationError on mismatch since any
mismatch means an implementation bug; numeric checks use the thresholds of
`linalg` and raise ConsistencyError, NaN included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import (ConsistencyError, NormalityError, PreconditionError,
                     TheoremViolationError)
from .groups import FiniteGroup, orbit_and_stabilizer
from .hopf import (AlgebraData, BismashResult, HopfAlgebraData, HopfInclusion,
                   HopfSurjection, SubspaceBasis, _adjoint_entries, _scatter_sum,
                   coefficient_spaces, comodule_map_rho, dual_hopf, graded_components,
                   is_cocentral, is_hopf_subalgebra, subalgebra_data)
from .linalg import COND_LIMIT, TOL_ALG, TOL_MATCH, max_abs, require
from .repcalc import (MAX_RETRIES, Character, DEFAULT_SEED, SemisimpleDecomposition,
                      as_group_algebra_surjection, decompose, induce_character,
                      restriction_table, sort_order, wedderburn)


# ---------------------------------------------------------------------------
# the per-scenario context

class Extension:
    """A normal Hopf subalgebra B of A with everything derived from the pair.

    Each derived object is built on first use and kept: the dual A*, the
    Wedderburn decompositions of A, B and A*, the equivalence classes with
    their restriction table, the group-algebra quotient kF with its graded
    components and the twist of B by each, stacked over F, the coefficient
    space and the conjugation matrix of every irreducible dual character,
    and in `stabilizers` the Stabilizer of each stabilizing set met so far.
    Each per-character object is made for all characters in one stacked
    call, never one character at a time.  The construction gives `pi`,
    its projection A -> A/AB+, proved by its kernel where B's normality is
    tested: a bismash's onto kF, with its matched pair (`hopf.bismash`),
    and a group construction's onto k(G/N) or k^N, recognized as kF on
    first use when A/AB+ is a group algebra (`scenarios.build_scenario`).
    """

    def __init__(self, A: HopfAlgebraData, inc: HopfInclusion,
                 seed: int = DEFAULT_SEED, bismash: Optional[BismashResult] = None):
        self.A = A
        self.inc = inc
        self.seed = seed
        self.mp = None if bismash is None else bismash.pair
        self.pi = None if bismash is None else bismash.pi
        self.stabilizers: dict[tuple[int, ...], Stabilizer] = {}
        if bismash is not None:
            self.quotient = (bismash.pi, bismash.pair.f_group)

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
    def quotient(self) -> tuple[Optional[HopfSurjection], Optional[FiniteGroup]]:
        """(piF, F) for pi read as A -> kF, or (None, None) if A/AB+ is no group algebra."""
        if self.pi is None:
            raise PreconditionError("the extension was given no projection A -> A/AB+")
        found = as_group_algebra_surjection(self.pi, seed=self.seed)
        return (None, None) if found is None else (found[1], found[0])

    @property
    def piF(self) -> Optional[HopfSurjection]:
        return self.quotient[0]

    @property
    def F(self) -> Optional[FiniteGroup]:
        return self.quotient[1]

    @cached_property
    def components(self) -> Optional[list[SubspaceBasis]]:
        """Graded components A_f, f in F; None without a kF quotient.

        They must decompose A: coordinate components on supports that
        partition the coordinates, others orthonormal together and d in
        all (A = B #_sigma kF is the direct sum of the A_f; Schneider, J.
        Algebra 1992).  `coset_projection_check` reads coordinates in them.
        All of them come from one `hopf.graded_components`.
        """
        if self.piF is None:
            return None
        comps = graded_components(self.A, comodule_map_rho(self.A, self.piF), self.F.order)
        d = self.A.dim
        if all(C.support is not None for C in comps):
            direct = np.array_equal(np.sort(np.concatenate([C.support for C in comps])),
                                    np.arange(d))
        else:
            U = np.hstack([C.matrix for C in comps])
            direct = U.shape[1] == d and max_abs(U.conj().T @ U - np.eye(d)) <= TOL_ALG
        if not direct:
            raise ConsistencyError("the graded components do not decompose A")
        return comps

    @cached_property
    def twists(self) -> np.ndarray:
        """theta[f, k, m], the coordinate on b_k of theta_f(b_m), where
        b u_f = u_f theta_f(b) for a generator u_f of A_f = u_f B.

        A = B #_sigma kF is a crossed product (Schneider, J. Algebra 1992):
        each A_f has dimension |B| and is u_f B for a unit u_f, so A_f (x)_B M
        is M with b acting as theta_f(b), of character alpha o theta_f (Dade,
        Math. Z. 1980).  u_f = U_f x_f, with Gaussian x_f from stream
        2**32 - 1 of the seed.  Phi_f and Lambda_f, the coordinates in A_f of
        u_f b_m and b_m u_f, come from one `products` per side on the stacked
        u_f; b_m u_f = sum_k theta[f, k, m] u_f b_k gives theta_f =
        Phi_f^-1 Lambda_f.

        * A random u_f generates A_f: det Phi_f is a polynomial in x_f, not
          zero at a unit, so it vanishes on a null set only.  The u_f are
          redrawn, up to MAX_RETRIES times, until every cond(Phi_f) <= COND_LIMIT.
        * Stability on u_f gives stability of A_f: with Phi_f invertible each
          a in A_f is u_f b, so a b' = u_f (b b') and b' a = (b' u_f) b = u_f c b.
        * alpha o theta_f does not depend on u_f: another generator is u_f c
          with c B = B, so c is a unit of B, and b u_f c = u_f c (c^-1 theta_f(b) c)
          changes theta_f by an inner automorphism, which no character sees.

        theta_f(xy) = theta_f(x) theta_f(y) is gated on one random pair per f.
        """
        B, comps = self.inc.small, self.components
        for f, comp in enumerate(comps):
            if comp.dim != B.dim:
                raise ConsistencyError(f"graded component {f} has dimension {comp.dim}, "
                                       f"not |B| = {B.dim}")
        U = np.stack([comp.matrix for comp in comps])                  # U[f, :, j]
        E = np.asarray(self.inc.embedding, complex)
        rng = linalg.random_stream(self.seed, 2 ** 32 - 1)
        for _ in range(MAX_RETRIES):
            u = np.einsum("fij,fj->if", U, linalg.random_complex(rng, (len(comps), B.dim)))
            coords = []                                 # Phi, Lambda
            for side, prods in (("right", self.A.products(u, E).transpose(1, 0, 2)),  # u_f b_m
                                ("left", self.A.products(E, u).transpose(2, 0, 1))):  # b_m u_f
                coords.append(U.conj().transpose(0, 2, 1) @ prods)
                require(max_abs(U @ coords[-1] - prods), TOL_ALG * max(1.0, max_abs(prods)),
                        ConsistencyError, f"component is not stable under {side} B-multiplication")
            phi, lam = coords
            conds = linalg.cond(phi)
            if (conds <= COND_LIMIT).all():
                break
        else:
            f = int(np.argmin(conds <= COND_LIMIT))
            raise ConsistencyError(f"no element of graded component {f} generates it "
                                   f"(cond {conds[f]:.2e} > {COND_LIMIT:.0e})")
        theta = linalg.solve(phi, lam)

        def times(v, w):                                # [f] = v[f] w[f], in B
            return B.multiply(np.einsum("fa,fb->abf", v, w)).T

        x, y = linalg.random_complex(rng, (2, len(comps), B.dim))
        tx, ty, txy = (np.einsum("fkm,fm->fk", theta, v) for v in (x, y, times(x, y)))
        require(max_abs(txy - times(tx, ty)), TOL_MATCH * max(1.0, max_abs(txy)),
                ConsistencyError, "a twist of B is not multiplicative")
        return theta

    @cached_property
    def cocentral(self) -> Optional[bool]:
        return None if self.piF is None else is_cocentral(self.A, self.piF)

    @cached_property
    def coefficient_spaces(self) -> list[SubspaceBasis]:
        """Simple subcoalgebra of each irreducible dual character, from one
        `hopf.coefficient_spaces`."""
        return coefficient_spaces(self.A, np.array([d.values for d in self.dec_dual.irr]),
                                  seed=self.seed)

    @cached_property
    def conjugation(self) -> np.ndarray:
        """C_d for each irreducible dual character d, stacked: alpha o conj_d = alpha C_d.

        One call of `conjugation_matrices` for the whole stack, so the right
        adjoint action of the basis is joined once per request.
        """
        return conjugation_matrices(self.A, self.inc,
                                    np.array([d.values for d in self.dec_dual.irr]))

    @cached_property
    def supports(self) -> list[Optional[int]]:
        """B-basis index of each irreducible B-character that is a 0/1 indicator, else None."""
        X = np.array([ch.values for ch in self.dec_b.irr])
        k = np.argmax(np.abs(X), axis=1)
        indicator = np.abs(X - np.eye(X.shape[1])[k]).max(axis=1) < TOL_ALG
        return [int(j) if hit else None for j, hit in zip(k, indicator)]

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
    restricted: np.ndarray         # [chi index] values of Irr(A)[chi] restricted to B
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
    """Matched partitions of Irr(A) and Irr(B) from the restriction graph.

    Irr(A) is restricted to B in one product, which the restriction table
    decomposes and `verify_class_formulas` reads.
    """
    A, inc, dec_a, dec_b = ext.A, ext.inc, ext.dec_a, ext.dec_b
    na, nb = len(dec_a.irr), len(dec_b.irr)
    restricted = np.stack([chi.values for chi in dec_a.irr]) @ np.asarray(inc.embedding, complex)
    table = restriction_table(inc, dec_b, dec_a, restricted)

    # the blocks are complete bipartite, so the support of row c is the
    # B-class of Irr(A)[c], and distinct supports are disjoint
    supports = [tuple(k for k in range(nb) if table[c, k] > 0) for c in range(na)]
    b_classes = list(dict.fromkeys(supports))          # in order of their smallest A-index
    covered = set().union(*b_classes)
    if len(covered) < nb:
        raise ConsistencyError("some irreducible B-character misses every restriction")
    if sum(map(len, b_classes)) > len(covered):
        raise NormalityError("restriction blocks are not complete bipartite; "
                             "B cannot be normal in A")
    a_classes = [tuple(c for c in range(na) if supports[c] == s) for s in b_classes]

    a_sums, b_sums = [], []
    ratio = Fraction(A.dim, inc.small.dim)
    for a_class, b_class in zip(a_classes, b_classes):
        a_sum = Character(A, sum(dec_a.irr[c].degree * dec_a.irr[c].values for c in a_class))
        b_sum = Character(inc.small, sum(dec_b.irr[k].degree * dec_b.irr[k].values
                                         for k in b_class))
        if Fraction(a_sum.degree) != ratio * b_sum.degree:
            raise ConsistencyError("class sum degrees violate the index ratio")
        a_sums.append(a_sum)
        b_sums.append(b_sum)
    return EquivalenceClassData(a_classes=a_classes, b_classes=b_classes,
                                a_sums=a_sums, b_sums=b_sums, restricted=restricted,
                                restriction_table=table)


def verify_class_formulas(ext: Extension) -> dict[str, float]:
    """Residuals of the three restriction/induction identities; each must be <= TOL_MATCH.

    Every irreducible B-character is induced at once, from one `decompose`,
    and every restriction is read from the product `equivalence_classes`
    forms: a class sum restricts to the same sum of the restrictions.
    """
    ecd, inc, dec_a, dec_b = ext.ecd, ext.inc, ext.dec_a, ext.dec_b
    s = float(Fraction(inc.big.dim, inc.small.dim))
    alphas = Character(inc.small, np.array([ch.values for ch in dec_b.irr]))
    induced = induce_character(alphas, inc, dec_b, dec_a, ecd.restriction_table).values
    degrees = np.array([chi.degree for chi in dec_a.irr])
    restrict, induce, class_sum = [], [], []
    for i in range(ecd.num_classes):
        b_i, a_i, cs = ecd.b_sums[i], ecd.a_sums[i], list(ecd.a_classes[i])
        restrict.append(ecd.restricted[cs] / degrees[cs, None] - b_i.values / b_i.degree)
        for k in ecd.b_classes[i]:
            induce.append(induced[k] / dec_b.irr[k].degree - s * a_i.values / a_i.degree)
        class_sum.append(degrees[cs] @ ecd.restricted[cs] - s * b_i.values)
    res = {"restriction_proportionality": max_abs(*restrict),
           "induction_proportionality": max_abs(*induce),
           "class_sum_restriction": max_abs(*class_sum)}
    for name, r in res.items():
        require(r, TOL_MATCH, ConsistencyError, f"class formula {name} fails")
    return res


# ---------------------------------------------------------------------------
# conjugate characters and modules

def conjugation_matrices(A: HopfAlgebraData, inc: HopfInclusion,
                         D: np.ndarray) -> np.ndarray:
    """C_d of every row d of D, stacked: C_d[j, m] is the coordinate on b_j
    of S(d_1) b_m d_2.

    The conjugate of a B-character alpha by d, x -> alpha(S(d_1) x d_2),
    is the row vector alpha C_d; C_d does not depend on alpha.  The right
    adjoint action S(e_k1) b_m e_k2 of the basis is joined once for the
    whole stack, in COO form (`hopf._adjoint_entries`).  A block of rows
    of D, cut at linalg.STACK_BYTES, is scattered at once, each row d
    weighting the entries by d_k, and every C_d of the block is one
    least-squares solve on B's embedding; each C_d is gated against its
    own scale, the worst of the block raising, and a NaN or Inf in D fails.
    """
    E = np.asarray(inc.embedding, complex)
    D = np.asarray(D, complex)
    if not np.isfinite(D).all():
        raise ConsistencyError("conjugation by an element with a NaN or Inf entry")
    d, n = A.dim, E.shape[1]
    (k, m, o), val = _adjoint_entries(A, A.antipode, E)
    step = linalg.stack_items(16 * (val.size + 3 * d * n))
    out = []
    for lo in range(0, len(D), step):
        rows = D[lo:lo + step]                                  # W[row, o, m]
        W = _scatter_sum(((np.arange(len(rows))[:, None] * d + o) * n + m).ravel(),
                         (rows[:, k] * val).ravel(), len(rows) * d * n).reshape(-1, d, n)
        coords = linalg.lstsq(E, W.transpose(1, 0, 2).reshape(d, -1), rcond=None)[0]
        coords = coords.reshape(n, -1, n).transpose(1, 0, 2)    # [row, j, m]
        resid = np.abs(E @ coords - W).max(axis=(1, 2), initial=0.0)
        bound = TOL_ALG * np.maximum(1.0, np.abs(W).max(axis=(1, 2), initial=0.0))
        worst = int(np.argmax(resid / bound))                # a NaN counts as the worst
        require(resid[worst], bound[worst], ConsistencyError, "conjugation left the subalgebra")
        out.append(coords)
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# the stabilizer Hopf subalgebra

@dataclass
class Stabilizer:
    """Z and what is derived from it, which depend on the stabilizing set only."""
    stabilizing: list[int]             # indices into Irr(A^*)
    Z: SubspaceBasis
    z_alg: AlgebraData                 # A itself when Z = A, else Z on its orthonormal basis
    z_dec: SemisimpleDecomposition
    b_in_z: np.ndarray                 # embedding of B into Z coordinates
    b_inc: HopfInclusion               # B -> Z
    z_inc: HopfInclusion               # Z -> A
    table_bz: np.ndarray               # restriction table Irr(Z) x Irr(B)
    table_za: np.ndarray               # restriction table Irr(A) x Irr(Z)

    @property
    def dim_z(self) -> int:
        return self.Z.dim


@dataclass
class StabilizerResult(Stabilizer):
    """The Stabilizer of one alpha, with the part of Irr(Z) lying over alpha."""
    alpha_index: int
    alpha: Character
    z_class: tuple[int, ...]           # indices of Irr(Z) lying over alpha
    psi_alpha: Character


def compute_stabilizer(ext: Extension, alpha_index: int) -> StabilizerResult:
    """Z = sum of the simple subcoalgebras whose dual characters fix alpha.

    The Stabilizer is built once per stabilizing set and kept in
    `ext.stabilizers`; only z_class and psi_alpha are computed per alpha.
    """
    alpha = ext.dec_b.irr[alpha_index]
    degrees = np.array([d.degree for d in ext.dec_dual.irr])
    moved = np.abs(alpha.values @ ext.conjugation - degrees[:, None] * alpha.values).max(axis=1)
    stabilizing = tuple(np.flatnonzero(moved < TOL_MATCH).tolist())
    if stabilizing not in ext.stabilizers:
        ext.stabilizers[stabilizing] = stabilizer_of_set(ext, stabilizing)
    stab = ext.stabilizers[stabilizing]

    z_class = tuple(int(j) for j in np.nonzero(stab.table_bz[:, alpha_index])[0])
    psi_alpha = Character(stab.z_alg, sum(stab.z_dec.irr[j].degree * stab.z_dec.irr[j].values
                                          for j in z_class))
    expected = Fraction(stab.dim_z, ext.inc.small.dim) * alpha.degree ** 2
    if Fraction(psi_alpha.degree) != expected:
        raise ConsistencyError("psi_alpha degree violates |Z|/|B| alpha(1)^2")
    return StabilizerResult(**vars(stab), alpha_index=alpha_index, alpha=alpha,
                            z_class=z_class, psi_alpha=psi_alpha)


def stabilizer_of_set(ext: Extension, stabilizing: tuple[int, ...]) -> Stabilizer:
    """Z spanned by the coefficient spaces of `stabilizing`, checked, with its data.

    Z is decomposed on its orthonormal basis Q unless it is A or B, which
    are read on their own decompositions.  The numbering of psi is always
    the one Q would give: wedderburn(subalgebra_data(A, Q), frame=Q) sorts
    Irr(Z) on the characters as functionals on A, conj(Q) Q^T chi.  B's
    coordinates in Z are Q^H E, for B's embedding E: Q is orthonormal and
    Z contains B; Q Q^H E = E is gated all the same.

    When the set is all of Irr(A*), Z is A, taken on A's own basis:
    z_alg = A, z_dec = dec_a, table_bz = R (the context's restriction table)
    and table_za = I.  The checks made on a smaller Z hold there already.
    The simple subcoalgebras of A are independent, and their dimensions
    eps(d)^2 sum to dim A by dec_dual's block check, so together they span
    A.  A contains B, is a Hopf subalgebra of itself, and is closed under
    its product with its unit.  Q Q^H = I, so the key is chi itself, the
    one dec_a is sorted on.

    A Z of dimension |B| that passes the checks contains B, so it is B,
    read on B's own basis as Z = A is read on A's: z_alg = B, z_dec is
    dec_b renumbered, table_bz is that permutation of I and table_za the
    columns of R it picks.  On Q = E pinv(E) Q, for B's embedding E, a
    B-character alpha takes the values Q^T pinv(E)^T alpha, so its key is
    conj(Q Q^H) pinv(E)^T alpha = pinv(E)^T alpha: conj(Q Q^H) projects
    onto conj(span E), which holds the columns of pinv(E)^T =
    conj(E) (E^T conj(E))^-1.  For an orthonormal E that is conj(E) alpha.
    """
    A, inc = ext.A, ext.inc
    E = np.asarray(inc.embedding, complex)
    if len(stabilizing) == len(ext.dec_dual.irr):
        eye = np.eye(A.dim, dtype=complex)
        return Stabilizer(stabilizing=list(stabilizing), Z=SubspaceBasis(A, eye),
                          z_alg=A, z_dec=ext.dec_a, b_in_z=E, b_inc=inc,
                          z_inc=HopfInclusion(small=A, big=A, embedding=eye),
                          table_bz=ext.ecd.restriction_table,
                          table_za=np.eye(len(ext.dec_a.irr), dtype=np.int64))

    expected_dim = sum(ext.dec_dual.irr[idx].degree ** 2 for idx in stabilizing)
    Z = SubspaceBasis.from_vectors(
        A, np.hstack([ext.coefficient_spaces[idx].matrix for idx in stabilizing]))
    if Z.dim != expected_dim:
        raise ConsistencyError(
            f"dim Z = {Z.dim} but the stabilizing degrees predict {expected_dim}")
    if not Z.contains(ext.b_sub):
        raise ConsistencyError("Z does not contain B")
    if not is_hopf_subalgebra(A, Z):
        raise ConsistencyError("stabilizing subcoalgebras do not close into a Hopf subalgebra")

    if Z.dim == inc.small.dim:
        dec_b = ext.dec_b
        X = np.stack([ch.values for ch in dec_b.irr], axis=1)
        order = sort_order(E.conj() @ linalg.solve(E.T @ E.conj(), X), dec_b.dims)
        z_dec = SemisimpleDecomposition(
            algebra=inc.small, idempotents=[dec_b.idempotents[k] for k in order],
            dims=[dec_b.dims[k] for k in order], irr=[dec_b.irr[k] for k in order])
        eye = np.eye(inc.small.dim, dtype=complex)
        return Stabilizer(stabilizing=list(stabilizing), Z=Z, z_alg=inc.small, z_dec=z_dec,
                          b_in_z=eye, b_inc=HopfInclusion(small=inc.small, big=inc.small,
                                                          embedding=eye),
                          z_inc=inc, table_bz=np.eye(len(order), dtype=np.int64)[order],
                          table_za=ext.ecd.restriction_table[:, order])

    z_alg = subalgebra_data(A, Z, labels=[f"z{i}" for i in range(Z.dim)])
    z_dec = wedderburn(z_alg, seed=ext.seed, frame=Z.matrix)
    b_in_z = Z.matrix.conj().T @ E
    require(max_abs(Z.matrix @ b_in_z - E), TOL_ALG, ConsistencyError,
            "B does not sit inside Z numerically")
    b_inc = HopfInclusion(small=inc.small, big=z_alg, embedding=b_in_z)
    z_inc = HopfInclusion(small=z_alg, big=A, embedding=Z.matrix)
    return Stabilizer(stabilizing=list(stabilizing), Z=Z, z_alg=z_alg, z_dec=z_dec,
                      b_in_z=b_in_z, b_inc=b_inc, z_inc=z_inc,
                      table_bz=restriction_table(b_inc, ext.dec_b, z_dec),
                      table_za=restriction_table(z_inc, z_dec, ext.dec_a))


def _by_stabilizer(srs: Sequence[StabilizerResult]) -> list[list[int]]:
    """Positions in `srs` grouped by stabilizing set, in order of first appearance."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for pos, sr in enumerate(srs):
        groups.setdefault(tuple(sr.stabilizing), []).append(pos)
    return list(groups.values())


def check_stabilizer_induction(ext: Extension, srs: Sequence[StabilizerResult]
                               ) -> list[dict[str, float]]:
    """Induce each psi_alpha up to A; it must match the scaled class sum within TOL_MATCH.

    The psi_alpha of one stabilizer are induced together, from one
    `decompose` in its Irr(Z).
    """
    ecd = ext.ecd
    out: list[dict[str, float]] = [None] * len(srs)
    for group in _by_stabilizer(srs):
        z = srs[group[0]]
        psi = Character(z.z_alg, np.array([srs[p].psi_alpha.values for p in group]))
        ind = induce_character(psi, z.z_inc, z.z_dec, ext.dec_a, z.table_za)
        for p, values in zip(group, ind.values):
            sr = srs[p]
            i = ecd.class_of_alpha(sr.alpha_index)
            scale = Fraction(sr.alpha.degree ** 2, ecd.b_sums[i].degree)
            out[p] = {"residual": require(
                max_abs(values - float(scale) * ecd.a_sums[i].values), TOL_MATCH,
                ConsistencyError, "psi_alpha^A differs from the scaled class sum")}
    return out


@dataclass
class BoundReport:
    bound: Fraction
    equality: bool
    socle_equality: bool
    mult_full: int
    mult_z: int


def stabilizer_dimension_bound(ext: Extension, srs: Sequence[StabilizerResult]
                               ) -> list[BoundReport]:
    """dim Z <= |A| alpha(1)^2 / b_i(1) for each alpha, with the socle multiplicity test.

    The bound is attained exactly when inducing to Z and inducing to A give
    the same alpha-multiplicity after restricting back to B.  By Frobenius
    reciprocity m(alpha^A|, alpha) is the squared norm of the alpha column
    of the restriction table, and likewise for Z.  The alphas of one
    stabilizer are induced to Z together, from one `decompose`, for the
    index-degree check.
    """
    A, inc, ecd = ext.A, ext.inc, ext.ecd
    for group in _by_stabilizer(srs):
        z = srs[group[0]]
        alphas = Character(inc.small, np.array([srs[p].alpha.values for p in group]))
        induce_character(alphas, z.b_inc, ext.dec_b, z.z_dec, z.table_bz)  # index-degree check
    out = []
    for sr in srs:
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

        up_z = sr.table_bz[:, k]
        mult_z = int(up_z @ up_z)
        if Fraction(mult_z) != Fraction(sr.dim_z, inc.small.dim):
            raise ConsistencyError(f"m(alpha^Z|, alpha) = {mult_z} != |Z|/|B|")

        equality = Fraction(sr.dim_z) == bound
        socle = mult_z == mult_full
        if equality != socle:
            raise TheoremViolationError(
                "bound equality and socle multiplicity test disagree")
        out.append(BoundReport(bound=bound, equality=equality, socle_equality=socle,
                               mult_full=mult_full, mult_z=mult_z))
    return out


@dataclass
class DirectReport:
    direct_holds: bool
    induction_table: list[dict]
    image_indices: list[Optional[int]]


def direct_correspondence_check(ext: Extension, srs: Sequence[StabilizerResult]
                                ) -> list[DirectReport]:
    """Is psi -> psi^A a bijection from the class over alpha onto A_i, for each alpha?

    Every psi over the alphas of one stabilizer is induced to A for the
    index-degree check, from one `decompose` in its Irr(Z).
    """
    for group in _by_stabilizer(srs):
        z = srs[group[0]]
        js = sorted({j for p in group for j in srs[p].z_class})
        psis = Character(z.z_alg, np.array([z.z_dec.irr[j].values for j in js]))
        induce_character(psis, z.z_inc, z.z_dec, ext.dec_a, z.table_za)  # index-degree check
    out = []
    for sr in srs:
        i = ext.ecd.class_of_alpha(sr.alpha_index)
        target = set(ext.ecd.a_classes[i])
        table = []
        images: list[Optional[int]] = []
        all_irreducible = True
        for j in sr.z_class:
            coeffs = sr.table_za[:, j]
            irreducible = int(coeffs @ coeffs) == 1
            img = int(np.argmax(coeffs)) if irreducible else None
            images.append(img)
            all_irreducible &= irreducible
            table.append({
                "psi": int(j),
                "psi_degree": sr.z_dec.irr[j].degree,
                "image": [int(c) for c in coeffs],
                "irreducible": bool(irreducible),
            })
        hits = [img for img in images if img is not None]
        injective = len(hits) == len(set(hits))
        onto = set(hits) == target and len(hits) == len(sr.z_class)
        out.append(DirectReport(direct_holds=bool(all_irreducible and injective and onto),
                                induction_table=table, image_indices=images))
    return out


def crosscheck_correspondence(bound: BoundReport, direct: DirectReport) -> bool:
    """The bound-equality criterion and the direct bijection must agree."""
    if bound.equality != direct.direct_holds:
        raise TheoremViolationError(
            f"bound equality ({bound.equality}) and direct check "
            f"({direct.direct_holds}) disagree")
    return direct.direct_holds


def conjugate_class_indices(ext: Extension, indices: Sequence[int]) -> list[tuple[int, ...]]:
    """Irreducible constituents of all conjugates of each alpha, as Irr(B) indices.

    The conjugates alpha C_d of every alpha and d are one `decompose`.
    """
    alphas = np.array([ext.dec_b.irr[k].values for k in indices])
    conjugates = np.swapaxes(alphas @ ext.conjugation, 0, 1)   # [alpha, d, :] = alpha C_d
    coeffs = decompose(Character(ext.inc.small, conjugates.reshape(-1, alphas.shape[1])),
                       ext.dec_b).reshape(len(indices), len(ext.conjugation), -1)
    return [tuple(np.flatnonzero(c.any(axis=0)).tolist()) for c in coeffs]


# ---------------------------------------------------------------------------
# group-graded picture for quotients kF

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


def graded_stabilizer_analysis(ext: Extension, srs: Sequence[StabilizerResult]
                               ) -> list[GradedSection]:
    """Stabilizer subgroup H of each alpha under the grading action, and S = A(H).

    The character of A_f (x)_B M_alpha is alpha o theta_f (`Extension.twists`),
    so the graded characters of every alpha and every f are one product
    with the twists and one `decompose`; H is the f with alpha o theta_f =
    alpha.  S = A(H) and its Hopf-subalgebra test are made once per
    distinct H.
    """
    A, inc, F, components = ext.A, ext.inc, ext.F, ext.components
    alphas = np.array([sr.alpha.values for sr in srs])
    chars = np.einsum("ak,fkm->afm", alphas, ext.twists)     # chars[a, f] = alpha o theta_f
    coeffs = decompose(Character(inc.small, chars.reshape(-1, inc.small.dim)), ext.dec_b)
    subalgebras: dict[tuple[int, ...], tuple[SubspaceBasis, bool]] = {}    # H -> (S, S is Hopf)
    out = []
    for sr, ch, co in zip(srs, chars, np.split(coeffs, len(srs))):
        alpha = sr.alpha
        if np.any(np.sum(co * co, axis=1) != 1):
            raise ConsistencyError("grading action did not send a simple to a simple")
        orbit_class = set(np.argmax(co, axis=1).tolist())
        h_members = np.flatnonzero(np.abs(ch - alpha.values).max(axis=1) < TOL_MATCH).tolist()
        if 0 not in h_members:
            raise ConsistencyError("grading stabilizer misses the identity component")
        if not np.isin(F.cayley[np.ix_(h_members, h_members)], h_members).all():
            raise ConsistencyError("grading stabilizer is not a subgroup")
        if F.order % len(h_members) != 0:
            raise ConsistencyError("stabilizer order does not divide |F|")
        orbit_size = F.order // len(h_members)

        i = ext.ecd.class_of_alpha(sr.alpha_index)
        if (Fraction(ext.ecd.b_sums[i].degree) * len(h_members)
                != Fraction(F.order) * alpha.degree ** 2):
            raise TheoremViolationError("orbit identity b_i(1) |H| = |F| alpha(1)^2 fails")

        if tuple(h_members) not in subalgebras:
            S = SubspaceBasis.spanned_by(A, np.hstack([components[f].matrix for f in h_members]))
            if S.dim != inc.small.dim * len(h_members):
                raise ConsistencyError("dim A(H) != |B| |H|")
            subalgebras[tuple(h_members)] = S, is_hopf_subalgebra(A, S)
        S, s_hopf = subalgebras[tuple(h_members)]
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

        out.append(GradedSection(
            h_members=tuple(sorted(h_members)),
            h_labels=[F.labels[f] for f in sorted(h_members)],
            orbit_size=orbit_size, dim_s=S.dim, s_is_hopf=bool(s_hopf),
            z_in_s=bool(z_in_s), z_equals_s=bool(z_eq_s),
            orbit_class=tuple(sorted(orbit_class)), cocentral=bool(ext.cocentral)))
    return out


def _spanned_sums(coords: np.ndarray, dims: np.ndarray, cols: np.ndarray):
    """Column blocks cols[j]:cols[j+1] of `coords`, coordinates in a direct
    sum of parts of dimensions `dims` stacked in order: for each block, the
    parts it has mass on (TOL_ALG; a NaN counts), and whether it spans their
    sum, its rows on them having full rank.  Ranks are read from singular
    values alone, one stacked SVD per shape."""
    part = np.repeat(np.arange(len(dims)), dims)
    mass = np.maximum.reduceat(np.maximum.reduceat(
        np.abs(coords), np.cumsum(dims) - dims, axis=0), cols[:-1], axis=1)   # [part, j]
    met, blocks = [], []
    for j, hit in enumerate(~(mass.T < TOL_ALG)):
        met.append(tuple(np.flatnonzero(hit).tolist()))
        blocks.append(coords[hit[part], cols[j]:cols[j + 1]])
    ranks = [0] * len(blocks)
    for shape in dict.fromkeys(m.shape for m in blocks):
        at = [j for j, m in enumerate(blocks) if m.shape == shape]
        if 0 not in shape:
            values = linalg.svd(np.stack([blocks[j] for j in at]), compute_uv=False)
            for j, sv in zip(at, values):
                ranks[j] = linalg.numerical_rank(sv)
    return met, [r == dims[list(m)].sum() for r, m in zip(ranks, met)]


def coset_projection_check(ext: Extension) -> dict:
    """Projections of dual characters, their images, and the coset decomposition.

    For every irreducible dual character d: pi(d) is eps(d)/|F_j| times the
    indicator sum of a subset F_j of F, pi maps the subcoalgebra C_d of d
    onto span{F_j}, B C_d equals the sum of the graded components over F_j,
    the supports partition F, and the distinct subspaces B C_d decompose A.
    No basis of pi(C_d) or of B C_d is formed; each test reads coordinates,
    and each rank is read from singular values alone:

    * pi(C_d) = span{F_j} iff the rows of pi C_d off F_j vanish (it lies
      in the span) and its rows on F_j have rank |F_j| (it has the span's
      dimension); with every row of F_j nonzero, as rank |F_j| needs, that
      is: the rows it has mass on are F_j, and they have full rank.
    * The A_f decompose A (`Extension.components` checks it), so the
      products B C_d, read in them -- a row gather for coordinate
      components, else U^H x on their orthonormal stack U -- lie in the sum
      of the components M_d they have mass on, and equal it iff their
      blocks on M_d have full rank, the sum of those dim A_f.  Then B C_d
      equals the sum over F_j iff moreover M_d = F_j: the mass off F_j is
      the containment, the rank the span.
    * When every B C_d is such a full sum, two are equal iff their M_d are,
      as the sum of the A_f is direct: the distinct cosets are counted by
      the distinct M_d, and they decompose A iff those partition F, since
      the A_f decompose A.  A B C_d that is a proper subspace of its sum
      leaves the decomposition unproved, and it reads false.

    pi(d) of every d, pi C_d and B C_d come from one product each with the
    stacked characters and the stacked bases [C_1 ... C_k].
    """
    A, piF, F, components = ext.A, ext.piF, ext.F, ext.components
    piM = piF.matrix
    irr, spaces = ext.dec_dual.irr, ext.coefficient_spaces
    # [d, f] = pi(d)_f, one stacked matrix-vector product: each row is bitwise piM @ d
    projected = (piM @ np.array([d.values for d in irr])[:, :, None])[..., 0]
    hit = np.abs(projected) > TOL_MATCH
    if not hit.any(axis=1).all():
        raise ConsistencyError("projected dual character vanished")
    supports = [tuple(np.flatnonzero(h).tolist()) for h in hit]
    degrees = np.array([d.degree for d in irr])
    uniform_defect = projected - hit * (degrees / hit.sum(axis=1))[:, None]

    stacked = np.hstack([C.matrix for C in spaces])
    cols = np.cumsum([0] + [C.dim for C in spaces])             # C_j is columns cols[j]..
    # products[:, (c, m)] = b_m C[:, c], so B C_j is columns |B| cols[j]..
    products = A.products(ext.b_sub.matrix, stacked).transpose(0, 2, 1).reshape(A.dim, -1)
    rows = [C.support for C in components]
    if all(r is not None for r in rows):
        coords = products[np.concatenate(rows)]
    else:
        coords = np.hstack([C.matrix for C in components]).conj().T @ products
    image_met, image_full = _spanned_sums(piM @ stacked, np.ones(F.order, int), cols)
    met, full = _spanned_sums(coords, np.array([C.dim for C in components]),
                              ext.b_sub.dim * cols)
    images_match = all(image_full) and image_met == supports
    cosets_match = all(full) and met == supports

    def partition(sets) -> bool:
        return sorted(f for s in set(sets) for f in s) == list(range(F.order))

    return {
        "uniform_coefficient_residual": max_abs(uniform_defect),
        "image_spans_match": bool(images_match),
        "coset_components_match": bool(cosets_match),
        "supports_partition": partition(supports),
        "coset_decomposition": all(full) and partition(met),
        "num_cosets": len(set(met)),
    }


# ---------------------------------------------------------------------------
# orchestration over the selected alphas

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


def analyze_alphas(ext: Extension, indices: Sequence[int]) -> list[AlphaReport]:
    """The full stabilizer pipeline for the irreducible B-characters `indices`.

    Each stage runs once over all of them: the stabilizers, the induction
    lemma, the bound, the direct check, the conjugates and, for a kF
    quotient, the graded picture; then every cross-check is made per alpha.
    """
    ecd = ext.ecd
    srs = [compute_stabilizer(ext, k) for k in indices]
    lemmas = check_stabilizer_induction(ext, srs)
    bounds = stabilizer_dimension_bound(ext, srs)
    directs = direct_correspondence_check(ext, srs)
    conj_classes = conjugate_class_indices(ext, indices)
    graded = (graded_stabilizer_analysis(ext, srs) if ext.piF is not None
              else [None] * len(srs))

    reports = []
    for sr, lemma, bound, direct, conj_class, g in zip(srs, lemmas, bounds, directs,
                                                       conj_classes, graded):
        crosscheck_correspondence(bound, direct)
        k = sr.alpha_index
        i = ecd.class_of_alpha(k)
        b_class = tuple(sorted(ecd.b_classes[i]))
        if conj_class != b_class:
            raise TheoremViolationError(
                "conjugates of alpha do not span exactly its equivalence class")
        if g is not None:
            if g.z_equals_s != direct.direct_holds:
                raise TheoremViolationError(
                    "Z = S criterion disagrees with the direct check")
            if g.s_is_hopf != direct.direct_holds:
                raise TheoremViolationError(
                    "Hopf-subalgebra criterion for S disagrees with the direct check")
            if g.orbit_class != b_class:
                raise TheoremViolationError(
                    "grading orbit does not reproduce the equivalence class")
        reports.append(AlphaReport(
            alpha_index=k, alpha_label=ext.alpha_labels[k],
            alpha_degree=sr.alpha.degree, class_index=i,
            b_class_degree=ecd.b_sums[i].degree,
            bound=bound.bound, dim_z=sr.dim_z, stabilizing=sr.stabilizing,
            socle_equality=bound.socle_equality, direct_holds=direct.direct_holds,
            induction_table=direct.induction_table,
            stabilizer_induction_residual=lemma["residual"],
            conjugate_class=conj_class, graded=g))
    return reports


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
