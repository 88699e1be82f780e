"""Semisimple decomposition, characters, explicit modules, induction.

Artin-Wedderburn over the complex numbers by center splitting: the center
is cut out by commutation constraints, split by eigendecomposition of a
seeded-random central element, and the resulting central primitive
idempotents give block sizes and irreducible characters via regular traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import (ConsistencyError, NotACharacterError,
                     NumericDegeneracyError, SemisimplicityError)
from .groups import FiniteGroup
from .hopf import (TOL_ALG, AlgebraData, HopfAlgebraData, HopfSurjection,
                   dual_hopf, group_algebra)

DEFAULT_SEED = 1729
TOL_INT = 1e-6
COND_LIMIT = 1e8


class Character:
    """Linear functional on an algebra, recorded by its values on the basis."""

    def __init__(self, parent: AlgebraData, values):
        self.parent = parent
        self.values = np.asarray(values, dtype=complex)

    @property
    def degree(self) -> int:
        d = complex(self.values @ self.parent.unit)
        n = int(round(d.real))
        if abs(d - n) > 1e-6:
            raise ConsistencyError(f"character degree {d} is not an integer")
        return n

    def close_to(self, other: "Character", tol: float = TOL_ALG) -> bool:
        return float(np.max(np.abs(self.values - other.values))) < tol

    def __repr__(self) -> str:
        return f"Character(dim={len(self.values)}, degree={self.degree})"


@dataclass
class SemisimpleDecomposition:
    algebra: AlgebraData
    idempotents: list[np.ndarray]
    dims: list[int]
    irr: list[Character]

    @property
    def num_blocks(self) -> int:
        return len(self.dims)

    def to_json_dict(self, digits: int = 10) -> dict:
        chars = [[[linalg.round_for_json(v.real, digits),
                   linalg.round_for_json(v.imag, digits)] for v in ch.values]
                 for ch in self.irr]
        return {"dims": list(self.dims), "characters": chars}


def _char_sort_key(values: np.ndarray, degree: int):
    flat = []
    for v in values:
        flat.append((round(float(v.real), 6) + 0.0, round(float(v.imag), 6) + 0.0))
    return (degree, flat)


def wedderburn(A: AlgebraData, seed: int = DEFAULT_SEED,
               max_retries: int = 12) -> SemisimpleDecomposition:
    """Central primitive idempotents, block sizes, irreducible characters."""
    d = A.dim
    M = A.mult
    trL = A.regular_trace_vector()
    trace_form = np.einsum("ijp,p->ij", M, trL, optimize=True)
    cond = np.linalg.cond(trace_form)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SemisimplicityError(
            f"regular trace form is degenerate (cond {cond:.2e})")

    constraints = (M.transpose(0, 2, 1) - M.transpose(1, 2, 0)).reshape(d * d, d)
    center = linalg.null_space(constraints)
    r = center.shape[1]
    rng = np.random.default_rng(seed)

    for _ in range(max_retries):
        z = center @ linalg.random_complex(rng, r)
        zop = center.conj().T @ A.left_mult_matrix(z) @ center
        vals, vecs = np.linalg.eig(zop)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if r > 1:
            gaps = [abs(vals[i] - vals[j]) for i in range(r) for j in range(i + 1, r)]
            if min(gaps) < 1e-6 * scale:
                continue
        idem = []
        good = True
        for k in range(r):
            v = center @ vecs[:, k]
            vv = A.product(v, v)
            lam = complex(np.vdot(v, vv) / np.vdot(v, v))
            if abs(lam) < 1e-9:
                good = False
                break
            e = v / lam
            if float(np.max(np.abs(A.product(e, e) - e))) > 1e-7 * max(1.0, float(np.max(np.abs(e))) ** 2):
                good = False
                break
            idem.append(e)
        if not good:
            continue
        total = np.sum(idem, axis=0)
        if float(np.max(np.abs(total - A.unit))) > 1e-7:
            continue
        blocks = []
        for e in idem:
            nn = complex(trL @ e)
            n = int(round(np.sqrt(max(nn.real, 0.0))))
            if n < 1 or abs(nn - n * n) > 1e-6 * max(1.0, abs(nn)):
                good = False
                break
            chi_vals = (trL @ A.right_mult_matrix(e)) / n
            blocks.append((n, e, chi_vals))
        if not good:
            continue
        blocks.sort(key=lambda b: _char_sort_key(b[2], b[0]))
        dec = SemisimpleDecomposition(
            algebra=A,
            idempotents=[b[1] for b in blocks],
            dims=[b[0] for b in blocks],
            irr=[Character(A, b[2]) for b in blocks],
        )
        _check_decomposition(dec)
        return dec
    raise NumericDegeneracyError("central splitting failed after max retries")


def _check_decomposition(dec: SemisimpleDecomposition) -> None:
    A = dec.algebra
    if sum(n * n for n in dec.dims) != A.dim:
        raise ConsistencyError("block squares do not sum to the dimension")
    E = np.stack(dec.idempotents, axis=1)
    i, j = np.triu_indices(dec.num_blocks, 1)
    if float(np.max(np.abs(A.products(E, E)[:, i, j]), initial=0.0)) > 1e-7:
        raise ConsistencyError("central idempotents are not orthogonal")


def regular_character(A: AlgebraData) -> Character:
    return Character(A, A.regular_trace_vector())


def decompose(chi: Character, dec: SemisimpleDecomposition,
              tol_int: float = TOL_INT) -> np.ndarray:
    """Multiplicities of `chi` in the irreducible character basis."""
    X = np.stack([c.values for c in dec.irr], axis=1)
    coeffs, resid = linalg.lstsq_coords(X, chi.values)
    if resid > 1e-7 * max(1.0, float(np.max(np.abs(chi.values)))):
        raise NotACharacterError(f"values are not in the character span (resid {resid:.2e})")
    out = np.zeros(len(coeffs), dtype=np.int64)
    for k, c in enumerate(coeffs):
        n = round(c.real)
        if abs(c - n) > tol_int or n < 0:
            raise NotACharacterError(f"multiplicity {c} is not a nonnegative integer")
        out[k] = n
    return out


def multiplicity(chi: Character, mu: Character,
                 dec: SemisimpleDecomposition) -> int:
    """Pairing m(chi, mu) = sum of products of irreducible multiplicities."""
    return int(decompose(chi, dec) @ decompose(mu, dec))


def restrict_character(chi: Character, inc) -> Character:
    """Precompose with the embedding small -> big."""
    values = np.asarray(inc.embedding, complex).T @ chi.values
    return Character(inc.small, values)


def restriction_table(inc, dec_small: SemisimpleDecomposition,
                      dec_big: SemisimpleDecomposition) -> np.ndarray:
    """table[c, k] = multiplicity of Irr(small)[k] in Irr(big)[c] restricted."""
    table = np.zeros((len(dec_big.irr), len(dec_small.irr)), dtype=np.int64)
    for c, chi in enumerate(dec_big.irr):
        table[c] = decompose(restrict_character(chi, inc), dec_small)
    return table


def induce_character(alpha: Character, inc, dec_small: SemisimpleDecomposition,
                     dec_big: SemisimpleDecomposition, table: np.ndarray) -> Character:
    """Induction by Frobenius reciprocity: m(alpha^, chi) = m(alpha, chi|).

    `table` is restriction_table(inc, dec_small, dec_big), so the induced
    multiplicities are table @ m(alpha).
    """
    coeffs = table @ decompose(alpha, dec_small)
    values = sum(int(n) * chi.values for n, chi in zip(coeffs, dec_big.irr))
    ind = Character(inc.big, values)
    expected = Fraction(inc.big.dim, inc.small.dim) * alpha.degree
    if Fraction(ind.degree) != expected:
        raise ConsistencyError(
            f"induced degree {ind.degree} != {expected} predicted by the index")
    return ind


# ---------------------------------------------------------------------------
# explicit modules

class ExplicitModule:
    """Left module given by one action matrix per algebra basis element."""

    def __init__(self, parent: AlgebraData, matrices: Sequence[np.ndarray]):
        self.parent = parent
        self.matrices = [np.asarray(m, complex) for m in matrices]
        self.dimension = int(self.matrices[0].shape[0])

    def character(self) -> Character:
        return Character(self.parent, [np.trace(m) for m in self.matrices])

    def action(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dimension, self.dimension), dtype=complex)
        for c, m in zip(np.asarray(x, complex), self.matrices):
            out += c * m
        return out

    def verify(self) -> float:
        """Max residual of the matrices realizing the multiplication table."""
        A = self.parent
        stack = np.stack(self.matrices)
        lhs = np.einsum("iab,jbc->ijac", stack, stack, optimize=True)
        rhs = np.einsum("ijk,kac->ijac", A.mult, stack, optimize=True)
        resid = float(np.max(np.abs(lhs - rhs)))
        unit_resid = float(np.max(np.abs(self.action(A.unit) - np.eye(self.dimension))))
        return max(resid, unit_resid)


def _cluster_eigenvalues(vals: np.ndarray, expect_clusters: int,
                         expect_size: int) -> Optional[list[complex]]:
    scale = max(1.0, float(np.max(np.abs(vals))))
    reps: list[complex] = []
    counts: list[int] = []
    for v in vals:
        for i, rep in enumerate(reps):
            if abs(v - rep) < 1e-6 * scale:
                counts[i] += 1
                break
        else:
            reps.append(complex(v))
            counts.append(1)
    if len(reps) != expect_clusters or any(c != expect_size for c in counts):
        return None
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if abs(reps[i] - reps[j]) < 1e-4 * scale:
                return None
    return reps


def construct_irreducible_module(A: AlgebraData, dec: SemisimpleDecomposition,
                                 index: int, seed: int = DEFAULT_SEED,
                                 max_retries: int = 12) -> ExplicitModule:
    """Explicit action matrices for one simple block.

    Splits a random block element into spectral projectors; the rank-one
    projector for a single eigenvalue is a primitive idempotent p and the
    left ideal A p carries the irreducible action.
    """
    n = dec.dims[index]
    e = dec.idempotents[index]
    chi = dec.irr[index]
    if n == 1:
        mats = [np.array([[v]], dtype=complex) for v in chi.values]
        mod = ExplicitModule(A, mats)
        if mod.verify() > 1e-7:
            raise ConsistencyError("scalar module fails the multiplication table")
        return mod

    rng = np.random.default_rng(seed + 7919 * index)
    block = linalg.orthonormal_columns(A.right_mult_matrix(e))
    nn = block.shape[1]
    for _ in range(max_retries):
        x = block @ linalg.random_complex(rng, nn)
        xop = block.conj().T @ (A.left_mult_matrix(x) @ block)
        vals = np.linalg.eigvals(xop)
        reps = _cluster_eigenvalues(vals, n, n)
        if reps is None:
            continue
        lam0, rest = reps[0], reps[1:]
        p = e.copy()
        for lam in rest:
            p = A.product(p, (x - lam * e)) / (lam0 - lam)
        if float(np.max(np.abs(A.product(p, p) - p))) > 1e-6 * max(1.0, float(np.max(np.abs(p))) ** 2):
            continue
        V = linalg.orthonormal_columns(A.right_mult_matrix(p))
        if V.shape[1] != n:
            continue
        imgs = A.products(np.eye(A.dim), V)             # imgs[:, k, :] = e_k V
        coords = np.tensordot(V.conj().T, imgs, axes=1)
        if float(np.max(np.abs(np.tensordot(V, coords, axes=1) - imgs))) > 1e-7:
            continue
        mod = ExplicitModule(A, list(coords.transpose(1, 0, 2)))
        if mod.verify() > 1e-6:
            continue
        if not mod.character().close_to(chi, 1e-6):
            raise ConsistencyError("module trace disagrees with the block character")
        return mod
    raise NumericDegeneracyError("spectral splitting failed after max retries")


# ---------------------------------------------------------------------------
# recognizing group algebras

def group_algebra_form(H: HopfAlgebraData, seed: int = DEFAULT_SEED
                       ) -> Optional[tuple[FiniteGroup, np.ndarray]]:
    """Identify H with a group algebra kF when possible.

    Returns (F, P) with the columns of P the group-like elements of H in
    the order matching F (identity first), or None when the dual is not
    commutative.  P conjugates H onto group_algebra(F).
    """
    dec = wedderburn(dual_hopf(H), seed=seed)
    if any(n != 1 for n in dec.dims):
        return None
    grouplikes = []
    for ch in dec.irr:
        v = ch.values
        if float(np.max(np.abs(H.apply_comult(v) - np.outer(v, v)))) > 1e-7:
            return None
        if abs(complex(H.counit @ v) - 1.0) > 1e-7:
            return None
        grouplikes.append(v)
    ident = [k for k, v in enumerate(grouplikes)
             if float(np.max(np.abs(v - H.unit))) < 1e-7]
    if len(ident) != 1:
        raise ConsistencyError("group-like basis has no unique identity")
    order = [ident[0]] + [k for k in range(len(grouplikes)) if k != ident[0]]
    P = np.stack([grouplikes[k] for k in order], axis=1)
    n = P.shape[1]
    # hits[i, j, k]: the product of group-likes i and j is group-like k
    prods = H.products(P, P)
    hits = np.stack([np.max(np.abs(prods - P[:, k, None, None]), axis=0) < 1e-6
                     for k in range(n)], axis=2)
    if np.any(hits.sum(axis=2) != 1):
        raise ConsistencyError("group-like elements are not closed under product")
    labels = ["1"] + [f"q{i}" for i in range(1, n)]
    F = FiniteGroup(np.argmax(hits, axis=2), labels=labels)
    return F, P


def as_group_algebra_surjection(pi: HopfSurjection, seed: int = DEFAULT_SEED
                                ) -> Optional[tuple[FiniteGroup, HopfSurjection]]:
    """Rewrite a quotient map so its target is a literal group algebra."""
    target = pi.target
    if not isinstance(target, HopfAlgebraData):
        return None
    if target.is_group_like_basis():
        return _group_from_group_like_basis(target), pi
    form = group_algebra_form(target, seed=seed)
    if form is None:
        return None
    F, P = form
    kF = group_algebra(F)
    new_pi = HopfSurjection(source=pi.source, target=kF,
                            matrix=np.linalg.inv(P) @ pi.matrix)
    return F, new_pi


def _group_from_group_like_basis(H: HopfAlgebraData) -> FiniteGroup:
    """The group a group-like basis forms: mult[i, j] must be one basis vector."""
    cayley = np.argmax(np.abs(H.mult), axis=2)
    hit = np.take_along_axis(H.mult, cayley[:, :, None], axis=2)
    if float(np.max(np.abs(hit - 1.0))) > 1e-7:
        raise ConsistencyError("basis is not closed as a group")
    return FiniteGroup(cayley, labels=list(H.labels))
