"""Semisimple decomposition, characters, restriction and induction.

Artin-Wedderburn over the complex numbers by center splitting: the center
is the range of the Casimir projection of the regular trace form (D. G.
Higman, Canad. J. Math. 1955), whose trace is its dimension, checked
against every basis element, and is split by eigendecomposition of a
seeded-random central element; the resulting central primitive
idempotents give block sizes and irreducible characters via regular
traces, and a character's multiplicities are its values on them.  No
step takes the SVD of a (2d, d) matrix or a least-squares solve.
Integrality and idempotency checks use the thresholds of `linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import (ConsistencyError, NotACharacterError,
                     NumericDegeneracyError, SemisimplicityError)
from .groups import FiniteGroup
from .hopf import (AlgebraData, HopfAlgebraData, HopfSurjection, dual_hopf,
                   group_algebra, hopf_map_residual)
from .linalg import (COND_LIMIT, DEFAULT_SEED, TOL_MATCH, TOL_NUM, TOL_ZERO,
                     max_abs, nearest_int, require)

MAX_RETRIES = 12    # random splitting elements tried before a decomposition gives up


class Character:
    """Linear functional on an algebra, recorded by its values on the basis.

    The degree is computed and checked on first read and kept; a degree
    that is no integer raises on every read, since nothing is kept then.
    """

    def __init__(self, parent: AlgebraData, values):
        self.parent = parent
        self.values = np.asarray(values, dtype=complex)

    @cached_property
    def degree(self) -> int:
        d = complex(self.values @ self.parent.unit)
        n = nearest_int(d.real)
        require(abs(d - n), TOL_MATCH, ConsistencyError, f"character degree {d} is not an integer")
        return n

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


def _round6(x: np.ndarray) -> np.ndarray:
    """round(v, 6) + 0.0, as Python gives it, of every entry v of the real
    array x.

    Python rounds the exact v 10^6 to an integer N, half to even, and
    returns the double nearest N 10^-6.  rint(v * 1e6) / 1e6 returns that
    double too, since the division is correctly rounded, whenever v * 1e6
    is below 2^52 and further than an ulp from half an integer, so that its
    own rounding moves it past no tie; the other entries, NaN and the
    infinities among them, are rounded by Python.
    """
    y = x * 1e6
    out = np.rint(y) / 1e6 + 0.0
    a = np.abs(y)
    with np.errstate(invalid="ignore"):
        near = ~(a < 2.0 ** 52) | (np.abs(2 * (a - np.floor(a)) - 1) <= 2 * np.spacing(a))
    for i in zip(*np.nonzero(near)):
        out[i] = round(float(x[i]), 6) + 0.0
    return out


def sort_order(values: np.ndarray, dims: Sequence[int]) -> list[int]:
    """Positions of the characters, the columns of `values`, in the order
    Irr is sorted: by degree, then by values, each rounded to 6 decimals
    (round(x, 6) + 0.0, real part before imaginary part), compared as Python
    compares the tuples (degree, list of rounded (real, imag) pairs), NaN
    included.  Each value is rounded once, all at once (`_round6`), and the
    tuples are compared without a Python call per pair."""
    real, imag = _round6(values.real.T).tolist(), _round6(values.imag.T).tolist()
    keys = [(n, list(zip(a, b))) for n, a, b in zip(dims, real, imag)]
    return sorted(range(len(keys)), key=keys.__getitem__)


def wedderburn(A: AlgebraData, seed: int = DEFAULT_SEED,
               frame: Optional[np.ndarray] = None) -> SemisimpleDecomposition:
    """Central primitive idempotents, block sizes, irreducible characters.

    The center is the range of the Casimir projection (`_center`) of the
    regular trace form that the semisimplicity gate forms; the
    eigenvectors v_k of a random central element, drawn from stream 2 of
    `seed` (`linalg.random_stream`), scaled by their Rayleigh quotients
    under v -> v v, give the idempotents.  The products v_k v_l are formed
    in blocks of at most linalg.STACK_BYTES and reduced at once to the
    squares, which give the quotients and the idempotency gate, and to the
    peaks |v_k v_l| that the orthogonality check of `_check_decomposition`
    reads (`_column_products`).  The characters of every block are one
    product with the regular trace form.  A failing block redraws the
    splitting element.  Irr(A) is sorted by degree, then by the
    character's values (`sort_order`).
    When A is a subalgebra given on orthonormal columns `frame` of a larger
    algebra, the values sorted on are those of the character as a
    functional on the larger algebra, conj(frame) @ values, which do not
    depend on which orthonormal basis of the subalgebra `frame` is.
    """
    trL = A.regular_trace_vector()
    trace_form = A.mult_coo.along((2,), trL)
    require(linalg.cond(trace_form), COND_LIMIT, SemisimplicityError,
            "regular trace form is degenerate: condition number")

    center = _center(A, seed, trace_form)
    r = center.shape[1]
    rng = linalg.random_stream(seed, 2)

    for _ in range(MAX_RETRIES):
        z = center @ linalg.random_complex(rng, r)
        zop = center.conj().T @ A.left_mult_matrix(z) @ center
        vals, vecs = linalg.eig(zop)
        scale = max(1.0, max_abs(vals))
        if r > 1:
            i, j = np.triu_indices(r, 1)
            if not np.min(np.abs(vals[i] - vals[j])) >= TOL_MATCH * scale:
                continue
        V = center @ vecs                                     # column k: v_k
        vv, peaks = _column_products(A, V)                    # vv[:, k] = v_k v_k
        lam = np.einsum("ik,ik->k", V.conj(), vv) / np.einsum("ik,ik->k", V.conj(), V)
        if not np.all(np.abs(lam) >= TOL_ZERO):
            continue
        E = V / lam                                           # column k: e_k
        # e_k e_k = v_k v_k / lam_k^2 must be e_k
        sizes = np.maximum(1.0, np.abs(E).max(axis=0) ** 2)
        if not np.all(np.abs(vv / lam ** 2 - E).max(axis=0) <= TOL_NUM * sizes):
            continue
        if not max_abs(E.sum(axis=1) - A.unit) <= TOL_NUM:
            continue
        nn = (trL @ E).tolist()
        dims = [nearest_int(np.sqrt(max(x.real, 0.0))) for x in nn]
        if not all(n >= 1 and abs(x - n * n) <= TOL_MATCH * max(1.0, abs(x))
                   for n, x in zip(dims, nn)):
            continue
        chars = (trace_form @ E) / np.array(dims)             # column k: character of block k
        order = sort_order(chars if frame is None else frame.conj() @ chars, dims)
        dec = SemisimpleDecomposition(
            algebra=A,
            idempotents=[E[:, k].copy() for k in order],
            dims=[dims[k] for k in order],
            irr=[Character(A, chars[:, k].copy()) for k in order],
        )
        _check_decomposition(dec, (peaks / np.abs(np.outer(lam, lam)))[np.ix_(order, order)])
        return dec
    raise NumericDegeneracyError("central splitting failed after max retries")


def _center(A: AlgebraData, seed: int, trace_form: Optional[np.ndarray] = None) -> np.ndarray:
    """Orthonormal basis of the center: the range of the Casimir projection.

    With e^i the dual basis of e_i under the regular trace form G (given as
    `trace_form`, else formed), tau(x) = sum_i e_i x e^i is the projection
    of a semisimple A onto its center along [A, A] (D. G. Higman, Canad. J.
    Math. 1955), so its trace is dim Z(A); that trace is gated as an integer
    r.  tau is `AlgebraData.casimir` of H = G^-1 (`linalg.solve`).  When
    r = d the algebra is commutative and its basis is the center's, as for
    every k^G; otherwise the center is the orthonormal range of tau times r
    Gaussian columns, drawn from stream 0 of the seed
    (`linalg.random_stream`) so that they shift no other use's draws.  The
    basis is then checked against every basis element
    (`AlgebraData.commutator_residual`: from linalg.JOIN_MIN_DIM on, joins
    of the entries of a sparse `mult` and the basis, otherwise `mult`
    contracted with the basis on each side; NaN, and so a retry, when
    either is not finite).  A NaN in `mult` fails the trace's gate.
    """
    d = A.dim
    if trace_form is None:
        trace_form = A.mult_coo.along((2,), A.regular_trace_vector())
    tau = A.casimir(linalg.solve(trace_form, np.eye(d, dtype=complex)))
    t = complex(np.trace(tau))
    r = nearest_int(t.real)
    if not (1 <= r <= d and abs(t - r) <= TOL_MATCH * max(1.0, abs(t))):
        raise NumericDegeneracyError(f"the Casimir projection's trace {t:.6g} is no dimension")
    rng = linalg.random_stream(seed, 0)
    for _ in range(MAX_RETRIES if r < d else 1):
        center = (np.eye(d, dtype=complex) if r == d
                  else linalg.orthonormal_columns(tau @ linalg.random_complex(rng, (d, r))))
        if center.shape[1] == r and A.commutator_residual(center) <= TOL_NUM:
            return center
    raise NumericDegeneracyError("center of the Casimir projection failed after max retries")


def _column_products(A: AlgebraData, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The squares v_k v_k of the columns of V, as columns, and
    peaks[k, l] = max |v_k v_l|.

    The products come from T[k, j, :] = v_k e_j, `mult` contracted with
    blocks of the v_k whose T and products hold at most linalg.STACK_BYTES,
    and are reduced block by block.  Each v_k's matrix product has one
    shape whatever its block, so the result is bitwise that of one block.
    """
    d, r = V.shape
    squares = np.empty((d, r), dtype=complex)
    peaks = np.empty((r, r))
    step = linalg.stack_items(16 * d * (2 * d + r))
    for lo in range(0, r, step):
        # P[k, l, :] = v_lo+k v_l from T[k, j, :] = v_lo+k e_j, freed at once
        T = A.mult_coo.along((0,), V[:, lo:lo + step]).transpose(2, 0, 1)
        P = V.T @ np.ascontiguousarray(T)
        del T
        ks = np.arange(P.shape[0])
        squares[:, lo + ks] = P[ks, lo + ks].T
        peaks[lo + ks] = np.abs(P).max(axis=2)
    return squares, peaks


def _check_decomposition(dec: SemisimpleDecomposition, peaks: np.ndarray) -> None:
    """Block squares sum to dim A, and the idempotents are orthogonal:
    peaks[i, j] is max |e_i e_j|, in the order of dec.idempotents."""
    A = dec.algebra
    if sum(n * n for n in dec.dims) != A.dim:
        raise ConsistencyError("block squares do not sum to the dimension")
    i, j = np.triu_indices(dec.num_blocks, 1)
    require(max_abs(peaks[i, j]), TOL_NUM, ConsistencyError,
            "central idempotents are not orthogonal")


def decompose(chi: Character, dec: SemisimpleDecomposition) -> np.ndarray:
    """Multiplicities of `chi` in the irreducible character basis.

    `chi.values` may be a stack of characters, one per row; the result then
    has one row of multiplicities per character, and each character is
    gated against its own scale, as if it were decomposed alone.
    Irr(A)[j] takes the value deg_j on the central idempotent e_j and 0 on
    the others, so chi(e_j) = m_j deg_j gives each m_j without a solve;
    chi must then lie within TOL_NUM of sum_j m_j Irr(A)[j], and each m_j
    within TOL_MATCH of a nonnegative integer.
    """
    X = np.stack([c.values for c in dec.irr], axis=1)
    values = np.atleast_2d(chi.values).T                     # one character per column
    coeffs = (np.stack(dec.idempotents) @ values) / np.array(dec.dims)[:, None]
    resid = np.abs(X @ coeffs - values).max(axis=0)
    bound = TOL_NUM * np.maximum(1.0, np.abs(values).max(axis=0))
    worst = int(np.argmax(resid / bound))                    # a NaN counts as the worst
    require(resid[worst], bound[worst], NotACharacterError,
            "values are not in the character span")
    n = np.rint(coeffs.real)
    bad = ~(np.abs(coeffs - n) <= TOL_MATCH) | (n < 0)
    if bad.any():
        raise NotACharacterError(f"multiplicity {coeffs[bad][0]} is not a nonnegative integer")
    n = n.T.astype(np.int64)
    return n if chi.values.ndim == 2 else n[0]


def restriction_table(inc, dec_small: SemisimpleDecomposition, dec_big: SemisimpleDecomposition,
                      restricted: Optional[np.ndarray] = None) -> np.ndarray:
    """table[c, k] = multiplicity of Irr(small)[k] in Irr(big)[c] restricted.

    The rows of `restricted`, when given, are those restrictions, the
    product this forms otherwise."""
    if restricted is None:
        restricted = np.stack([c.values for c in dec_big.irr]) @ np.asarray(inc.embedding, complex)
    return decompose(Character(inc.small, restricted), dec_small)


def induce_character(alpha: Character, inc, dec_small: SemisimpleDecomposition,
                     dec_big: SemisimpleDecomposition, table: np.ndarray) -> Character:
    """Induction by Frobenius reciprocity: m(alpha^, chi) = m(alpha, chi|).

    `table` is restriction_table(inc, dec_small, dec_big), so the induced
    multiplicities are table @ m(alpha).  `alpha.values` may be a stack of
    characters, one per row, as for `decompose`: the result then holds one
    induced character per row, each summed as if induced alone, and each
    row's degree is checked against the index.
    """
    coeffs = np.atleast_2d(decompose(alpha, dec_small) @ table.T)
    values = sum(n[:, None] * chi.values for n, chi in zip(coeffs.T, dec_big.irr))
    ratio = Fraction(inc.big.dim, inc.small.dim)
    for row, small in zip(values, np.atleast_2d(alpha.values)):
        got = Character(inc.big, row).degree
        expected = ratio * Character(inc.small, small).degree
        if Fraction(got) != expected:
            raise ConsistencyError(f"induced degree {got} != {expected} predicted by the index")
    return Character(inc.big, values if alpha.values.ndim == 2 else values[0])


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
        if not (max_abs(H.apply_comult(v) - np.outer(v, v)) <= TOL_NUM
                and abs(complex(H.counit @ v) - 1.0) <= TOL_NUM):
            return None
        grouplikes.append(v)
    ident = [k for k, v in enumerate(grouplikes) if max_abs(v - H.unit) < TOL_NUM]
    if len(ident) != 1:
        raise ConsistencyError("group-like basis has no unique identity")
    order = [ident[0]] + [k for k in range(len(grouplikes)) if k != ident[0]]
    P = np.stack([grouplikes[k] for k in order], axis=1)
    n = P.shape[1]
    # hits[i, j, k]: the product of group-likes i and j is group-like k
    prods = H.products(P, P)
    hits = np.stack([np.max(np.abs(prods - P[:, k, None, None]), axis=0) < TOL_MATCH
                     for k in range(n)], axis=2)
    if np.any(hits.sum(axis=2) != 1):
        raise ConsistencyError("group-like elements are not closed under product")
    labels = ["1"] + [f"q{i}" for i in range(1, n)]
    F = FiniteGroup(np.argmax(hits, axis=2), labels=labels)
    return F, P


def as_group_algebra_surjection(pi: HopfSurjection, seed: int = DEFAULT_SEED
                                ) -> Optional[tuple[FiniteGroup, HopfSurjection]]:
    """Rewrite a quotient map so its target is a literal group algebra.

    The map onto kF, P^{-1} pi by least squares, is rounded to the 0/1
    map it is when every entry lies within TOL_NUM of 0 or 1, so that the
    kernels read its nonzeros; either way it must be a Hopf map within TOL_NUM.
    F always comes from `group_algebra_form`, also when the quotient's basis
    is group-like already, so its labels do not follow the sign or scale that
    basis happens to have.
    """
    target = pi.target
    if not isinstance(target, HopfAlgebraData):
        return None
    form = group_algebra_form(target, seed=seed)
    if form is None:
        return None
    F, P = form
    kF = group_algebra(F)
    matrix = linalg.lstsq(P, pi.matrix, rcond=None)[0]
    rounded = (np.abs(matrix - 1.0) <= TOL_NUM).astype(complex)
    if max_abs(matrix - rounded) <= TOL_NUM:
        matrix = rounded
    require(hopf_map_residual(pi.source, kF, matrix), TOL_NUM, ConsistencyError,
            "the projection onto the recognised kF is not a Hopf map")
    return F, HopfSurjection(source=pi.source, target=kF, matrix=matrix)

