"""Finite-dimensional Hopf algebras as structure-constant tensors.

Conventions, for an algebra of dimension d with basis e_0..e_{d-1}:

    mult[i, j, k]    coefficient of e_k in e_i * e_j
    unit[k]          coefficients of the unit element
    comult[k, i, j]  coefficient of e_i (x) e_j in Delta(e_k)
    counit[k]        value of the counit on e_k
    antipode[p, i]   coefficient of e_p in S(e_i), i.e. columns are images

Scalars are complex double precision; every constructor here produces exact
0/1 entries, so axiom residuals measure only solver error.  `mult` and
`comult` are stored in COO form only (`Coo`, their nonzero entries in
row-major order): those of k^G # kF hold d*|F| nonzeros in `mult` and d*|G|
in `comult` (kG and k^G are the cases G = 1 and F = 1), as do their duals,
whose tensors are permutations of the same index arrays.  The constructors
emit the index arrays from the group tables and never form a d^3 array; a
dense tensor, as for a subalgebra's orthonormal basis, is accepted and
scanned once.  The kernels of the algebra classes
read a tensor through its nonzeros whenever it has at most d^2 of them
(`Coo.sparse`), and through the dense tensor, built on first use,
otherwise.  The axiom gate contracts over the nonzeros too, in blocks of
each contraction's leading output index that hold at most
linalg.STACK_BYTES of pairs and give bitwise the unblocked residuals, and
takes the dense einsums only when a whole contraction would pair more than
d^4 of them.  The Hopf axioms are self-dual, so the dual's contraction and
antipode residuals are read from the algebra's once its tensors are tested
to be exactly the algebra's transposed (`verify_dual_axioms`); each pair of
tensors is contracted once.  The adjoint actions of the basis, S(e_k1) x
e_k2 and e_k1 x S(e_k2), have one kernel, `_adjoint_entries`, which the
normality test, the antipode residuals and the conjugation matrices all
read: chains of joins of the entries of Delta, S, x and `mult` kept in
COO form, so that their cost follows the nonzeros.  When a join would pair
more than d^2 entries, as for a dense S, it forms the action densely
instead; that is its one dense fallback.  A coefficient space of
dimension n^2 is the range of a seeded Gaussian sketch with n^2 + 1
columns, gated on its rank and on holding every coefficient, not the SVD
of a d x d matrix; `coefficient_spaces` takes every irreducible dual
character at once, and the sketches of one degree, which share their
Gaussian columns, are one stacked SVD and one batched containment gate.
A coordinate subspace, the span of some basis vectors (B = k^G, kN, every
A_f = B u_f, S = A(H), and every stabilizer Z met), carries its
`support`, whatever orthonormal basis it stores, and the support alone
selects its form at every dimension:
containment and equality read the other basis's rows off the support, the
Hopf-subalgebra test reads the entries of `unit`, `mult`, `comult` and
the antipode that leave it, and normality sums the adjoint entries whose
output leaves it.  Every other subspace, a 0/1 basis with several ones a
column included, takes the dense form of the Hopf-subalgebra test, which
reads "x in V" through V itself.  The other 0/1 operands (the embedding of
k^G, the projection onto kF, a permutation antipode) enter in COO form too
(`_entries`): from dimension JOIN_MIN_DIM on, when each holds at most d
nonzeros and the tensors are sparse and finite (`_joins_apply`), the
Hopf-map residual and `products` join them with `mult` and `comult`, the
centre's commutators join their operand with a sparse `mult` whenever that
pairs fewer entries than a dense side holds, and each reduces the results
through `_difference`, so that their cost follows the nonzeros; each has
one dense form, taken otherwise and when a join would pair more entries
than its limit (`_TooManyPairs`).
Below JOIN_MIN_DIM the dense forms cost less than the joins' sorting.
The centre's Casimir projection joins a sparse `mult` with the entries of
the inverse trace form, then with itself, at every dimension, and takes
its dense form, cut at linalg.STACK_BYTES, for a dense `mult` or when a
join would pair more than d^2 entries (`AlgebraData.casimir`).
Cocentrality, once per request, and the comodule map rho are joins only,
at every dimension, and a NaN or Inf in Delta or pi fails the one and is
refused by the other.  rho is kept in COO form, and a graded component
A_f is the span of the nonzero columns of rho_f, which are its basis as
they stand when they are orthonormal; every A_f comes from one call
(`graded_components`).
Checks compare against the thresholds named in `linalg`; only
`verify_hopf_axioms` takes a tolerance, the scenario's `tolerances.alg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import ConsistencyError, NormalityError, PreconditionError
from .groups import FiniteGroup, MatchedPair, verify_matched_pair
from .linalg import TOL_ALG, TOL_MATCH, max_abs, require


class Coo:
    """The nonzero (and NaN) entries of a d x d x d structure tensor, in the
    row-major order `np.nonzero` gives, so that every sum over them runs in
    one order whichever way the tensor was made.

    `sparse` is the rule the algebra classes' kernels follow: a tensor with
    at most d^2 entries is read through them, a denser one through the
    dense tensor.  `finite` tells whether every entry is finite: the joins
    with 0/1 operands (`_joins_apply`) read only a finite tensor.
    """

    def __init__(self, dim: int, idx: tuple[np.ndarray, ...], val: np.ndarray):
        self.dim = dim
        self.entries = (idx, val)
        self.sparse = val.size <= dim ** 2
        self.finite = bool(np.isfinite(val).all())
        self._plans: dict[tuple[int, ...], tuple] = {}

    @classmethod
    def from_entries(cls, dim: int, idx: Sequence[np.ndarray], val: np.ndarray) -> "Coo":
        """The tensor with `val` at the distinct indices `idx`, given in any order."""
        order = np.argsort(np.ravel_multi_index(tuple(idx), (dim,) * 3))
        return cls(dim, tuple(np.asarray(i)[order] for i in idx), np.asarray(val, complex)[order])

    @classmethod
    def from_dense(cls, tensor: np.ndarray) -> "Coo":
        """The entries of a dense tensor, found in one scan; the tensor is kept."""
        idx = np.nonzero(tensor)
        coo = cls(int(tensor.shape[0]), idx, tensor[idx])
        coo.tensor = tensor
        return coo

    @cached_property
    def tensor(self) -> np.ndarray:
        """The dense tensor, built on first use: for the dense path and tests."""
        out = np.zeros((self.dim,) * 3, dtype=complex)
        idx, val = self.entries
        out[idx] = val
        return out

    def transpose(self, axes: tuple[int, ...]) -> "Coo":
        """The tensor with its axes permuted as by `np.transpose`."""
        idx, val = self.entries
        return Coo.from_entries(self.dim, [idx[a] for a in axes], val)

    def contract(self, axes: tuple[int, ...], X: np.ndarray) -> np.ndarray:
        """Sum of the tensor times X over the tensor `axes` and X's leading axes.

        out[r..., t...] = sum_s T[...] X[s..., t...], with s the indices at
        `axes`, r the other indices of T in order and t X's trailing axes.
        """
        gather, val, keys, starts = self._plan(axes)
        tail = X.shape[len(axes):]
        rows = X[gather] * val.reshape((-1,) + (1,) * len(tail))
        if starts is not None:
            rows = np.add.reduceat(rows, starts, axis=0)
        rest = 3 - len(axes)
        out = np.zeros((self.dim ** rest,) + tail, dtype=complex)
        out[keys] = rows
        return out.reshape((self.dim,) * rest + tail)

    def along(self, axes: tuple[int, ...], X: np.ndarray) -> np.ndarray:
        """`contract(axes, X)`, through the entries when `sparse`, else dense."""
        if self.sparse:
            return self.contract(axes, X)
        return np.tensordot(self.tensor, X, axes=(list(axes), list(range(len(axes)))))

    def _plan(self, axes: tuple[int, ...]) -> tuple:
        """The entries sorted by their output index, built once per `axes`.

        Returns the gather indices, the values, the output indices and the
        start of each run of equal output indices, None when they are
        distinct (as for every constructor's tensor), so that `contract`
        scatters with one assignment.
        """
        if axes not in self._plans:
            idx, val = self.entries
            rest = [a for a in range(3) if a not in axes]
            keys = np.ravel_multi_index([idx[a] for a in rest], (self.dim,) * len(rest))
            if np.bincount(keys).max(initial=0) <= 1:
                self._plans[axes] = (tuple(idx[a] for a in axes), val, keys, None)
            else:
                order = np.argsort(keys, kind="stable")
                starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
                self._plans[axes] = (tuple(idx[a][order] for a in axes), val[order],
                                     keys[order][starts], starts)
        return self._plans[axes]


def _as_coo(tensor, dim: int, mismatch: str) -> Coo:
    """`tensor`, a Coo or a dense array, as a Coo of dimension `dim`."""
    if not isinstance(tensor, Coo):
        tensor = np.ascontiguousarray(tensor, dtype=complex)
        if tensor.shape != (dim,) * 3:
            raise ValueError(mismatch)
        tensor = Coo.from_dense(tensor)
    if tensor.dim != dim:
        raise ValueError(mismatch)
    return tensor


class AlgebraData:
    """Associative unital algebra given by structure constants.

    `mult` may be given as a `Coo` or as a dense array; it is stored as
    `mult_coo`.
    """

    def __init__(self, mult, unit, labels: Optional[Sequence[str]] = None):
        self.unit = np.ascontiguousarray(unit, dtype=complex)
        self.dim = int(self.unit.shape[0])
        self.mult_coo = _as_coo(mult, self.dim, "mult tensor shape mismatch")
        self.labels = list(labels) if labels is not None else [f"e{i}" for i in range(self.dim)]

    @property
    def mult(self) -> np.ndarray:
        """The dense `mult`, built on first read: for the dense path and tests."""
        return self.mult_coo.tensor

    def products(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """All pairwise products: out[:, a, b] = U[:, a] * V[:, b], shape (d, |U|, |V|).

        When U and V are 0/1 maps or bases of unit vectors (`_joins_apply`),
        the products are joins of their entries with `mult`
        (`_product_entries`) summed into the result.  Otherwise the thinner
        operand is contracted with `mult` first (`Coo.along`, through the
        nonzeros or the dense tensor), so that the intermediate holds
        d^2 min(|U|, |V|) entries.
        """
        d = self.dim
        U, V = np.asarray(U, complex), np.asarray(V, complex)
        if _joins_apply(d, (self.mult_coo,), (U, V)):
            try:
                (a, b, o), val = _product_entries(self, U, V)
                nU, nV = U.shape[1], V.shape[1]
                return _scatter_sum((o * nU + a) * nV + b, val, d * nU * nV).reshape(d, nU, nV)
            except _TooManyPairs:
                pass
        if V.shape[1] < U.shape[1]:
            T = self.mult_coo.along((1,), V)                         # T[i, k, b] = e_i * V[:, b]
            out = U.T @ T.reshape(d, -1)                             # out[a, (k, b)]
            return out.reshape(U.shape[1], d, V.shape[1]).transpose(1, 0, 2)
        T = self.mult_coo.along((0,), U)                             # T[j, k, a] = U[:, a] * e_j
        out = V.T @ T.reshape(d, -1)                                 # out[b, (k, a)]
        return out.reshape(V.shape[1], d, U.shape[1]).transpose(1, 2, 0)

    def commutator_residual(self, X: np.ndarray) -> float:
        """max |e_i x_c - x_c e_i| over the basis e_i and the columns x_c of
        X; NaN when `mult` or X is not finite.

        From dimension JOIN_MIN_DIM on, when `mult` is sparse, each side is
        a join of the entries of `mult` and X, reduced by
        `_max_abs_difference`, if it pairs fewer entries than the d^2 |X|
        of a dense side: for a 0/1 X, as the identity basis of a
        commutative centre is, or for a `mult` sparser than kG's, as a
        bismash product's and its dual's are.  Otherwise, as for a dense
        centre of kG, `mult` is contracted with X along its second and
        along its first index (`Coo.along`).
        """
        d, r = self.dim, X.shape[1]
        if not (self.mult_coo.finite and np.isfinite(X).all()):
            return float("nan")
        m = self.mult_coo.entries
        if (_joins_apply(d, (self.mult_coo,), ())
                and np.bincount(m[0][1], minlength=d) @ np.count_nonzero(X, axis=1) < d * d * r):
            x = _entries(X)
            return _max_abs_difference(_coo_einsum("ijo,jc->ico", m, x, d, limit=d * d * r),
                                       _coo_einsum("jc,jio->ico", x, m, d, limit=d * d * r),
                                       (d, r, d))
        return max_abs(self.mult_coo.along((1,), X) - self.mult_coo.along((0,), X))

    def casimir(self, H: np.ndarray) -> np.ndarray:
        """The matrix of x -> sum_i e_i x e^i, the dual basis e^i = sum_j
        H[j, i] e_j: out[o, x] = sum_ijp H[j, i] mult[i, x, p] mult[p, j, o].

        A sparse `mult` is joined with the entries of H first, then with
        itself (`_coo_einsum`, each join pairing at most d^2 entries), and
        the pairs are summed into the result; joining `mult` with itself
        first would pair d^3 entries for kG.  A dense `mult`, or a join that
        would pair more, takes the dense form: sum_j R(e_j) L(e^j), over
        blocks of j whose (d, d) factors hold at most linalg.STACK_BYTES
        (`Coo.along`, so that a sparse `mult` is never formed densely).
        """
        d = self.dim
        if self.mult_coo.sparse:
            m = self.mult_coo.entries
            try:
                t = _coo_einsum("ixp,ji->jxp", m, _entries(H), d, limit=d * d)
                (o, x), val = _coo_einsum("jxp,pjo->ox", t, m, d, limit=d * d)
                return _scatter_sum(o * d + x, val, d * d).reshape(d, d)
            except _TooManyPairs:
                pass
        out = np.zeros((d, d), dtype=complex)
        step = linalg.stack_items(4 * 16 * d * d)
        for lo in range(0, d, step):
            js = slice(lo, lo + step)
            left = self.mult_coo.along((0,), H[js].T)          # [x, p, j]: e^j e_x
            right = self.mult_coo.along((1,), np.eye(d, dtype=complex)[:, js])   # [p, o, j]
            out += (right.transpose(1, 0, 2).reshape(d, -1)
                    @ left.transpose(1, 2, 0).reshape(-1, d))
        return out

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.left_mult_matrix(x) @ y

    def left_mult_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix L with L @ y = x * y."""
        return self.mult_coo.along((0,), np.asarray(x, complex)).T

    def right_mult_matrix(self, y: np.ndarray) -> np.ndarray:
        """Matrix R with R @ x = x * y."""
        return self.mult_coo.along((1,), np.asarray(y, complex)).T

    def multiply(self, Y: np.ndarray) -> np.ndarray:
        """The multiplication map: sum_ab Y[a, b, ...] e_a * e_b, shape (d, ...)."""
        return self.mult_coo.along((0, 1), np.asarray(Y, complex))

    def regular_trace_vector(self) -> np.ndarray:
        """tr of left multiplication by each basis element: sum_j mult[i, j, j]."""
        (i, j, k), val = self.mult_coo.entries
        return _scatter_sum(i[j == k], val[j == k], self.dim)


class HopfAlgebraData(AlgebraData):
    """Hopf algebra structure constants; antipode may stay unset until given."""

    def __init__(self, mult, unit, comult, counit,
                 labels: Optional[Sequence[str]] = None,
                 antipode: Optional[np.ndarray] = None):
        super().__init__(mult, unit, labels=labels)
        self.counit = np.ascontiguousarray(counit, dtype=complex)
        if self.counit.shape != (self.dim,):
            raise ValueError("coalgebra tensor shape mismatch")
        self.comult_coo = _as_coo(comult, self.dim, "coalgebra tensor shape mismatch")
        self.antipode = None if antipode is None else np.asarray(antipode, dtype=complex)
        self.checked_antipode: Optional[tuple[np.ndarray, dict[str, float]]] = None

    @property
    def comult(self) -> np.ndarray:
        """The dense `comult`, built on first read: for the dense path and tests."""
        return self.comult_coo.tensor

    def apply_comult(self, x: np.ndarray) -> np.ndarray:
        """Delta(x) as a (d, d) coefficient matrix over e_i (x) e_j; (n, d, d) for rows x."""
        along = self.comult_coo.along((0,), np.asarray(x, complex).T)    # [i, j, ...]
        return np.moveaxis(along, (0, 1), (-2, -1))


@dataclass
class SubspaceBasis:
    """Subspace of an algebra, stored as orthonormal columns.

    A coordinate subspace, the span of some basis vectors e_t, has a
    `support`, those t, whatever orthonormal basis of it is stored, and is
    tested through it by index reads; any other has none.
    """

    parent: AlgebraData
    matrix: np.ndarray

    @cached_property
    def support(self) -> Optional[np.ndarray]:
        """The sorted rows that carry the basis, when exactly dim of them do
        and every other row vanishes within linalg.TOL_SUPPORT; else None,
        as for a basis with a NaN or Inf.  Orthonormal columns on k rows,
        the rest within that threshold, span the unit vectors of those rows
        up to it: each of those rows then has norm close to 1."""
        M = self.matrix
        if not np.isfinite(M).all():
            return None
        rows = np.flatnonzero(np.abs(M).max(axis=1, initial=0.0) > linalg.TOL_SUPPORT)
        return rows if rows.size == self.dim else None

    @classmethod
    def from_vectors(cls, parent: AlgebraData, vectors: np.ndarray) -> "SubspaceBasis":
        return cls(parent, linalg.orthonormal_columns(np.asarray(vectors, complex)))

    @classmethod
    def spanned_by(cls, parent: AlgebraData, vectors: np.ndarray) -> "SubspaceBasis":
        """The span of `vectors`, with the vectors themselves as its basis when
        their Gram matrix is I within TOL_ORTHO, as for unit vectors or for
        orthonormal components that are orthogonal to each other; else the
        SVD basis of `from_vectors`."""
        vectors = np.asarray(vectors, complex)
        gram = vectors.conj().T @ vectors
        if max_abs(gram - np.eye(gram.shape[0])) <= linalg.TOL_ORTHO:
            return cls(parent, vectors)
        return cls.from_vectors(parent, vectors)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def contains(self, other: "SubspaceBasis") -> bool:
        """Every column of `other` lies in the span within TOL_ALG: for a
        coordinate subspace, the rows of `other` off its support, which
        are what the projection leaves."""
        if self.support is None:
            return linalg.contains_vectors(self.matrix, other.matrix, TOL_ALG)
        return max_abs(other.matrix[_off(len(self.matrix), self.support)]) < TOL_ALG


def _off(dim: int, support: np.ndarray) -> np.ndarray:
    """The mask of the coordinates 0..dim-1 that are not in `support`."""
    out = np.ones(dim, dtype=bool)
    out[support] = False
    return out


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

def _ones(dim: int, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> Coo:
    """The 0/1 tensor with ones at the distinct indices (i, j, k)."""
    return Coo.from_entries(dim, (i, j, k), np.ones(i.size))


def group_algebra(G: FiniteGroup) -> HopfAlgebraData:
    """kG: basis the group, Delta(g) = g (x) g, S(g) = g^{-1}."""
    n = G.order
    i, j = np.divmod(np.arange(n * n), n)
    diag = np.arange(n)
    unit = np.zeros(n, dtype=complex)
    unit[0] = 1.0
    counit = np.ones(n, dtype=complex)
    A = HopfAlgebraData(_ones(n, i, j, G.cayley.ravel()), unit, _ones(n, diag, diag, diag),
                        counit, labels=list(G.labels))
    return _with_checked_antipode(A, np.eye(n, dtype=complex)[:, G.inverse], "g -> g^{-1}")


def dual_group_algebra(G: FiniteGroup) -> HopfAlgebraData:
    """k^G: orthogonal idempotents delta_g, Delta(delta_g) = sum_{st=g} delta_s (x) delta_t."""
    n = G.order
    i, j = np.divmod(np.arange(n * n), n)
    diag = np.arange(n)
    unit = np.ones(n, dtype=complex)
    counit = np.zeros(n, dtype=complex)
    counit[0] = 1.0
    labels = [f"d({lbl})" for lbl in G.labels]
    A = HopfAlgebraData(_ones(n, diag, diag, diag), unit, _ones(n, G.cayley.ravel(), i, j),
                        counit, labels=labels)
    return _with_checked_antipode(A, np.eye(n, dtype=complex)[:, G.inverse],
                                  "delta_g -> delta_{g^{-1}}")


def _with_checked_antipode(A: HopfAlgebraData, S: np.ndarray,
                           formula: str) -> HopfAlgebraData:
    """Set a closed-form antipode once it passes the antipode axioms."""
    res = antipode_residuals(A, S)
    require(max_abs(*res.values()), TOL_ALG, ConsistencyError,
            f"closed-form antipode {formula} fails the axioms: {res}")
    A.antipode = S
    return A


def dual_hopf(A: HopfAlgebraData) -> HopfAlgebraData:
    """Dual Hopf algebra on the dual basis: transpose every structure tensor,
    mult*[i, j, k] = comult[k, i, j] and comult*[k, i, j] = mult[i, j, k]."""
    if A.antipode is None:
        raise PreconditionError("dual_hopf needs the antipode")
    labels = [f"{lbl}^" for lbl in A.labels]
    return HopfAlgebraData(A.comult_coo.transpose((1, 2, 0)), A.counit.copy(),
                           A.mult_coo.transpose((2, 0, 1)), A.unit.copy(),
                           labels=labels, antipode=A.antipode.T.copy())


def antipode_residuals(A: HopfAlgebraData, S: np.ndarray) -> dict[str, float]:
    """Max residuals of S(a_1) a_2 = eps(a) 1 = a_1 S(a_2) and of S^2 = id.

    The two sides are the adjoint actions of the basis on x = 1,
    S(e_k1) e_k2 and e_k1 S(e_k2) (`_adjoint_entries`), summed into (d, d)
    by `_scatter_sum`.  A NaN or Inf in S, `mult` or `comult` makes both
    NaN even where no pair of entries reads it.  Each pair (A, S) is
    computed once: A keeps the last S it checked, as a copy, with its
    residuals (`checked_antipode`), and a call with an equal S returns them
    again, so a closed form is not checked twice by the axiom gate; any
    other S, or one changed in place, is checked afresh.
    """
    if A.checked_antipode is not None and np.array_equal(A.checked_antipode[0], S):
        return dict(A.checked_antipode[1])
    d = A.dim
    target = np.outer(A.counit, A.unit)
    sides = []
    for left in (False, True):
        (k, o), val = _adjoint_entries(A, S, left=left)
        sides.append(_scatter_sum(k * d + o, val, d * d).reshape(d, d) - target)   # [k, q]
    if not all(np.isfinite(x).all() for x in (S, A.mult_coo.entries[1], A.comult_coo.entries[1])):
        sides = [np.nan, np.nan]
    res = {"antipode_left": max_abs(sides[0]),
           "antipode_right": max_abs(sides[1]),
           "antipode_squared": max_abs(S @ S - np.eye(d))}
    A.checked_antipode = (np.array(S, dtype=complex), res)
    return dict(res)


def _adjoint_entries(A: HopfAlgebraData, S: np.ndarray, X: Optional[np.ndarray] = None,
                     left: bool = False):
    """The right adjoint action of the basis, S(e_k1) x_m e_k2, or the left
    one, e_k1 x_m S(e_k2) when `left`, on the columns x_m of X, in COO form:
    indices (k, m, o) for the coefficient of e_o, with repeated indices
    unsummed; (k, o) for x = 1 when X is None.

    They are `_coo_einsum` joins of the entries of Delta, S, X and `mult`,
    so that their cost follows the nonzeros: for the tensors of kG, k^G and
    k^G # kF, with S and X 0/1 maps, every join pairs at most d^2 entries.
    The left action is the right one in A with the opposite product and
    coproduct.  When a join would pair more than d^2 entries, as for a
    dense S, X or tensor, the action of the whole basis is formed densely
    instead, in d^3 |X| entries (d^3 for x = 1), and its nonzeros are
    returned: this is the one dense fallback of every adjoint action.
    """
    d = A.dim
    (i, j, o), mv = A.mult_coo.entries
    (k, p, q), cv = A.comult_coo.entries
    if left:
        i, j, p, q = j, i, q, p
    mult, comult = ((i, j, o), mv), ((k, p, q), cv)

    def join(spec, a, b):
        return _coo_einsum(spec, a, b, d, limit=d * d)

    try:
        t = join("kij,pi->kjp", comult, _entries(S))       # S(e_k1) (x) e_k2 on e_p (x) e_j
        if X is None:
            return join("kjp,pjo->ko", t, mult)
        u = join("prc,rm->pmc", mult, _entries(X))         # e_p x_m on e_c
        return join("kjmc,cjo->kmo", join("kjp,pmc->kjmc", t, u), mult)
    except _TooManyPairs:
        pass
    # the dense fallback: U[c, p, m] = S(e_p) x_m, or x_m S(e_p) when left
    if X is None:
        U = S[:, :, None]
    else:
        U = A.products(X, S).transpose(0, 2, 1) if left else A.products(S, X)
    if left:    # T[p, c, k, m] = sum_q Delta[k, p, q] U[c, q, m]
        T = A.comult_coo.along((2,), U.transpose(1, 0, 2)).transpose(1, 2, 0, 3)
    else:       # T[c, q, k, m] = sum_p Delta[k, p, q] U[c, p, m]
        T = A.comult_coo.along((1,), U.transpose(1, 0, 2)).transpose(2, 1, 0, 3)
    W = A.multiply(T).transpose(1, 2, 0)                   # [k, m, o]
    return _entries(W if X is not None else W[:, 0])


@dataclass
class BismashResult:
    algebra: HopfAlgebraData
    b_inclusion: HopfInclusion
    pi: HopfSurjection
    pair: MatchedPair


def bismash(mp: MatchedPair) -> BismashResult:
    """Smash product and coproduct k^G # kF of a matched pair.

    Basis delta_g x with (delta_g x)(delta_h y) = [g <| x = h] delta_g (xy)
    and Delta(delta_g x) = sum_{st=g} delta_s (t |> x) (x) delta_t x.
    The k^G factor embeds as span{delta_g 1}, tested to be normal; the
    projection delta_g x -> [g = 1] x is A -> A/AB+ by its kernel
    (`_check_projection_kernel`).  The antipode is S(delta_g x) = delta_{(g<|x)^{-1}} (g|>x)^{-1}.
    """
    rep = verify_matched_pair(mp)
    if not rep.ok:
        raise PreconditionError(
            "matched pair fails verification: " + "; ".join(rep.violations[:3]))
    F, G = mp.f_group, mp.g_group
    nF, nG = F.order, G.order
    d = nF * nG

    # delta_g x is basis element g * nF + x
    ract, lact = np.asarray(mp.ract), np.asarray(mp.lact)
    g, x, y = (a.ravel() for a in np.indices((nG, nF, nF)))
    mult = _ones(d, g * nF + x, ract[g, x] * nF + y, g * nF + F.cayley[x, y])
    g, x, t = (a.ravel() for a in np.indices((nG, nF, nG)))
    comult = _ones(d, g * nF + x, G.cayley[g, G.inverse[t]] * nF + lact[t, x], t * nF + x)
    unit = np.zeros(d, dtype=complex)
    unit[::nF] = 1.0
    counit = np.zeros(d, dtype=complex)
    counit[:nF] = 1.0
    S = np.zeros((d, d), dtype=complex)
    S[(G.inverse[ract] * nF + F.inverse[lact]).ravel(), np.arange(d)] = 1.0
    labels = [f"d({G.labels[g]})*{F.labels[x]}" for g in range(nG) for x in range(nF)]
    A = _with_checked_antipode(HopfAlgebraData(mult, unit, comult, counit, labels=labels),
                               S, "delta_g x -> delta_{(g<|x)^{-1}} (g|>x)^{-1}")

    kG = dual_group_algebra(G)
    embed = np.zeros((d, nG), dtype=complex)
    embed[np.arange(nG) * nF, np.arange(nG)] = 1.0
    inc = HopfInclusion(small=kG, big=A, embedding=embed)
    require(hopf_map_residual(kG, A, embed), TOL_ALG, ConsistencyError,
            "k^G embedding fails Hopf-map checks")

    pi = HopfSurjection(source=A, target=group_algebra(F), matrix=np.eye(nF, d, dtype=complex))
    _check_projection_kernel(A, inc, pi)
    if not is_normal_hopf_subalgebra(A, SubspaceBasis(A, embed)):
        raise NormalityError("k^G is not normal in the bismash")
    return BismashResult(algebra=A, b_inclusion=inc, pi=pi, pair=mp)


def _check_projection_kernel(A: HopfAlgebraData, inc: HopfInclusion,
                             pi: HopfSurjection) -> None:
    """Gate that pi: A -> H is A -> A/AB+, for B = inc's image.

    pi is a surjective Hopf map within TOL_ALG, and pi(b) = eps(b) 1 on B's
    basis, so the algebra map pi kills A B+.  A is free over B
    (Nichols-Zoeller, Amer. J. Math. 1989), so dim A B+ = d - d/|B|, which
    is dim ker pi = d - |H| when |H| |B| = d: then ker pi = A B+.
    """
    B, H = inc.small, pi.target
    require(hopf_map_residual(A, H, pi.matrix), TOL_ALG, ConsistencyError,
            "the projection onto A/AB+ fails Hopf-map checks")
    require(max_abs(pi.matrix @ inc.embedding - np.outer(H.unit, B.counit)), TOL_ALG,
            ConsistencyError, "the projection onto A/AB+ does not kill B+")
    if H.dim * B.dim != A.dim:
        raise ConsistencyError(f"|H| |B| = {H.dim} * {B.dim} is not d = {A.dim}")


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
        return max_abs(*self.residuals.values())

    def failing(self) -> list[str]:
        return [k for k, v in self.residuals.items() if not v < self.tol]


def verify_hopf_axioms(A: HopfAlgebraData, tol: float = TOL_ALG) -> AxiomReport:
    """Residual per axiom: associativity through S^2 = id.

    Each residual is the max |entry| of the axiom's defect, NaN if any
    entry is NaN.  Associativity, coassociativity and bialgebra_mult are
    contracted over the nonzeros of `mult` and `comult`, in blocks of their
    leading output index (`_sparse_contraction_residuals`); when one of
    those contractions would pair more than d^4 nonzeros, as on a dense
    tensor, the dense einsums of `_dense_contraction_residuals` run
    instead.  The choice is made from the whole contractions' pair counts
    alone.
    """
    return AxiomReport(residuals=_axiom_residuals(A, _paired_residuals(A)), tol=tol)


def verify_dual_axioms(D: HopfAlgebraData, A: HopfAlgebraData, rep: AxiomReport) -> AxiomReport:
    """`verify_hopf_axioms(D, rep.tol)` for D = dual_hopf(A), given A's report `rep`.

    The Hopf axioms are self-dual.  When D is exactly A transposed
    (`_is_dual_of`, in O(nnz log nnz)), D's associativity and
    coassociativity residuals are A's coassociativity and associativity,
    and its bialgebra_mult and antipode residuals are A's: the same sums
    over the same pairs of entries, read from `rep`.  Associativity and
    coassociativity add them in the order a direct check of D would; on
    entries that are not exact, as no constructor's are, the others may
    differ from it in the last bits.  Otherwise D is checked directly.  The
    O(d^2) residuals are computed on D either way.
    """
    if not _is_dual_of(D, A):
        return AxiomReport(residuals=_axiom_residuals(D, _paired_residuals(D)), tol=rep.tol)
    r = rep.residuals
    paired = {"associativity": r["coassociativity"], "coassociativity": r["associativity"]}
    paired.update((k, v) for k, v in r.items() if k == "bialgebra_mult" or k.startswith("antipode"))
    return AxiomReport(residuals=_axiom_residuals(D, paired), tol=rep.tol)


def _is_dual_of(D: HopfAlgebraData, A: HopfAlgebraData) -> bool:
    """Whether D's `mult`, `comult` and antipode are exactly A's `comult`,
    `mult` and antipode transposed, as `dual_hopf` makes them, and its unit
    and counit A's counit and unit.  The entries are compared index by
    index and value by value after one sort; a NaN makes it False."""
    def same(x: Coo, y: Coo) -> bool:
        (ix, vx), (iy, vy) = x.entries, y.entries
        return np.array_equal(vx, vy) and all(map(np.array_equal, ix, iy))

    if (D.antipode is None) != (A.antipode is None):
        return False
    return (same(D.mult_coo, A.comult_coo.transpose((1, 2, 0)))
            and same(D.comult_coo, A.mult_coo.transpose((2, 0, 1)))
            and np.array_equal(D.unit, A.counit) and np.array_equal(D.counit, A.unit)
            and (A.antipode is None or np.array_equal(D.antipode, A.antipode.T)))


def _paired_residuals(A: HopfAlgebraData) -> dict[str, float]:
    """The residuals that pair entries of A's tensors: the three contractions
    and, when A has an antipode, the antipode's."""
    try:
        res = _sparse_contraction_residuals(A)
    except _TooManyPairs:
        res = _dense_contraction_residuals(A.mult, A.comult)
    if A.antipode is not None:
        res.update(antipode_residuals(A, A.antipode))
    return res


def _axiom_residuals(A: HopfAlgebraData, paired: dict[str, float]) -> dict[str, float]:
    """Every residual of A, in report order: those of `paired` and the O(d^2)
    ones, computed here."""
    eye = np.eye(A.dim)
    res = {
        "associativity": paired["associativity"],
        "unit": max_abs(A.left_mult_matrix(A.unit) - eye, A.right_mult_matrix(A.unit) - eye),
        "coassociativity": paired["coassociativity"],
        "counit": max_abs(A.comult_coo.along((1,), A.counit) - eye,
                          A.comult_coo.along((2,), A.counit) - eye),
        # Delta and eps are algebra maps
        "bialgebra_mult": paired["bialgebra_mult"],
        "bialgebra_counit": max_abs(A.mult_coo.along((2,), A.counit)
                                    - np.outer(A.counit, A.counit)),
        "bialgebra_unit": max_abs(A.apply_comult(A.unit) - np.outer(A.unit, A.unit),
                                  complex(A.counit @ A.unit) - 1.0),
    }
    res.update(paired)      # the antipode's residuals, when given, go last
    return res


def _dense_contraction_residuals(M: np.ndarray, D: np.ndarray) -> dict[str, float]:
    """Associativity, coassociativity and bialgebra_mult residuals by dense einsum."""
    assoc = np.einsum("ijp,pkq->ijkq", M, M, optimize=True) - np.einsum("jkp,ipq->ijkq", M, M, optimize=True)
    coassoc = np.einsum("kij,iab->kabj", D, D, optimize=True) - np.einsum("kij,jab->kiab", D, D, optimize=True)
    lhs = np.einsum("ijp,pab->ijab", M, D, optimize=True)
    x = np.einsum("iab,acu->ibcu", D, M, optimize=True)
    y = np.einsum("jcd,bdv->jcbv", D, M, optimize=True)
    rhs = np.einsum("ibcu,jcbv->ijuv", x, y, optimize=True)
    return {"associativity": max_abs(assoc), "coassociativity": max_abs(coassoc),
            "bialgebra_mult": max_abs(lhs - rhs)}


class _TooManyPairs(Exception):
    """A sparse contraction would pair more entries than its dense result holds."""


def _sparse_contraction_residuals(A: HopfAlgebraData) -> dict[str, float]:
    """The residuals of `_dense_contraction_residuals`, contracted over the nonzeros.

    Each is the difference of two joins, formed in blocks of its leading
    output index (`_blocked_residual`); the right side of bialgebra_mult
    joins Delta(e_i) times mult with Delta(e_j) times mult, each formed
    whole first.  Associativity's right side is led by its second operand,
    whose first index is i: a key of it has one pair per value of p, added
    in ascending p as when its first operand leads.  Raises
    `_TooManyPairs` as soon as one join would pair more than d^4 entries,
    the size of its dense result.
    """
    d = A.dim
    m, c = A.mult_coo.entries, A.comult_coo.entries

    def residual(plus, minus):
        return _blocked_residual([_Join(*plus, d, lead=None), _Join(*minus, d, lead=None)], d)

    return {"associativity": residual(("ijp,pkq->ijkq", m, m), ("jkp,ipq->ijkq", m, m)),
            "coassociativity": residual(("kij,iab->kabj", c, c), ("kij,jab->kiab", c, c)),
            "bialgebra_mult": residual(("ijp,pab->ijab", m, c),
                                       ("ibcu,jcbv->ijuv", _coo_einsum("iab,acu->ibcu", c, m, d),
                                        _coo_einsum("jcd,bdv->jcbv", c, m, d)))}


def _blocked_residual(joins: Sequence["_Join"], d: int) -> float:
    """max |plus - minus| of the joins plus and minus into (d,)^4, each led by
    the operand its leading output index comes from, formed over contiguous
    blocks of that index that hold at most linalg.STACK_BYTES of pairs (four
    int64 indices and a complex value, 48 bytes a pair) unless one index
    value alone holds more.  Raises `_TooManyPairs`, before any block is
    formed, when either join pairs more than d^4 entries.

    A block's pairs are the join's pairs of the leading operand's rows for
    its index values, in the join's order, so every key of the block sums
    the same terms in the same order as the unblocked difference, and the
    max over the blocks is bitwise the unblocked max, NaN included.
    """
    for join in joins:
        if join.total > d ** 4:
            raise _TooManyPairs(f"{join.spec}: {join.total} pairs > {d ** 4}")
    step = linalg.stack_items(48)
    if sum(join.total for join in joins) <= step:
        return _max_abs_difference(*(join.pairs() for join in joins), (d,) * 4)
    rows, pairs = [], 0
    for join in joins:
        # the leading operand's first row with first index >= v, v = 0..d
        rows.append(np.searchsorted(join.operands[join.lead][0][0], np.arange(d + 1)))
        pairs = pairs + np.concatenate([[0], np.cumsum(join.counts)])[rows[-1]]
    out, lo = [], 0
    while lo < d:
        hi = max(lo + 1, int(np.searchsorted(pairs, pairs[lo] + step, side="right")) - 1)
        plus, minus = (join.pairs(r[lo], r[hi]) for join, r in zip(joins, rows))
        out.append(_max_abs_difference(plus, minus, (d,) * 4))
        lo = hi
    return max_abs(*out)


class _Join:
    """The sort-merge join `spec` of two COO operands on the indices they
    share: the entries of the other operand sorted stably on their key
    once, and for every entry of the leading one its matches among them.
    `lead` is 0 for a, 1 for b, or None for the operand whose first index
    is the output's first."""

    def __init__(self, spec: str, a, b, d: int, lead: Optional[int] = 0):
        self.spec = spec
        inputs, self.out = spec.split("->")
        self.subs = inputs.split(",")
        self.operands = (a, b)
        shared = [ch for ch in self.subs[0] if ch in self.subs[1]]

        def keys(idx, s):
            if len(shared) == 1:
                return idx[s.index(shared[0])]
            return np.ravel_multi_index([idx[s.index(ch)] for ch in shared], (d,) * len(shared))

        if lead is None:
            lead = 0 if self.subs[0][0] == self.out[0] else 1
        self.lead = lead
        ka, kb = keys(a[0], self.subs[0]), keys(b[0], self.subs[1])
        k_lead, k_other = (ka, kb) if lead == 0 else (kb, ka)
        self.order = np.argsort(k_other, kind="stable")
        k_other = k_other[self.order]
        self.lo = np.searchsorted(k_other, k_lead, side="left")
        self.counts = np.searchsorted(k_other, k_lead, side="right") - self.lo
        self.total = int(self.counts.sum())

    def pairs(self, start: int = 0, stop: Optional[int] = None):
        """The products of the pairs of the leading operand's entries
        start..stop-1, in COO form with repeated output indices unsummed,
        ordered by their entry of the leading operand, then by their entry
        of the other."""
        lo, counts = self.lo[start:stop], self.counts[start:stop]
        total = int(counts.sum())
        p_lead = np.repeat(np.arange(start, start + counts.size), counts)
        p_other = self.order[np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(total)]
        pa, pb = (p_lead, p_other) if self.lead == 0 else (p_other, p_lead)
        (ia, va), (ib, vb) = self.operands
        sa, sb = self.subs
        idx = tuple(ia[sa.index(ch)][pa] if ch in sa else ib[sb.index(ch)][pb] for ch in self.out)
        return idx, va[pa] * vb[pb]


def _coo_einsum(spec: str, a, b, d: int, limit: Optional[int] = None):
    """Two-operand einsum over COO operands, summing every index they share.

    The pairs of entries that agree on the shared indices come from a
    sort-merge join (`_Join`); their products are returned in COO form with
    repeated output indices left unsummed, ordered by their entry of a,
    then by their entry of b.  Raises `_TooManyPairs`, before allocating the
    pairs, when there are more of them than `limit`, by default the number
    of entries of the dense result, d ** len(output).
    """
    join = _Join(spec, a, b, d)
    limit = d ** len(join.out) if limit is None else limit
    if join.total > limit:
        raise _TooManyPairs(f"{spec}: {join.total} pairs > {limit}")
    return join.pairs()


def _scatter_sum(keys: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Array of `size` entries holding the sum of the complex `values` given
    at each key, added in the order given: `np.bincount`, one call per real
    and imaginary part."""
    return np.bincount(keys, values.real, size) + 1j * np.bincount(keys, values.imag, size)


def _difference(plus, minus, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """plus - minus of two COO arrays indexing `shape`: the distinct flat
    indices, in ascending order, and the summed values at each."""
    keys, slot = np.unique(np.concatenate([np.ravel_multi_index(plus[0], shape),
                                           np.ravel_multi_index(minus[0], shape)]),
                           return_inverse=True)
    return keys, _scatter_sum(slot, np.concatenate([plus[1], -minus[1]]), keys.size)


def _coalesce(x, shape: tuple[int, ...]):
    """A COO array with its repeated indices summed and the zero sums dropped."""
    keys, slot = np.unique(np.ravel_multi_index(x[0], shape), return_inverse=True)
    values = _scatter_sum(slot, x[1], keys.size)
    keep = values != 0
    return np.unravel_index(keys[keep], shape), values[keep]


def _max_abs_difference(plus, minus, shape: tuple[int, ...]) -> float:
    """max |plus - minus| of two COO arrays whose repeated indices are summed."""
    return max_abs(_difference(plus, minus, shape)[1])


def _entries(M: np.ndarray):
    """The nonzero (and NaN) entries of an array, in COO form, in row-major order."""
    idx = np.nonzero(M)
    return idx, np.asarray(M[idx], complex)


def _joins_apply(dim: int, tensors: Sequence[Coo], operands: Sequence[np.ndarray]) -> bool:
    """Whether a kernel reads its operands as joins of their entries with `tensors`.

    The rule for 0/1 operands (bases of unit vectors, the embedding of k^G,
    the projection onto kF, a permutation antipode): from dimension
    JOIN_MIN_DIM on, when every tensor is sparse and finite and every
    operand finite with at most `dim` nonzeros.  Below that dimension the
    dense products cost less than the joins' sorting; a dense or non-finite
    operand takes the dense path, where a NaN or Inf spreads as it always
    did.  A join that still pairs more entries than its limit raises
    `_TooManyPairs`, and its kernel takes the dense path too.
    """
    return (dim >= linalg.JOIN_MIN_DIM and all(t.sparse and t.finite for t in tensors)
            and all(np.count_nonzero(M) <= dim and np.isfinite(M).all() for M in operands))


def _product_entries(A: AlgebraData, X: np.ndarray, Y: np.ndarray):
    """x_a y_b for the columns of X and Y in COO form, indices (a, b, o) for
    the coefficient of e_o with repeated indices unsummed: joins of their
    entries with `mult`, each pairing at most d^2 entries."""
    d = A.dim
    t = _coo_einsum("ia,ijo->ajo", _entries(X), A.mult_coo.entries, d, limit=d * d)
    return _coo_einsum("ajo,jb->abo", t, _entries(Y), d, limit=d * d)


# ---------------------------------------------------------------------------
# subspace calculus

def is_hopf_subalgebra(A: HopfAlgebraData, V: SubspaceBasis) -> bool:
    """1 in V, V closed under product, Delta(V) in V (x) V, S(V) in V.

    Each condition is a residual below TOL_ALG (`_subalgebra_residuals`),
    read until one fails.  A NaN or Inf in the unit, the antipode, V or an
    entry of `mult` or `comult` fails the test even where nothing reads it.
    """
    if A.antipode is None:
        raise PreconditionError("is_hopf_subalgebra needs the antipode")
    read = (A.unit, A.antipode, V.matrix, A.mult_coo.entries[1], A.comult_coo.entries[1])
    if not all(np.isfinite(x).all() for x in read):
        return False
    return all(residual < TOL_ALG for residual in _subalgebra_residuals(A, V.matrix, V.support))


def _subalgebra_residuals(A: HopfAlgebraData, Vb: np.ndarray,
                          support: Optional[np.ndarray] = None):
    """The residuals of the Hopf-subalgebra test on V = span(Vb), in order:
    |Q 1|, the largest |entry| of Q v_a v_b, the largest ||Delta(v_a) -
    P Delta(v_a) P^T||_F and the largest |entry| of Q S(v_a), over the
    columns v_a of Vb, with P = V V^H and Q = I - P.  V = A has nothing
    outside it and yields no residual.

    The `support` of a coordinate V alone selects its form, at every
    dimension: the residuals on its unit vectors, read from the entries
    that leave it (`_coordinate_subalgebra_residuals`).  Every other V, a
    0/1 basis with several ones a column included, takes the dense
    residuals on V (`_dense_subalgebra_residuals`).
    """
    d, k = Vb.shape
    if k == d:
        return
    if support is not None:
        yield from _coordinate_subalgebra_residuals(A, support)
    else:
        yield from _dense_subalgebra_residuals(A, Vb)


def _coordinate_subalgebra_residuals(A: HopfAlgebraData, support: np.ndarray):
    """The residuals of `_subalgebra_residuals` on the unit vectors e_t of
    `support`, read by masks from the entries that leave it: P is the
    identity on those rows and zero elsewhere, so Q 1 is the unit off the
    support, Q e_s e_t the entries mult[s, t, o] with o off it, Delta(e_t)
    - P Delta(e_t) P^T the entries comult[t, i, j] with i or j off it,
    summed per t by `np.bincount`, and Q S(e_t) the antipode's rows off it.
    They depend on the span alone, not on the basis V stores."""
    off = _off(A.dim, support)
    yield np.linalg.norm(A.unit[off])
    (i, j, o), val = A.mult_coo.entries
    yield max_abs(val[~off[i] & ~off[j] & off[o]])
    (t, i, j), val = A.comult_coo.entries
    leave = ~off[t] & (off[i] | off[j])
    yield max_abs(np.sqrt(np.bincount(t[leave], np.abs(val[leave]) ** 2, A.dim)))
    yield max_abs(A.antipode[np.ix_(off, ~off)])


def _dense_subalgebra_residuals(A: HopfAlgebraData, Vb: np.ndarray):
    """The residuals of `_subalgebra_residuals` from dense products on V:
    x - V V^H x on the unit, the products v_a v_b and S(v_a), and Delta(v_a)
    against P Delta(v_a) P^T = V (V^H Delta(v_a) conj(V)) V^T.  Their cost
    follows dim V; a proper Hopf subalgebra has dim V <= d/2, its dimension
    dividing d (Nichols and Zoeller, Amer. J. Math. 1989).
    """
    d = Vb.shape[0]
    Vh = Vb.conj().T

    def outside(X):
        return X - Vb @ (Vh @ X)

    yield np.linalg.norm(outside(A.unit))
    yield max_abs(outside(A.products(Vb, Vb).reshape(d, -1)))
    coprods = A.apply_comult(Vb.T)                                      # [a, i, j]
    kept = Vb @ (Vh @ coprods @ Vb.conj()) @ Vb.T                        # P Delta(v_a) P^T
    yield max_abs(np.linalg.norm(coprods - kept, axis=(1, 2)))
    yield max_abs(outside(A.antipode @ Vb))


def is_normal_hopf_subalgebra(A: HopfAlgebraData, B: SubspaceBasis) -> bool:
    """True iff a_1 b S(a_2) stays in span(B) for all basis a and b in B.

    The images are the left adjoint action of the basis on the columns of
    B (`_adjoint_entries`).  For a coordinate B only the entries whose
    output leaves its support are summed, per image and output, which is
    what the projection leaves; otherwise they are summed into one column
    per (a, b) and projected.
    """
    if not is_hopf_subalgebra(A, B):
        raise PreconditionError("B is not a Hopf subalgebra")
    d, n = A.dim, B.dim
    (k, m, o), val = _adjoint_entries(A, A.antipode, B.matrix, left=True)
    if B.support is not None:
        leave = _off(d, B.support)[o]
        idx = (k[leave], m[leave], o[leave])
        return max_abs(_coalesce((idx, val[leave]), (d, n, d))[1]) < TOL_ALG
    images = _scatter_sum((o * d + k) * n + m, val, d * d * n).reshape(d, d * n)
    return linalg.contains_vectors(B.matrix, images, TOL_ALG)


def coefficient_spaces(A: HopfAlgebraData, D: np.ndarray,
                       seed: int = linalg.DEFAULT_SEED) -> list[SubspaceBasis]:
    """Simple subcoalgebra spanned by the matrix coefficients of each row d of D.

    Each d is an irreducible character of the dual, given as an element of
    A; its space, the column span of `spans` = Delta(d)^T, has dimension
    n^2 for n = eps(d).  It is read as the range of spans Omega, for n^2 + 1
    complex Gaussian columns Omega drawn afresh from stream 1 of `seed`
    (`linalg.random_stream`; the randomized range finder of Halko,
    Martinsson and Tropp, SIAM Rev. 2011), so no SVD sees more than
    n^2 + 1 columns.  Every d of one degree reads the same Omega, so the
    sketches of one degree are one stacked SVD, and each space is the one
    its d alone would give; past linalg.STACK_BYTES of the (d, d) arrays
    the characters take the stack goes in parts.  Two gates per d make it
    exact: the sketch's numerical rank must be n^2, which the extra column
    breaks for a larger space, and every column of `spans` must lie in its
    range within TOL_ALG max(1, max |spans|), one batched residual on the
    part's contiguous `spans` of that rank (`linalg.contains_vectors`).
    The first d that fails either raises, naming the rank of its `spans`.
    """
    D = np.asarray(D, complex)
    degs = (D @ A.counit).tolist()
    groups: dict[int, list[int]] = {}
    for r, deg in enumerate(degs):
        n = linalg.nearest_int(deg.real)
        if abs(deg.imag) <= TOL_ALG and abs(deg.real - n) <= TOL_MATCH and n * n <= A.dim:
            groups.setdefault(n, []).append(r)
    out: list[Optional[SubspaceBasis]] = [None] * len(D)
    # a character's `spans` as `apply_comult` forms them, their contiguous
    # copy, and the gate's copy, projection and moduli: at most four (d, d)
    # arrays at once
    step = linalg.stack_items(4 * 16 * A.dim ** 2)
    for n, rows in groups.items():
        omega = linalg.random_complex(linalg.random_stream(seed, 1), (A.dim, n * n + 1))
        for start in range(0, len(rows), step):
            part = rows[start:start + step]
            spans = np.ascontiguousarray(np.swapaxes(A.apply_comult(D[part]), 1, 2))
            bases = linalg.orthonormal_columns(spans @ omega)
            full = [i for i, V in enumerate(bases) if V.shape[1] == n * n]
            Q = np.reshape([bases[i] for i in full], (-1, A.dim, n * n))
            S = spans[full]
            bound = TOL_ALG * np.maximum(1.0, np.abs(S).max(axis=(1, 2)))
            for i in np.compress(linalg.contains_vectors(Q, S, bound), full):
                out[part[i]] = SubspaceBasis(A, bases[i])
    for r, sub in enumerate(out):
        if sub is None:
            spans = A.apply_comult(D[r]).T
            raise PreconditionError(
                f"not an irreducible dual character: eps(d) = {degs[r]:.10g}, but its "
                f"coefficient space has dimension {linalg.orthonormal_columns(spans).shape[1]}")
    return out


def comodule_map_rho(A: HopfAlgebraData, pi: HopfSurjection):
    """rho = (id (x) pi) Delta in COO form: indices (p, f, k), each once, for
    the coefficient of e_p (x) f in rho(e_k).

    The join of the entries of Delta and pi, summed (`_coalesce`); for a
    bismash and its projection onto kF it holds d entries, rho(delta_g x) =
    delta_g x (x) x.  An entry of Delta pairs with at most |F| entries of
    pi, so the join holds at most nnz(Delta) |F| pairs and is never
    refused.  A NaN or Inf in Delta or pi raises PreconditionError, as
    `is_cocentral` fails on one: a join reads only the entries it pairs,
    so it would drop one that a dense product spreads.
    """
    d, n = A.dim, pi.matrix.shape[0]
    c, P = A.comult_coo.entries, _entries(pi.matrix)
    if not (A.comult_coo.finite and np.isfinite(P[1]).all()):
        raise PreconditionError("the comodule map needs a finite Delta and projection")
    rho = _coo_einsum("kpq,fq->pfk", c, P, d, limit=c[1].size * n)
    return _coalesce(rho, (d, n, d))


def graded_components(A: HopfAlgebraData, rho, n: int) -> list[SubspaceBasis]:
    """A_f = {a : rho(a) = a (x) f} for every f of a quotient kF of order n,
    rho = comodule_map_rho(A, pi).

    A_f is the range of rho_f = (id (x) f*) rho, the span of its nonzero
    columns.  One sort of rho's keys (f, k) numbers those columns, by f
    and then by k.  Where the Gram matrix of A_f's columns is I within
    linalg.TOL_ORTHO they are A_f's basis as they stand, as the unit vectors
    of a bismash's A_f are, so no SVD of a d x d block is taken; the others
    take their SVD basis (`linalg.orthonormal_columns`).
    rho(a) = a (x) f is then checked on every basis, as joins of rho's
    entries with theirs, which fails unless the quotient basis is
    group-like; the bases of coordinate components take one join.
    """
    d = A.dim
    (p, g, k), val = rho
    keys, col = np.unique(g * d + k, return_inverse=True)
    starts = np.searchsorted(keys, np.arange(n + 1) * d)
    block = np.zeros((d, keys.size), dtype=complex)
    block[p, col] = val
    bases = [V if max_abs(V.conj().T @ V - np.eye(V.shape[1])) <= linalg.TOL_ORTHO
             else linalg.orthonormal_columns(V)
             for V in (block[:, a:b] for a, b in zip(starts, starts[1:]))]
    # rho(u) = u (x) f on every basis, as joins of rho's entries with the
    # columns of their stack U, over runs of columns that pair at most d^2
    # entries (or one column): one join for coordinate components, whose
    # columns pair one entry each
    U = np.hstack(bases)
    owner = np.repeat(np.arange(n), [V.shape[1] for V in bases])
    pairs = np.concatenate([[0], np.cumsum(np.bincount(k, minlength=d) @ (U != 0))])
    defects, lo = [0.0], 0
    while lo < U.shape[1]:
        hi = max(lo + 1, int(np.searchsorted(pairs, pairs[lo] + d * d, side="right")) - 1)
        (i, r), u = basis = _entries(U[:, lo:hi])
        image = _coo_einsum("pgk,kr->pgr", rho, basis, d, limit=pairs[hi] - pairs[lo])
        defects.append(_max_abs_difference(image, ((i, owner[lo + r], r), u), (d, n, hi - lo)))
        lo = hi
    defect = max_abs(*defects)
    if not np.isfinite(val).all():      # a NaN or Inf of rho fails the check wherever it is
        defect = np.nan
    require(defect, TOL_ALG, PreconditionError, "quotient is not a group algebra on its basis")
    return [SubspaceBasis(A, V) for V in bases]


def is_cocentral(A: HopfAlgebraData, pi: HopfSurjection) -> bool:
    """Check pi(a_1) (x) a_2 = pi(a_2) (x) a_1 on every basis element.

    Both sides are joins of the entries of Delta and pi, compared by
    `_max_abs_difference`.  An entry of Delta pairs with at most |F|
    entries of pi, so a join holds at most nnz(Delta) |F| pairs, no more
    than the (d, d, |F|) arrays of the dense sides when Delta is sparse,
    and is never refused.  A NaN or Inf in Delta or pi fails the check.
    """
    d, n = A.dim, pi.matrix.shape[0]
    c, P = A.comult_coo.entries, _entries(pi.matrix)
    if not (A.comult_coo.finite and np.isfinite(P[1]).all()):
        return False
    limit = c[1].size * n
    return _max_abs_difference(_coo_einsum("kpq,fp->kqf", c, P, d, limit=limit),
                               _coo_einsum("kpq,fq->kpf", c, P, d, limit=limit),
                               (d, d, n)) < TOL_ALG


# ---------------------------------------------------------------------------
# structure maps

def hopf_map_residual(src: HopfAlgebraData, dst: HopfAlgebraData,
                      phi: np.ndarray) -> float:
    """Max residual of phi: src -> dst being a Hopf map of full rank.

    Returns inf when phi is neither injective nor surjective; otherwise
    the worst of the mult, unit, comult and counit residuals, and of the
    antipode residual when both sides carry an antipode.  For a 0/1 phi
    (`_joins_apply`), as the embedding of k^G and the projection onto kF
    are, the mult, comult and antipode defects are joins of the entries of
    phi with those of the tensors and antipodes (`_joined_map_defects`), so
    no (d^2, |F|) or (|G|, d, d) array is formed; otherwise, or when a join
    would pair more than max(dim)^2 entries, they are dense contractions.
    """
    phi = np.asarray(phi, complex)
    if linalg.matrix_rank(phi) != min(phi.shape):
        return float("inf")
    antipodes = (src.antipode, dst.antipode) if (src.antipode is not None
                                                 and dst.antipode is not None) else ()
    units = [phi @ src.unit - dst.unit, dst.counit @ phi - src.counit]
    tensors = (src.mult_coo, src.comult_coo, dst.mult_coo, dst.comult_coo)
    if _joins_apply(max(src.dim, dst.dim), tensors, (phi,) + antipodes):
        try:
            return max_abs(*_joined_map_defects(src, dst, phi, bool(antipodes)), *units)
        except _TooManyPairs:
            pass
    # [k, a, b]: (phi (x) phi) Delta(e_k)
    images = src.comult_coo.along((1,), phi.T).transpose(0, 2, 1) @ phi.T
    defects = [
        src.mult_coo.along((2,), phi.T) - dst.products(phi, phi).transpose(1, 2, 0),
        images - dst.apply_comult(phi.T)]
    if antipodes:
        defects.append(phi @ src.antipode - dst.antipode @ phi)
    return max_abs(*defects, *units)


def _joined_map_defects(src: HopfAlgebraData, dst: HopfAlgebraData, phi: np.ndarray,
                        antipodes: bool) -> list[np.ndarray]:
    """The mult, comult and (when `antipodes`) antipode defects of
    `hopf_map_residual`, phi(e_i e_j) - phi(e_i) phi(e_j), (phi (x) phi)
    Delta(e_k) - Delta(phi(e_k)) and phi S - S phi, each as the summed values
    of a difference of joins."""
    ns, nd = src.dim, dst.dim
    n = max(ns, nd)
    P = _entries(phi)                                                      # phi[a, k]

    def join(spec, a, b):
        return _coo_einsum(spec, a, b, n, limit=n * n)

    m, M = src.mult_coo.entries, dst.mult_coo.entries
    c, C = src.comult_coo.entries, dst.comult_coo.entries
    pairs = [(join("ijk,ak->ija", m, P), join("iqc,qj->ijc", join("pi,pqc->iqc", P, M), P),
              (ns, ns, nd)),
             (join("kaj,bj->kab", join("kij,ai->kaj", c, P), P), join("pk,pab->kab", P, C),
              (ns, nd, nd))]
    if antipodes:
        pairs.append((join("ak,kj->aj", P, _entries(src.antipode)),
                      join("ab,bj->aj", _entries(dst.antipode), P), (nd, ns)))
    return [_difference(plus, minus, shape)[1] for plus, minus, shape in pairs]


def subalgebra_data(A: AlgebraData, basis: SubspaceBasis,
                    labels: Optional[Sequence[str]] = None) -> AlgebraData:
    """Algebra structure induced on a unital subalgebra (orthonormal basis)."""
    Vb = basis.matrix
    k = Vb.shape[1]
    proj = Vb.conj().T
    prods = A.products(Vb, Vb).reshape(A.dim, k * k)
    coords = proj @ prods
    require(max_abs(Vb @ coords - prods), TOL_ALG, PreconditionError,
            "subspace is not closed under multiplication")
    mult = coords.reshape(k, k, k).transpose(1, 2, 0)
    unit = proj @ A.unit
    require(max_abs(Vb @ unit - A.unit), TOL_ALG, PreconditionError,
            "subspace does not contain the unit")
    return AlgebraData(mult, unit, labels=labels)
