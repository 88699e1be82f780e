"""Dense complex linear algebra helpers.

Subspaces are handled as matrices whose columns form an orthonormal basis.
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-9
RANK_ATOL = 1e-11


def _rank(s: np.ndarray, rtol: float, atol: float) -> int:
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > max(s[0] * rtol, atol)))


def orthonormal_columns(vectors: np.ndarray, rtol: float = RANK_RTOL,
                        atol: float = RANK_ATOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the column span of `vectors`."""
    mat = np.asarray(vectors, dtype=complex)
    if mat.ndim != 2 or mat.shape[1] == 0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    rank = _rank(s, rtol, atol)
    return np.ascontiguousarray(u[:, :rank])


def null_space(mat: np.ndarray, rtol: float = RANK_RTOL,
               atol: float = RANK_ATOL) -> np.ndarray:
    """Orthonormal basis (as columns) of the kernel of `mat`."""
    mat = np.asarray(mat, dtype=complex)
    m, n = mat.shape
    if m == 0:
        return np.eye(n, dtype=complex)
    # vh must be n x n; the thin SVD of a matrix with m >= n already gives
    # that, and asking for the full one would build an m x m U for nothing
    _, s, vh = np.linalg.svd(mat, full_matrices=m < n)
    rank = _rank(s, rtol, atol)
    return np.ascontiguousarray(vh[rank:].conj().T)


def contains_vectors(basis: np.ndarray, vectors: np.ndarray, tol: float) -> bool:
    """True iff every column of `vectors` lies in span(basis) within tol."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if vectors.shape[0] != basis.shape[0]:
        vectors = vectors.T
    resid = vectors - basis @ (basis.conj().T @ vectors)
    return bool(np.max(np.abs(resid), initial=0.0) < tol)


def subspace_equal(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    if a.shape[1] != b.shape[1]:
        return False
    return contains_vectors(a, b, tol) and contains_vectors(b, a, tol)


def lstsq_coords(basis: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares coordinates of `vectors` (columns) in `basis` columns.

    Returns (coords, max residual over columns).
    """
    vectors = np.asarray(vectors, dtype=complex)
    single = vectors.ndim == 1
    if single:
        vectors = vectors[:, None]
    coords, *_ = np.linalg.lstsq(basis, vectors, rcond=None)
    resid = float(np.max(np.abs(basis @ coords - vectors), initial=0.0))
    if single:
        coords = coords[:, 0]
    return coords, resid


def random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def round_for_json(x: float, digits: int = 10) -> float:
    """Round and normalize -0.0 so serialized output is byte-stable."""
    r = round(float(x), digits)
    return 0.0 if r == 0.0 else r
