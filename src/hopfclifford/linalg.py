"""Dense complex linear algebra helpers and the package's tolerance policy.

Subspaces are handled as matrices whose columns form an orthonormal basis.
Every threshold is named once below, by its role.  Residuals are reduced by
`max_abs`, which keeps a NaN; gates raise unless `residual <= TOL` and
predicates hold only when `residual < TOL`, so a NaN always fails a check.
The package reaches numpy's SVD, eigensolvers and least squares only through
the wrappers below, which raise NumericDegeneracyError where numpy raises
LinAlgError (no convergence, or a NaN or Inf in the input).
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from .errors import NumericDegeneracyError

TOL_ALG = 1e-8      # exact structure: Hopf axioms (default tolerances.alg), Hopf maps, subspaces
TOL_NUM = 1e-7      # computed structure: central idempotents, group-likes, the map onto kF
TOL_MATCH = 1e-6    # computed values that must agree: integers, characters, eigenvalues
TOL_ZERO = 1e-9     # a Rayleigh quotient below this counts as zero
COND_LIMIT = 1e8    # largest condition number of a regular trace form or a generator's matrix
RANK_RTOL = 1e-9    # singular values <= max(s[0] * RANK_RTOL, RANK_ATOL) count as zero
RANK_ATOL = 1e-11
TOL_ORTHO = 1e-12   # columns whose Gram matrix is I within this are an orthonormal basis as they stand
TOL_SUPPORT = 1e-12  # a basis row whose entries all lie within this is off the subspace's support
JOIN_MIN_DIM = 32   # from this dimension on 0/1 operands are joined; below it dense forms cost less
STACK_BYTES = 2 ** 25  # most bytes a stacked kernel or an axiom-gate block forms at once (32 MiB)
JSON_DIGITS = 10    # decimal digits kept in report JSON
DEFAULT_SEED = 1729  # seed of every random draw when none is given


def max_abs(*arrays) -> float:
    """Largest |entry| over the arrays: NaN if any entry is NaN, 0.0 if there are none."""
    out = 0.0
    for a in arrays:
        m = float(np.abs(a).max(initial=0.0))
        if m != m:
            return m
        out = max(out, m)
    return out


def require(residual: float, bound: float, error: type[Exception], message: str) -> float:
    """Raise `error` unless residual <= bound, so that a NaN raises; return the residual."""
    if not residual <= bound:
        raise error(f"{message} ({residual:.2e} > {bound:.0e})")
    return residual


def _converging(solver):
    """`solver` with numpy's LinAlgError raised as NumericDegeneracyError."""
    @functools.wraps(solver)
    def wrapped(*args, **kwargs):
        try:
            return solver(*args, **kwargs)
        except np.linalg.LinAlgError as exc:
            raise NumericDegeneracyError(f"{solver.__name__} failed: {exc}") from exc
    return wrapped


svd = _converging(np.linalg.svd)
solve = _converging(np.linalg.solve)
lstsq = _converging(np.linalg.lstsq)
eig = _converging(np.linalg.eig)
cond = _converging(np.linalg.cond)
matrix_rank = _converging(np.linalg.matrix_rank)


def stack_items(bytes_per_item: int) -> int:
    """How many items of `bytes_per_item` bytes a stacked kernel forms at
    once: as many as STACK_BYTES holds, and at least one."""
    return max(1, STACK_BYTES // bytes_per_item)


def nearest_int(x: float) -> int:
    """round(x), or 0 when x is NaN or infinite, so that a |x - n| check fails."""
    return int(round(x)) if math.isfinite(x) else 0


def numerical_rank(s: np.ndarray) -> int:
    """How many of the singular values `s` (in descending order) are not zero."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > max(s[0] * RANK_RTOL, RANK_ATOL)))


def orthonormal_columns(vectors: np.ndarray):
    """Orthonormal basis (as columns) of the column span of `vectors`.

    Leading axes stack matrices of one shape: the result is then the list
    of their bases, in row-major order of those axes, from one SVD of the
    stack, each cut at its own numerical rank.
    """
    mat = np.asarray(vectors, dtype=complex)
    if mat.ndim > 2:
        u, s, _ = svd(mat.reshape(-1, *mat.shape[-2:]), full_matrices=False)
        return [np.ascontiguousarray(ui[:, :numerical_rank(si)]) for ui, si in zip(u, s)]
    if mat.ndim != 2 or mat.shape[1] == 0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = svd(mat, full_matrices=False)
    return np.ascontiguousarray(u[:, :numerical_rank(s)])


def contains_vectors(basis: np.ndarray, vectors: np.ndarray, tol) -> bool | list[bool]:
    """True iff every column of `vectors` lies in span(basis) within tol.

    Leading axes stack (basis, vectors) pairs, with `tol` one bound or one
    per pair: the verdicts, one per pair, then come from one batched
    residual."""
    outside = basis @ (np.swapaxes(basis.conj(), -1, -2) @ vectors)
    outside -= vectors
    return (np.abs(outside).max(axis=(-2, -1), initial=0.0) < tol).tolist()


def random_stream(seed: int, stream: int) -> random.Random:
    """The stdlib generator of stream `stream` of `seed`.

    Each use of a seed that draws its own elements has a stream, so that it
    shifts no other use's draws:

    - 0: the r Gaussian columns whose image under the Casimir projection
      spans a centre of dimension r < d (`repcalc._center`; a commutative
      algebra draws none);
    - 1: the coefficient-space sketch (`hopf.coefficient_spaces`);
    - 2: the central splitting element (`repcalc.wedderburn`);
    - 2**32 - 1: the generators u_f of the graded components and the pairs
      that gate their twists (`clifford.Extension.twists`).
    """
    return random.Random((seed << 32) | stream)


def random_complex(rng: random.Random, shape) -> np.ndarray:
    """Standard complex Gaussians (real and imaginary parts N(0, 1)) of
    `shape`, by Box-Muller from two 53-bit uniforms per entry, which are
    read from `rng.randbytes` as little-endian uint64."""
    n = int(np.prod(shape))
    bits = np.frombuffer(rng.randbytes(16 * n), dtype="<u8").reshape(2, n)
    u = (bits >> np.uint64(11)) * 2.0 ** -53  # uniform on [0, 1)
    z = np.sqrt(-2.0 * np.log1p(-u[0])) * np.exp(2j * np.pi * u[1])
    return z.reshape(shape)


def round_for_json(x: float) -> float:
    """Round to JSON_DIGITS and normalize -0.0 so serialized output is byte-stable."""
    r = round(float(x), JSON_DIGITS)
    return 0.0 if r == 0.0 else r
