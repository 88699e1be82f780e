"""Dense linear algebra helpers."""

import numpy as np
import pytest

from hopfclifford import linalg
from hopfclifford.errors import NumericDegeneracyError


def _full_svd_null_space(mat, rank):
    """Reference: the last n - rank rows of the full SVD's vh."""
    _, _, vh = np.linalg.svd(mat, full_matrices=True)
    return vh[rank:].conj().T


def _random(rng, rows, cols, rank):
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    return left @ right


@pytest.mark.parametrize("rows,cols,rank", [
    pytest.param(40, 6, 6, id="tall"),            # trivial kernel
    pytest.param(40, 6, 4, id="tall-deficient"),
    pytest.param(3, 9, 3, id="wide"),
    pytest.param(3, 9, 2, id="wide-deficient"),
    pytest.param(7, 7, 5, id="square-deficient"),
    pytest.param(0, 5, 0, id="zero-rows"),        # the kernel is everything
    pytest.param(4, 6, 0, id="zero-matrix"),
])
def test_null_space(rows, cols, rank):
    rng = np.random.default_rng(rows * 100 + cols * 10 + rank)
    mat = _random(rng, rows, cols, rank)
    N = linalg.null_space(mat)
    assert N.shape == (cols, cols - rank)
    assert np.max(np.abs(N.conj().T @ N - np.eye(cols - rank)), initial=0.0) < 1e-12
    assert np.max(np.abs(mat @ N), initial=0.0) < 1e-10
    if rows:
        assert linalg.subspace_equal(N, _full_svd_null_space(mat, rank), 1e-10)
    else:
        assert linalg.subspace_equal(N, np.eye(cols), 1e-12)


@pytest.mark.parametrize("solve", [
    linalg.orthonormal_columns, linalg.null_space,
    lambda m: linalg.lstsq_coords(m, np.ones(2)),
    linalg.eig, linalg.eigvals, linalg.cond, linalg.matrix_rank,
], ids=["orthonormal_columns", "null_space", "lstsq_coords", "eig", "eigvals", "cond",
        "matrix_rank"])
def test_solver_failure_is_numeric_degeneracy(solve):
    # numpy raises LinAlgError on a NaN; the package's error is exit 4, not a traceback
    with pytest.raises(NumericDegeneracyError):
        solve(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_singular_solve_is_numeric_degeneracy():
    with pytest.raises(NumericDegeneracyError):
        linalg.solve(np.zeros((2, 2)), np.ones(2))


def test_random_streams_repeat_and_differ():
    def draw(seed, stream):
        return linalg.random_complex(linalg.random_stream(seed, stream), (3, 4))

    assert draw(1729, 1).shape == (3, 4) and draw(1729, 1).dtype == complex
    assert np.array_equal(draw(1729, 1), draw(1729, 1))
    streams = [draw(1729, s) for s in range(4)] + [draw(1730, 1), draw(2 ** 70, 1)]
    for i in range(len(streams)):
        for j in range(i):
            assert not np.any(streams[i] == streams[j])
    # a scalar shape is a vector of that length
    assert linalg.random_complex(linalg.random_stream(0, 0), 5).shape == (5,)


def test_random_complex_is_standard_gaussian():
    z = linalg.random_complex(linalg.random_stream(1729, 0), 10 ** 5)
    assert np.all(np.isfinite(z))
    for part in (z.real, z.imag):
        assert abs(part.mean()) < 0.02 and abs(part.var() - 1.0) < 0.03
    # the two parts are uncorrelated
    assert abs(np.mean(z.real * z.imag)) < 0.02
