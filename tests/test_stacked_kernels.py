"""The stacked kernels against the per-item forms they replace (`clifford_reference`).

One call per stage takes every dual character, graded component, alpha or
Wedderburn block at once; each result must be the one the per-item form
gives, bit for bit where the arithmetic is the same.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from hopfclifford import clifford, hopf, repcalc
from hopfclifford.errors import PreconditionError
from hopfclifford.hopf import SubspaceBasis, subalgebra_data
from hopfclifford.linalg import DEFAULT_SEED

import clifford_reference as ref


@pytest.fixture(scope="module")
def extensions(counterexample, cocentral8, classical, s4_a4, dual_s4_v4, a5):
    return {"counterexample": counterexample, "cocentral8": cocentral8,
            "classical": classical, "s4_a4": s4_a4, "dual_s4_v4": dual_s4_v4, "a5": a5}


def test_coefficient_spaces_are_the_per_character_spaces(extensions):
    for name, ext in extensions.items():
        D = np.array([d.values for d in ext.dec_dual.irr])
        for seed in (DEFAULT_SEED, 7):
            got = hopf.coefficient_spaces(ext.A, D, seed=seed)
            assert len(got) == len(D)
            for d_vec, C in zip(D, got):
                want = ref.coefficient_space(ext.A, d_vec, seed=seed)
                assert np.array_equal(C.matrix, want.matrix), name


def test_coefficient_spaces_raise_for_the_first_failing_character(counterexample):
    # eps(d) = 4.004 fails the degree gate, a sum of two degree-1 characters
    # the rank gate; whichever comes first in D is named
    irr = counterexample.dec_dual.irr
    d4 = [ch for ch in irr if ch.degree == 4][0]
    D = np.array([irr[0].values, d4.values * (1 + 1e-3), irr[1].values + irr[2].values])
    with pytest.raises(PreconditionError, match=r"eps\(d\) = 4\.004\S*, but its "
                                                r"coefficient space has dimension 16$"):
        hopf.coefficient_spaces(counterexample.A, D)
    with pytest.raises(PreconditionError, match=r"eps\(d\) = 2\S*, but its "
                                                r"coefficient space has dimension 2$"):
        hopf.coefficient_spaces(counterexample.A, D[[0, 2, 1]])


def test_coset_check_matches_the_per_character_form(extensions):
    for name, ext in extensions.items():
        assert clifford.coset_projection_check(ext) == ref.coset_projection_check(ext), name


def test_bimodules_match_the_per_component_form(extensions):
    for name, ext in extensions.items():
        right, left = ext.bimodules
        for f, comp in enumerate(ext.components):
            want = ref.component_bimodule(ext.A, ext.inc, comp)
            assert np.max(np.abs(right[f] - want[0])) < 1e-12, name
            assert np.max(np.abs(left[f] - want[1])) < 1e-12, name


def test_alphas_analysed_together_match_one_at_a_time(extensions):
    for name, ext in extensions.items():
        alphas = list(range(len(ext.dec_b.irr)))
        alone = [dataclasses.asdict(clifford.analyze_alphas(ext, [k])[0]) for k in alphas]
        together = clifford.analyze_alphas(ext, alphas)
        assert [dataclasses.asdict(rep) for rep in together] == alone, name
        backwards = clifford.analyze_alphas(ext, alphas[::-1])
        assert [dataclasses.asdict(rep) for rep in backwards] == alone[::-1], name


def _decompositions_agree(got, want):
    assert got.dims == want.dims
    assert len(got.irr) == len(want.irr)
    for a, b in zip(got.irr, want.irr):
        assert np.max(np.abs(a.values - b.values)) < 1e-10
    for a, b in zip(got.idempotents, want.idempotents):
        assert np.max(np.abs(a - b)) < 1e-10


def test_wedderburn_matches_the_per_block_loop(extensions):
    for name, ext in extensions.items():
        for A in (ext.A, ext.inc.small, ext.dual):
            for seed in (DEFAULT_SEED, 5):
                _decompositions_agree(repcalc.wedderburn(A, seed=seed),
                                      ref.wedderburn(A, seed=seed))
        # a subalgebra on an orthonormal frame, sorted as functionals on A
        for Z in {tuple(sr.stabilizing): sr.Z for sr in (
                clifford.compute_stabilizer(ext, k) for k in range(len(ext.dec_b.irr)))}.values():
            z_alg = subalgebra_data(ext.A, SubspaceBasis(ext.A, Z.matrix))
            _decompositions_agree(repcalc.wedderburn(z_alg, frame=Z.matrix),
                                  ref.wedderburn(z_alg, frame=Z.matrix))


def test_lazy_sort_key_orders_as_the_eager_key():
    nan = float("nan")
    rows = [
        ([1.0, 0.1234564, 2.0], 1),
        ([1.0, 0.1234561, 3.0], 1),          # ties the row above to 6 decimals, then differs
        ([1.0, 0.1234561, 2.0], 1),
        ([1.0, 0.1234561, 2.0], 2),          # a higher degree sorts after, whatever the values
        ([-0.0, 5.0, 0.0], 1),
        ([0.0, 5.0, 0.0], 1),                # -0.0 and 0.0 round alike
        ([1.0, nan, 0.0], 1),
        ([1.0, nan, -1.0], 1),               # NaN compares neither way
        ([1.0, 0.5 + 2e-6j, 2.0], 1),
        ([1.0, 0.5 - 2e-6j, 2.0], 1),        # imaginary parts break the tie
        ([1.0, 0.5 - 1e-7j, 2.0], 1),        # and round to 0.0 below 5e-7
        ([1.0, 0.5], 1),                      # a prefix sorts first
        ([nan, 0.0, 0.0], 0),
    ]
    values = [np.array(v, dtype=complex) for v, _ in rows]
    lazy = [repcalc._CharSortKey(v, n) for v, (_, n) in zip(values, rows)]
    eager = [ref.char_sort_key(v, n) for v, (_, n) in zip(values, rows)]
    for i, j in itertools.product(range(len(rows)), repeat=2):
        assert (lazy[i] < lazy[j]) == (eager[i] < eager[j]), (i, j)
    rng = np.random.default_rng(17)
    for _ in range(50):
        perm = rng.permutation(len(rows)).tolist()
        assert (sorted(perm, key=lambda k: lazy[k])
                == sorted(perm, key=lambda k: eager[k]))
