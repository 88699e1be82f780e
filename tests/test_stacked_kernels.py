"""The stacked kernels against the per-item forms they replace (`clifford_reference`).

One call per stage takes every dual character, graded component, alpha or
Wedderburn block at once; each result must be the one the per-item form
gives, bit for bit where the arithmetic is the same.
"""

import copy
import dataclasses
import itertools
import json

import numpy as np
import pytest

from hopfclifford import cli, clifford, hopf, linalg, repcalc
from hopfclifford.errors import ConsistencyError, PreconditionError
from hopfclifford.hopf import SubspaceBasis, subalgebra_data
from hopfclifford.linalg import DEFAULT_SEED
from hopfclifford.scenarios import Scenario, build_scenario, builtin_scenario, run_scenario

import clifford_reference as ref
from conftest import A5_A4_C5


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


def test_stacks_cut_at_stack_bytes_are_bitwise_one_stack(monkeypatch, extensions):
    # with STACK_BYTES = 1 every coefficient space comes from a stack of one
    # sketch and is gated by a residual of one character; each space is
    # bitwise what one stack of all the sketches of a degree gives, and each
    # gate's residual bitwise what the batched gate of the degree reads
    def run(ext):
        svds, residuals = [], []
        svd, contains = linalg.svd, linalg.contains_vectors

        def recording(basis, vectors, tol):
            outside = basis @ (np.swapaxes(basis.conj(), -1, -2) @ vectors) - vectors
            residuals.append(np.abs(outside).max(axis=(1, 2)))
            return contains(basis, vectors, tol)

        D = np.array([d.values for d in ext.dec_dual.irr])
        with monkeypatch.context() as m:
            m.setattr(linalg, "svd", lambda *a, **kw: svds.append(1) or svd(*a, **kw))
            m.setattr(linalg, "contains_vectors", recording)
            spaces = hopf.coefficient_spaces(ext.A, D)
        return [C.matrix for C in spaces], len(svds), residuals

    for name, ext in extensions.items():
        spaces, stacks, residuals = run(ext)
        with monkeypatch.context() as m:
            m.setattr(linalg, "STACK_BYTES", 1)
            cut_spaces, cut_stacks, cut_residuals = run(ext)
        degrees = len({d.degree for d in ext.dec_dual.irr})
        assert stacks == len(residuals) == degrees, name
        assert cut_stacks == len(cut_residuals) == len(ext.dec_dual.irr), name
        for got, want in zip(cut_spaces, spaces):
            assert np.array_equal(got, want), name
        # the gate of each degree, or of each character, in the same order
        residuals, cut_residuals = np.concatenate(residuals), np.concatenate(cut_residuals)
        assert np.array_equal(cut_residuals, residuals), name
        assert residuals.max() < linalg.TOL_ALG, name


def test_coset_check_matches_the_per_character_form(extensions):
    for name, ext in extensions.items():
        assert clifford.coset_projection_check(ext) == ref.coset_projection_check(ext), name


KS3 = {"construction": "group_algebra",
       "group": {"generators": ["(1 2)", "(1 2 3)"], "names": ["t", "s"]}}
KS3_EDGES = {"b_is_a": dict(KS3, name="s3_b_is_a", b_generators=["t", "s"]),   # |F| = 1
             "b_is_k1": dict(KS3, name="s3_b_is_k1", b_generators=["e"])}    # dim A_f = 1


@pytest.fixture(scope="module")
def ks3_edges():
    return {name: build_scenario(Scenario.from_dict(sc), DEFAULT_SEED)
            for name, sc in KS3_EDGES.items()}


def test_ks3_edges_run_and_match_the_per_character_form(tmp_path, capsys, ks3_edges):
    for name, ext in ks3_edges.items():
        assert len(ext.components) == (1 if name == "b_is_a" else 6)
        got = clifford.coset_projection_check(ext)
        assert got == ref.coset_projection_check(ext), name
        assert all(got[flag] for flag in COSET_FLAGS), name
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(KS3_EDGES[name]))
        assert cli.main(["analyze", "--scenario", str(path), "--alpha", "all"]) == 0
    capsys.readouterr()


COSET_FLAGS = ("image_spans_match", "coset_components_match", "supports_partition",
               "coset_decomposition")
# each fault, with the flag it turns false
COSET_FAULTS = {"unread_space": "image_spans_match", "collapsed_space": "image_spans_match",
                "swapped_components": "coset_components_match",
                "widened_support": "supports_partition", "dropped_coset": "coset_decomposition"}


def _faulted(ext, fault):
    """A copy of `ext` with one fault: pi reads none of the largest
    coefficient space (its rows on pi's support zeroed), or that space
    collapsed onto its first column; the first two graded components
    swapped; one dual character's pi-support widened by another's; or the
    dual characters of one coset dropped."""
    ext.coefficient_spaces, ext.components       # built once, on the true data
    out = copy.copy(ext)
    irr, spaces = list(ext.dec_dual.irr), list(ext.coefficient_spaces)
    supports = [tuple(np.flatnonzero(np.abs(ext.piF.matrix @ d.values) > 1e-6)) for d in irr]
    j = int(np.argmax([C.dim for C in spaces]))
    if fault in ("unread_space", "collapsed_space"):
        M = spaces[j].matrix.copy()
        if fault == "unread_space":
            M[np.flatnonzero(np.abs(ext.piF.matrix).sum(axis=0))] = 0.0
        else:
            M[:] = M[:, :1]
        spaces[j] = hopf.SubspaceBasis(ext.A, M)
    elif fault == "swapped_components":
        comps = list(ext.components)
        comps[0], comps[1] = comps[1], comps[0]
        out.components = comps
    elif fault == "widened_support":
        j = next(j for j, sup in enumerate(supports) if sup != supports[0])
        irr[0] = repcalc.Character(irr[0].parent, irr[0].values + irr[j].values)
    else:
        keep = [j for j, sup in enumerate(supports) if sup != supports[-1]]
        irr, spaces = [irr[j] for j in keep], [spaces[j] for j in keep]
    out.dec_dual = dataclasses.replace(ext.dec_dual, irr=irr)
    out.coefficient_spaces = spaces
    return out


@pytest.mark.parametrize("fault", COSET_FAULTS)
def test_coset_check_reads_each_fault(extensions, ks3_edges, fault):
    # each fault turns its flag false, through coordinates and singular
    # values, and the whole result is the per-character SVD form's.  kS3
    # over k1 has coefficient spaces of dimension 1, which cannot collapse;
    # kS3 over itself has one coset, the one fault it admits its unread space
    cases = [extensions["counterexample"], extensions["a5"]]
    if fault != "collapsed_space":
        cases.append(ks3_edges["b_is_k1"])
    if fault == "unread_space":
        cases.append(ks3_edges["b_is_a"])
    for ext in cases:
        faulted = _faulted(ext, fault)
        got = clifford.coset_projection_check(faulted)
        assert got[COSET_FAULTS[fault]] is False
        assert got == ref.coset_projection_check(faulted)


def test_components_must_decompose_a(monkeypatch, extensions):
    # A_f repeated for every f: coordinate components whose supports overlap,
    # and dual_s4_v4's, which are not coordinate, whose stack is not
    # orthonormal
    components = clifford.graded_components
    monkeypatch.setattr(clifford, "graded_components",
                        lambda A, rho, n: components(A, rho, n)[:1] * n)
    for name in ("counterexample", "dual_s4_v4"):
        ext = extensions[name]
        fresh = clifford.Extension(ext.A, ext.inc)
        fresh.quotient = ext.quotient
        with pytest.raises(ConsistencyError, match="do not decompose A"):
            fresh.components


def test_coset_check_forms_no_basis(monkeypatch, extensions):
    # no orthonormal basis and no singular vectors: every SVD is asked for
    # singular values alone
    def no_basis(*args, **kw):
        raise AssertionError("the coset check formed an orthonormal basis")

    def values_only(a, *args, **kw):
        assert kw.get("compute_uv") is False
        return np.linalg.svd(a, *args, **kw)

    for ext in extensions.values():
        ext.coefficient_spaces, ext.components
        with monkeypatch.context() as m:
            m.setattr(linalg, "orthonormal_columns", no_basis)
            m.setattr(linalg, "svd", values_only)
            clifford.coset_projection_check(ext)


def test_graded_subalgebras_made_once_per_subgroup(monkeypatch, extensions):
    # S = A(H) and its Hopf-subalgebra test are made once per distinct H,
    # however many alphas share it
    shared = False
    for name, ext in extensions.items():
        srs = [clifford.compute_stabilizer(ext, k) for k in range(len(ext.dec_b.irr))]
        tested, test = [], clifford.is_hopf_subalgebra
        with monkeypatch.context() as m:
            m.setattr(clifford, "is_hopf_subalgebra",
                      lambda A, V: tested.append(V.dim) or test(A, V))
            sections = clifford.graded_stabilizer_analysis(ext, srs)
        subgroups = {g.h_members: g.dim_s for g in sections}
        assert sorted(tested) == sorted(subgroups.values()), name
        shared |= len(subgroups) < len(srs)
    assert shared


def test_twists_match_the_per_component_form(extensions):
    # theta_f = Phi_f^-1 Lambda_f for the same generator u_f = U_f x_f, with
    # Phi_f and Lambda_f read from one component's bimodule at a time
    for name, ext in extensions.items():
        b = ext.inc.small.dim
        rng = linalg.random_stream(ext.seed, 2 ** 32 - 1)
        x = linalg.random_complex(rng, (len(ext.components), b))
        for f, comp in enumerate(ext.components):
            right, left = ref.component_bimodule(ext.A, ext.inc, comp)
            phi = np.einsum("j,kjm->km", x[f], right)      # u_f b_m
            lam = np.einsum("j,kmj->km", x[f], left)       # b_m u_f
            want = np.linalg.solve(phi, lam)
            assert np.max(np.abs(ext.twists[f] - want)) < 1e-10, name


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


def test_wedderburn_products_cut_at_stack_bytes_are_bitwise_one_block(monkeypatch, extensions):
    # with STACK_BYTES = 1 the products v_k v_l are formed one v_k at a time;
    # on the sparse tensors of A, B and A*, whose Casimir projection is
    # joined, the decomposition is bitwise the one-block one
    def run(A):
        widths = []
        along = hopf.Coo.along

        def recording(self, axes, X):
            if axes == (0,) and X.ndim == 2:
                widths.append(X.shape[1])
            return along(self, axes, X)

        with monkeypatch.context() as m:
            m.setattr(hopf.Coo, "along", recording)
            return repcalc.wedderburn(A), widths

    for name, ext in extensions.items():
        for A in (ext.A, ext.inc.small, ext.dual):
            assert A.mult_coo.sparse
            want, widths = run(A)
            with monkeypatch.context() as m:
                m.setattr(linalg, "STACK_BYTES", 1)
                got, cut_widths = run(A)
            r = len(want.dims)                   # the products come last, after the centre's check
            assert widths[-1] == r and cut_widths[-r:] == [1] * r, name
            assert got.dims == want.dims, name
            for a, b in zip(got.idempotents, want.idempotents):
                assert np.array_equal(a, b), name
            for a, b in zip(got.irr, want.irr):
                assert np.array_equal(a.values, b.values), name


def test_decompose_matches_least_squares_on_every_stack(monkeypatch):
    # every stack a request decomposes (restriction tables, induced alphas
    # and psis, conjugates, graded characters) gets the multiplicities that
    # least squares gives, on the builtins and at d = 60
    decompose, shapes = repcalc.decompose, []

    def both(chi, dec):
        got = decompose(chi, dec)
        assert np.array_equal(got, ref.decompose(chi, dec))
        shapes.append(np.shape(chi.values))
        return got

    monkeypatch.setattr(repcalc, "decompose", both)
    monkeypatch.setattr(clifford, "decompose", both)
    for sc in [builtin_scenario(n) for n in ("s4_counterexample", "cocentral_c4_c2",
                                             "s3_a3_classical")] + [Scenario.from_dict(A5_A4_C5)]:
        before = len(shapes)
        run_scenario(sc, "all")
        assert any(len(shape) == 2 and shape[0] > 1 for shape in shapes[before:]), sc.name


def test_sort_order_is_the_eager_key_order():
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
        ([1.0, 0.0078125, 2.0], 1),          # 7812.5 exactly: Python rounds half to even
        ([1.0, 0.0078125 + 1e-18, 2.0], 1),
        ([nan, 0.0, 0.0], 0),
    ]
    values = np.array([v for v, _ in rows], dtype=complex).T     # one character per column
    dims = [n for _, n in rows]
    eager = [ref.char_sort_key(values[:, k], n) for k, n in enumerate(dims)]
    for i, j in itertools.product(range(len(rows)), repeat=2):
        if i != j:
            order = repcalc.sort_order(values[:, [i, j]], [dims[i], dims[j]])
            assert (order == [1, 0]) == (eager[j] < eager[i]), (i, j)
    rng = np.random.default_rng(17)
    for _ in range(50):
        perm = rng.permutation(len(rows)).tolist()
        order = repcalc.sort_order(values[:, perm], [dims[k] for k in perm])
        assert [perm[k] for k in order] == sorted(perm, key=lambda k: eager[k])


def test_rounding_at_once_is_pythons_round():
    # rint(v 1e6) / 1e6 where no tie is near, Python's round elsewhere:
    # ties and their neighbours a few ulps away, values beyond 2^52 / 1e6,
    # non-finite values, signed zeros and random values of every scale
    rng = np.random.default_rng(29)
    ties = (np.concatenate([np.arange(-2000, 2000), rng.integers(-10 ** 12, 10 ** 12, 2000)])
            + 0.5) / 1e6
    near = [ties]
    for direction in (np.inf, -np.inf):
        v = ties
        for _ in range(3):
            v = np.nextafter(v, direction)
            near.append(v)
    special = [0.0, -0.0, -1e-9, 5e-7, -5e-7, 2.0 ** -7, np.nan, np.inf, -np.inf,
               4.5e9 + 0.25, 2.0 ** 33 + 0.1, 1e16, -1e300]
    x = np.concatenate(near + [special, rng.standard_normal(5000)
                               * 10.0 ** rng.integers(-9, 9, 5000)])
    got = repcalc._round6(x.reshape(-1, 1))[:, 0]
    want = np.array([round(float(v), 6) + 0.0 for v in x])
    assert np.array_equal(got, want, equal_nan=True)
    assert not np.signbit(got[got == 0]).any()
