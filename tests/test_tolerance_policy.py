"""The tolerance policy: thresholds named once in `linalg`, NaN fails every check.

A NaN residual must land on the failing side of each comparison: a gate
raises one of the package's errors (so the command line exits 3 or 4, not
with a traceback) and a predicate returns False.
"""

import ast
import copy
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from hopfclifford import cli, clifford, linalg, repcalc
from hopfclifford.clifford import Extension, conjugation_matrices
from hopfclifford.errors import (ConsistencyError, NotACharacterError,
                                 PreconditionError)
from hopfclifford.groups import group_from_permutations
from hopfclifford.hopf import (AlgebraData, HopfAlgebraData, HopfSurjection, SubspaceBasis,
                               group_algebra, is_hopf_subalgebra,
                               subalgebra_data)
from hopfclifford.repcalc import Character, decompose

from clifford_reference import ExplicitModule, construct_irreducible_module

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfclifford"

# the only functions that take a tolerance, retry or digits parameter
TOLERANCE_PARAMS = {"tol", "rtol", "atol", "tol_int", "max_retries", "digits"}
KEPT = {"verify_hopf_axioms", "axiom_gate", "contains_vectors"}


def _with_nan(A, name, index):
    """Copy of A with a NaN at `index` of its `name` tensor."""
    t = getattr(A, name).copy()
    t[index] = np.nan
    if isinstance(A, HopfAlgebraData):
        parts = {"mult": A.mult, "unit": A.unit, "comult": A.comult, "counit": A.counit,
                 "antipode": A.antipode, name: t}
        return HopfAlgebraData(parts["mult"], parts["unit"], parts["comult"],
                               parts["counit"], labels=A.labels, antipode=parts["antipode"])
    parts = {"mult": A.mult, "unit": A.unit, name: t}
    return AlgebraData(parts["mult"], parts["unit"], labels=A.labels)


def _kc3():
    return group_algebra(group_from_permutations(["(1 2 3)"]))


def _nan_at_all_of_kc3(name, index):
    """is_hopf_subalgebra(A, A) for kC3 with a NaN in its `name` tensor:
    A has no complement, so only the finiteness read sees the NaN."""
    A = _with_nan(_kc3(), name, index)
    return is_hopf_subalgebra(A, SubspaceBasis(A, np.eye(3, dtype=complex)))


def _is_hopf_subalgebra(ext):
    A = _with_nan(_kc3(), "comult", (1, 1, 1))
    return is_hopf_subalgebra(A, SubspaceBasis(A, np.eye(3, dtype=complex)))


def _is_hopf_subalgebra_mult(ext):
    return _nan_at_all_of_kc3("mult", (1, 2, 0))


def _is_hopf_subalgebra_unit(ext):
    return _nan_at_all_of_kc3("unit", (0,))


def _is_hopf_subalgebra_antipode(ext):
    return _nan_at_all_of_kc3("antipode", (2, 1))


def _subalgebra_data(ext):
    return subalgebra_data(_with_nan(ext.A, "mult", (0, 0, 0)), ext.b_sub)


def _component_bimodule(ext):
    # a NaN in the products u_f b_m and b_m u_f of A_f's generators
    fresh = Extension(_with_nan(ext.A, "mult", (0, 0, 0)), ext.inc)
    fresh.components = ext.components
    return fresh.twists


def _graded_tensor_characters(ext):
    # a NaN in a twist theta_f, so in the characters alpha o theta_f
    fresh = copy.copy(ext)
    fresh.twists = ext.twists.copy()
    fresh.twists[1, 0, 0] = np.nan
    return clifford.graded_stabilizer_analysis(fresh, [clifford.compute_stabilizer(ext, 0)])


def _as_group_algebra_surjection(ext):
    # kC3 on its own group-like basis, with a NaN in a product of two of them
    H = _with_nan(_kc3(), "mult", (1, 1, 2))
    return repcalc.as_group_algebra_surjection(HopfSurjection(H, H, np.eye(3, dtype=complex)))


def _conjugation_matrix(ext):
    d_vec = ext.dec_dual.irr[-1].values.copy()
    d_vec[0] = np.nan
    return conjugation_matrices(ext.A, ext.inc, d_vec[None])


def _scalar_module(ext):
    dec = ext.dec_b
    values = dec.irr[1].values.copy()
    values[1] = np.nan
    forged = dataclasses.replace(dec, irr=[dec.irr[0], Character(dec.algebra, values)])
    return construct_irreducible_module(dec.algebra, forged, 1)


def _nan_character(ext):
    values = ext.dec_b.irr[0].values.copy()
    values[1] = np.nan
    return Character(ext.dec_b.algebra, values)


def _degree(ext):
    return _nan_character(ext).degree


def _decompose(ext):
    return decompose(_nan_character(ext), ext.dec_b)


NAN_CASES = [
    # (check, outcome): False for a predicate, else the error a gate raises
    (_is_hopf_subalgebra, False),
    (_is_hopf_subalgebra_mult, False),
    (_is_hopf_subalgebra_unit, False),
    (_is_hopf_subalgebra_antipode, False),
    (_subalgebra_data, PreconditionError),
    (_component_bimodule, ConsistencyError),
    (_graded_tensor_characters, NotACharacterError),
    (_as_group_algebra_surjection, ConsistencyError),
    (_conjugation_matrix, ConsistencyError),
    (_scalar_module, ConsistencyError),
    (_degree, ConsistencyError),
    (_decompose, NotACharacterError),
]


@pytest.mark.parametrize("check,outcome", NAN_CASES,
                         ids=[c[0].__name__.lstrip("_") for c in NAN_CASES])
def test_nan_fails_every_check(classical, check, outcome):
    if outcome is False:
        assert check(classical) is False
    else:
        with pytest.raises(outcome):
            check(classical)


def test_module_residual_keeps_nan():
    # a NaN only in the unit residual; Python's max would drop it
    A = _kc3()
    mod = ExplicitModule(_with_nan(A, "unit", 1), [np.ones((1, 1))] * 3)
    assert np.isnan(mod.verify())


def test_max_abs():
    assert linalg.max_abs() == 0.0
    assert linalg.max_abs(np.zeros((0, 3))) == 0.0
    assert linalg.max_abs(np.array([1.0, -3.0]), 2.0 - 2.0j) == 3.0
    assert np.isnan(linalg.max_abs(np.array([1.0, 5.0]), np.array([0.0, np.nan])))
    assert np.isnan(linalg.max_abs(*{"a": 1.0, "b": float("nan"), "c": 2.0}.values()))


_equivalence_classes = clifford.equivalence_classes


def _perturbed_restriction(ext):
    # the restrictions the class formulas read, after the table is decomposed
    ecd = _equivalence_classes(ext)
    return dataclasses.replace(ecd, restricted=ecd.restricted * (1 + 1e-3))


_compute_stabilizer = clifford.compute_stabilizer


def _doubled_psi_alpha(ext, alpha_index):
    sr = _compute_stabilizer(ext, alpha_index)
    return dataclasses.replace(sr, psi_alpha=Character(sr.z_alg, 2 * sr.psi_alpha.values))


@pytest.mark.parametrize("target,fault", [
    ("equivalence_classes", _perturbed_restriction),
    ("compute_stabilizer", _doubled_psi_alpha),
], ids=["class_formulas", "stabilizer_induction"])
def test_reported_residuals_are_gated(monkeypatch, capsys, target, fault):
    # both residuals read 0.0 in every report; a fault above TOL_MATCH is exit 4
    monkeypatch.setattr(clifford, target, fault)
    assert cli.main(["analyze", "--builtin", "s3_a3_classical"]) == cli.EXIT_THEOREM
    assert "internal consistency failure" in capsys.readouterr().err


def _modules():
    return sorted(SRC.glob("*.py"))


def _constant_block(tree):
    """Module-level NAME = value assignments: linalg's threshold block."""
    return {id(node.value) for node in tree.body
            if isinstance(node, ast.Assign)
            and all(isinstance(t, ast.Name) and t.id.isupper() for t in node.targets)}


def test_thresholds_are_named_once():
    stray = []
    for path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = _constant_block(tree) if path.name == "linalg.py" else set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < node.value < 1.0 and id(node) not in allowed):
                stray.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert stray == []


def test_only_linalg_calls_numpy_solvers():
    # linalg's wrappers raise NumericDegeneracyError (exit 4) where numpy
    # raises LinAlgError; only np.linalg.norm, which raises none, is free
    stray = []
    for path in _modules():
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr != "norm"
                    and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg"
                    and isinstance(func.value.value, ast.Name) and func.value.value.id == "np"):
                stray.append(f"{path.name}:{node.lineno} np.linalg.{func.attr}")
    assert stray == []


def test_no_module_names_numpy_random():
    # draws come from linalg's stdlib streams; numpy.random is not imported
    # by `import numpy` on numpy 2, and loading it costs about 6 MB
    stray = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "random"
                    and isinstance(node.value, ast.Name) and node.value.id == "np"):
                stray.append(f"{path.name}:{node.lineno} np.random")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names]
                if isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{n}" for n in names]
                stray += [f"{path.name}:{node.lineno} {n}" for n in names
                          if n.startswith("numpy.random")]
    assert stray == []


def test_only_kept_functions_take_tolerances():
    extra = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                names = {a.arg for a in args} & TOLERANCE_PARAMS
                if names and node.name not in KEPT:
                    extra.append(f"{path.name}:{node.lineno} {node.name}{sorted(names)}")
    assert extra == []
