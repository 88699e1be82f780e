"""Shared fixtures: the three builtin extensions, a5_a4_c5, s4_a4,
dual_s4_v4 and dual_s4c2_c2 as per-scenario contexts; `dense_rho`, the comodule map read
back from its COO form; `change_basis`, an algebra on another basis; and
`solve_antipode`, the antipode solved from its defining law.

Session scope keeps the expensive dim-24 objects built once; each context
computes its decompositions, classes and conjugation matrices on first use.
"""

import time

import numpy as np
import pytest

from hopfclifford import hopf
from hopfclifford.groups import (derive_actions, group_from_permutations,
                                 subgroup_closure)
from hopfclifford.repcalc import DEFAULT_SEED
from hopfclifford.scenarios import Scenario, build_scenario, builtin_scenario

A5_A4_C5 = {"name": "a5_a4_c5", "construction": "bismash",
            "group": {"generators": ["(1 2 3 4 5)", "(1 2 3)", "(1 2)(3 4)"],
                      "names": ["c", "a", "v"]},
            "f_generators": ["a", "v"], "g_generators": ["c"]}
S4_A4 = {"name": "s4_a4", "construction": "group_algebra",
         "group": {"generators": ["(1 2 3 4)", "(1 2)"], "names": ["g", "t"]},
         "b_generators": ["(1 2 3)", "(1 2)(3 4)"]}
DUAL_S4_V4 = {"name": "dual_s4_v4", "construction": "dual_group_algebra",
              "group": {"generators": ["(1 2 3 4)", "(1 2)"], "names": ["g", "t"]},
              "b_generators": ["(1 2)(3 4)", "(1 3)(2 4)"]}
DUAL_S4C2_C2 = {"name": "dual_s4c2_c2", "construction": "dual_group_algebra",
                "group": {"generators": ["(1 2 3 4)", "(1 2)", "(5 6)"],
                          "names": ["g", "t", "z"]},
                "b_generators": ["(5 6)"]}


def dense_rho(A, P):
    """The comodule map (id (x) P) Delta of `hopf.comodule_map_rho`, whose
    entries are distinct, as a (d, |P|, d) array."""
    idx, val = hopf.comodule_map_rho(A, hopf.HopfSurjection(A, None, P))
    assert len(set(zip(*(i.tolist() for i in idx)))) == val.size
    rho = np.zeros((A.dim, P.shape[0], A.dim), dtype=complex)
    rho[idx] = val
    return rho


def change_basis(A, P):
    """A on the basis f_i = sum_a P[a, i] e_a."""
    Q = np.linalg.inv(P)
    return hopf.HopfAlgebraData(np.einsum("ai,bj,abc,kc->ijk", P, P, A.mult, Q, optimize=True),
                                Q @ A.unit,
                                np.einsum("ck,cab,ia,jb->kij", P, A.comult, Q, Q, optimize=True),
                                A.counit @ P, antipode=Q @ A.antipode @ P)


def solve_antipode(A):
    """The S with sum S(a_1) a_2 = eps(a) 1, solved as a dense (d^2, d^2)
    linear system: the independent reference for every closed-form antipode."""
    d = A.dim
    # coefficient of unknown S[p, i] in equation (k, q)
    K = np.einsum("kij,pjq->kqpi", A.comult, A.mult, optimize=True).reshape(d * d, d * d)
    return np.linalg.solve(K, np.outer(A.counit, A.unit).reshape(d * d)).reshape(d, d)


def _builtin(name):
    return build_scenario(builtin_scenario(name), DEFAULT_SEED)


@pytest.fixture(scope="session")
def s4_sigma():
    return group_from_permutations(["(1 2 3 4)", "(1 2)", "(1 2 3)"],
                                   names=["g", "t", "s"])


@pytest.fixture(scope="session")
def s4_pair(s4_sigma):
    f = subgroup_closure(s4_sigma, [s4_sigma.label_index("t"),
                                    s4_sigma.label_index("s")])
    g = subgroup_closure(s4_sigma, [s4_sigma.label_index("g")])
    return derive_actions(s4_sigma, f, g)


@pytest.fixture(scope="session")
def counterexample():
    return _builtin("s4_counterexample")


@pytest.fixture(scope="session")
def c4c2_pair():
    d4 = group_from_permutations(["(1 2 3 4)", "(1 3)"], names=["g", "r"])
    f = subgroup_closure(d4, [d4.label_index("r")])
    g = subgroup_closure(d4, [d4.label_index("g")])
    return derive_actions(d4, f, g)


@pytest.fixture(scope="session")
def cocentral8():
    return _builtin("cocentral_c4_c2")


@pytest.fixture(scope="session")
def s3_group():
    return group_from_permutations(["(1 2)", "(1 2 3)"], names=["t", "s"])


@pytest.fixture(scope="session")
def classical():
    # kS3 over kA3; the quotient kC2 is found from the generic quotient
    return _builtin("s3_a3_classical")


@pytest.fixture(scope="session")
def a5():
    # d = 60: A5 = A4.C5, F = A4 and B = k^C5
    return build_scenario(Scenario.from_dict(A5_A4_C5), DEFAULT_SEED)


@pytest.fixture(scope="session")
def s4_a4():
    # kS4 over kA4: B has an irreducible of degree 3, the quotient is kC2
    return build_scenario(Scenario.from_dict(S4_A4), DEFAULT_SEED)


@pytest.fixture(scope="session")
def dual_s4_v4():
    # k^S4 over the functions on S4/V4: Delta(d) of a dual character is dense
    return build_scenario(Scenario.from_dict(DUAL_S4_V4), DEFAULT_SEED)


@pytest.fixture(scope="session")
def dual_s4c2_c2():
    # d = 48: k^(S4xC2) over the functions on the cosets of its centre C2,
    # whose 0/1 basis has two ones a column and is not a coordinate subspace
    return build_scenario(Scenario.from_dict(DUAL_S4C2_C2), DEFAULT_SEED)


def pytest_sessionstart(session):
    session.config._suite_t0 = time.perf_counter()


def pytest_sessionfinish(session, exitstatus):
    elapsed = time.perf_counter() - session.config._suite_t0
    print(f"\nfull suite wall time: {elapsed:.1f}s")
