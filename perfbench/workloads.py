"""Workload inputs: generated scenario files and seeded request sequences.

Every request is the argument list of one `hopf-clifford` invocation.  The
workload seed only shuffles the order of the requests in a pass; the
scenario files themselves are fixed, so the program's reports stay
comparable between seeds and commits.  The program's own `--seed` is never
passed, so every request runs at the package's default splitting seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

BUILTINS = ("s4_counterexample", "s3_a3_classical", "cocentral_c4_c2")

# Scenario files the benchmark writes before each run.
GENERATED = {
    # A5 = A4.C5 as a bismash k^C5 # kA4, d = 60.
    "a5_a4_c5": {
        "name": "a5_a4_c5", "construction": "bismash",
        "group": {"generators": ["(1 2 3 4 5)", "(1 2 3)", "(1 2)(3 4)"],
                  "names": ["c", "a", "v"]},
        "f_generators": ["a", "v"], "g_generators": ["c"], "alpha": "all"},
    # kS4 over kA4: the generic quotient path (quotient_hopf and
    # as_group_algebra_surjection), d = 24.
    "s4_a4": {
        "name": "s4_a4", "construction": "group_algebra",
        "group": {"generators": ["(1 2 3 4)", "(1 2)"], "names": ["g", "t"]},
        "b_generators": ["(1 2 3)", "(1 2)(3 4)"], "alpha": "all"},
    # k^S4 over the Klein-four cosets: Z = A for every alpha, d = 24.
    "dual_s4_v4": {
        "name": "dual_s4_v4", "construction": "dual_group_algebra",
        "group": {"generators": ["(1 2 3 4)", "(1 2)"], "names": ["g", "t"]},
        "b_generators": ["(1 2)(3 4)", "(1 3)(2 4)"], "alpha": "all"},
}

SMALL = BUILTINS + ("s4_a4", "dual_s4_v4")

# |Irr(B)| of each small scenario: small_mixed sends one single-alpha
# request per irreducible B-character.  freeze.py checks these counts
# against the analyze reports.
NUM_ALPHAS = {"s4_counterexample": 4, "s3_a3_classical": 3,
              "cocentral_c4_c2": 4, "s4_a4": 4, "dual_s4_v4": 6}

WORKLOADS = ("d60_all", "small_all", "small_mixed")


def _source_args(scenario: str, workdir: Path) -> list[str]:
    if scenario in BUILTINS:
        return ["--builtin", scenario]
    return ["--scenario", str(workdir / f"{scenario}.json")]


def request_keys(workload: str) -> list[str]:
    """The requests of one pass, in canonical (unshuffled) order.

    A key is `scenario|command|alpha`; alpha is empty for list-irr and
    verify-axioms.
    """
    if workload == "d60_all":
        return ["a5_a4_c5|analyze|all"]
    if workload == "small_all":
        return [f"{s}|analyze|all" for s in SMALL]
    if workload == "small_mixed":
        keys = []
        for s in SMALL:
            keys += [f"{s}|analyze|{k}" for k in range(NUM_ALPHAS[s])]
            keys += [f"{s}|list-irr|", f"{s}|verify-axioms|"]
        return keys
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def argv_for(key: str, workdir: Path) -> list[str]:
    scenario, command, alpha = key.split("|")
    argv = [command] + _source_args(scenario, workdir)
    if command == "analyze":
        argv += ["--alpha", alpha, "--json", str(workdir / "report.json")]
    return argv


def write_inputs(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's scenario files; return one pass of requests."""
    keys = request_keys(workload)
    random.Random(seed).shuffle(keys)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, data in GENERATED.items():
        if any(k.startswith(name + "|") for k in keys):
            (workdir / f"{name}.json").write_text(
                json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return [{"key": k, "argv": argv_for(k, workdir)} for k in keys]
