"""Regenerate perfbench/expected.json and check the tracer's coverage.

    PYTHONPATH=src python3 perfbench/freeze.py

Runs one pass of every workload in this process, untraced, and freezes
each request's content and report digest together with the properties of
each input.  It then runs every pass again with the layer spans installed
and fails unless the traced reports are identical to the untraced ones,
every listed function is reached on at least one workload, and the metric
names match BENCHMARK.json.  Takes about two minutes, most of it d=60.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import answer, run_request  # noqa: E402

from hopfclifford import cli, repcalc, scenarios  # noqa: E402

D60_DEGREES = [1, 1, 1, 3, 4, 4, 4]


def one_pass(requests: list[dict]) -> dict:
    out = {}
    for request in requests:
        _, code, stdout = run_request(cli.main, request)
        if code != 0:
            raise SystemExit(f"{request['key']} exited with {code}")
        content, digest, sha = answer(request, code, stdout)
        out[request["key"]] = {"content": content, "report_sha256": sha, "digest": digest}
    return out


def input_properties(name: str, work: Path, frozen: dict) -> dict:
    if name in workloads.BUILTINS:
        sc = scenarios.builtin_scenario(name)
    else:
        sc = scenarios.load_scenario(str(work / f"{name}.json"))
    A = scenarios.build_scenario(sc, repcalc.DEFAULT_SEED).A
    dims = frozen[f"{name}|analyze|all"]["content"]["dims"]
    return {"d": A.dim, "mult_nonzeros": int(np.count_nonzero(A.mult)),
            "comult_nonzeros": int(np.count_nonzero(A.comult)),
            "irr_b": len(dims["B"]), "irr_a_dual": len(dims["A_dual"])}


def check_expectations(frozen: dict) -> None:
    d60 = frozen["a5_a4_c5|analyze|all"]["content"]
    verdicts = sorted(a["verdict"] for a in d60["alphas"])
    if d60["dims"]["A"] != D60_DEGREES or verdicts != ["FAILS"] * 4 + ["HOLDS"]:
        raise SystemExit(f"d60 reproduces {d60['dims']['A']} {verdicts}")
    for name, count in workloads.NUM_ALPHAS.items():
        if len(frozen[f"{name}|analyze|all"]["content"]["dims"]["B"]) != count:
            raise SystemExit(f"NUM_ALPHAS[{name!r}] is not |Irr(B)|")


def check_metric_names() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if [m["name"] for m in bench["end_to_end"]] != list(run.E2E_UNITS):
        raise SystemExit("end_to_end metrics differ from run.E2E_UNITS")
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if listed != tracer.metric_units():
        raise SystemExit("per_layer metrics differ from tracer.metric_units()")


def main() -> int:
    work = HERE / ".work" / "freeze"
    try:
        passes = {w: workloads.write_inputs(w, 0, work) for w in workloads.WORKLOADS}
        frozen = {}
        for requests in passes.values():
            frozen.update(one_pass(requests))
        check_expectations(frozen)
        names = list(workloads.BUILTINS) + list(workloads.GENERATED)
        inputs = {n: input_properties(n, work, frozen) for n in names}

        tr = tracer.Tracer()
        tr.install()
        try:
            for w, requests in passes.items():
                before = list(tr.calls)
                for key, got in one_pass(requests).items():
                    if got["digest"] != frozen[key]["digest"]:
                        raise SystemExit(f"{key}: traced report differs from untraced")
                reached = [n for n, b, a in zip(tr.names, before, tr.calls) if a > b]
                print(f"{w}: {len(reached)} of {len(tr.names)} functions reached")
        finally:
            tr.uninstall()
        missing = [n for n, c in zip(tr.names, tr.calls) if c == 0]
        if missing:
            raise SystemExit(f"never reached on any workload: {missing}")
        print("bindings replaced:", tr.bindings)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    requests = {k: {"content": v["content"], "report_sha256": v["report_sha256"]}
                for k, v in sorted(frozen.items())}
    (HERE / "expected.json").write_text(
        json.dumps({"inputs": inputs, "requests": requests}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    check_metric_names()
    return 0


if __name__ == "__main__":
    sys.exit(main())
