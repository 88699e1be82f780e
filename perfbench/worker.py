"""One benchmark process: import the package, then serve a closed loop.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's `src`.  It prints `ready` once the package is imported and the
inputs are loaded (run.py times set-up up to that line), then sends the
requests one at a time to `hopfclifford.cli.main` in this process, checks
each answer against the frozen expectations, and writes its result as
JSON.  With `--trace 1` it first runs the same loop untraced, then again
with the layer spans installed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# ---------------------------------------------------------------------------
# content frozen per request; the analyze report JSON is also digested

_GRADED_KEYS = ("h_members", "h_labels", "orbit_size", "dim_s",
                "s_is_hopf_subalgebra", "z_equals_s", "cocentral")
_ALPHA_KEYS = ("alpha_index", "verdict", "dim_z", "bound", "socle_equality")


def analyze_content(report: dict) -> dict:
    """Degrees, classes and each alpha's verdict data.

    The induction table is left out: its psi indices follow the canonical
    Irr(Z) order, which depends on the splitting seed.
    """
    alphas = []
    for a in report["alphas"]:
        entry = {k: a[k] for k in _ALPHA_KEYS}
        if "graded" in a:
            entry["graded"] = {k: a["graded"][k] for k in _GRADED_KEYS}
        alphas.append(entry)
    return {"dims": report["dims"], "classes": report["classes"], "alphas": alphas}


def list_irr_content(text: str) -> dict:
    return {tag: json.loads(degrees) for tag, degrees in
            re.findall(r"^  (Irr\(\w+\*?\)): \d+ characters, degrees (\[.*\])$", text, re.M)}


def verify_axioms_content(text: str) -> dict:
    return {tag: verdict == "pass" for tag, verdict in
            re.findall(r"^  (\w+) \(dim \d+\): max residual \S+ \((pass|FAIL)\)$", text, re.M)}


def answer(request: dict, code: int, stdout: str) -> tuple[dict, str, str | None]:
    """(content, digest of the full output, report sha256 or None)."""
    command = request["argv"][0]
    if command == "analyze":
        raw = Path(request["argv"][request["argv"].index("--json") + 1]).read_bytes()
        sha = hashlib.sha256(raw).hexdigest()
        return {"exit": code, **analyze_content(json.loads(raw))}, sha, sha
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if command == "list-irr":
        return {"exit": code, **list_irr_content(stdout)}, digest, None
    return {"exit": code, **verify_axioms_content(stdout)}, digest, None


# ---------------------------------------------------------------------------
# the closed loop


def run_request(main, request: dict) -> tuple[float, int, str]:
    argv = request["argv"]
    if "--json" in argv:  # a failed request must not leave the last report behind
        Path(argv[argv.index("--json") + 1]).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(f"{request['key']}: exit {code}: {err.getvalue()}")
    return elapsed, code, out.getvalue()


def closed_loop(main, requests: list[dict], expected: dict, seconds: float,
                tracer=None) -> dict:
    """Whole passes over the requests until `seconds` have elapsed.

    Only whole passes are run, so every run sends the same mix of requests
    whatever the seed's order.
    """
    times, failed, digest_changed, passes = [], 0, 0, 0
    first_pass: dict[str, str] = {}
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for request in requests:
            if tracer is not None:
                tracer.begin_request()
            try:
                elapsed, code, stdout = run_request(main, request)
                content, digest, sha = answer(request, code, stdout)
            except Exception as exc:  # a crash counts as a failed request
                sys.stderr.write(f"{request['key']}: {type(exc).__name__}: {exc}\n")
                failed += 1
                continue
            times.append(elapsed)
            want = expected[request["key"]]
            if content != want["content"]:
                sys.stderr.write(f"{request['key']}: content differs from expected\n")
                failed += 1
            if sha is not None and sha != want["report_sha256"]:
                digest_changed += 1
            first_pass.setdefault(request["key"], digest)
        passes += 1
    wall = time.perf_counter() - start
    return {"times": times, "attempted": passes * len(requests), "failed": failed,
            "passes": passes, "wall_s": wall, "digest_changed": digest_changed,
            "digests": first_pass}


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0))}


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--requests", required=True)
    parser.add_argument("--expected", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args()

    from hopfclifford import cli
    requests = json.loads(Path(args.requests).read_text(encoding="utf-8"))
    expected = json.loads(Path(args.expected).read_text(encoding="utf-8"))["requests"]
    for argv in (r["argv"] for r in requests):
        if "--scenario" in argv:
            json.loads(Path(argv[argv.index("--scenario") + 1]).read_text(encoding="utf-8"))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"untraced": closed_loop(cli.main, requests, expected, args.seconds),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "environment": environment()}
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = closed_loop(cli.main, requests, expected, args.seconds, tracer)
        finally:
            tracer.uninstall()
        result["traced"] = traced
        result["layers"] = tracer.metrics(traced["passes"])
        result["bindings"] = tracer.bindings
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                {"names": tracer.names, "fields": ["id", "name", "start", "end",
                                                   "parent", "request"],
                 "spans": tracer.spans}) + "\n", encoding="utf-8")
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
