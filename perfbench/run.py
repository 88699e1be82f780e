"""Closed-loop benchmark of the hopf-clifford command line, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's `src`.  Each run writes the workload's scenario files (the seed
fixes the request order), times set-up in fresh processes, then starts a
fresh worker process that sends requests to `hopfclifford.cli.main` one
after another and checks every answer.  The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics` -- the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  Details of the run (environment, inputs, spans) go to
`perfbench/.out/`.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

# One BLAS thread on every commit, never above nproc.  On a shared 2-core
# machine two threads made d=60 faster (31-35 s against 50-53 s a request)
# but spread its times over 13 % instead of 5 %.
BLAS_THREADS = 1
SETUP_PROBES = 5      # timed set-up processes before and again after the loop
DEADLINE_S = 170.0    # the whole run, so it ends within 180 s
P90_MIN_SAMPLES = 100

E2E_UNITS = {"setup_s": "s", "request_s_p50": "s", "requests_per_s": "1/s",
             "peak_rss_mb": "MB", "ok_fraction": "ratio"}


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HOPF_CLIFFORD_SEED", None)  # requests run at the default seed
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("run exceeded its time limit")
    return left


def start_worker(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with the seconds until it printed `ready`."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + args,
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], remaining(deadline))
        line = proc.stdout.readline() if ready else b""
        if line.strip() != b"ready":
            raise RunError("worker did not start")
        return proc, time.perf_counter() - start
    except BaseException:
        stop(proc)
        raise


def finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        code = proc.wait(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        raise RunError("worker exceeded the run's time limit") from None
    finally:
        stop(proc)
    if code != 0:
        raise RunError(f"worker exited with code {code}")


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def time_setup(common: list[str], deadline: float, probes: int) -> list[float]:
    """Seconds from process start to `ready`, once per probe process."""
    out = []
    for _ in range(probes):
        proc, seconds = start_worker(common + ["--setup-only"], deadline)
        finish(proc, deadline)
        out.append(seconds)
    return out


def commit() -> dict:
    """Git commit when the checkout is a repository, and a digest of src."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    head = None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git": head, "src_sha256": digest.hexdigest()}


def e2e_metrics(untraced: dict, setup: list[float], rss_mb: float) -> dict:
    times = untraced["times"]
    return {"setup_s": statistics.median(setup),
            "request_s_p50": statistics.median(times),
            "requests_per_s": len(times) / untraced["wall_s"],
            "peak_rss_mb": rss_mb,
            "ok_fraction": (untraced["attempted"] - untraced["failed"]) / untraced["attempted"]}


def layer_metrics(result: dict) -> dict:
    untraced, traced = result["untraced"], result["traced"]
    out = dict(result["layers"])
    out["scenarios.report_digest_changed"] = traced["digest_changed"] / traced["passes"]
    out["tracing_overhead_requests_per_s"] = (
        len(traced["times"]) / traced["wall_s"] - len(untraced["times"]) / untraced["wall_s"])
    return out


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "hopfclifford" / "cli.py").is_file():
        raise RunError(f"no hopfclifford package under {ROOT / 'src'}")
    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        requests = workloads.write_inputs(args.workload, args.seed, work)
        (work / "requests.json").write_text(json.dumps(requests, indent=1), encoding="utf-8")
        common = ["--requests", str(work / "requests.json"),
                  "--expected", str(HERE / "expected.json")]

        time_setup(common, deadline, 1)  # untimed: fills the bytecode cache
        setup = time_setup(common, deadline, SETUP_PROBES)
        worker_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                "--result", str(work / "result.json")]
        if args.trace:
            worker_args += ["--spans", f"{stem}-spans.json"]
        proc, _ = start_worker(worker_args, deadline)
        finish(proc, deadline)
        setup += time_setup(common, deadline, SETUP_PROBES)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = result["untraced"]
    attempted, failed = untraced["attempted"], untraced["failed"]
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit(), "environment": result["environment"],
            "inputs": {k: v for k, v in json.loads((HERE / "expected.json").read_text())[
                "inputs"].items() if any(r["key"].startswith(k + "|") for r in requests)},
            "requests_per_pass": len(requests), "passes": untraced["passes"],
            "samples": len(untraced["times"]), "setup_samples": setup,
            "request_times": untraced["times"],
            "report_digest_changed": untraced["digest_changed"]}
    if len(untraced["times"]) >= P90_MIN_SAMPLES:
        info["request_s_p90"] = statistics.quantiles(untraced["times"], n=10)[-1]
    correct = failed == 0
    if args.trace:
        traced = result["traced"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        same = traced["digests"] == untraced["digests"]
        correct = correct and traced["failed"] == 0 and same
        info.update({"traced_identical_to_untraced": same, "bindings": result["bindings"],
                     "traced_passes": traced["passes"],
                     "not_reached": [n for n in tracer.metric_units()
                                     if n.endswith(".calls") and result["layers"][n] == 0]})
        values, units = layer_metrics(result), tracer.metric_units()
    else:
        values = e2e_metrics(untraced, setup, result["peak_rss_mb"])
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    Path(f"{stem}.json").write_text(json.dumps({"info": info, **summary}, indent=1) + "\n",
                                    encoding="utf-8")
    return info, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        info, summary = run(args)
    except RunError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps(info))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
