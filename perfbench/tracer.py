"""Spans around the program's layer functions, installed from outside.

`Tracer.install()` replaces every binding of each listed function inside
the `hopfclifford` package: the defining module, each module that did
`from .x import name`, and the package `__init__` re-exports.  A binding
that kept the original would let calls bypass the span, so the benchmark
checks that every listed function is reached on some workload.

Each call records a span (name, start, end, parent span, request).  The
per-function statistics are call count, inclusive time (outermost
activation only, so recursion is not counted twice), self time (inclusive
minus the time covered by child spans), and where asked the tracemalloc
peak above entry and the share of calls with distinct inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

import numpy as np

PACKAGE = "hopfclifford"

# (module, qualified name, extras); extras: "peak_mb", "unique_ratio".
TARGETS = [
    ("hopf", "verify_hopf_axioms", ("peak_mb",)),
    ("hopf", "is_hopf_subalgebra", ("peak_mb",)),
    ("hopf", "solve_antipode", ("peak_mb",)),
    ("hopf", "bismash", ()),
    ("hopf", "group_algebra", ()),
    ("hopf", "dual_group_algebra", ()),
    ("hopf", "quotient_hopf", ()),
    ("hopf", "is_normal_hopf_subalgebra", ()),
    ("hopf", "subalgebra_data", ()),
    ("hopf", "graded_component", ()),
    ("hopf", "coefficient_space", ()),
    ("hopf", "AlgebraData.product", ()),
    ("repcalc", "wedderburn", ()),
    ("repcalc", "decompose", ("unique_ratio",)),
    ("repcalc", "induce_character", ()),
    ("repcalc", "construct_irreducible_module", ()),
    ("repcalc", "as_group_algebra_surjection", ()),
    ("clifford", "equivalence_classes", ()),
    ("clifford", "verify_class_formulas", ()),
    ("clifford", "coset_projection_check", ()),
    ("clifford", "analyze_alpha", ()),
    ("clifford", "compute_stabilizer", ()),
    ("clifford", "conjugate_character", ("unique_ratio",)),
    ("clifford", "conjugate_class_indices", ()),
    ("clifford", "graded_stabilizer_analysis", ()),
    ("clifford", "direct_correspondence_check", ()),
    ("linalg", "orthonormal_columns", ()),
    ("linalg", "null_space", ()),
    ("linalg", "lstsq_coords", ()),
    ("scenarios", "build_scenario", ()),
    ("scenarios", "run_scenario", ()),
    ("cli", "main", ()),
    ("groups", "group_from_permutations", ()),
    ("groups", "derive_actions", ()),
    ("groups", "verify_matched_pair", ()),
]

# Argument names whose values identify the work of one call; the
# decomposition or algebra objects are identified by object identity.
UNIQUE_KEYS = {
    "decompose": (("chi",), ("dec",)),
    "conjugate_character": (("d_vec", "alpha"), ("A", "inc")),
}


def target_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for module, qualname, extras in TARGETS:
        name = target_name(module, qualname)
        out[f"{name}.calls"] = "count"
        out[f"{name}.s"] = "s"
        out[f"{name}.self_s"] = "s"
        if "peak_mb" in extras:
            out[f"{name}.peak_mb"] = "MB"
        if "unique_ratio" in extras:
            out[f"{name}.unique_ratio"] = "ratio"
    out["scenarios.report_digest_changed"] = "count"
    out["tracing_overhead_requests_per_s"] = "1/s"
    return out


def _content_hash(value) -> int:
    values = getattr(value, "values", value)
    arr = np.round(np.asarray(values, dtype=complex), 6) + 0.0  # folds -0.0
    return hash(arr.tobytes())


class Tracer:
    def __init__(self):
        self.names = [target_name(m, q) for m, q, _ in TARGETS]
        n = len(TARGETS)
        self.calls = [0] * n
        self.incl = [0.0] * n
        self.self_time = [0.0] * n
        self.peak_mb = [0.0] * n
        self.distinct = [0] * n
        self.active = [0] * n
        self.spans: list[tuple] = []  # (id, name index, start, end, parent id, request)
        self.bindings: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, start, child time]
        self._mem: list[list] = []    # [baseline bytes, highest peak bytes]
        self._seen: list[set] = [set() for _ in range(n)]
        self._keep: list = []
        self._restore: list[tuple] = []
        self.request = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for idx, (module, qualname, extras) in enumerate(TARGETS):
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(idx, original, extras)
                self._set(owner, attr, wrapper, original)
                self.bindings[self.names[idx]] = 1
                continue
            original = getattr(mod, attr, None)
            if original is None:  # removed from the program: reported as 0 calls
                self.bindings[self.names[idx]] = 0
                continue
            wrapper = self._wrap(idx, original, extras)
            count = 0
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper, original)
                        count += 1
            self.bindings[self.names[idx]] = count

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, wrapper, original) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, idx: int, fn, extras):
        want_peak = "peak_mb" in extras
        key_fn = None
        if "unique_ratio" in extras:
            key_fn = self._unique_key(fn, *UNIQUE_KEYS[fn.__name__])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_fn is not None:
                self._note_key(idx, key_fn(args, kwargs))
            self._enter(idx, want_peak)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx, want_peak)
        return wrapper

    def _unique_key(self, fn, content_args, identity_args):
        sig = inspect.signature(fn)

        def key(args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            objs = [bound[a] for a in identity_args]
            self._keep.extend(objs)  # pins ids for the rest of the request
            return (tuple(id(o) for o in objs)
                    + tuple(_content_hash(bound[a]) for a in content_args))
        return key

    # -- recording ----------------------------------------------------------

    def begin_request(self) -> None:
        self.request += 1
        for s in self._seen:
            s.clear()
        self._keep.clear()

    def _note_key(self, idx: int, key) -> None:
        if key not in self._seen[idx]:
            self._seen[idx].add(key)
            self.distinct[idx] += 1

    def _enter(self, idx: int, want_peak: bool) -> None:
        self.active[idx] += 1
        if want_peak:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            for frame in self._mem:
                frame[1] = max(frame[1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        # every span entered earlier is either finished or still open
        self._stack.append([len(self.spans) + len(self._stack),
                            time.perf_counter(), 0.0])

    def _exit(self, idx: int, want_peak: bool) -> None:
        end = time.perf_counter()
        span_id, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((span_id, idx, start, end,
                           None if parent is None else parent[0], self.request))
        self.calls[idx] += 1
        self.self_time[idx] += duration - child
        self.active[idx] -= 1
        if self.active[idx] == 0:
            self.incl[idx] += duration
        if want_peak:
            _, peak = tracemalloc.get_traced_memory()
            baseline, highest = self._mem.pop()
            above = (max(highest, peak) - baseline) / 2**20
            self.peak_mb[idx] = max(self.peak_mb[idx], above)
            if not self._mem:
                tracemalloc.stop()

    # -- results ------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass statistics for every target."""
        out = {}
        for idx, (module, qualname, extras) in enumerate(TARGETS):
            name = self.names[idx]
            out[f"{name}.calls"] = self.calls[idx] / passes
            out[f"{name}.s"] = self.incl[idx] / passes
            out[f"{name}.self_s"] = self.self_time[idx] / passes
            if "peak_mb" in extras:
                out[f"{name}.peak_mb"] = self.peak_mb[idx]
            if "unique_ratio" in extras:
                calls = self.calls[idx]
                out[f"{name}.unique_ratio"] = self.distinct[idx] / calls if calls else 0.0
        return out
