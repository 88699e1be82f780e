"""Scenario configuration, builtin reproductions, and run reports.

A scenario names a construction (group_algebra, dual_group_algebra or
bismash), the group data, the normal Hopf subalgebra B, and which
irreducible B-characters to analyze.  Three builtins ship with the
package:

  s4_counterexample   the order-24 bismash where the correspondence fails,
  s3_a3_classical     the classical group case kS3 over kA3,
  cocentral_c4_c2     a cocentral order-8 bismash where it always holds.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import clifford, hopf, linalg, repcalc
from .errors import ConfigError, ConsistencyError, NormalityError
from .groups import (DEFAULT_SIZE_CAP, FiniteGroup, MatchedPair, Subgroup,
                     derive_actions, group_from_permutations, parse_cycles,
                     subgroup_as_group, subgroup_closure)

BUILTIN_NAMES = ("s4_counterexample", "s3_a3_classical", "cocentral_c4_c2")

# expected action tables for the order-24 builtin, asserted before analysis
S4_RACT = {
    "t": {"g": "g", "g^2": "g^3", "g^3": "g^2"},
    "s": {"g": "g^2", "g^2": "g^3", "g^3": "g"},
    "s^2": {"g": "g^3", "g^2": "g", "g^3": "g^2"},
    "st": {"g": "g^3", "g^2": "g^2", "g^3": "g"},
    "ts": {"g": "g^2", "g^2": "g", "g^3": "g^3"},
}
S4_LACT = {
    "g": {"t": "ts", "s": "t", "s^2": "s", "st": "st", "ts": "s^2"},
    "g^2": {"t": "s^2", "s": "ts", "s^2": "t", "st": "st", "ts": "s"},
    "g^3": {"t": "s", "s": "s^2", "s^2": "ts", "st": "st", "ts": "t"},
}


@dataclass
class Scenario:
    name: str
    construction: str
    group_generators: list[str] = field(default_factory=list)
    group_names: Optional[list[str]] = None
    group_cayley: Optional[dict] = None
    f_generators: list[str] = field(default_factory=list)
    g_generators: list[str] = field(default_factory=list)
    b_generators: list[str] = field(default_factory=list)
    alpha: object = "all"
    seed: Optional[int] = None
    size_cap: int = DEFAULT_SIZE_CAP
    tol_alg: float = linalg.TOL_ALG
    expected_ract: Optional[dict] = None
    expected_lact: Optional[dict] = None

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        try:
            construction = data["construction"]
            if construction not in ("group_algebra", "dual_group_algebra", "bismash"):
                raise ConfigError(f"unknown construction {construction!r}")
            group = data.get("sigma") or data.get("group") or {}
            tol_alg = data.get("tolerances", {}).get("alg", linalg.TOL_ALG)
            if (isinstance(tol_alg, bool) or not isinstance(tol_alg, (int, float))
                    or not 0 < tol_alg < math.inf):
                raise ConfigError(
                    f"tolerances.alg must be a finite number > 0, got {tol_alg!r}")
            size_cap = data.get("size_cap", DEFAULT_SIZE_CAP)
            if (isinstance(size_cap, bool) or not isinstance(size_cap, int)
                    or not 1 <= size_cap <= DEFAULT_SIZE_CAP):
                raise ConfigError(f"size_cap must be an integer from 1 to "
                                  f"{DEFAULT_SIZE_CAP}, got {size_cap!r}")
            names = group.get("names")
            sc = cls(
                name=str(data.get("name", "scenario")),
                construction=construction,
                group_generators=_strings(group.get("generators", []), "group.generators"),
                group_names=None if names is None else _strings(names, "group.names"),
                group_cayley=group if "cayley" in group else None,
                f_generators=_strings(data.get("f_generators", []), "f_generators"),
                g_generators=_strings(data.get("g_generators", []), "g_generators"),
                b_generators=_strings(data.get("b_generators", []), "b_generators"),
                alpha=data.get("alpha", "all"),
                seed=data.get("seed"),
                size_cap=size_cap,
                tol_alg=float(tol_alg),
            )
            if sc.seed is not None:
                check_seed(sc.seed, "scenario seed")
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"bad scenario data: {exc}") from exc
        if not sc.group_generators and sc.group_cayley is None:
            raise ConfigError("scenario needs group generators or a Cayley table")
        if construction == "bismash" and not (sc.f_generators and sc.g_generators):
            raise ConfigError("bismash scenario needs f_generators and g_generators")
        if construction in ("group_algebra", "dual_group_algebra") and not sc.b_generators:
            raise ConfigError(f"{construction} scenario needs b_generators")
        return sc

    def to_dict(self) -> dict:
        if self.group_cayley is not None:
            group: dict = {"order": self.group_cayley["order"],
                           "cayley": self.group_cayley["cayley"],
                           "labels": self.group_cayley.get("labels")}
        else:
            group = {"generators": self.group_generators}
            if self.group_names:
                group["names"] = self.group_names
        out = {
            "name": self.name,
            "construction": self.construction,
            "group": group,
            "alpha": self.alpha,
        }
        if self.construction == "bismash":
            out["f_generators"] = self.f_generators
            out["g_generators"] = self.g_generators
        else:
            out["b_generators"] = self.b_generators
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def _strings(value, source: str) -> list[str]:
    """Generators and their names are lists of strings."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ConfigError(f"{source} must be a list of strings, got {value!r}")
    return list(value)


def check_seed(seed, source: str) -> int:
    """A splitting seed must be a non-negative integer."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {seed!r}")
    return seed


def resolve_seed(sc: Scenario, seed: Optional[int] = None) -> int:
    """The given seed, else the scenario's, else the default."""
    if seed is None:
        seed = sc.seed if sc.seed is not None else repcalc.DEFAULT_SEED
    return check_seed(seed, "seed")


def builtin_scenario(name: str) -> Scenario:
    if name == "s4_counterexample":
        return Scenario(
            name=name, construction="bismash",
            group_generators=["(1 2 3 4)", "(1 2)", "(1 2 3)"],
            group_names=["g", "t", "s"],
            f_generators=["t", "s"], g_generators=["g"],
            expected_ract=S4_RACT, expected_lact=S4_LACT)
    if name == "s3_a3_classical":
        return Scenario(
            name=name, construction="group_algebra",
            group_generators=["(1 2)", "(1 2 3)"], group_names=["t", "s"],
            b_generators=["s"])
    if name == "cocentral_c4_c2":
        return Scenario(
            name=name, construction="bismash",
            group_generators=["(1 2 3 4)", "(1 3)"], group_names=["g", "r"],
            f_generators=["r"], g_generators=["g"])
    raise ConfigError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return Scenario.from_dict(data)


# ---------------------------------------------------------------------------
# building the extension named by a scenario

def _resolve_elements(group: FiniteGroup, refs: list[str],
                      names: Optional[list[str]],
                      generator_strings: list[str]) -> list[int]:
    """Element indices for generator names, labels, or cycle strings."""
    out = []
    for ref in refs:
        text = ref
        if names and ref in names:
            text = generator_strings[names.index(ref)]
        elif ref in group.labels:
            out.append(group.label_index(ref))
            continue
        if group.perms is None:
            raise ConfigError(f"cannot resolve element {ref!r} without permutations")
        try:
            degree = len(group.perms[0])
            perm = parse_cycles(text, degree=degree, limit=degree)
        except ValueError as exc:
            raise ConfigError(f"cannot resolve element {ref!r}: {exc}") from exc
        hits = [i for i, p in enumerate(group.perms) if p == perm]
        if len(hits) != 1:
            raise ConfigError(f"element {ref!r} not found in the group")
        out.append(hits[0])
    return out


def _quotient_group(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """Cosets of a normal subgroup as a group, plus the 0/1 (|G|, |G/N|)
    matrix that sends each element to its coset.

    Cosets aN are numbered by their least element, which is their first in
    element order and labels the coset.
    """
    cosets = G.cayley[:, N.members]
    # a n a^-1 for every a in G and n in N
    if not np.isin(G.cayley[cosets, G.inverse[:, None]], N.members).all():
        raise ConfigError("b_generators do not generate a normal subgroup")
    reps, coset_of = np.unique(cosets.min(axis=1), return_inverse=True)
    cayley = coset_of[G.cayley[np.ix_(reps, reps)]]
    labels = [f"[{G.labels[a]}]" for a in reps]
    return FiniteGroup(cayley, labels=labels), _zero_one(G.order, reps.size, coset_of)


def _zero_one(rows: int, cols: int, col_of: np.ndarray) -> np.ndarray:
    """The complex 0/1 (rows, cols) matrix with a one at (r, col_of[r]) for each row r."""
    out = np.zeros((rows, cols), dtype=complex)
    out[np.arange(rows), col_of] = 1.0
    return out


def build_scenario(sc: Scenario, seed: int) -> clifford.Extension:
    """The extension a scenario names; derived data is built on first use.

    B's normality is tested and the construction's projection A -> A/AB+
    proved by its kernel (`hopf._check_projection_kernel`) here, for every
    request.  kG over kN tests normality before it forms G/N; k^G over
    k^(G/N) needs N normal to form G/N at all.
    """
    try:
        if sc.group_cayley is not None:
            group = FiniteGroup.from_json_dict(sc.group_cayley)
        else:
            group = group_from_permutations(sc.group_generators,
                                            names=sc.group_names,
                                            size_cap=sc.size_cap)
    except ValueError as exc:
        raise ConfigError(f"bad group data: {exc}") from exc

    if sc.construction == "bismash":
        f_idx = _resolve_elements(group, sc.f_generators, sc.group_names,
                                  sc.group_generators)
        g_idx = _resolve_elements(group, sc.g_generators, sc.group_names,
                                  sc.group_generators)
        f_sub = subgroup_closure(group, f_idx)
        g_sub = subgroup_closure(group, g_idx)
        mp = derive_actions(group, f_sub, g_sub)
        if sc.expected_ract is not None:
            _assert_action_tables(mp, sc.expected_ract, sc.expected_lact)
        bm = hopf.bismash(mp)  # refuses a pair that fails verification
        return clifford.Extension(bm.algebra, bm.b_inclusion, seed=seed, bismash=bm)

    n_idx = _resolve_elements(group, sc.b_generators, sc.group_names,
                              sc.group_generators)
    n_sub = subgroup_closure(group, n_idx)
    N = subgroup_as_group(n_sub)
    # the 0/1 maps kN -> kG and k^(G/N) -> k^G; transposed, they are the
    # projections k^G -> k^N, by restriction to N, and kG -> k(G/N), by the
    # coset map, each A -> A/AB+ in closed form
    inside = _zero_one(N.order, group.order, n_sub.members).T
    if sc.construction == "group_algebra":
        A, B, E = hopf.group_algebra(group), hopf.group_algebra(N), inside
    else:
        Q, cosets = _quotient_group(group, n_sub)
        A, B, E = hopf.dual_group_algebra(group), hopf.dual_group_algebra(Q), cosets
    linalg.require(hopf.hopf_map_residual(B, A, E), linalg.TOL_ALG, ConsistencyError,
                   "B embedding fails Hopf-map checks")
    ext = clifford.Extension(A, hopf.HopfInclusion(small=B, big=A, embedding=E), seed=seed)
    if not hopf.is_normal_hopf_subalgebra(A, ext.b_sub):
        raise NormalityError("B is not a normal Hopf subalgebra of A")
    if sc.construction == "group_algebra":
        Q, cosets = _quotient_group(group, n_sub)
        ext.pi = hopf.HopfSurjection(source=A, target=hopf.group_algebra(Q), matrix=cosets.T)
    else:
        ext.pi = hopf.HopfSurjection(source=A, target=hopf.dual_group_algebra(N), matrix=inside.T)
    hopf._check_projection_kernel(A, ext.inc, ext.pi)
    return ext


def _assert_action_tables(mp: MatchedPair, ract_expect: dict, lact_expect: dict) -> None:
    cells = [("right", g, x, want, mp.ract_label(g, x))
             for x, row in ract_expect.items() for g, want in row.items()]
    cells += [("left", g, x, want, mp.lact_label(g, x))
              for g, row in lact_expect.items() for x, want in row.items()]
    for side, g, x, want, got in cells:
        if got != want:
            raise ConsistencyError(
                f"derived {side} action at ({g}, {x}) is {got}, expected {want}")


# ---------------------------------------------------------------------------
# running the analysis

@dataclass
class RunReport:
    scenario: Scenario
    seed: int
    dims_a: list[int]
    dims_b: list[int]
    dims_dual: list[int]
    axiom_residuals: dict[str, float]
    pair_ok: Optional[bool]
    cocentral: Optional[bool]
    f_labels: Optional[list[str]]
    class_data: dict
    formula_residuals: dict[str, float]
    coset_check: Optional[dict]
    alpha_reports: list[clifford.AlphaReport]
    action_tables: Optional[dict]
    elapsed: float

    def all_verdicts_hold(self) -> bool:
        return all(r.direct_holds for r in self.alpha_reports)

    def to_json_dict(self) -> dict:
        reps = []
        for r in self.alpha_reports:
            rep = {
                "alpha_index": r.alpha_index,
                "alpha_label": r.alpha_label,
                "alpha_degree": r.alpha_degree,
                "class_index": r.class_index,
                "b_class_degree": r.b_class_degree,
                "bound": str(r.bound),
                "dim_z": r.dim_z,
                "stabilizing_dual_characters": list(r.stabilizing),
                "socle_equality": r.socle_equality,
                "direct_holds": r.direct_holds,
                "verdict": r.verdict,
                "induction_table": r.induction_table,
                "conjugate_class": list(r.conjugate_class),
                "stabilizer_induction_residual": linalg.round_for_json(
                    r.stabilizer_induction_residual),
            }
            if r.graded is not None:
                g = r.graded
                rep["graded"] = {
                    "h_members": list(g.h_members),
                    "h_labels": list(g.h_labels),
                    "orbit_size": g.orbit_size,
                    "dim_s": g.dim_s,
                    "s_is_hopf_subalgebra": g.s_is_hopf,
                    "z_equals_s": g.z_equals_s,
                    "orbit_class": list(g.orbit_class),
                    "cocentral": g.cocentral,
                }
            reps.append(rep)
        out = {
            "scenario": self.scenario.to_dict(),
            "seed": self.seed,
            "dims": {"A": self.dims_a, "B": self.dims_b, "A_dual": self.dims_dual},
            "axiom_residuals": {k: linalg.round_for_json(v)
                                for k, v in self.axiom_residuals.items()},
            "matched_pair_ok": self.pair_ok,
            "cocentral": self.cocentral,
            "quotient_group_labels": self.f_labels,
            "classes": self.class_data,
            "formula_residuals": {k: linalg.round_for_json(v)
                                  for k, v in self.formula_residuals.items()},
            "coset_check": _round_tree(self.coset_check),
            "alphas": reps,
            "action_tables": self.action_tables,
            "all_verdicts_hold": self.all_verdicts_hold(),
        }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2,
                          ensure_ascii=True) + "\n"

    def render_text(self) -> str:
        lines = []
        sc = self.scenario
        lines.append(f"scenario {sc.name} ({sc.construction}), seed {self.seed}")
        lines.append(f"  dims: A {self.dims_a}  B {self.dims_b}  A* {self.dims_dual}")
        worst = linalg.max_abs(*self.axiom_residuals.values())
        lines.append(f"  axioms: max residual {worst:.2e} "
                     f"({'pass' if worst < sc.tol_alg else 'FAIL'})")
        if self.pair_ok is not None:
            lines.append(f"  matched pair verified: {self.pair_ok}")
        if self.action_tables is not None:
            lines.append("  right action (rows x, cols g):")
            for row in self.action_tables["ract_rows"]:
                lines.append("    " + row)
            lines.append("  left action (rows g, cols x):")
            for row in self.action_tables["lact_rows"]:
                lines.append("    " + row)
        if self.cocentral is not None:
            lines.append(f"  cocentral: {self.cocentral}")
        lines.append(f"  classes: {self.class_data['a_classes']} over "
                     f"{self.class_data['b_classes']}")
        worst = linalg.max_abs(*self.formula_residuals.values())
        lines.append(f"  class formulas: max residual {worst:.2e}")
        if self.coset_check is not None:
            cc = self.coset_check
            lines.append(
                f"  coset decomposition: {cc['num_cosets']} cosets, uniform "
                f"residual {cc['uniform_coefficient_residual']:.2e}, "
                f"partition {cc['supports_partition']}, "
                f"decomposition {cc['coset_decomposition']}")
        for r in self.alpha_reports:
            lines.append(
                f"  alpha[{r.alpha_index}] {r.alpha_label} (degree {r.alpha_degree}): "
                f"class {r.class_index}, bound {r.bound}, dim Z {r.dim_z}, "
                f"socle equality {r.socle_equality} -> {r.verdict}")
            for row in r.induction_table:
                tag = "irreducible" if row["irreducible"] else "reducible"
                lines.append(f"      psi {row['psi']} (deg {row['psi_degree']}) "
                             f"induces to {row['image']} ({tag})")
            if r.graded is not None:
                g = r.graded
                lines.append(
                    f"      graded: H = {{{', '.join(g.h_labels)}}}, orbit size "
                    f"{g.orbit_size}, dim S {g.dim_s}, S Hopf subalgebra "
                    f"{g.s_is_hopf}, Z = S {g.z_equals_s}")
        lines.append(f"  all verdicts hold: {self.all_verdicts_hold()}")
        lines.append(f"  elapsed: {self.elapsed:.2f}s")
        return "\n".join(lines) + "\n"


def _round_tree(obj):
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, float):
        return linalg.round_for_json(obj)
    return obj


def _action_table_rows(mp: MatchedPair) -> dict:
    F, G = mp.f_group, mp.g_group
    ract_rows = []
    for x in range(1, F.order):
        cells = [f"{G.labels[g]}<|{F.labels[x]} = {G.labels[int(mp.ract[g, x])]}"
                 for g in range(1, G.order)]
        ract_rows.append("  ".join(cells))
    lact_rows = []
    for g in range(1, G.order):
        cells = [f"{G.labels[g]}|>{F.labels[x]} = {F.labels[int(mp.lact[g, x])]}"
                 for x in range(1, F.order)]
        lact_rows.append("  ".join(cells))
    return {"ract_rows": ract_rows, "lact_rows": lact_rows}


def resolve_alpha_selection(selection, ext: clifford.Extension) -> list[int]:
    """Indices of Irr(B) selected by 'all', an index, or a label: one of the
    `alpha_labels` the report prints, or chiK for index K."""
    n = len(ext.dec_b.irr)
    if selection is None or selection == "all":
        return list(range(n))
    if isinstance(selection, bool):
        raise ConfigError(f"cannot resolve alpha selection {selection!r}")
    if isinstance(selection, int) or (isinstance(selection, str) and selection.isdecimal()):
        k = int(selection)
        if not 0 <= k < n:
            raise ConfigError(f"alpha index {k} out of range 0..{n - 1}")
        return [k]
    if isinstance(selection, str):
        if selection.startswith("chi") and selection[3:].isdecimal():
            return resolve_alpha_selection(selection[3:], ext)
        hits = [k for k, label in enumerate(ext.alpha_labels) if label == selection]
        if len(hits) == 1:
            return hits
        raise ConfigError(f"cannot resolve alpha selection {selection!r}")
    raise ConfigError(f"cannot resolve alpha selection {selection!r}")


def axiom_gate(ext: clifford.Extension, tol: float
               ) -> list[tuple[str, hopf.HopfAlgebraData, hopf.AxiomReport]]:
    """Hopf-axiom residuals of A, B and A*, judged at the scenario's tolerance.

    Each pair of tensors is contracted once: A*'s tensors are A's
    transposed, so its associativity, coassociativity, bialgebra and
    antipode residuals are read from A's once that is tested exactly
    (`hopf.verify_dual_axioms`), and every contraction is formed in blocks
    of at most linalg.STACK_BYTES.
    """
    rep_a = hopf.verify_hopf_axioms(ext.A, tol=tol)
    return [("A", ext.A, rep_a),
            ("B", ext.inc.small, hopf.verify_hopf_axioms(ext.inc.small, tol=tol)),
            ("A_dual", ext.dual, hopf.verify_dual_axioms(ext.dual, ext.A, rep_a))]


def run_scenario(sc: Scenario, alpha_selection=None, seed: Optional[int] = None) -> RunReport:
    """Build, verify, and analyze one scenario end to end."""
    t0 = time.perf_counter()
    seed = resolve_seed(sc, seed)
    ext = build_scenario(sc, seed)

    axioms: dict[str, float] = {}
    for tag, _, rep in axiom_gate(ext, sc.tol_alg):
        axioms.update({f"{tag}.{k}": v for k, v in rep.residuals.items()})
        if not rep.ok:
            raise ConsistencyError(f"{tag} fails Hopf axioms: {rep.failing()}")

    dims = [list(dec.dims) for dec in (ext.dec_a, ext.dec_b, ext.dec_dual)]
    formulas = clifford.verify_class_formulas(ext)
    coset_check = None
    if ext.piF is not None:
        coset_check = clifford.coset_projection_check(ext)

    selected = resolve_alpha_selection(
        alpha_selection if alpha_selection is not None else sc.alpha, ext)
    reports = clifford.analyze_alphas(ext, selected)
    if ext.cocentral and len(selected) == len(ext.dec_b.irr):
        clifford.cocentral_sweep_check(reports)

    ecd = ext.ecd
    class_data = {
        "a_classes": [list(c) for c in ecd.a_classes],
        "b_classes": [list(c) for c in ecd.b_classes],
        "a_degrees": [c.degree for c in ecd.a_sums],
        "b_degrees": [c.degree for c in ecd.b_sums],
    }
    return RunReport(
        scenario=sc, seed=seed, dims_a=dims[0], dims_b=dims[1], dims_dual=dims[2],
        axiom_residuals=axioms,
        pair_ok=None if ext.mp is None else True,
        cocentral=ext.cocentral,
        f_labels=None if ext.F is None else list(ext.F.labels),
        class_data=class_data, formula_residuals=formulas,
        coset_check=coset_check, alpha_reports=reports,
        action_tables=None if ext.mp is None else _action_table_rows(ext.mp),
        elapsed=time.perf_counter() - t0)


def list_irr(sc: Scenario, seed: Optional[int] = None) -> tuple[str, dict]:
    """Degrees and labels of Irr(A), Irr(B), Irr(A^*) in canonical order."""
    ext = build_scenario(sc, resolve_seed(sc, seed))
    data, lines = {}, [f"scenario {sc.name}"]
    for key, title, dec in (("A", "Irr(A)", ext.dec_a), ("B", "Irr(B)", ext.dec_b),
                            ("A_dual", "Irr(A*)", ext.dec_dual)):
        data[f"{key}_degrees"] = list(dec.dims)
        lines.append(f"  {title}: {len(dec.dims)} characters, degrees {dec.dims}")
    return "\n".join(lines) + "\n", data


def verify_axioms(sc: Scenario, seed: Optional[int] = None) -> tuple[str, dict]:
    """Axiom residual report for the scenario's algebras."""
    ext = build_scenario(sc, resolve_seed(sc, seed))
    out = {}
    lines = [f"scenario {sc.name}"]
    for tag, alg, rep in axiom_gate(ext, sc.tol_alg):
        out[tag] = {"ok": rep.ok, "max_residual": rep.max_residual}
        lines.append(f"  {tag} (dim {alg.dim}): max residual "
                     f"{rep.max_residual:.2e} ({'pass' if rep.ok else 'FAIL'})")
        if not rep.ok:
            lines.append(f"    failing: {rep.failing()}")
    return "\n".join(lines) + "\n", out
