"""Scenario configuration, run reports, and the command-line interface."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from hopfclifford import cli, clifford, scenarios
from hopfclifford.clifford import component_bimodule, conjugation_matrix
from hopfclifford.errors import ConfigError, NormalityError
from hopfclifford.scenarios import (Scenario, build_scenario, builtin_scenario,
                                    load_scenario, resolve_seed, run_scenario)


def _classical(**extra):
    return {"construction": "group_algebra",
            "group": {"generators": ["(1 2)", "(1 2 3)"], "names": ["t", "s"]},
            "b_generators": ["s"], **extra}


def _scenario_file(tmp_path, **extra):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(_classical(**extra)))
    return str(path)


@pytest.fixture(scope="module")
def s4_report():
    return run_scenario(builtin_scenario("s4_counterexample"))


def test_builtin_names():
    for name in scenarios.BUILTIN_NAMES:
        sc = builtin_scenario(name)
        assert sc.name == name
    with pytest.raises(ConfigError):
        builtin_scenario("nope")


def test_scenario_parsing_errors():
    with pytest.raises(ConfigError):
        Scenario.from_dict({"construction": "wat"})
    with pytest.raises(ConfigError):
        Scenario.from_dict({"construction": "bismash"})
    with pytest.raises(ConfigError):
        Scenario.from_dict({"construction": "group_algebra",
                            "group": {"generators": ["(1 2)"]}})


def test_scenario_file_round_trip(tmp_path):
    sc = load_scenario(_scenario_file(tmp_path, name="classical", alpha="all"))
    rep = run_scenario(sc)
    assert rep.all_verdicts_hold()
    assert rep.dims_a == [1, 1, 2]


def test_non_normal_subgroup_rejected():
    sc = Scenario.from_dict({
        "construction": "group_algebra",
        "group": {"generators": ["(1 2)", "(1 2 3)"]},
        "b_generators": ["(1 2)"],
    })
    with pytest.raises(NormalityError):
        run_scenario(sc)


def test_dual_group_algebra_scenario():
    # functions on S3, B = functions constant on A3-cosets
    sc = Scenario.from_dict({
        "construction": "dual_group_algebra",
        "group": {"generators": ["(1 2)", "(1 2 3)"], "names": ["t", "s"]},
        "b_generators": ["s"],
    })
    rep = run_scenario(sc)
    assert rep.dims_a == [1] * 6
    assert rep.dims_b == [1, 1]
    assert rep.all_verdicts_hold()


def test_s4_report_content(s4_report):
    rep = s4_report
    assert rep.dims_a == [1, 1, 2, 3, 3]
    assert rep.pair_ok
    assert rep.cocentral is False
    assert not rep.all_verdicts_hold()
    data = rep.to_json_dict()
    by_label = {r["alpha_label"]: r for r in data["alphas"]}
    g = by_label["g"]
    assert g["verdict"] == "FAILS"
    assert g["dim_z"] == 4
    assert g["bound"] == "8"
    assert g["graded"]["dim_s"] == 8
    assert g["graded"]["h_labels"] == ["1", "t"]
    assert g["graded"]["s_is_hopf_subalgebra"] is False
    assert by_label["1"]["verdict"] == "HOLDS"
    assert by_label["g^2"]["verdict"] == "HOLDS"
    assert by_label["g^3"]["verdict"] == "FAILS"


def test_alpha_selection_forms():
    sc = builtin_scenario("s4_counterexample")
    rep = run_scenario(sc, alpha_selection="g")
    assert len(rep.alpha_reports) == 1
    assert rep.alpha_reports[0].alpha_label == "g"
    rep2 = run_scenario(sc, alpha_selection=rep.alpha_reports[0].alpha_index)
    assert rep2.alpha_reports[0].alpha_label == "g"
    rep3 = run_scenario(sc, alpha_selection=f"chi{rep.alpha_reports[0].alpha_index}")
    assert rep3.alpha_reports[0].alpha_label == "g"
    with pytest.raises(ConfigError):
        run_scenario(sc, alpha_selection="bogus")
    with pytest.raises(ConfigError):
        run_scenario(sc, alpha_selection=99)


def test_verdicts_stable_across_seeds():
    sc = builtin_scenario("s4_counterexample")
    snapshots = []
    for seed in (1, 42, 1729):
        rep = run_scenario(sc, seed=seed)
        snapshots.append([(r.alpha_label, r.verdict, r.dim_z, str(r.bound),
                           r.graded.h_labels, r.graded.dim_s)
                          for r in rep.alpha_reports])
    assert snapshots[0] == snapshots[1] == snapshots[2]


def test_json_determinism():
    sc = builtin_scenario("cocentral_c4_c2")
    a = run_scenario(sc, seed=11).to_json()
    b = run_scenario(sc, seed=11).to_json()
    assert a == b
    json.loads(a)  # valid JSON


def test_cli_analyze_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["analyze", "--builtin", "cocentral_c4_c2",
                     "--json", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "cocentral: True" in text
    data = json.loads(out.read_text())
    assert data["all_verdicts_hold"] is True
    assert data["cocentral"] is True
    assert data["seed"] == 1729


def test_cli_seed_sources(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    code = cli.main(["analyze", "--builtin", "s3_a3_classical",
                     "--seed", "42", "--json", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 42
    monkeypatch.setenv("HOPF_CLIFFORD_SEED", "77")
    code = cli.main(["analyze", "--builtin", "s3_a3_classical",
                     "--json", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 77
    code = cli.main(["analyze", "--builtin", "s3_a3_classical",
                     "--seed", "42", "--json", str(out)])
    assert json.loads(out.read_text())["seed"] == 42


def test_cli_exit_codes(tmp_path, capsys):
    assert cli.main(["analyze"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["analyze", "--scenario", str(bad)]) == 2
    nn = tmp_path / "nn.json"
    nn.write_text(json.dumps({
        "construction": "group_algebra",
        "group": {"generators": ["(1 2)", "(1 2 3)"]},
        "b_generators": ["(1 2)"],
    }))
    assert cli.main(["analyze", "--scenario", str(nn)]) == 3
    capsys.readouterr()


def test_cli_theorem_violation_exit_code(monkeypatch, capsys):
    from hopfclifford.errors import TheoremViolationError

    def boom(*a, **kw):
        raise TheoremViolationError("forced")

    monkeypatch.setattr(cli, "run_scenario", boom)
    assert cli.main(["analyze", "--builtin", "s3_a3_classical"]) == 4
    capsys.readouterr()


def test_cli_list_irr(capsys):
    assert cli.main(["list-irr", "--builtin", "s4_counterexample"]) == 0
    out = capsys.readouterr().out
    assert "[1, 1, 2, 3, 3]" in out
    assert cli.main(["list-irr", "--builtin", "cocentral_c4_c2"]) == 0
    out = capsys.readouterr().out
    assert "[1, 1, 1, 1, 2]" in out


def test_cli_verify_axioms(capsys):
    for name in scenarios.BUILTIN_NAMES:
        assert cli.main(["verify-axioms", "--builtin", name]) == 0
        assert "pass" in capsys.readouterr().out


def test_cayley_table_scenario(s3_group):
    sc = Scenario.from_dict({
        "name": "from-table",
        "construction": "group_algebra",
        "group": s3_group.to_json_dict(),
        "b_generators": ["s"],
    })
    rep = run_scenario(sc)
    assert rep.dims_a == [1, 1, 2]
    assert rep.all_verdicts_hold()


def test_tolerance_override():
    sc = Scenario.from_dict({
        "construction": "group_algebra",
        "group": {"generators": ["(1 2)", "(1 2 3)"]},
        "b_generators": ["(1 2 3)"],
        "tolerances": {"alg": 1e-6},
    })
    assert sc.tol_alg == 1e-6
    assert run_scenario(sc).all_verdicts_hold()


def test_text_report_mentions_tables(s4_report):
    text = s4_report.render_text()
    assert "g|>t = ts" in text
    assert "g<|t = g" in text
    assert "FAILS" in text


BAD_SEEDS = [
    ("flag", ["--seed", "-3"], {}, {}),
    ("env", [], {"HOPF_CLIFFORD_SEED": "-3"}, {}),
    ("env-text", [], {"HOPF_CLIFFORD_SEED": "abc"}, {}),
    ("scenario-text", [], {}, {"seed": "abc"}),
    ("scenario-negative", [], {}, {"seed": -5}),
    ("scenario-float", [], {}, {"seed": 1.5}),
    ("scenario-bool", [], {}, {"seed": True}),
]


@pytest.mark.parametrize("command", ["analyze", "list-irr", "verify-axioms"])
@pytest.mark.parametrize("flags,env,extra", [c[1:] for c in BAD_SEEDS],
                         ids=[c[0] for c in BAD_SEEDS])
def test_cli_rejects_bad_seed(tmp_path, monkeypatch, capsys, command, flags,
                              env, extra):
    monkeypatch.delenv("HOPF_CLIFFORD_SEED", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = [command, "--scenario", _scenario_file(tmp_path, **extra)] + flags
    assert cli.main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_rejects_boolean_alpha(tmp_path, capsys):
    path = _scenario_file(tmp_path, alpha=True)
    assert cli.main(["analyze", "--scenario", path]) == 2
    capsys.readouterr()
    with pytest.raises(ConfigError):
        run_scenario(builtin_scenario("s3_a3_classical"), alpha_selection=True)


C2_TABLE = {"order": 2, "cayley": [0, 1, 1, 0], "labels": ["1", "x"]}
BAD_GROUPS = [
    ("cayley-order-zero", {"group": {"order": 0, "cayley": [], "labels": []},
                           "b_generators": ["x"]}, "order"),
    ("cayley-fraction", {"group": {**C2_TABLE, "cayley": [0, 1, 1, 0.5]},
                         "b_generators": ["x"]}, "integers"),
    ("labels-too-few", {"group": {**C2_TABLE, "labels": ["1"]},
                        "b_generators": ["x"]}, "labels"),
    ("labels-repeated", {"group": {**C2_TABLE, "labels": ["x", "x"]},
                         "b_generators": ["x"]}, "labels"),
    ("labels-not-strings", {"group": {**C2_TABLE, "labels": [["1"], ["x"]]},
                            "b_generators": ["x"]}, "labels"),
    # points just above the bound: the bound is checked before allocating
    ("generator-above-size-cap", {"group": {"generators": ["(1 2)", "(1 25)"]},
                                  "b_generators": ["(1 2)"], "size_cap": 24}, "above 24"),
    ("element-beyond-degree", {"b_generators": ["(1 4)"]}, "above 3"),
]


@pytest.mark.parametrize("command", ["analyze", "list-irr", "verify-axioms"])
@pytest.mark.parametrize("extra,message", [c[1:] for c in BAD_GROUPS],
                         ids=[c[0] for c in BAD_GROUPS])
def test_cli_rejects_bad_group_data(tmp_path, capsys, command, extra, message):
    assert cli.main([command, "--scenario", _scenario_file(tmp_path, **extra)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


@pytest.mark.parametrize("alg", [0, -1, "nan", "inf", True])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, alg):
    with pytest.raises(ConfigError):
        Scenario.from_dict(_classical(tolerances={"alg": alg}))
    path = _scenario_file(tmp_path, tolerances={"alg": alg})
    assert cli.main(["analyze", "--scenario", path]) == 2
    assert cli.main(["verify-axioms", "--scenario", path]) == 2
    capsys.readouterr()


def test_text_report_judges_axioms_at_scenario_tolerance(s4_report):
    forged = dataclasses.replace(s4_report, axiom_residuals={"A.unit": 1e-7})
    assert "(FAIL)" in forged.render_text()
    loose = dataclasses.replace(
        forged, scenario=dataclasses.replace(forged.scenario, tol_alg=1e-6))
    assert "(pass)" in loose.render_text()


# sha256 of the --json report of each builtin at seed 1729, fixed before the
# per-scenario context replaced the per-alpha recomputation
BUILTIN_REPORT_SHA256 = {"s4_counterexample": "76bf2a890a20",
                         "s3_a3_classical": "dd5880b240ed",
                         "cocentral_c4_c2": "1d8f3dfd5fef"}


@pytest.mark.parametrize("name", sorted(BUILTIN_REPORT_SHA256))
def test_builtin_report_bytes_pinned(tmp_path, capsys, name):
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--builtin", name, "--seed", "1729",
                     "--json", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest.startswith(BUILTIN_REPORT_SHA256[name])


@pytest.mark.parametrize("alpha", ["g", "all"])
def test_conjugation_matrices_built_once_per_request(monkeypatch, capsys, alpha):
    built = []

    def counting(A, inc, d_vec, *args, **kw):
        built.append(np.array(d_vec))
        return conjugation_matrix(A, inc, d_vec, *args, **kw)

    monkeypatch.setattr(clifford, "conjugation_matrix", counting)
    assert cli.main(["analyze", "--builtin", "s4_counterexample",
                     "--alpha", alpha]) == 0
    capsys.readouterr()
    sc = builtin_scenario("s4_counterexample")
    duals = build_scenario(sc, resolve_seed(sc)).dec_dual.irr
    assert len(built) == len(duals)
    for d_vec, d in zip(built, duals):
        assert np.array_equal(d_vec, d.values)


@pytest.mark.parametrize("alpha", ["g", "all"])
def test_component_bimodules_built_once_per_request(monkeypatch, capsys, alpha):
    built = []

    def counting(A, inc, comp, *args, **kw):
        built.append(comp.matrix)
        return component_bimodule(A, inc, comp, *args, **kw)

    monkeypatch.setattr(clifford, "component_bimodule", counting)
    assert cli.main(["analyze", "--builtin", "s4_counterexample",
                     "--alpha", alpha]) == 0
    capsys.readouterr()
    sc = builtin_scenario("s4_counterexample")
    comps = build_scenario(sc, resolve_seed(sc)).components
    assert len(built) == len(comps)
    for got, comp in zip(built, comps):
        assert np.array_equal(got, comp.matrix)


def test_context_is_lazy(monkeypatch, capsys):
    def forbidden(*args, **kw):
        raise AssertionError("computed by a command that does not need it")

    monkeypatch.setattr(clifford, "equivalence_classes", forbidden)
    monkeypatch.setattr(clifford, "conjugation_matrix", forbidden)
    assert cli.main(["list-irr", "--builtin", "s4_counterexample"]) == 0
    monkeypatch.setattr(clifford, "wedderburn", forbidden)
    assert cli.main(["verify-axioms", "--builtin", "s4_counterexample"]) == 0
    capsys.readouterr()
