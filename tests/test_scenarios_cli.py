"""Scenario configuration, run reports, and the command-line interface."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from hopfclifford import cli, clifford, hopf, linalg, scenarios
from hopfclifford.clifford import conjugation_matrices
from hopfclifford.hopf import subalgebra_data
from hopfclifford.repcalc import wedderburn
from hopfclifford.errors import ConfigError, NormalityError
from hopfclifford.scenarios import (Scenario, build_scenario, builtin_scenario,
                                    load_scenario, resolve_seed, run_scenario)

from conftest import A5_A4_C5


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


@pytest.mark.parametrize("name", list(scenarios.BUILTIN_NAMES) + ["s4_a4", "dual_s4_v4"])
def test_every_printed_alpha_label_selects_its_index(tmp_path, capsys, name):
    # the report's own labels, group elements of a dual group algebra's B
    # included (dual_s4_v4 prints d([1]), which resolved to nothing before);
    # a label of digits reads as an index, as digits always have
    if name in SCENARIO_FILES:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(SCENARIO_FILES[name]))
        source = ["--scenario", str(path)]
        sc = Scenario.from_dict(SCENARIO_FILES[name])
    else:
        source = ["--builtin", name]
        sc = builtin_scenario(name)
    ext = build_scenario(sc, resolve_seed(sc))
    for k, label in enumerate(ext.alpha_labels):
        want = int(label) if label.isdigit() else k
        assert scenarios.resolve_alpha_selection(label, ext) == [want], label
        out = tmp_path / "report.json"
        assert cli.main(["analyze", *source, "--alpha", label, "--json", str(out)]) == 0
        (report,) = json.loads(out.read_text())["alphas"]
        assert report["alpha_index"] == want
    assert cli.main(["analyze", *source, "--alpha", "d([nowhere])"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name", ["s4_counterexample", "cocentral_c4_c2"])
def test_digits_select_an_index_and_chik_the_label_of_digits(tmp_path, capsys, name):
    # both label alpha 3 "1"; digits always name an index, as small_mixed's
    # --alpha k does, so --alpha 1 is alpha 1 and --alpha chi3 the alpha
    # labelled 1
    sc = builtin_scenario(name)
    labels = build_scenario(sc, resolve_seed(sc)).alpha_labels
    assert labels[3] == "1" and labels[1] != "1"
    for selection, index, label in (("1", 1, labels[1]), ("chi3", 3, "1")):
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--builtin", name, "--alpha", selection,
                         "--json", str(out)]) == 0
        (report,) = json.loads(out.read_text())["alphas"]
        assert (report["alpha_index"], report["alpha_label"]) == (index, label)
    capsys.readouterr()


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


def test_cli_big_seed_is_deterministic(tmp_path, capsys):
    # a seed past 64 bits still names its streams
    seed = str(2 ** 70)
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert cli.main(["analyze", "--builtin", "s3_a3_classical", "--seed", seed,
                         "--json", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert json.loads(outs[0].read_text())["seed"] == 2 ** 70
    capsys.readouterr()


NUMPY_MODULES_SCRIPT = """
import contextlib, io, json, sys
import numpy
loaded = lambda: {m for m in sys.modules if m.partition(".")[0] == "numpy"}
before = loaded()
from hopfclifford import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(loaded() - before)))
"""


def test_requests_load_no_numpy_module_beyond_import_numpy(tmp_path):
    # numpy.random (6 MB) and numpy.ma (1.4 MB) are not loaded by `import
    # numpy` on numpy 2, and no request may load them or any other part
    duals = [tmp_path / f"{name}.json" for name in ("dual_s4_v4", "dual_s4c2_c2")]
    for dual in duals:
        dual.write_text(json.dumps(SCENARIO_FILES[dual.stem]))
    argvs = [["analyze", "--builtin", "s4_counterexample"],
             ["analyze", "--builtin", "s3_a3_classical"],
             *(["analyze", "--scenario", str(dual)] for dual in duals),
             ["list-irr", "--builtin", "cocentral_c4_c2"],
             ["verify-axioms", "--builtin", "cocentral_c4_c2"]]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("HOPF_CLIFFORD_SEED", None)
    done = subprocess.run([sys.executable, "-c", NUMPY_MODULES_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_cli_flags_do_not_carry_over(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("HOPF_CLIFFORD_SEED", raising=False)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert cli.main(["analyze", "--builtin", "s3_a3_classical", "--seed", "42",
                     "--alpha", "0", "--json", str(first)]) == 0
    assert cli.main(["analyze", "--builtin", "s3_a3_classical", "--json", str(second)]) == 0
    data = json.loads(second.read_text())
    assert data["seed"] == 1729 and len(data["alphas"]) == 3
    capsys.readouterr()
    assert cli.main(["analyze", "--builtin", "s3_a3_classical"]) == 0
    assert "report written" not in capsys.readouterr().out
    assert cli._build_parser() is cli._build_parser()


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
    # the dual construction needs a normal subgroup to form the quotient group
    nn.write_text(json.dumps({
        "construction": "dual_group_algebra",
        "group": {"generators": ["(1 2)", "(1 2 3)"]},
        "b_generators": ["(1 2)"],
    }))
    capsys.readouterr()
    assert cli.main(["analyze", "--scenario", str(nn)]) == 2
    assert "do not generate a normal subgroup" in capsys.readouterr().err
    nx = tmp_path / "nx.json"
    nx.write_text(json.dumps({
        "construction": "bismash",
        "group": {"generators": ["(1 2)", "(1 2 3)"]},
        "f_generators": ["(1 2)"], "g_generators": ["(1 2)"],
    }))
    assert cli.main(["analyze", "--scenario", str(nx)]) == 3
    assert "not an exact factorization" in capsys.readouterr().err


def test_non_normal_subgroup_exits_3_on_every_command(tmp_path, capsys):
    # B's normality is tested where the extension is built, so list-irr and
    # verify-axioms refuse a non-normal kN as analyze does
    nn = tmp_path / "nn.json"
    nn.write_text(json.dumps({
        "construction": "group_algebra",
        "group": {"generators": ["(1 2)", "(1 2 3)"]},
        "b_generators": ["(1 2)"],
    }))
    for command in ("analyze", "list-irr", "verify-axioms"):
        assert cli.main([command, "--scenario", str(nn)]) == 3, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert captured.err == ("precondition failure: B is not a normal Hopf "
                                "subalgebra of A\n"), command


@pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
def test_cli_unwritable_json_is_a_config_error(tmp_path, capsys, where):
    # a --json path in a missing directory, or one that is a directory, ends
    # in one stderr line naming it and exit 2, not in a traceback
    out = tmp_path / "missing" / "out.json" if where == "missing_dir" else tmp_path
    assert cli.main(["analyze", "--builtin", "s3_a3_classical", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert "report written" not in captured.out
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("configuration error: cannot write the report to")
    assert str(out) in captured.err


def test_cli_refuses_a_comodule_map_of_a_non_finite_projection(monkeypatch, capsys):
    # the comodule map refuses a NaN in pi with a PreconditionError: exit 3
    rho = clifford.comodule_map_rho

    def on_a_nan(A, pi):
        P = pi.matrix.copy()
        P[0, 0] = np.nan
        return rho(A, hopf.HopfSurjection(pi.source, pi.target, P))

    monkeypatch.setattr(clifford, "comodule_map_rho", on_a_nan)
    assert cli.main(["analyze", "--builtin", "s4_counterexample"]) == 3
    assert capsys.readouterr().err == ("precondition failure: the comodule map needs a "
                                       "finite Delta and projection\n")


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
    table = {"order": s3_group.order, "cayley": s3_group.cayley.reshape(-1).tolist(),
             "labels": s3_group.labels}
    sc = Scenario.from_dict({
        "name": "from-table",
        "construction": "group_algebra",
        "group": table,
        "b_generators": ["s"],
    })
    rep = run_scenario(sc)
    assert rep.dims_a == [1, 1, 2]
    assert rep.all_verdicts_hold()
    # the report names the group by its table, as it was given
    assert json.loads(rep.to_json())["scenario"]["group"] == table


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


def test_cli_rejects_a_superscript_digit_alpha(tmp_path, capsys):
    # "²" is a digit to str.isdigit but no decimal int() reads: a
    # configuration error, not a traceback
    for argv in (["analyze", "--builtin", "s3_a3_classical", "--alpha", "²"],
                 ["analyze", "--builtin", "s3_a3_classical", "--alpha", "chi²"],
                 ["analyze", "--scenario", _scenario_file(tmp_path, alpha="²")]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1, argv


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
    # the size cap bounds the closure, so it is an integer no larger than the default
    ("size-cap-bool", {"size_cap": True}, "size_cap"),
    ("size-cap-fraction", {"size_cap": 2.5}, "size_cap"),
    ("size-cap-text", {"size_cap": "12"}, "size_cap"),
    ("size-cap-zero", {"size_cap": 0}, "size_cap"),
    ("size-cap-above-default", {"size_cap": 100000000}, "size_cap"),
    # generators and their names are lists of strings
    ("generator-not-a-string", {"group": {"generators": [5]}}, "group.generators"),
    ("names-not-a-list", {"group": {"generators": ["(1 2)", "(1 2 3)"], "names": 5}},
     "group.names"),
    ("b-generator-not-a-string", {"b_generators": [3]}, "b_generators"),
    ("f-generator-not-a-string", {"construction": "bismash", "f_generators": [{}],
                                  "g_generators": ["t"]}, "f_generators"),
]


@pytest.mark.parametrize("command", ["analyze", "list-irr", "verify-axioms"])
@pytest.mark.parametrize("extra,message", [c[1:] for c in BAD_GROUPS],
                         ids=[c[0] for c in BAD_GROUPS])
def test_cli_rejects_bad_group_data(tmp_path, capsys, command, extra, message):
    assert cli.main([command, "--scenario", _scenario_file(tmp_path, **extra)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


@pytest.mark.parametrize("alg", [0, -1, "nan", "inf", True, "1e-6"])
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


# sha256 of the --json report at seed 1729 of each builtin and of the
# scenario files, which take the group_algebra and dual_group_algebra paths; the
# `psi` numbering is canonical (Irr(Z) is sorted by each character as a
# functional on A), so the full bytes are pinned
BUILTIN_REPORT_SHA256 = {"s4_counterexample": "7c6dd87e73f0",
                         "s3_a3_classical": "3e2719bbd371",
                         "cocentral_c4_c2": "9d1c9bb0a873",
                         "s4_a4": "5b8c691df080",
                         "dual_s4_v4": "7d74e61817ad",
                         "dual_s4c2_c2": "fb2dbbbb63a2"}
SCENARIO_FILES = {
    "s4_a4": {"name": "s4_a4", "construction": "group_algebra",
              "group": {"generators": ["(1 2 3 4)", "(1 2)"], "names": ["g", "t"]},
              "b_generators": ["(1 2 3)", "(1 2)(3 4)"], "alpha": "all"},
    "dual_s4_v4": {"name": "dual_s4_v4", "construction": "dual_group_algebra",
                   "group": {"generators": ["(1 2 3 4)", "(1 2)"], "names": ["g", "t"]},
                   "b_generators": ["(1 2)(3 4)", "(1 3)(2 4)"], "alpha": "all"},
    # d = 48: B's basis of coset functions is not coordinate, so its
    # Hopf-subalgebra test takes the dense form above JOIN_MIN_DIM
    "dual_s4c2_c2": {"name": "dual_s4c2_c2", "construction": "dual_group_algebra",
                     "group": {"generators": ["(1 2 3 4)", "(1 2)", "(5 6)"],
                               "names": ["g", "t", "z"]},
                     "b_generators": ["(5 6)"], "alpha": "all"},
}


@pytest.mark.parametrize("name", sorted(BUILTIN_REPORT_SHA256))
def test_builtin_report_bytes_pinned(tmp_path, capsys, name):
    out = tmp_path / "report.json"
    source = ["--builtin", name]
    if name in SCENARIO_FILES:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(SCENARIO_FILES[name]))
        source = ["--scenario", str(path)]
    assert cli.main(["analyze", *source, "--seed", "1729", "--json", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest().startswith(BUILTIN_REPORT_SHA256[name])


def test_quotient_by_trivial_b():
    # B = k1: A B+ = 0, so H = k(G/1) is A on its own basis, which is
    # group-like; F is recognised through group_algebra_form all the same,
    # labels and all
    sc = Scenario.from_dict({"name": "s3_trivial_b", "construction": "group_algebra",
                             "group": {"generators": ["(1 2)", "(1 2 3)"], "names": ["t", "s"]},
                             "b_generators": ["e"], "alpha": "all"})
    ext = build_scenario(sc, 1729)
    assert np.array_equal(ext.pi.matrix, np.eye(6))
    assert np.array_equal(ext.pi.target.antipode, ext.A.antipode)
    assert ext.F.labels == ["1"] + [f"q{i}" for i in range(1, 6)]
    rep = run_scenario(sc, seed=1729)
    assert [r.direct_holds for r in rep.alpha_reports] == [True]
    assert hashlib.sha256(rep.to_json().encode()).hexdigest().startswith("a1f53822e9bf")


def test_quotient_that_is_no_group_algebra(tmp_path, capsys):
    # k^S4 over the functions on the A4-cosets: A/AB+ = k^A4, whose dual kA4
    # is not commutative, so group_algebra_form finds no F; the request runs
    # without the graded picture, the coset check and cocentrality
    sc = {"name": "dual_s4_a4", "construction": "dual_group_algebra",
          "group": {"generators": ["(1 2 3 4)", "(1 2)"], "names": ["g", "t"]},
          "b_generators": ["(1 2 3)", "(1 2)(3 4)"], "alpha": "all"}
    ext = build_scenario(Scenario.from_dict(sc), 1729)
    assert ext.pi.target.dim == 12 and ext.quotient == (None, None)
    path, out = tmp_path / "dual_s4_a4.json", tmp_path / "report.json"
    path.write_text(json.dumps(sc))
    assert cli.main(["analyze", "--scenario", str(path), "--json", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads(out.read_text())
    assert rep["coset_check"] is rep["cocentral"] is rep["quotient_group_labels"] is None
    assert [a["verdict"] for a in rep["alphas"]] == ["HOLDS", "HOLDS"]
    assert not any("graded" in a for a in rep["alphas"])
    assert hashlib.sha256(out.read_bytes()).hexdigest().startswith("f0048ed45bac")


@pytest.mark.parametrize("gens", [["(1 2)", "(1 2 3)"], ["(1 2 3 4)"]], ids=["S3", "C4"])
def test_quotient_group_labels_do_not_follow_the_sign_of_the_basis(monkeypatch, gens):
    # k^G over B = A: H = A/AB+ is k^1 = k, on the basis delta_1 or -delta_1;
    # F = 1 is labelled alike on either
    sc = Scenario.from_dict({"name": "kg_over_itself", "construction": "dual_group_algebra",
                             "group": {"generators": gens}, "b_generators": ["e"]})
    reports = [run_scenario(sc, seed=1729)]
    recognise, seen = clifford.as_group_algebra_surjection, []

    def negated(pi, seed):
        H = pi.target
        flipped = hopf.HopfAlgebraData(-H.mult, -H.unit, -H.comult, -H.counit,
                                       labels=H.labels, antipode=H.antipode)
        seen.append(-pi.matrix)
        return recognise(hopf.HopfSurjection(pi.source, flipped, -pi.matrix), seed=seed)

    monkeypatch.setattr(clifford, "as_group_algebra_surjection", negated)
    reports.append(run_scenario(sc, seed=1729))
    assert len(seen) == 1 and seen[0][0, 0] == -1
    assert reports[0].f_labels == reports[1].f_labels == ["1"]
    assert reports[0].to_json() == reports[1].to_json()


@pytest.mark.parametrize("alpha", ["g", "all"])
def test_conjugation_matrices_built_once_per_request(monkeypatch, capsys, alpha):
    # one build per request, holding every irreducible dual character
    built = []

    def counting(A, inc, D, *args, **kw):
        built.append(np.array(D))
        return conjugation_matrices(A, inc, D, *args, **kw)

    monkeypatch.setattr(clifford, "conjugation_matrices", counting)
    assert cli.main(["analyze", "--builtin", "s4_counterexample",
                     "--alpha", alpha]) == 0
    capsys.readouterr()
    sc = builtin_scenario("s4_counterexample")
    duals = build_scenario(sc, resolve_seed(sc)).dec_dual.irr
    assert len(built) == 1
    assert np.array_equal(built[0], np.array([d.values for d in duals]))


@pytest.mark.parametrize("alpha", ["g", "all"])
def test_component_bimodules_built_once_per_request(monkeypatch, capsys, alpha):
    # the twists take one `products` per side, u_f b_m and b_m u_f, on the
    # stacked generators u_f, one in each A_f
    calls = []
    products = hopf.AlgebraData.products

    def recording(self, U, V):
        calls.append((np.array(U), np.array(V)))
        return products(self, U, V)

    monkeypatch.setattr(hopf.AlgebraData, "products", recording)
    assert cli.main(["analyze", "--builtin", "s4_counterexample",
                     "--alpha", alpha]) == 0
    capsys.readouterr()
    sc = builtin_scenario("s4_counterexample")
    ext = build_scenario(sc, resolve_seed(sc))
    E, nf = ext.inc.embedding, ext.F.order

    def generators(u):
        return u.shape == (ext.A.dim, nf) and all(
            comp.contains(hopf.SubspaceBasis(ext.A, u[:, f:f + 1]))
            for f, comp in enumerate(ext.components))

    right = [k for k, (X, Y) in enumerate(calls) if generators(X) and np.array_equal(Y, E)]
    left = [k for k, (X, Y) in enumerate(calls) if np.array_equal(X, E) and generators(Y)]
    assert len(right) == len(left) == 1
    assert np.array_equal(calls[right[0]][0], calls[left[0]][1])


@pytest.mark.parametrize("name", ["s4_counterexample", "cocentral_c4_c2", "s3_a3_classical"])
def test_stabilizers_built_once_per_stabilizing_set(monkeypatch, capsys, name):
    # Z = A and Z = B are read on the decompositions of A and B; every other
    # Z is built and decomposed once, however many alphas share its
    # stabilizing set
    sc = builtin_scenario(name)
    ext = build_scenario(sc, resolve_seed(sc))
    duals = ext.dec_dual.irr
    sets = {tuple(i for i, (d, C) in enumerate(zip(duals, ext.conjugation))
                  if np.max(np.abs(alpha.values @ C - d.degree * alpha.values)) < 1e-6)
            for alpha in ext.dec_b.irr}
    dims = [sum(duals[i].degree ** 2 for i in s) for s in sets]
    assert ext.inc.small.dim in dims and len(sets) < len(ext.dec_b.irr)
    proper = sorted(n for n in dims if n not in (ext.inc.small.dim, ext.A.dim))
    frames, subspaces = [], []

    def counting_wedderburn(A, *args, frame=None, **kw):
        frames.append(frame)
        return wedderburn(A, *args, frame=frame, **kw)

    def counting_subalgebra_data(A, basis, *args, **kw):
        subspaces.append(basis.dim)
        return subalgebra_data(A, basis, *args, **kw)

    monkeypatch.setattr(clifford, "wedderburn", counting_wedderburn)
    monkeypatch.setattr(clifford, "subalgebra_data", counting_subalgebra_data)
    assert cli.main(["analyze", "--builtin", name, "--alpha", "all"]) == 0
    capsys.readouterr()
    # A, B and A* are decomposed without a frame, each Z between B and A on its own basis
    assert sum(frame is None for frame in frames) == 3
    assert sorted(frame.shape[1] for frame in frames if frame is not None) == proper
    assert sorted(subspaces) == proper


def test_context_is_lazy(monkeypatch, capsys):
    def forbidden(*args, **kw):
        raise AssertionError("computed by a command that does not need it")

    monkeypatch.setattr(clifford, "equivalence_classes", forbidden)
    monkeypatch.setattr(clifford, "conjugation_matrices", forbidden)
    assert cli.main(["list-irr", "--builtin", "s4_counterexample"]) == 0
    monkeypatch.setattr(clifford, "wedderburn", forbidden)
    assert cli.main(["verify-axioms", "--builtin", "s4_counterexample"]) == 0
    capsys.readouterr()


# sha256 prefixes, at the default seed, of the --json report of `analyze
# --alpha all` and of the text of `list-irr` and `verify-axioms`
REQUEST_SHA256 = {"s4_counterexample": ("7c6dd87e73f0", "a9820a392077", "ceeace812f76"),
                  "cocentral_c4_c2": ("9d1c9bb0a873", "1dca702485ac", "0df00a75bbd7"),
                  "a5_a4_c5": ("d055468c9cd3", "5653659a343d", "c1065590e148"),
                  "s4_a4": ("5b8c691df080", "5342c84d1f2f", "2ee89069c794"),
                  "dual_s4_v4": ("7d74e61817ad", "7291154f5638", "b54c128e92be")}


@pytest.mark.parametrize("name", sorted(REQUEST_SHA256))
def test_generic_quotient_only_without_a_bismash(tmp_path, monkeypatch, capsys, name):
    # every construction's projection is A -> A/AB+ in closed form, shown by
    # its kernel, so no request builds the quotient through B's integral,
    # whose Hopf algebra has dense tensors: every Hopf algebra a request
    # builds is given in COO form; and every request tests B's normality
    # once, where it is built
    dense, normal = [], []
    init, checked = hopf.HopfAlgebraData.__init__, hopf.is_normal_hopf_subalgebra

    def recording(self, mult, unit, comult, counit, **kw):
        dense.append(not (isinstance(mult, hopf.Coo) and isinstance(comult, hopf.Coo)))
        init(self, mult, unit, comult, counit, **kw)

    monkeypatch.setattr(hopf.HopfAlgebraData, "__init__", recording)
    monkeypatch.setattr(hopf, "is_normal_hopf_subalgebra",
                        lambda A, B: normal.append(B.dim) or checked(A, B))
    if name in scenarios.BUILTIN_NAMES:
        source = ["--builtin", name]
    else:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(A5_A4_C5 if name == "a5_a4_c5" else SCENARIO_FILES[name]))
        source = ["--scenario", str(path)]
    out = tmp_path / "report.json"
    digests, counts = [], []
    for argv in (["analyze", *source, "--alpha", "all", "--json", str(out)],
                 ["list-irr", *source], ["verify-axioms", *source]):
        before = len(normal)
        assert cli.main(argv) == 0
        text = capsys.readouterr().out
        data = out.read_bytes() if argv[0] == "analyze" else text.encode()
        digests.append(hashlib.sha256(data).hexdigest()[:12])
        counts.append(len(normal) - before)
    assert tuple(digests) == REQUEST_SHA256[name]
    assert dense and not any(dense)
    assert counts == [1, 1, 1]


def test_solver_failure_exits_4(monkeypatch, capsys):
    # a NaN that reaches numpy's SVD or eigensolver ends in one line on stderr
    monkeypatch.setattr(linalg, "random_complex", lambda rng, n: np.full(n, np.nan, complex))
    assert cli.main(["analyze", "--builtin", "s3_a3_classical"]) == cli.EXIT_THEOREM
    err = capsys.readouterr().err
    assert err.startswith("internal consistency failure: ") and err.count("\n") == 1


def test_memory_error_exits_3(monkeypatch, capsys):
    # an allocation that does not fit ends in one line on stderr, not a traceback
    def too_large(*a, **kw):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_scenario", too_large)
    assert cli.main(["analyze", "--builtin", "s3_a3_classical"]) == cli.EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "precondition failure: the scenario is too large for memory\n"


def test_malloc_thresholds_are_pinned(monkeypatch):
    # glibc's mallopt gets the mmap threshold, then the trim threshold;
    # without a mallopt nothing is called and nothing fails
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    cli._pin_malloc_thresholds.__wrapped__()
    assert calls == [(-3, 32 * 2 ** 20), (-1, 64 * 2 ** 20)]
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    cli._pin_malloc_thresholds.__wrapped__()
    assert len(calls) == 2
