"""Command-line surface: generation, parameter reports, solving, bound
verification, and the active-learning pipeline."""

import contextlib
import gc
import io
import json
import weakref

from click.testing import CliRunner

import adaptsel as a
from adaptsel import fileio
from adaptsel.cli import main


def invoke(args, **kwargs):
    runner = CliRunner()
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def test_generate_theorem5_writes_instance_and_policy(tmp_path):
    out = tmp_path / "t5.json"
    pout = tmp_path / "t5p.json"
    result = invoke(
        ["generate", "theorem5", "--k", "3", "--epsilon", "0.5",
         "--out", str(out), "--policy-out", str(pout)]
    )
    assert result.exit_code == 0
    instance = fileio.load_instance(out)
    assert instance.num_elements == 3
    policy = fileio.load_policy(pout, instance)
    assert a.tree_height(policy) == 3


def test_generate_family_flag_and_random(tmp_path):
    out = tmp_path / "r.json"
    result = invoke(
        ["generate", "--family", "random", "--elements", "4", "--states", "2",
         "--seed", "7", "--monotone", "--out", str(out)]
    )
    assert result.exit_code == 0
    loaded = fileio.load_instance(out)
    assert loaded.prior == a.gen_random(4, 2, 7).prior


def test_generate_requires_a_family():
    runner = CliRunner()
    result = runner.invoke(main, ["generate"])
    assert result.exit_code != 0
    assert "family" in result.output


def test_params_reports_witness_values(tmp_path):
    out = tmp_path / "t4.json"
    pout = tmp_path / "t4p.json"
    invoke(["generate", "theorem4", "--k", "3", "--out", str(out),
            "--policy-out", str(pout)])
    result = invoke(
        ["--json", "params", "--instance", str(out), "--policy", str(pout),
         "--gamma-mode", "skip"]
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert abs(report["alpha"] - 2.0) <= 1e-9
    assert abs(report["beta"] - 1.0) <= 1e-9


def test_params_prints_the_beta_anomaly_flag(tmp_path):
    instance = a.gen_random(3, 2, 0, monotone=False)
    path, ppath = tmp_path / "i.json", tmp_path / "p.json"
    fileio.save_instance(str(path), instance)
    fileio.save_policy(str(ppath), instance,
                       a.random_policy(instance, 0, stop_probability=0.25))
    args = ["params", "--instance", str(path), "--policy", str(ppath),
            "--gamma-mode", "skip"]
    report = json.loads(invoke(["--json", *args]).output)
    assert report["beta_anomaly"] is True
    assert abs(report["beta"] - -28.99117028157291) <= 1e-9
    table = invoke(args).output.splitlines()
    assert any(line.split() == ["beta_anomaly", "True"] for line in table)


def test_params_greedy_flag(tmp_path):
    out = tmp_path / "t5.json"
    invoke(["generate", "theorem5", "--k", "3", "--epsilon", "0.5",
            "--out", str(out), "--policy-out", str(tmp_path / "t5p.json")])
    result = invoke(
        ["params", "--instance", str(out), "--greedy", "--gamma-mode", "skip"]
    )
    assert result.exit_code == 0
    assert "alpha" in result.output
    assert "beta" in result.output


def test_solve_budget_zero_and_two(tmp_path):
    out = tmp_path / "t5.json"
    invoke(["generate", "theorem5", "--k", "3", "--epsilon", "0.5",
            "--out", str(out), "--policy-out", str(tmp_path / "t5p.json")])
    zero = invoke(["solve", "--instance", str(out), "--objective", "budget",
                   "--k", "0"])
    assert zero.exit_code == 0
    assert "value      1" in zero.output
    two = invoke(["solve", "--instance", str(out), "--objective", "budget",
                  "--k", "2"])
    assert "1.75" in two.output


def test_solve_policy_round_trips_to_identical_value(tmp_path):
    out = tmp_path / "t5.json"
    pout = tmp_path / "opt.json"
    invoke(["generate", "theorem5", "--k", "3", "--epsilon", "0.5",
            "--out", str(out), "--policy-out", str(tmp_path / "t5p.json")])
    result = invoke(["solve", "--instance", str(out), "--objective", "budget",
                     "--k", "2", "--out", str(pout)])
    assert result.exit_code == 0
    instance = fileio.load_instance(out)
    policy = fileio.load_policy(pout, instance)
    assert abs(a.f_avg(instance, policy) - 1.75) <= 1e-9


def test_solve_coverage_demo(tmp_path):
    hc = a.HypothesisClass(("x1",), (("0",), ("1",)), (0.5, 0.5))
    bare = a.instance_from_hypotheses(hc)
    data = fileio.instance_to_dict(bare)
    data["utility"] = {"kind": "builtin", "name": "coverage"}
    path = tmp_path / "cov.json"
    fileio.save(path, data)
    result = invoke(["solve", "--instance", str(path), "--objective",
                     "coverage"])
    assert result.exit_code == 0
    assert "cost       1" in result.output


def test_verify_instance_mode_exit_zero(tmp_path):
    out = tmp_path / "t5.json"
    invoke(["generate", "theorem5", "--k", "3", "--epsilon", "0.5",
            "--out", str(out), "--policy-out", str(tmp_path / "t5p.json")])
    result = invoke(
        ["verify", "--bounds", "thm1,lemma2", "--instance", str(out),
         "--policy", "greedy", "--l", "2"]
    )
    assert result.exit_code == 0
    assert result.output.count("holds") == 2


def test_verify_corpus_mode(tmp_path):
    result = invoke(["verify", "--bounds", "lemma2", "--corpus", "0..5"])
    assert result.exit_code == 0
    assert result.output.count("holds") == 5


def test_verify_hypotheses_mode(tmp_path):
    hpath = tmp_path / "h.json"
    invoke(["generate", "hypotheses-demo", "--out", str(hpath)])
    result = invoke(["verify", "--bounds", "eq5", "--hypotheses", str(hpath)])
    assert result.exit_code == 0
    assert "eq5" in result.output


def test_verify_unknown_bound_rejected():
    runner = CliRunner()
    result = runner.invoke(main, ["verify", "--bounds", "thm9",
                                  "--corpus", "0..1"])
    assert result.exit_code != 0


def test_verify_json_output_is_stable(tmp_path):
    out = tmp_path / "t5.json"
    invoke(["generate", "theorem5", "--k", "3", "--epsilon", "0.5",
            "--out", str(out), "--policy-out", str(tmp_path / "t5p.json")])
    args = ["--json", "verify", "--bounds", "lemma2", "--instance", str(out),
            "--policy", "greedy"]
    first = invoke(args)
    second = invoke(args)
    assert first.output == second.output
    payload = json.loads(first.output)
    assert payload["reports"][0]["holds"] is True


def test_active_learning_pipeline(tmp_path):
    hpath = tmp_path / "h.json"
    ppath = tmp_path / "gbs.json"
    invoke(["generate", "hypotheses-demo", "--out", str(hpath)])
    result = invoke(["active-learning", "--hypotheses", str(hpath),
                     "--out", str(ppath)])
    assert result.exit_code == 0
    assert "1.66666666667" in result.output
    hc = fileio.load_hypotheses(hpath)
    bare = a.instance_from_hypotheses(hc)
    policy = fileio.load_policy(ppath, bare)
    assert bare.elements[policy.element] == "x1"


def test_in_process_calls_release_the_redirected_stdout(tmp_path):
    instance, chain = a.gen_theorem5(3, 0.5)
    path = tmp_path / "t5.json"
    fileio.save_instance(path, instance)
    for args in (["--json", "params", "--instance", str(path),
                  "--gamma-mode", "skip"],
                 ["params", "--instance", str(path), "--gamma-mode", "skip"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(args, standalone_mode=False)
        assert out.getvalue()
        released = weakref.ref(out)
        del out
        gc.collect()
        assert released() is None


def test_twelve_significant_digit_rendering(tmp_path):
    out = tmp_path / "t5.json"
    invoke(["generate", "theorem5", "--k", "3", "--epsilon", "0.5",
            "--out", str(out), "--policy-out", str(tmp_path / "t5p.json")])
    result = invoke(["params", "--instance", str(out), "--greedy",
                     "--gamma-mode", "skip"])
    assert "1.875" in result.output


def _random_instance(tmp_path):
    path = tmp_path / "r.json"
    fileio.save_instance(path, a.gen_random(2, 2, 0))
    return str(path)


def _usage_error(args, option):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output
    assert "Traceback" not in result.output


def test_tolerance_must_be_finite_and_non_negative():
    for value in ("nan", "inf", "-1"):
        _usage_error(["--tolerance", value, "verify", "--bounds", "lemma2",
                      "--corpus", "0..1"], "--tolerance")
    assert invoke(["--tolerance", "0", "verify", "--bounds", "lemma2",
                   "--corpus", "0..1"]).exit_code == 0


def test_enum_budget_must_be_non_negative(tmp_path):
    path = _random_instance(tmp_path)
    _usage_error(["--enum-budget", "-5", "solve", "--instance", path,
                  "--objective", "budget", "--k", "1"], "--enum-budget")
    assert invoke(["--enum-budget", "0", "solve", "--instance", path,
                   "--objective", "coverage"]).exit_code == 1


def test_only_gammas_refusal_suggests_sampled_mode(tmp_path):
    path = _random_instance(tmp_path)
    result = invoke(["--enum-budget", "1", "solve", "--instance", path,
                     "--objective", "budget", "--k", "1"])
    assert result.exit_code == 1
    assert "--enum-budget" in result.output
    assert "--gamma-mode" not in result.output
    result = invoke(["--enum-budget", "0", "params", "--instance", path])
    assert result.exit_code == 1
    assert "--gamma-mode sampled" in result.output


def test_truncation_bounds_at_a_coarse_tolerance(tmp_path):
    lemma2 = str(tmp_path / "r40.json")
    invoke(["generate", "random", "--elements", "4", "--states", "2",
            "--seed", "40", "--out", lemma2])
    result = invoke(["--tolerance", "1e-3", "verify", "--bounds", "lemma2",
                     "--policy", "greedy", "--instance", lemma2])
    assert result.exit_code == 0, result.output
    truncated = str(tmp_path / "r12.json")
    invoke(["generate", "random", "--elements", "3", "--states", "2",
            "--seed", "12", "--out", truncated])
    result = invoke(["--tolerance", "1e-2", "verify", "--bounds", "eq3,thm1",
                     "--l", "3", "--instance", truncated])
    assert result.exit_code == 0, result.output


def test_params_at_a_coarse_tolerance_reports_instead_of_asserting(tmp_path):
    path = str(tmp_path / "i.json")
    invoke(["generate", "random", "--elements", "4", "--states", "2",
            "--seed", "0", "--out", path])
    args = ["params", "--instance", path, "--greedy", "--gamma-mode", "skip"]
    result = invoke(["--json", "--tolerance", "1e-3", *args])
    assert result.exit_code == 0
    report = json.loads(result.output)
    default = json.loads(invoke(["--json", *args]).output)
    assert report["alpha"] == default["alpha"] == 1.0
    assert report["beta"] == default["beta"] == 1.0


def test_params_gamma_bounds_must_be_positive(tmp_path):
    path = _random_instance(tmp_path)
    _usage_error(["params", "--instance", path, "--n", "0"], "--n")
    _usage_error(["params", "--instance", path, "--k", "0"], "--k")


def test_solve_budget_height_must_be_non_negative(tmp_path):
    path = _random_instance(tmp_path)
    _usage_error(["solve", "--instance", path, "--objective", "budget",
                  "--k", "-1"], "--k")


def test_verify_rejects_an_empty_corpus_range():
    for spec in ("5..2", "3..3"):
        _usage_error(["verify", "--bounds", "lemma2", "--corpus", spec],
                     "--corpus")
    _usage_error(["verify", "--bounds", "lemma2", "--corpus", "0-5"],
                 "--corpus")


def test_params_reports_an_early_stopping_policy(tmp_path):
    instance = a.gen_random(2, 2, 0)
    path = tmp_path / "r.json"
    ppath = tmp_path / "v1.json"
    fileio.save_instance(path, instance)
    fileio.save_policy(ppath, instance, a.chain_policy(instance, [0]))
    result = invoke(["--json", "params", "--instance", str(path),
                     "--policy", str(ppath), "--gamma-mode", "skip"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["alpha"] == 1.0
    assert abs(report["beta"] - 1.7199405673933288) <= 1e-9
