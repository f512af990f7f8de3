"""Command-line surface: generation, parameter reports, solving, bound
verification, and the active-learning pipeline."""

import contextlib
import gc
import io
import json
import weakref

import pytest
from click.testing import CliRunner

import adaptsel as a
from adaptsel import fileio, gen
from adaptsel.cli import main
from conftest import complementary_pair


def invoke(args, **kwargs):
    runner = CliRunner()
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def _theorem5(tmp_path):
    """The path of the theorem-5 witness (k 3, epsilon 0.5) written into
    ``tmp_path``, its chain beside it as t5p.json."""
    out = tmp_path / "t5.json"
    invoke(["generate", "theorem5", "--k", "3", "--epsilon", "0.5",
            "--out", str(out), "--policy-out", str(tmp_path / "t5p.json")])
    return out


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


def test_generate_random_takes_its_family_positionally(tmp_path):
    out = tmp_path / "r.json"
    result = invoke(
        ["generate", "random", "--elements", "4", "--states", "2",
         "--seed", "7", "--monotone", "--out", str(out)]
    )
    assert result.exit_code == 0
    loaded = fileio.load_instance(out)
    assert loaded.prior == a.gen_random(4, 2, 7).prior
    refused = CliRunner().invoke(
        main, ["generate", "random", "--family", "theorem5"])
    assert refused.exit_code == 2
    assert "--family" in refused.output


def test_generate_requires_a_family():
    runner = CliRunner()
    result = runner.invoke(main, ["generate"])
    assert result.exit_code != 0
    assert "family" in result.output


def test_generate_usage_brackets_the_optional_family_once():
    usage = "generate [OPTIONS] [theorem4|theorem5|random|hypotheses-demo]\n"
    for args in (["generate", "--help"], ["generate"]):
        result = CliRunner().invoke(main, args, terminal_width=200)
        assert usage in result.output, result.output
        assert "[[" not in result.output


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


def test_params_refuses_a_policy_file_with_greedy(tmp_path):
    out = _theorem5(tmp_path)
    result = CliRunner().invoke(main, [
        "params", "--instance", str(out), "--policy", str(tmp_path / "t5p.json"),
        "--greedy"])
    assert result.exit_code == 2, result.output
    assert "give --policy or --greedy, not both" in result.output


@pytest.mark.parametrize("command", [["params"], ["verify", "--bounds", "eq1"]])
def test_a_policy_that_reselects_an_element_is_refused_on_load(tmp_path, command):
    leaf = {"0": "terminal", "1": "terminal"}
    policy = tmp_path / "rep.json"
    policy.write_text(json.dumps({"select": "v1", "children": {
        "0": {"select": "v1", "children": leaf}, "1": "terminal"}}))
    result = CliRunner().invoke(main, command + [
        "--instance", _random_instance(tmp_path), "--policy", str(policy)])
    assert result.exit_code == 1, result.output
    assert "policy: 'v1' is selected again below itself" in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("command", [["active-learning"],
                                     ["verify", "--bounds", "eq5"]],
                         ids=["active-learning", "verify-eq5"])
def test_a_negative_hypotheses_prior_exits_1_without_a_traceback(tmp_path, command):
    """Once an untyped ``ValueError`` from ``Instance``, past the file's
    ``ParseError`` wrapping."""
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"examples": ["x1"], "labels": [["0"], ["1"]],
                                "prior": [1.5, -0.5]}))
    result = CliRunner().invoke(main, command + ["--hypotheses", str(path)])
    assert result.exit_code == 1, result.output
    assert "hypotheses: negative prior probability" in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("command", [["active-learning"],
                                     ["verify", "--bounds", "eq5"]],
                         ids=["active-learning", "verify-eq5"])
def test_a_duplicate_example_exits_1_without_a_traceback(tmp_path, command):
    """Once an untyped ``ValueError`` from ``Instance`` ("duplicate element
    identifiers")."""
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"examples": ["x1", "x1"],
                                "labels": [["0", "1"], ["1", "0"]],
                                "prior": [0.5, 0.5]}))
    result = CliRunner().invoke(main, command + ["--hypotheses", str(path)])
    assert result.exit_code == 1, result.output
    assert "hypotheses: duplicate example 'x1'" in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def _without_utility(tmp_path):
    """An identification instance file with no "utility" field."""
    path = tmp_path / "bare.json"
    fileio.save_instance(str(path), a.instance_from_hypotheses(a.HypothesisClass(
        examples=("x1", "x2"), labels=(("0", "0"), ("0", "1"), ("1", "1")),
        prior=(0.5, 0.3, 0.2))))
    return str(path)


@pytest.mark.parametrize("command, needs", [
    (["solve", "--objective", "budget", "--k", "1"], "--objective budget"),
    (["solve", "--objective", "coverage"], "--objective coverage"),
    (["params"], "params"),
    (["verify", "--bounds", "lemma2", "--l", "1"], "--bounds lemma2"),
    (["verify", "--bounds", "eq5,lemma3,eq4"], "--bounds lemma3,eq4"),
], ids=["solve-budget", "solve-coverage", "params", "verify-lemma2",
        "verify-lemma3-eq4"])
def test_an_instance_without_a_utility_exits_1_without_a_traceback(
        tmp_path, command, needs):
    """Once an untyped ``ValueError`` ("instance has no utility table
    attached") from the first utility read."""
    path = _without_utility(tmp_path)
    result = CliRunner().invoke(main, command + ["--instance", path])
    assert result.exit_code == 1, result.output
    assert f'Error: {path} has no "utility", which {needs} needs' in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def test_eq5_reads_no_utility_from_an_instance(tmp_path):
    result = invoke(["verify", "--bounds", "eq5", "--instance",
                     _without_utility(tmp_path)])
    assert result.exit_code == 0, result.output
    assert " eq5 " in result.output and "holds" in result.output


def test_a_realization_row_naming_no_state_exits_1_without_a_traceback(tmp_path):
    path = tmp_path / "r.json"
    data = fileio.instance_to_dict(a.gen_random(2, 2, 0))
    data["realizations"][1]["v1"] = ["0"]
    path.write_text(json.dumps(data))
    result = CliRunner().invoke(main, ["solve", "--instance", str(path),
                                       "--objective", "budget", "--k", "1"])
    assert result.exit_code == 1, result.output
    assert "realization 1 maps 'v1' to ['0'], which is not a state" in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def test_params_greedy_flag(tmp_path):
    out = _theorem5(tmp_path)
    result = invoke(
        ["params", "--instance", str(out), "--greedy", "--gamma-mode", "skip"]
    )
    assert result.exit_code == 0
    assert "alpha" in result.output
    assert "beta" in result.output


def test_solve_budget_zero_and_two(tmp_path):
    out = _theorem5(tmp_path)
    zero = invoke(["solve", "--instance", str(out), "--objective", "budget",
                   "--k", "0"])
    assert zero.exit_code == 0
    assert "value      1" in zero.output
    two = invoke(["solve", "--instance", str(out), "--objective", "budget",
                  "--k", "2"])
    assert "1.75" in two.output


def test_solve_policy_round_trips_to_identical_value(tmp_path):
    out = _theorem5(tmp_path)
    pout = tmp_path / "opt.json"
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


def test_solve_coverage_prints_the_exact_optimum(tmp_path):
    """Where pruning misses the optimum, solve prints the exact cost and
    lemma 3 reports the disagreement."""
    path = tmp_path / "pair.json"
    fileio.save_instance(path, complementary_pair())
    result = invoke(["--json", "solve", "--instance", str(path), "--objective",
                     "coverage"])
    assert result.exit_code == 0
    assert json.loads(result.output)["cost"] == 2.0
    result = invoke(["--json", "verify", "--bounds", "lemma3", "--instance",
                     str(path)])
    assert result.exit_code == 1
    [report] = json.loads(result.output)["reports"]
    assert report["holds"] is False
    assert report["inputs"]["cost_pruned"] == 3.0
    assert report["inputs"]["cost_unpruned"] == 2.0
    assert report["diagnostics"] == ["pruned and unpruned optimal costs disagree"]


@pytest.mark.parametrize("objective", ["budget", "coverage"])
def test_solve_out_writes_the_policy_it_prints(tmp_path, objective):
    """The file holds ``dumps`` of the solved tree and stdout names it;
    without ``--out``, stdout's policy is the file's object."""
    path = _theorem5(tmp_path)
    pout = tmp_path / "opt.json"
    args = ["--json", "solve", "--instance", str(path), "--objective",
            objective, "--k", "2"]
    written = invoke([*args, "--out", str(pout)])
    printed = invoke(args)
    assert written.exit_code == printed.exit_code == 0
    instance = fileio.load_instance(path)
    if objective == "budget":
        tree = a.optimal_budget(instance, 2)[0]
    else:
        tree = a.optimal_coverage(instance)[0]
    text = pout.read_text()
    assert text == fileio.dumps(fileio.policy_to_dict(instance, tree))
    assert json.loads(written.output)["policy"] == str(pout)
    assert json.loads(printed.output)["policy"] == json.loads(text)


def test_an_integer_too_large_for_a_float_is_a_typed_error(tmp_path):
    data = fileio.instance_to_dict(a.gen_random(2, 2, 0))
    data["utility"]["entries"][-1]["value"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    result = invoke(["solve", "--instance", str(path), "--objective", "budget",
                     "--k", "1"])
    assert result.exit_code == 1
    assert "utility entry value: integer too large for a float" in result.output


def test_verify_instance_mode_exit_zero(tmp_path):
    out = _theorem5(tmp_path)
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


@pytest.mark.parametrize("args, message", [
    (["--bounds", "lemma2"], "provide --instance, --corpus, or --hypotheses"),
    (["--bounds", "lemma2,thm9", "--corpus", "0..1"], "unknown bound id 'thm9'"),
    (["--bounds", "lemma2", "--corpus", "0..1", "--instance", "{instance}"],
     "give --instance or --corpus, not both"),
    (["--bounds", "lemma2", "--corpus", "0..1", "--corpus-elements", "9"],
     "Invalid value for '--corpus-elements': 9 is not in the range 1<=x<=5"),
    (["--bounds", "thm1", "--instance", "{instance}", "--l", "0"],
     "Invalid value for '--l': 0 is not in the range x>=1"),
    (["--bounds", "lemma2,thm2,eq4,thm6,lemma3", "--corpus", "0..3"],
     "--bounds thm2,eq4,thm6,lemma3 needs every realization to reach one "
     "maximal utility"),
])
def test_verify_argument_errors_are_usage_errors_before_any_work(
        monkeypatch, tmp_path, args, message):
    path = _random_instance(tmp_path)

    def refuse(*_args, **_kwargs):
        raise AssertionError("an instance was loaded or generated")

    monkeypatch.setattr(fileio, "load_instance", refuse)
    monkeypatch.setattr(gen, "gen_random", refuse)
    result = CliRunner().invoke(
        main, ["verify"] + [arg.format(instance=path) for arg in args])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("bound_id", [b for b in a.BOUND_IDS if b != "eq5"])
def test_verify_hypotheses_alone_serves_eq5_only(tmp_path, bound_id):
    hpath = tmp_path / "h.json"
    invoke(["generate", "hypotheses-demo", "--out", str(hpath)])
    result = CliRunner().invoke(main, ["verify", "--bounds", f"eq5,{bound_id}",
                                       "--hypotheses", str(hpath)])
    assert result.exit_code == 2, result.output
    assert f"--bounds {bound_id} " in result.output
    assert "--instance" in result.output
    assert "holds" not in result.output
    assert "Traceback" not in result.output


def test_verify_bounds_must_name_a_bound(tmp_path):
    path = _random_instance(tmp_path)
    for spec in (",", "", " , "):
        _usage_error(["verify", "--bounds", spec, "--instance", path],
                     "--bounds")


def test_verify_json_output_is_stable(tmp_path):
    out = _theorem5(tmp_path)
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
    out = _theorem5(tmp_path)
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
    for value in ("nan", "inf", "-1", "-1e-3"):
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


def _json_documents(output):
    decoder = json.JSONDecoder()
    docs, at = [], 0
    while at < len(output):
        doc, end = decoder.raw_decode(output, at)
        docs.append((doc, output[at:end + 1]))
        at = end + 1
    return docs


def _counting(monkeypatch, counts, module, name):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _coverage_instance_file(tmp_path):
    hc = a.HypothesisClass(
        examples=("x1", "x2", "x3"),
        labels=(("0", "0", "1"), ("0", "1", "0"), ("1", "1", "0"), ("1", "0", "1")),
        prior=(0.4, 0.3, 0.2, 0.1),
    )
    path = tmp_path / "cov.json"
    fileio.save_instance(path, a.coverage_instance(
        a.instance_from_hypotheses(hc), modified=False))
    return path


def test_verify_builds_the_policy_and_each_baseline_once(monkeypatch, tmp_path):
    """Several bound ids on one instance share one policy and one baseline
    optimum; a run that needs neither builds neither."""
    from collections import Counter

    from adaptsel import cli, oracle

    counts = Counter()
    _counting(monkeypatch, counts, cli, "build_greedy")
    _counting(monkeypatch, counts, oracle, "optimal_budget")
    _counting(monkeypatch, counts, oracle, "optimal_coverage")
    result = invoke(["verify", "--bounds", "thm1,eq1,eq2,eq3", "--corpus", "0..1",
                     "--l", "2"])
    assert result.output.count("holds") == 4
    assert counts == {"build_greedy": 1, "optimal_budget": 1}
    counts.clear()
    path = str(_coverage_instance_file(tmp_path))
    result = invoke(["verify", "--bounds", "thm2,thm6,eq4,lemma2", "--instance", path])
    assert result.output.count("holds") == 4
    assert counts == {"build_greedy": 1, "optimal_coverage": 1}
    counts.clear()
    assert invoke(["verify", "--bounds", "lemma3", "--instance", path]).exit_code == 0
    hpath = tmp_path / "h.json"
    invoke(["generate", "hypotheses-demo", "--out", str(hpath)])
    assert invoke(["verify", "--bounds", "eq5", "--hypotheses", str(hpath)]).exit_code == 0
    assert counts == {}


def test_active_learning_tabulates_one_coverage_utility(monkeypatch, tmp_path):
    """``c_avg_p`` descends the GBS tree on the bare instance, bit-equal to
    ``c_avg`` on the plain coverage instance; only the modified prior's
    table is built."""
    from collections import Counter

    from adaptsel import learn

    hc = a.HypothesisClass(
        examples=("x1", "x2", "x3"),
        labels=(("0", "0", "1"), ("0", "1", "0"), ("1", "1", "0"), ("1", "0", "1")),
        prior=(0.5, 0.3, 0.2, 0.0),
    )
    hpath = tmp_path / "h.json"
    fileio.save(hpath, fileio.hypotheses_to_dict(hc))
    counts = Counter()
    _counting(monkeypatch, counts, learn, "coverage_utility")
    result = invoke(["--json", "active-learning", "--hypotheses", str(hpath)])
    assert counts == {"coverage_utility": 1}
    doc = json.loads(result.output)
    bare = a.instance_from_hypotheses(hc)
    policy = fileio.policy_from_dict(bare, doc["policy"])
    expected = a.c_avg(a.coverage_instance(bare), policy)
    assert doc["c_avg_p"].hex() == expected.hex()


def test_verify_decodes_the_policy_file_once(monkeypatch, tmp_path):
    """A corpus sweep reads --policy once and resolves it on every instance;
    a run that needs no policy never reads it."""
    _theorem5(tmp_path)
    chain = str(tmp_path / "t5p.json")
    reads = []
    original = fileio.load

    def counted(path):
        reads.append(str(path))
        return original(path)

    monkeypatch.setattr(fileio, "load", counted)
    result = invoke(["--json", "verify", "--bounds", "lemma2", "--corpus", "0..20",
                     "--policy", chain])
    assert result.exit_code == 0
    assert len(_json_documents(result.output)) == 20
    assert reads == [chain]
    reads.clear()
    path = str(_coverage_instance_file(tmp_path))
    assert invoke(["verify", "--bounds", "lemma3", "--instance", path,
                   "--policy", chain]).exit_code == 0
    assert reads == [path]


def test_verify_many_bounds_print_the_single_bound_reports(tmp_path):
    """Sharing the policy and baselines across bound ids changes no byte of
    the JSON reports."""
    path = str(_coverage_instance_file(tmp_path))
    for bound_ids, target in [
        (["thm1", "eq1", "eq2", "eq3", "lemma2"], ["--corpus", "0..4", "--l", "2"]),
        (["eq1", "eq2", "lemma2"], ["--corpus", "5..7"]),
        (["lemma3", "thm2", "eq4", "thm6", "lemma2"], ["--instance", path]),
    ]:
        many = invoke(["--json", "verify", "--bounds", ",".join(bound_ids), *target])
        singles = [
            _json_documents(invoke(["--json", "verify", "--bounds", b, *target]).output)
            for b in bound_ids
        ]
        docs = _json_documents(many.output)
        assert len(docs) == len(singles[0])
        for at, (doc, text) in enumerate(docs):
            reports = [report for single in singles for report in single[at][0]["reports"]]
            assert text == fileio.dumps({"instance": doc["instance"], "reports": reports})
