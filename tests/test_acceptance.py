"""Acceptance gate: one end-to-end check per shipped guarantee.

Each test pins the exact numeric claims (tolerance 1e-9) and, where the
claim includes a runtime budget, asserts the wall-clock budget too.  These
are the release criteria for the package: every property the library
advertises is exercised here at desk scale.
"""

import json
import math
import time

from click.testing import CliRunner

import adaptsel as a
from adaptsel.cli import main
from conftest import corpus_instance
from reference_walks import canonical_traces
from test_policy import alternative_threshold_pairs

TOL = 1e-9


def _cli(args):
    runner = CliRunner()
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


def _hypothesis_classes():
    """Identification corpus: every class has at most 8 hypotheses."""
    demo3 = a.HypothesisClass(
        ("x1", "x2"),
        (("0", "0"), ("0", "1"), ("1", "1")),
        (1.0 / 3.0,) * 3,
    )
    biject4 = a.HypothesisClass(
        ("x1", "x2"),
        tuple((str(u), str(v)) for u in (0, 1) for v in (0, 1)),
        (0.25,) * 4,
    )
    cube8 = a.HypothesisClass(
        ("x1", "x2", "x3"),
        tuple(
            (str(u), str(v), str(w))
            for u in (0, 1) for v in (0, 1) for w in (0, 1)
        ),
        (0.125,) * 8,
    )
    chain4 = a.HypothesisClass(
        ("x1", "x2", "x3"),
        (("0", "0", "0"), ("0", "0", "1"), ("0", "1", "1"), ("1", "1", "1")),
        (0.25,) * 4,
    )
    return {"demo3": demo3, "biject4": biject4, "cube8": cube8,
            "chain4": chain4}


def test_criterion_1_small_gain_ratio_witness_via_cli(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "w.json"
    pout = tmp_path / "wp.json"
    _cli(["generate", "theorem5", "--k", "4", "--epsilon", "0.25",
          "--out", str(out), "--policy-out", str(pout)])
    output = _cli(["--json", "params", "--instance", str(out),
                   "--policy", str(pout), "--gamma-mode", "skip"])
    report = json.loads(output)
    assert abs(report["beta"] - 0.25) <= TOL
    assert abs(report["alpha"] - 1.0) <= TOL
    assert time.perf_counter() - start < 1.0


def test_criterion_2_non_greedy_unit_gain_ratio_witness():
    for k in (3, 4, 5):
        start = time.perf_counter()
        instance, chain = a.gen_theorem4(k)
        assert abs(a.alpha(instance, chain) - 2.0) <= TOL
        assert abs(a.beta(instance, chain).value - 1.0) <= TOL
        check = a.check_adaptive_submodular(instance)
        assert not check.ok
        # The documented failure: some element's gain doubles from 1/k to
        # 2/k as observations accumulate.
        assert abs(check.witness["gain_early"] - 1.0 / k) <= TOL
        assert abs(check.witness["gain_late"] - 2.0 / k) <= TOL
        assert len(check.witness["psi"]) < len(check.witness["psi_prime"])
        assert time.perf_counter() - start < 1.0


def test_criterion_3_gain_ratio_bounded_by_greedy_ratio():
    start = time.perf_counter()
    checked = 0
    for seed in range(200):
        instance = corpus_instance(seed)
        policies = [a.build_greedy(instance)] + [
            a.random_policy(instance, 1000 * seed + t, stop_probability=0.0)
            for t in range(50)
        ]
        for policy in policies:
            alpha = a.alpha(instance, policy)
            if not math.isfinite(alpha):
                continue
            assert a.beta(instance, policy).value <= alpha + TOL
            checked += 1
    assert checked > 0
    assert time.perf_counter() - start < 60.0


def test_criterion_4_threshold_pair_cost_and_uniqueness():
    for seed in range(200):
        instance = corpus_instance(seed)
        greedy = a.build_greedy(instance)
        top = int(math.floor(a.c_avg(instance, greedy) + TOL))
        for i in range(1, top + 1):
            tau, rho, sub = a.find_threshold_pair(instance, greedy, i)
            assert abs(a.c_avg(instance, sub) - i) <= TOL
            reference = canonical_traces(instance, sub)
            for other_tau, other_rho in alternative_threshold_pairs(
                instance, greedy, i
            ):
                other = a.ThresholdSubPolicy(greedy, other_tau, other_rho)
                assert canonical_traces(instance, other) == reference


def test_criterion_5_per_budget_gain_dominates_frontier_floor():
    for seed in range(200):
        instance = corpus_instance(seed)
        report = a.verify(instance, "lemma2", policy=a.build_greedy(instance))
        assert report.holds, (seed, report)


def test_criterion_6_budgeted_utility_guarantee():
    start = time.perf_counter()
    for seed in range(50):
        instance = corpus_instance(seed, num_elements=3)
        greedy = a.build_greedy(instance)
        opt, _value = a.optimal_budget(instance, 2)
        for l in (1, 2):
            report = a.verify(
                instance, "thm1", policy=greedy, opt_policy=opt, l=l,
                gamma_mode="exact",
            )
            assert report.holds, (seed, l, report)
    assert time.perf_counter() - start < 300.0


def test_criterion_7_coverage_cost_bound_and_improvement():
    improvement_checked = 0
    for name, hc in _hypothesis_classes().items():
        bare = a.instance_from_hypotheses(hc)
        cov = a.coverage_instance(bare, modified=False)
        gbs = a.gbs_policy(cov)
        opt, _cost = a.optimal_coverage(cov, q=1.0)
        thm2 = a.verify(cov, "thm2", policy=gbs, opt_policy=opt)
        assert thm2.holds, (name, thm2)
        # Whenever the gain ratio is below 1, the ratio-based bound is
        # tighter than the classical submodular covering bound.  The
        # three-hypothesis class is excluded: there the additive constants
        # (+2 versus +1) dominate at its tiny optimal cost, so only the
        # multiplicative factor improves.
        if name not in ("biject4", "cube8", "chain4"):
            continue
        eq4 = a.verify(cov, "eq4", policy=gbs, opt_policy=opt)
        if thm2.inputs["beta"] < 1.0 - TOL:
            assert thm2.rhs <= eq4.rhs + TOL, (name, thm2.rhs, eq4.rhs)
            improvement_checked += 1
    assert improvement_checked > 0


def test_criterion_8_modified_prior_identification_bound():
    # An eight-hypothesis class with one nearly-invisible hypothesis: the
    # floored prior must keep the guarantee while the chain of invariants
    # behind it holds exactly.
    base = _hypothesis_classes()["cube8"]
    tiny = 1e-6
    rest = (1.0 - tiny) / 7.0
    hc = a.HypothesisClass(base.examples, base.labels, (tiny,) + (rest,) * 7)
    bare = a.instance_from_hypotheses(hc)
    m = bare.num_realizations
    floor = 1.0 / (m * m)
    z = sum(max(p, floor) for p in bare.prior)
    assert 1.0 - TOL <= z <= 1.0 + 1.0 / m + TOL
    p_mod = a.modified_prior(bare.prior)
    assert min(p_mod) >= 1.0 / (2.0 * m * m) - TOL
    report = a.verify(bare, "eq5")
    assert report.holds, report
    cov_plain = a.coverage_instance(bare, modified=False)
    opt, _cost = a.optimal_coverage(cov_plain, q=1.0)
    cost_p = a.c_avg(cov_plain, opt)
    cost_mod = a.c_avg(cov_plain.with_prior(p_mod), opt)
    assert cost_mod <= cost_p + 1.0 + TOL


def test_criterion_9_submodularity_ratio_is_one_on_submodular_instances():
    thm5, _ = a.gen_theorem5(3, 0.5)
    bare = a.instance_from_hypotheses(_hypothesis_classes()["demo3"])
    cov = a.coverage_instance(bare, modified=False)
    for instance in (thm5, cov):
        for n in (1, 2):
            for k in (1, 2):
                result = a.gamma(instance, n, k)
                assert result.mode == "exact"
                assert abs(result.value - 1.0) <= TOL


def test_criterion_10_budget_oracle_dominates_exhaustive_enumeration():
    for seed in (0, 1, 2):
        instance = corpus_instance(seed, num_elements=3)
        _opt, value = a.optimal_budget(instance, 2)
        best_enumerated = -math.inf
        for policy in a.enumerate_policies(instance, 2):
            best_enumerated = max(best_enumerated,
                                  a.f_avg(instance, policy))
            assert a.f_avg(instance, policy) <= value + TOL
        assert abs(best_enumerated - value) <= TOL


def test_criterion_11_pruned_identification_oracle_is_exact_and_shallow():
    for name, hc in _hypothesis_classes().items():
        bare = a.instance_from_hypotheses(hc)
        for modified in (False, True):
            cov = a.coverage_instance(bare, modified=modified)
            pruned, pruned_cost = a.optimal_coverage(cov, q=1.0, pruned=True)
            _full, full_cost = a.optimal_coverage(cov, q=1.0, pruned=False)
            assert abs(pruned_cost - full_cost) <= TOL, name
            assert a.tree_height(pruned) <= cov.num_realizations, name
