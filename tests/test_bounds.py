"""Bound verification reports: both sides computed from module operations,
slack orientation, preconditions, and the guard paths."""

import math

import pytest

import adaptsel as a
from conftest import corpus_instance, coverage_demo

TOL = 1e-9


def test_thm1_on_theorem5_witness(thm5):
    instance, chain = thm5
    opt, _ = a.optimal_budget(instance, 2)
    report = a.verify(instance, "thm1", policy=chain, opt_policy=opt, l=2)
    assert report.holds
    assert report.direction == "lower"
    assert abs(report.inputs["beta"] - 0.5) <= TOL
    assert abs(report.inputs["gamma"] - 1.0) <= TOL
    assert report.slack >= -TOL


def test_thm1_rhs_never_smaller_with_beta_than_alpha():
    # The bound improves (rhs grows) as the ratio parameter shrinks, and
    # beta <= alpha, so substituting alpha can only lower the rhs.
    for seed in range(8):
        instance = corpus_instance(seed, num_elements=3)
        greedy = a.build_greedy(instance)
        opt, _ = a.optimal_budget(instance, 2)
        report = a.verify(instance, "thm1", policy=greedy, opt_policy=opt, l=2)
        alpha = a.alpha(instance, greedy)
        beta = report.inputs["beta"]
        gamma = report.inputs["gamma"]
        c_star = report.inputs["c_avg_opt"]
        f_star = report.inputs["f_avg_opt"]
        if not math.isfinite(alpha) or gamma <= 0.0:
            continue
        rhs_alpha = (
            1.0 - math.exp(-2.0 / ((alpha / gamma) * c_star + 1.0))
        ) * f_star
        assert beta <= alpha + TOL
        assert rhs_alpha <= report.rhs + TOL


def test_thm1_requires_budget_and_baseline(thm5):
    instance, chain = thm5
    opt, _ = a.optimal_budget(instance, 2)
    with pytest.raises(a.PreconditionFailed):
        a.verify(instance, "thm1", policy=chain, opt_policy=opt)
    with pytest.raises(a.PreconditionFailed):
        a.verify(instance, "thm1", policy=chain, l=2)


def test_eq1_reports_legacy_precondition(thm4):
    instance, chain = thm4
    opt, _ = a.optimal_budget(instance, 2)
    report = a.verify(instance, "eq1", policy=chain, opt_policy=opt)
    assert report.holds
    # The non-greedy witness utility is deliberately not adaptive
    # submodular; the legacy precondition is reported rather than enforced.
    assert report.preconditions["adaptive_submodular"] is False


def test_eq1_with_infinite_alpha_trivializes():
    instance, _ = a.gen_theorem5(2, 0.5)
    table = {
        (): (0.0,) * 4,
        (0,): (1.0,) * 4,
        (1,): (0.0,) * 4,
        (0, 1): (1.0,) * 4,
    }
    shaped = instance.with_utility(table)
    bad = a.chain_policy(shaped, [1])
    opt, _ = a.optimal_budget(shaped, 1)
    report = a.verify(shaped, "eq1", policy=bad, opt_policy=opt)
    assert report.rhs == 0.0
    assert report.holds
    assert any("alpha" in note for note in report.diagnostics)


def test_eq2_eq3_on_greedy_corpus():
    for seed in range(6):
        instance = corpus_instance(seed, num_elements=3)
        greedy = a.build_greedy(instance)
        opt, _ = a.optimal_budget(instance, 2)
        r2 = a.verify(instance, "eq2", policy=greedy, opt_policy=opt)
        assert r2.holds
        assert r2.preconditions["greedy"]
        r3 = a.verify(instance, "eq3", policy=greedy, opt_policy=opt, l=2)
        assert r3.holds


def test_thm2_on_two_feature_coverage(two_feature_hypotheses):
    _, cov_plain, _ = coverage_demo(two_feature_hypotheses)
    gbs = a.gbs_policy(cov_plain)
    opt, _ = a.optimal_coverage(cov_plain)
    report = a.verify(cov_plain, "thm2", policy=gbs, opt_policy=opt)
    assert report.holds
    assert abs(report.inputs["q"] - 1.0) <= TOL
    assert abs(report.inputs["eta"] - 0.25) <= TOL


def test_thm2_rejects_non_covering_baseline(two_feature_hypotheses):
    _, cov_plain, _ = coverage_demo(two_feature_hypotheses)
    gbs = a.gbs_policy(cov_plain)
    with pytest.raises(a.PreconditionFailed):
        a.verify(cov_plain, "thm2", policy=gbs, opt_policy=a.IMMEDIATE)


def test_eq4_on_coverage_demo(demo_hypotheses):
    _, cov_plain, _ = coverage_demo(demo_hypotheses)
    gbs = a.gbs_policy(cov_plain)
    opt, _ = a.optimal_coverage(cov_plain)
    report = a.verify(cov_plain, "eq4", policy=gbs, opt_policy=opt)
    assert report.holds
    assert report.preconditions["adaptive_submodular"]
    assert report.preconditions["greedy"]


def test_thm6_on_coverage_demo(demo_hypotheses):
    _, cov_plain, _ = coverage_demo(demo_hypotheses)
    gbs = a.gbs_policy(cov_plain)
    opt, _ = a.optimal_coverage(cov_plain)
    report = a.verify(cov_plain, "thm6", policy=gbs, opt_policy=opt)
    assert report.holds
    assert "beta_modified" in report.inputs


def test_eq5_pipeline_defaults(demo_hypotheses):
    bare = a.instance_from_hypotheses(demo_hypotheses)
    report = a.verify(bare, "eq5")
    assert report.holds
    m = bare.num_realizations
    assert abs(report.inputs["eta"] - 1.0 / (2 * m * m)) <= TOL
    assert abs(report.inputs["q"] - 1.0) <= TOL


def test_lemma2_on_greedy_corpus():
    for seed in range(10):
        instance = corpus_instance(seed)
        greedy = a.build_greedy(instance)
        report = a.verify(instance, "lemma2", policy=greedy)
        assert report.holds
        assert report.lhs >= -TOL


def test_truncations_are_built_at_the_tolerance_they_are_evaluated_at():
    """At a coarse tolerance, lemma 2, eq3 and thm1 still build their
    truncations at TOL, where f_avg and c_avg cut them: lemma 2 holds and
    every truncation reaches its average cost l."""
    for shape in ((3, 2), (4, 2), (3, 3)):
        for seed in range(60):
            instance = a.gen_random(*shape, seed)
            greedy = a.build_greedy(instance)
            for tol in (1e-3, 1e-2):
                report = a.verify(instance, "lemma2", policy=greedy, tol=tol)
                assert report.holds, (shape, seed, tol, report.lhs)
            top = int(math.floor(a.c_avg(instance, greedy) + 1e-2))
            for l in range(1, top + 1):
                opt, _ = a.optimal_budget(instance, l)
                report = a.verify(instance, "eq3", policy=greedy,
                                  opt_policy=opt, l=l, tol=1e-2)
                assert report.holds, (shape, seed, l)
    instance = a.gen_random(3, 2, 12)
    opt, _ = a.optimal_budget(instance, 3)
    report = a.verify(instance, "thm1", policy=a.build_greedy(instance),
                      opt_policy=opt, l=3, tol=1e-2)
    assert report.holds


def test_lemma2_takes_its_budget_range_at_the_ladders_tolerance():
    """A policy whose average cost lies within a coarse tolerance below 2
    asks for budgets 1 only: the range is taken at TOL, like the ladder."""
    instance = a.gen_random(3, 2, 20)
    policy = a.random_policy(instance, 20)
    cost = a.c_avg(instance, policy)
    assert 2.0 - 5e-2 < cost < 2.0
    report = a.verify(instance, "lemma2", policy=policy, tol=5e-2)
    assert [entry["i"] for entry in report.inputs["per_budget"]] == [1]
    assert report.holds


def test_lemma3_on_coverage_demos(demo_hypotheses, two_feature_hypotheses):
    for hc in (demo_hypotheses, two_feature_hypotheses):
        bare, cov_plain, _ = coverage_demo(hc)
        report = a.verify(cov_plain, "lemma3")
        assert report.holds
        assert report.preconditions["pruned_cost_matches_unpruned"]
        assert report.lhs <= bare.num_realizations + TOL


def test_reports_are_deterministic(thm5):
    instance, chain = thm5
    opt, _ = a.optimal_budget(instance, 2)
    first = a.verify(instance, "thm1", policy=chain, opt_policy=opt, l=2)
    second = a.verify(instance, "thm1", policy=chain, opt_policy=opt, l=2)
    assert first == second


def test_unknown_bound_id_rejected(thm5):
    instance, chain = thm5
    with pytest.raises(ValueError):
        a.verify(instance, "thm3", policy=chain)


def test_slack_orientation_matches_direction(thm5, demo_hypotheses):
    instance, chain = thm5
    opt, _ = a.optimal_budget(instance, 2)
    lower = a.verify(instance, "thm1", policy=chain, opt_policy=opt, l=2)
    assert abs(lower.slack - (lower.lhs - lower.rhs)) <= TOL
    _, cov_plain, _ = coverage_demo(demo_hypotheses)
    gbs = a.gbs_policy(cov_plain)
    copt, _ = a.optimal_coverage(cov_plain)
    upper = a.verify(cov_plain, "thm2", policy=gbs, opt_policy=copt)
    assert abs(upper.slack - (upper.rhs - upper.lhs)) <= TOL


def test_lemma2_accepts_the_negative_thresholds_of_non_monotone_utilities():
    instance = a.gen_random(3, 2, 0, monotone=False)
    policy = a.random_policy(instance, 0, stop_probability=0.0)
    tau, _rho, _sub = a.find_threshold_pair(instance, policy, 2)
    assert tau < 0.0
    report = a.verify(instance, "lemma2", policy=policy)
    assert report.holds
    with pytest.raises(a.MalformedPolicy, match="NaN"):
        a.ThresholdSubPolicy(policy, math.nan, 0.5)


def test_thm1_prices_beta_on_its_own_truncation_at_a_coarse_tolerance():
    instance = a.gen_random(3, 2, 9)
    greedy = a.build_greedy(instance)
    opt, _ = a.optimal_budget(instance, 2)
    report = a.verify(instance, "thm1", policy=greedy, opt_policy=opt, l=2,
                      tol=1e-2)
    _tau, _rho, sub = a.find_threshold_pair(instance, greedy, 2)
    assert report.inputs["beta"] == a.beta(instance, sub).value
