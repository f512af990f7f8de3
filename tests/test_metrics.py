"""Parameters: greedy approximation ratio, frontier gains, maximal gain
ratio, submodularity ratio, covering parameters."""

import math

import pytest

import adaptsel as a
from conftest import corpus_instance, coverage_demo, zero_gain_chain

TOL = 1e-9


def test_alpha_theorem4_is_two(thm4):
    instance, chain = thm4
    assert abs(a.alpha(instance, chain) - 2.0) <= TOL


def test_alpha_theorem5_is_one(thm5):
    instance, chain = thm5
    assert abs(a.alpha(instance, chain) - 1.0) <= TOL


def test_alpha_greedy_is_one_on_corpus():
    for seed in range(20):
        instance = corpus_instance(seed)
        assert abs(a.alpha(instance, a.build_greedy(instance)) - 1.0) <= TOL


def test_alpha_infinite_when_zero_gain_selected_over_positive():
    shaped, bad = zero_gain_chain()
    assert math.isinf(a.alpha(shaped, bad))


def test_frontier_gains_theorem5_closed_form():
    eps, k = 0.5, 3
    instance, chain = a.gen_theorem5(k, eps)
    for i in range(1, k):
        fg = a.frontier_gains(instance, chain, i)
        assert abs(fg.delta_u - eps ** (i + 1)) <= TOL
        assert abs(fg.delta_l - eps**i) <= TOL
    final = a.frontier_gains(instance, chain, k)
    assert final.delta_u == 0.0
    assert abs(final.delta_l - eps**k) <= TOL


def test_frontier_gains_theorem4_closed_form(thm4):
    instance, chain = thm4
    k = instance.num_elements
    for i in range(1, k):
        fg = a.frontier_gains(instance, chain, i)
        assert abs(fg.delta_u - 1.0 / k) <= TOL
        assert abs(fg.delta_l - 1.0 / k) <= TOL
    # At the full budget the chain has selected everything, so no remaining
    # element exists and the empty-max convention gives 0.
    final = a.frontier_gains(instance, chain, k)
    assert final.delta_u == 0.0
    assert abs(final.delta_l - 1.0 / k) <= TOL


def test_beta_theorem5_equals_epsilon():
    for eps in (0.5, 0.25):
        instance, chain = a.gen_theorem5(3, eps)
        assert abs(a.beta(instance, chain).value - eps) <= TOL


def test_beta_theorem4_is_one(thm4):
    instance, chain = thm4
    assert abs(a.beta(instance, chain).value - 1.0) <= TOL


def test_beta_single_element_chain_with_empty_frontier_is_zero():
    instance, _ = a.gen_theorem5(1, 0.5)
    chain = a.chain_policy(instance, [0])
    result = a.beta(instance, chain)
    assert result.value == 0.0
    assert not result.empty_range


def test_beta_empty_budget_range_is_flagged(thm5):
    instance, _ = thm5
    result = a.beta(instance, a.IMMEDIATE)
    assert result.value == 0.0
    assert result.empty_range


def test_beta_flags_a_negative_ratio_from_a_negative_selected_gain():
    instance = a.gen_random(3, 2, 0, monotone=False)
    result = a.beta(instance, a.random_policy(instance, 0, stop_probability=0.25))
    assert result.anomaly
    assert abs(result.value - -28.99117028157291) <= TOL
    assert result.per_budget[0].delta_l < -TOL
    # Every ratio here is negative or -0.0: the flag does not depend on the
    # maximum's sign.
    result = a.beta(instance, a.random_policy(instance, 0, stop_probability=0.0))
    assert result.anomaly and result.value == 0.0
    for seed in range(15):
        instance = corpus_instance(seed)
        assert not a.beta(instance, a.build_greedy(instance)).anomaly


def test_beta_at_most_alpha_spot_checks():
    for seed in range(15):
        instance = corpus_instance(seed)
        greedy = a.build_greedy(instance)
        alpha = a.alpha(instance, greedy)
        if math.isfinite(alpha):
            assert a.beta(instance, greedy).value <= alpha + TOL


def test_beta_per_budget_matches_independent_frontier_gains():
    # The annotated-tree fast path inside beta must agree with the direct
    # per-budget frontier computation.
    for seed in range(10):
        instance = corpus_instance(seed)
        for policy in (a.build_greedy(instance),
                       a.random_policy(instance, seed, stop_probability=0.0)):
            result = a.beta(instance, policy)
            for fg in result.per_budget:
                slow = a.frontier_gains(instance, policy, fg.i)
                assert abs(fg.delta_u - slow.delta_u) <= TOL
                assert abs(fg.delta_l - slow.delta_l) <= TOL


def test_frontier_gains_bracketed_by_threshold():
    # Inside the ratio-comparison proof: delta_u <= tau_i and
    # delta_l >= tau_i / alpha for the canonical threshold pair.
    for seed in range(15):
        instance = corpus_instance(seed)
        greedy = a.build_greedy(instance)
        alpha = a.alpha(instance, greedy)
        if not math.isfinite(alpha):
            continue
        top = int(a.c_avg(instance, greedy) + TOL)
        for i in range(1, top + 1):
            tau, _rho, _sp = a.find_threshold_pair(instance, greedy, i)
            fg = a.frontier_gains(instance, greedy, i)
            assert fg.delta_u <= tau + TOL
            assert fg.delta_l >= tau / alpha - TOL


def test_gamma_is_one_for_theorem5(thm5):
    instance, _ = thm5
    for n, k in ((1, 1), (2, 2)):
        result = a.gamma(instance, n, k)
        assert result.mode == "exact"
        assert abs(result.value - 1.0) <= TOL


def test_gamma_is_one_for_coverage_utility(demo_hypotheses):
    _, cov_plain, cov_mod = coverage_demo(demo_hypotheses)
    for instance in (cov_plain, cov_mod):
        assert abs(a.gamma(instance, 2, 2).value - 1.0) <= TOL


def test_gamma_k_one_is_one_for_monotone_instances():
    for seed in range(10):
        instance = corpus_instance(seed)
        assert abs(a.gamma(instance, 2, 1).value - 1.0) <= TOL


def test_gamma_in_unit_interval_on_non_submodular_instances():
    for seed in range(6):
        instance = corpus_instance(seed, num_elements=3)
        result = a.gamma(instance, 2, 2)
        assert 0.0 <= result.value <= 1.0
        assert not result.anomaly


def test_gamma_budget_refusal_and_sampled_upper_bound():
    instance = corpus_instance(0, num_elements=4)
    with pytest.raises(a.EnumerationBudgetExceeded):
        a.gamma(instance, 4, 4, enum_budget=100)
    exact = a.gamma(instance, 2, 2)
    sampled = a.gamma(instance, 2, 2, mode="sampled", samples=100, seed=1)
    assert sampled.mode == "sampled-upper-bound"
    assert sampled.value >= exact.value - TOL


@pytest.mark.parametrize("call, error", [
    (lambda inst, chain: a.optimal_budget(inst, -1), ValueError),
    (lambda inst, chain: a.gamma(inst, n=0, k=1), ValueError),
    (lambda inst, chain: a.gamma(inst, n=1, k=1, mode="bogus"), ValueError),
    (lambda inst, chain: a.frontier_gains(inst, chain, 0), a.BudgetExceedsCost),
    (lambda inst, chain: a.find_threshold_pair(inst, chain, 1.5), ValueError),
    (lambda inst, chain: a.find_threshold_pair(inst, chain, True), ValueError),
    (lambda inst, chain: a.find_threshold_pair(inst, chain, 2.0), ValueError),
    (lambda inst, chain: a.frontier_gains(inst, chain, True), ValueError),
    (lambda inst, chain: a.frontier_gains(inst, chain, 2.0), ValueError),
    (lambda inst, chain: a.policy.threshold_ladder(inst, chain).pair(4),
     a.BudgetExceedsCost),
    (lambda inst, chain: a.run(inst, chain, inst.num_realizations), ValueError),
], ids=["optimal_budget-k", "gamma-n", "gamma-mode", "frontier_gains-i",
        "find_threshold_pair-i", "find_threshold_pair-bool",
        "find_threshold_pair-float", "frontier_gains-bool", "frontier_gains-float",
        "ladder-pair", "run-phi"])
def test_arguments_outside_their_range_are_refused(thm5, call, error):
    """The theorem-5 chain on 3 elements costs 3 on every realization."""
    instance, chain = thm5
    with pytest.raises(error):
        call(instance, chain)


@pytest.mark.parametrize("kwargs", [
    {"n": 2, "k": 1.5}, {"n": True, "k": 1}, {"n": 1.5, "k": 1},
    {"n": 1, "k": True}, {"n": 2.0, "k": 2},
    {"n": 1, "k": 1, "mode": "sampled", "samples": 0},
    {"n": 1, "k": 1, "mode": "sampled", "samples": -3},
    {"n": 1, "k": 1, "mode": "sampled", "samples": 2.5},
], ids=["k-float", "n-bool", "n-float", "k-bool", "n-integral-float",
        "samples-zero", "samples-negative", "samples-float"])
def test_gamma_refuses_non_int_arguments_and_no_samples(thm5, kwargs):
    """A float k once ran as its ceiling and a bool n was reported as
    ``true``; zero samples gave the vacuous 1.0."""
    with pytest.raises(ValueError):
        a.gamma(thm5[0], **kwargs)


@pytest.mark.parametrize("budget", [None, "9", True, 2.5, -1])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_gamma_refuses_a_bad_enum_budget_cached_or_not(thm5, mode, budget):
    instance, _chain = thm5
    with pytest.raises(ValueError, match="enum_budget must be"):
        a.gamma(instance, 1, 2, mode, enum_budget=budget)
    a.gamma(instance, 1, 2, mode)
    with pytest.raises(ValueError, match="enum_budget must be"):
        a.gamma(instance, 1, 2, mode, enum_budget=budget)


def test_covering_params_of_coverage_utility(demo_hypotheses):
    bare, cov_plain, cov_mod = coverage_demo(demo_hypotheses)
    q, eta = a.covering_params(cov_plain)
    assert abs(q - 1.0) <= TOL
    assert abs(eta - min(bare.prior)) <= TOL
    m = bare.num_realizations
    p_mod = a.modified_prior(bare.prior)
    q2, eta2 = a.covering_params(cov_mod, prior=p_mod)
    assert abs(q2 - 1.0) <= TOL
    assert eta2 >= 1.0 / (2 * m * m) - TOL


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3, True],
                         ids=["nan", "inf", "negative", "true"])
def test_covering_params_refuses_a_bad_tolerance(tol):
    """A NaN tolerance once read eta = Q."""
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        a.covering_params(a.gen_random(3, 2, 1), tol=tol)


@pytest.mark.parametrize("prior, message", [
    ([math.nan] * 8, "non-finite prior"),
    ([0.25] * 4, "prior length does not match"),
    ([0.5, -0.25] + [0.125] * 6, "negative prior"),
    ([0.1] * 8, "prior sums to"),
], ids=["nan", "short", "negative", "sum"])
def test_covering_params_refuses_a_bad_prior_override(prior, message):
    """A NaN prior once ended in an ``IndexError``: no realization counted."""
    with pytest.raises(ValueError, match=message):
        a.covering_params(a.gen_random(3, 2, 1), prior=prior)


def test_covering_params_constant_utility():
    instance, _ = a.gen_theorem5(2, 0.5)
    constant = ((2.5,) * 4,) * len(instance.utility)
    q, eta = a.covering_params(instance.with_utility(constant))
    assert q == 2.5
    assert eta == 2.5


def test_param_report_asserts_ratio_ordering(thm5):
    instance, chain = thm5
    report = a.param_report(instance, chain, n=2, k=2)
    assert abs(report.alpha - 1.0) <= TOL
    assert abs(report.beta - 0.5) <= TOL
    assert abs(report.gamma - 1.0) <= TOL
    assert report.beta <= report.alpha + TOL
    assert report.witnesses["beta_budget"] is not None


def test_param_report_skip_mode_omits_gamma(thm4):
    instance, chain = thm4
    report = a.param_report(instance, chain, gamma_mode="skip")
    assert report.gamma is None
    assert report.gamma_mode is None
