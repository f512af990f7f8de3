"""The threshold ladder's annotated tree against the first-principles walks:
alpha, frontier gains with their witnesses, and beta's per-budget entries
must equal the reference exactly; beta <= alpha wherever the base tree
stops only once no gain is left."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptsel as a
from adaptsel import metrics
from conftest import corpus_instance, coverage_demo
from reference_walks import (
    reachable_nodes,
    reference_alpha,
    reference_frontier_gains,
    stops_exhausted,
)

TOL = 1e-9


def _top(instance, policy):
    return int(math.floor(a.c_avg(instance, policy) + a.TOL))


def _threshold_inputs(instance, base):
    """Threshold sub-policies of ``base``: a canonical pi_i and a proper
    coin mixture at an achievable gain."""
    top = _top(instance, base)
    if top < 1:
        return []
    tau, _rho, sub = a.find_threshold_pair(instance, base, max(1, top - 1))
    return [sub, a.ThresholdSubPolicy(base, tau, 0.5)]


def _policies(instance, seed):
    greedy = a.build_greedy(instance)
    return [
        greedy,
        a.random_policy(instance, seed, stop_probability=0.0),
        a.random_policy(instance, seed, stop_probability=0.25),
        *_threshold_inputs(instance, greedy),
    ]


def _cases(demo_hypotheses, two_feature_hypotheses):
    cases = []
    for seed in range(25):
        instance = corpus_instance(seed)
        cases += [(instance, p) for p in _policies(instance, seed)]
    for seed in range(4):
        for instance in (a.gen_random(3, 3, seed),
                         a.gen_random(3, 2, seed, monotone=False)):
            cases += [(instance, p) for p in _policies(instance, seed)]
    for instance, chain in (a.gen_theorem4(3), a.gen_theorem5(3, 0.5),
                            a.gen_theorem5(4, 0.25)):
        cases += [(instance, chain), *((instance, p) for p in
                                       _threshold_inputs(instance, chain))]
    for hc in (demo_hypotheses, two_feature_hypotheses):
        _bare, plain, modified = coverage_demo(hc)
        gbs = a.gbs_policy(modified)
        cases += [(plain, gbs), (modified, gbs), (modified, a.build_greedy(modified))]
    return cases


def _assert_matches_reference(instance, policy):
    assert a.alpha(instance, policy) == reference_alpha(instance, policy)
    result = a.beta(instance, policy)
    assert [fg.i for fg in result.per_budget] == list(
        range(1, _top(instance, policy) + 1)
    )
    for fg in result.per_budget:
        assert a.frontier_gains(instance, policy, fg.i) == fg
        assert fg == reference_frontier_gains(instance, policy, fg.i)


def test_cut_walk_matches_reference_walks(demo_hypotheses, two_feature_hypotheses):
    cases = _cases(demo_hypotheses, two_feature_hypotheses)
    witnessed = 0
    for instance, policy in cases:
        _assert_matches_reference(instance, policy)
        witnessed += sum(
            fg.selection_witness is not None
            for fg in a.beta(instance, policy).per_budget
        )
    assert len(cases) > 150
    assert witnessed > 150


@st.composite
def instances_and_policies(draw):
    elements = draw(st.integers(2, 4))
    states = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 10_000))
    instance = a.gen_random(elements, states, seed,
                            monotone=draw(st.booleans()))
    policy = a.random_policy(instance, draw(st.integers(0, 10_000)),
                             stop_probability=draw(st.sampled_from([0.0, 0.25])))
    if draw(st.booleans()) and _top(instance, policy) >= 1:
        values = sorted({
            g for psi, vs, _node in reachable_nodes(instance, policy)
            for g in a.core.gains(instance, psi, vs).values() if g >= 0.0
        })
        if values:
            policy = a.ThresholdSubPolicy(
                policy, draw(st.sampled_from(values)),
                draw(st.sampled_from([0.0, 0.3, 1.0])))
    return instance, policy


@settings(derandomize=True, max_examples=80, deadline=None)
@given(instances_and_policies())
def test_cut_walk_matches_reference_walks_on_random_draws(case):
    _assert_matches_reference(*case)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(instances_and_policies())
def test_beta_at_most_alpha_when_the_base_tree_stops_exhausted(case):
    instance, policy = case
    if not stops_exhausted(instance, a.policy.base_tree(policy)):
        return
    alpha = a.alpha(instance, policy)
    if math.isfinite(alpha):
        assert a.beta(instance, policy).value <= alpha + TOL


def test_params_accepts_an_early_stopping_policy_with_beta_above_alpha():
    instance = a.gen_random(2, 2, 0)
    select_v1 = a.chain_policy(instance, [0])
    assert not stops_exhausted(instance, select_v1)
    report = a.param_report(instance, select_v1, gamma_mode="skip")
    assert report.alpha == 1.0
    assert abs(report.beta - 1.7199405673933288) <= TOL
    assert report.witnesses["beta_budget"] == 1
    assert report.witnesses["beta_termination"] == {"v1": "0"}
    assert report.witnesses["beta_selection"] == {"psi": {}, "element": "v1"}


def test_params_keeps_the_ratio_assertion_for_exhaustive_trees(monkeypatch):
    instance = a.gen_random(2, 2, 0)
    greedy = a.build_greedy(instance)
    assert stops_exhausted(instance, greedy)
    real = metrics._beta

    def inflated(*args):
        result = real(*args)
        return a.BetaResult(result.value + 10.0, result.per_budget,
                            result.argmax_budget)

    monkeypatch.setattr(metrics, "_beta", inflated)
    with pytest.raises(AssertionError, match="exceeds greedy approximation"):
        a.param_report(instance, greedy, gamma_mode="skip")
    # The same inflation on the early-stopping policy is not asserted on.
    a.param_report(instance, a.chain_policy(instance, [0]), gamma_mode="skip")


def test_params_allows_beta_above_alpha_by_the_tolerance_slack():
    # At tolerance tol a cut stops where every gain is at most tau + tol and
    # selects where the largest is at least tau - tol, so on an exhaustive
    # tree delta_u <= alpha * delta_l + 2 tol; 33 of these 180 reports used
    # to fail the beta <= alpha assertion.
    for seed in range(20):
        for shape in ((3, 2), (4, 2), (3, 3)):
            instance = a.gen_random(*shape, seed)
            greedy = a.build_greedy(instance)
            for tol in (1e-3, 1e-2, 5e-2):
                report = a.param_report(instance, greedy, gamma_mode="skip",
                                        tol=tol)
                budget = report.witnesses["beta_budget"]
                if budget is None:
                    continue
                fg = a.frontier_gains(instance, greedy, budget, tol)
                assert fg.delta_u <= report.alpha * max(fg.delta_l, tol) + 2 * tol
