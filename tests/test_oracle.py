"""Brute-force baselines: exhaustive enumeration, budgeted maximization,
minimum-cost coverage."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptsel as a
from conftest import (
    complementary_pair,
    corpus_instance,
    coverage_demo,
    rows_from_subsets,
    splitting_and_partial,
)
from reference_walks import reachable_nodes, reference_enumerate_policies

TOL = 1e-9


def test_count_policies_small_cases():
    assert a.count_policies(0, 3, 2) == 1
    assert a.count_policies(1, 0, 2) == 1
    assert a.count_policies(1, 1, 2) == 2
    assert a.count_policies(2, 1, 2) == 3


def test_enumerate_policies_matches_count_and_is_duplicate_free():
    instance = corpus_instance(2, num_elements=3)
    for k in (0, 1, 2):
        policies = list(a.enumerate_policies(instance, k))
        assert len(policies) == a.count_policies(3, k, 2)
        assert len(set(policies)) == len(policies)
        for policy in policies:
            a.validate_policy(instance, policy)
            assert a.tree_height(policy) <= k


def test_enumerate_policies_respects_observed_elements():
    instance = corpus_instance(2, num_elements=3)
    psi = a.PartialRealization(((0, instance.realizations[0][0]),))
    for policy in a.enumerate_policies(instance, 2, psi):
        for node_psi, _support, node in reachable_nodes(instance, policy):
            if not isinstance(node, a.Terminal):
                assert node.element != 0
            del node_psi


@pytest.mark.parametrize("height", [1, 2, 3])
@pytest.mark.parametrize("instance", [corpus_instance(3, num_elements=4),
                                      a.gen_random(3, 3, 1)], ids=["4x2", "3x3"])
def test_enumerate_policies_equals_the_odometer(instance, height):
    """Tree for tree and in order: gamma's witness is the first minimum."""
    one_pair = a.PartialRealization(((1, instance.realizations[0][1]),))
    for psi in (a.EMPTY, one_pair):
        assert list(a.enumerate_policies(instance, height, psi)) == list(
            reference_enumerate_policies(instance, height, psi))


@pytest.mark.parametrize("height", [1.5, 2.0, True, None])
def test_enumeration_and_count_refuse_a_non_int_height(height):
    instance = corpus_instance(2, num_elements=3)
    with pytest.raises(ValueError, match="height must be an int"):
        a.enumerate_policies(instance, height)
    with pytest.raises(ValueError, match="height must be an int"):
        a.count_policies(3, height, 2)


@pytest.mark.parametrize("k", [2.5, "2", None, True])
def test_optimal_budget_refuses_a_non_int_k(k):
    instance = corpus_instance(2, num_elements=3)
    with pytest.raises(ValueError, match="k must be an int"):
        a.optimal_budget(instance, k)


#: enum_budget values that are not ints >= 0: before the check, None and
#: "9" raised an untyped TypeError, True ran as 1 and 2.5 and -1 ran.
BAD_BUDGETS = [None, "9", True, 2.5, -1]


@pytest.mark.parametrize("budget", BAD_BUDGETS)
def test_optimal_budget_refuses_a_bad_enum_budget(budget):
    instance = corpus_instance(2, num_elements=3)
    with pytest.raises(ValueError, match="enum_budget must be"):
        a.optimal_budget(instance, 2, enum_budget=budget)


@pytest.mark.parametrize("budget", BAD_BUDGETS)
def test_optimal_coverage_refuses_a_bad_enum_budget_cached_or_not(
        two_feature_hypotheses, budget):
    _, cov_plain, _ = coverage_demo(two_feature_hypotheses)
    with pytest.raises(ValueError, match="enum_budget must be"):
        a.optimal_coverage(cov_plain, enum_budget=budget)
    a.optimal_coverage(cov_plain)
    with pytest.raises(ValueError, match="enum_budget must be"):
        a.optimal_coverage(cov_plain, enum_budget=budget)


@pytest.mark.parametrize("budget", BAD_BUDGETS)
def test_enumerate_policies_refuses_a_bad_enum_budget(budget):
    instance = corpus_instance(2, num_elements=3)
    with pytest.raises(ValueError, match="enum_budget must be"):
        a.enumerate_policies(instance, 2, enum_budget=budget)


def test_enumerate_policies_budget_refusal():
    instance = corpus_instance(0, num_elements=4)
    with pytest.raises(a.EnumerationBudgetExceeded):
        list(a.enumerate_policies(instance, 4, enum_budget=10))


def test_optimal_budget_zero_is_immediate():
    instance = corpus_instance(4)
    tree, value = a.optimal_budget(instance, 0)
    assert tree == a.TERMINAL
    base = sum(
        p * instance.value((), i)
        for i, p in enumerate(instance.prior)
        if p > 0.0
    )
    assert abs(value - base) <= TOL


def test_optimal_budget_theorem5_two_elements(thm5):
    instance, _ = thm5
    tree, value = a.optimal_budget(instance, 2)
    assert abs(value - 1.75) <= TOL
    assert abs(a.f_avg(instance, tree) - value) <= TOL


def test_optimal_budget_dominates_exhaustive_enumeration():
    for seed in range(8):
        instance = corpus_instance(seed, num_elements=3)
        tree, value = a.optimal_budget(instance, 2)
        best_enumerated = max(
            a.f_avg(instance, policy)
            for policy in a.enumerate_policies(instance, 2)
        )
        assert value >= best_enumerated - TOL
        assert abs(value - best_enumerated) <= TOL


@st.composite
def budget_problems(draw):
    """Random instances and budgets whose trees enumerate in a few hundred."""
    states = draw(st.sampled_from([2, 3]))
    elements = draw(st.integers(1, 3 if states == 2 else 2))
    instance = a.gen_random(elements, states, draw(st.integers(0, 10_000)),
                            monotone=draw(st.booleans()))
    return instance, draw(st.integers(0, elements))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(budget_problems())
def test_optimal_budget_dominates_every_enumerated_policy(problem):
    instance, k = problem
    tree, value = a.optimal_budget(instance, k)
    best = max(a.f_avg(instance, policy)
               for policy in a.enumerate_policies(instance, k))
    assert value >= best - TOL
    assert abs(value - best) <= TOL
    assert abs(a.f_avg(instance, tree) - value) <= TOL
    assert a.tree_height(tree) <= k


def test_optimal_budget_monotone_in_budget():
    for seed in range(8):
        instance = corpus_instance(seed)
        values = [
            a.optimal_budget(instance, k)[1]
            for k in range(instance.num_elements + 1)
        ]
        for small, large in zip(values, values[1:]):
            assert large >= small - TOL


def test_optimal_budget_modular_utility_picks_top_elements():
    instance = corpus_instance(0, num_elements=3)
    weights = (3.0, 1.0, 2.0)
    table = {}
    for size in range(4):
        for subset in itertools.combinations(range(3), size):
            value = sum(weights[v] for v in subset)
            table[subset] = (value,) * instance.num_realizations
    modular = instance.with_utility(rows_from_subsets(instance, table))
    _tree, value = a.optimal_budget(modular, 2)
    assert abs(value - 5.0) <= TOL


def test_optimal_coverage_single_separating_element():
    hc = a.HypothesisClass(("x1",), (("0",), ("1",)), (0.5, 0.5))
    _, cov_plain, _ = coverage_demo(hc)
    tree, cost = a.optimal_coverage(cov_plain)
    assert abs(cost - 1.0) <= TOL
    assert not isinstance(tree, a.Terminal)


def test_optimal_coverage_two_feature_bijection_costs_two(
    two_feature_hypotheses,
):
    _, cov_plain, _ = coverage_demo(two_feature_hypotheses)
    _tree, cost = a.optimal_coverage(cov_plain)
    assert abs(cost - 2.0) <= TOL


def test_optimal_coverage_already_covered_costs_zero():
    hc = a.HypothesisClass(("x1",), (("0",),), (1.0,))
    _, cov_plain, _ = coverage_demo(hc)
    tree, cost = a.optimal_coverage(cov_plain)
    assert cost == 0.0
    assert tree == a.TERMINAL


def test_optimal_coverage_unreachable_raises():
    instance = corpus_instance(1, num_elements=2)
    # Cap the full-set value below an unachievable target.
    with pytest.raises(a.CoverageUnreachable):
        a.optimal_coverage(instance, q=max(
            max(row) for row in instance.utility
        ) + 1.0)


def test_optimal_coverage_tree_reaches_q_on_every_branch(demo_hypotheses):
    _, cov_plain, _ = coverage_demo(demo_hypotheses)
    tree, _cost = a.optimal_coverage(cov_plain)
    for phi_index, p in enumerate(cov_plain.prior):
        if p <= 0.0:
            continue
        for trace in a.run(cov_plain, tree, phi_index):
            assert abs(cov_plain.value(trace.selected, phi_index) - 1.0) <= TOL


def test_optimal_coverage_pruned_equals_unpruned(demo_hypotheses,
                                                 two_feature_hypotheses):
    for hc in (demo_hypotheses, two_feature_hypotheses):
        _, cov_plain, _ = coverage_demo(hc)
        _t1, pruned_cost = a.optimal_coverage(cov_plain, pruned=True)
        _t2, full_cost = a.optimal_coverage(cov_plain, pruned=False)
        assert abs(pruned_cost - full_cost) <= TOL


def test_optimal_coverage_is_exact_where_pruning_is_not():
    """Two elements worth nothing alone cover together: the default pass
    finds the cost-2 optimum that the pruned pass misses."""
    instance = complementary_pair()
    tree, cost = a.optimal_coverage(instance)
    assert cost == 2.0
    assert tree == a.Select(1, (a.Select(2, (a.TERMINAL,)),))
    assert a.optimal_coverage(instance, pruned=True)[1] == 3.0


@pytest.mark.parametrize("kwargs, name", [
    ({"q": math.nan}, "q"), ({"q": math.inf}, "q"), ({"q": -math.inf}, "q"),
    ({"tol": math.nan}, "tol"), ({"tol": math.inf}, "tol"),
    ({"tol": -1.0}, "tol"), ({"tol": -1e-3}, "tol"), ({"tol": True}, "tol"),
    ({"q": True}, "q"), ({"q": "1.0"}, "q"), ({"q": 10**400}, "q"),
])
def test_optimal_coverage_rejects_non_finite_q_and_bad_tol(
        two_feature_hypotheses, kwargs, name):
    _, cov_plain, _ = coverage_demo(two_feature_hypotheses)
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        a.optimal_coverage(cov_plain, **kwargs)


def test_optimal_coverage_solves_once_per_instance_and_arguments():
    instance = splitting_and_partial()
    calls = [{}, {"pruned": True}, {"tol": 0.95}, {"pruned": True, "tol": 0.95},
             {"q": 0.5, "tol": 0.5}, {"q": 1.0, "tol": 0.5}]
    results = [a.optimal_coverage(instance, **kwargs) for kwargs in calls]
    assert [cost for _tree, cost in results] == [2.0, 2.0, 1.0, 2.0, 0.0, 2.0]
    assert a.optimal_coverage(instance, q=1.0) is results[0]  # Q resolved
    for kwargs, result in zip(calls, results):
        assert a.optimal_coverage(instance, **kwargs) is result
        fresh = a.optimal_coverage(instance.with_utility(instance.utility),
                                   **kwargs)
        assert fresh == result and fresh is not result
    # The gates hold on a cached solve.
    with pytest.raises(a.EnumerationBudgetExceeded):
        a.optimal_coverage(instance, enum_budget=0)
    with pytest.raises(a.CoverageUnreachable):
        a.optimal_coverage(instance, q=2.0)
    # A copy with another prior or utility solves afresh.
    skewed = instance.with_prior((1.0, 0.0))
    assert a.optimal_coverage(skewed) == (a.Select(1, (a.TERMINAL,) * 2), 1.0)
    flat = instance.with_utility(((1.0, 1.0),) * len(instance.utility))
    assert a.optimal_coverage(flat) == (a.TERMINAL, 0.0)
