"""The bitset budget DP against the reference DP over partial realizations:
the same trees and bit-identical values at every budget; its memo-key gate;
and one renormalization per memo key."""

import math

import pytest

import adaptsel as a
from adaptsel import core, oracle
from conftest import corpus_instance, zero_prior_instance
from reference_walks import reference_optimal_budget


def budget_cases():
    """(name, instance): the 25-seed corpus, monotone and not; 3-state and
    2-state draws up to 5 elements, monotone and not; the theorem-4 and
    theorem-5 witnesses; coverage forms; zero-prior instances."""
    cases = []
    for seed in range(25):
        cases.append((f"corpus{seed}", corpus_instance(seed)))
        cases.append((f"non-monotone{seed}",
                      corpus_instance(seed, monotone=False)))
    for elements in range(2, 6):
        for states in (2, 3):
            for monotone in (True, False):
                for seed in range(100, 103 if elements < 5 else 101):
                    cases.append((f"random{elements}x{states}-{monotone}-{seed}",
                                  a.gen_random(elements, states, seed,
                                               monotone=monotone)))
    for k in (3, 4):
        cases.append((f"theorem4-{k}", a.gen_theorem4(k)[0]))
        cases.append((f"theorem5-{k}", a.gen_theorem5(k, 0.5)[0]))
    for seed in range(6):
        for modified in (False, True):
            cases.append((f"coverage{seed}-{modified}",
                          a.coverage_instance(corpus_instance(seed),
                                              modified=modified)))
    for seed in (3, 4):
        cases.append((f"zero-prior{seed}", zero_prior_instance(seed)))
    return cases


CASES = budget_cases()


def _budgets(instance):
    """Every k from 0 to |V|, where first moves tie, and one beyond."""
    return range(instance.num_elements + 2)


@pytest.mark.parametrize("name, instance", CASES, ids=[n for n, _ in CASES])
def test_bitset_dp_is_bit_identical_to_the_reference(name, instance):
    for k in _budgets(instance):
        expected_tree, expected_value = reference_optimal_budget(instance, k)
        tree, value = a.optimal_budget(instance, k)
        assert tree == expected_tree, (name, k)
        assert float.hex(value) == float.hex(expected_value), (name, k)


def test_renormalizing_from_the_prior_fails_the_comparison(monkeypatch):
    """Conditioning each state as prior[i] / mass(support) instead of
    chaining parent weight / outcome mass is the same mathematics but other
    rounding, and the comparison above catches it."""
    differ = 0
    for _name, instance in CASES:
        prior = instance.prior

        def from_prior(support, weights, mass):
            total = sum([prior[i] for i in support])
            return core.ConditionalPrior(
                tuple(support), tuple([prior[i] / total for i in support])
            )

        monkeypatch.setattr(oracle, "renormalize", from_prior)
        for k in _budgets(instance):
            expected_tree, expected_value = reference_optimal_budget(instance, k)
            tree, value = a.optimal_budget(instance, k)
            if tree != expected_tree or value != expected_value:
                differ += 1
    assert differ > 0


def memo_key_bound(instance, k):
    """Sum over j <= k of C(|V|, j) * min(|Y|^j, positive-prior count)."""
    positive = sum(1 for p in instance.prior if p > 0.0)
    return sum(
        math.comb(instance.num_elements, j)
        * min(instance.num_states**j, positive)
        for j in range(k + 1)
    )


def ordered_path_count(num_elements, num_states, k):
    """The gate's former estimate: ordered selection paths of length <= k."""
    return sum(
        math.perm(num_elements, j) * num_states**j for j in range(k + 1)
    )


def test_gate_admits_budgets_between_the_bound_and_the_path_count():
    instance = a.gen_random(5, 2, 0)
    bound = memo_key_bound(instance, 5)
    assert (bound, ordered_path_count(5, 2, 5)) == (243, 6331)
    tree, value = a.optimal_budget(instance, 5, enum_budget=bound)
    expected_tree, expected_value = reference_optimal_budget(instance, 5)
    assert tree == expected_tree
    assert float.hex(value) == float.hex(expected_value)
    with pytest.raises(a.EnumerationBudgetExceeded, match="243 DP memo keys"):
        a.optimal_budget(instance, 5, enum_budget=bound - 1)
    coverage = a.coverage_instance(corpus_instance(4))
    bound = memo_key_bound(coverage, coverage.num_elements)
    a.optimal_coverage(coverage, enum_budget=bound)
    with pytest.raises(a.EnumerationBudgetExceeded):
        a.optimal_coverage(coverage, enum_budget=bound - 1)


def test_one_renormalization_per_memo_key(monkeypatch):
    """The DP conditions a state only on a memo miss, and its memo keys,
    the positive-mass partial realizations of size <= k, stay within the
    gate's bound; the coverage DP's keys are among those of size <= |V|."""
    calls = []
    original = core.renormalize

    def counted(support, weights, mass):
        calls.append(support)
        return original(support, weights, mass)

    monkeypatch.setattr(core, "renormalize", counted)
    monkeypatch.setattr(oracle, "renormalize", counted)
    for name, instance in CASES:
        n = instance.num_elements
        keys = len(list(core.positive_partial_realizations(instance, n)))
        assert keys <= memo_key_bound(instance, n), name
        for k in range(n + 1):
            calls.clear()
            a.optimal_budget(instance, k)
            states = list(core.positive_partial_realizations(instance, k))
            assert len(calls) == len(states), (name, k)
            assert len(states) <= memo_key_bound(instance, k), (name, k)
