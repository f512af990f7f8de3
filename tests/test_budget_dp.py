"""The bitset budget DP against the reference DP over partial realizations:
the same trees and bit-identical values at every budget, on full products
and on sparse hypothesis classes; against the DP that conditioned each
state, the same optimum up to rounding; its memo-key gate; and one priced
entry per memo key."""

import itertools
import math
import random

import pytest

import adaptsel as a
from adaptsel import core, oracle
from conftest import corpus_instance, zero_prior_instance
from reference_walks import (
    reference_chained_optimal_budget,
    reference_optimal_budget,
)


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


def sparse_cases():
    """(name, instance): hypothesis classes of a few distinct labelings of 4
    or 5 examples over 2 or 3 labels, far fewer than every labeling, so
    most domains' classes are sparse, under the plain and the modified
    coverage utility."""
    cases = []
    for seed in range(6):
        bare = a.instance_from_hypotheses(sparse_hypotheses(seed))
        for modified in (False, True):
            cases.append((f"hypotheses{seed}-{modified}",
                          a.coverage_instance(bare, modified=modified)))
    return cases


def sparse_hypotheses(seed):
    """A seeded class of 3, 5 or 7 distinct labelings with a random prior."""
    rng = random.Random(seed)
    examples, labels = 4 + seed % 2, 2 + seed % 3 // 2
    count = rng.choice((3, 5, 7))
    rows = rng.sample(list(itertools.product(range(labels), repeat=examples)),
                      count)
    raw = [0.05 + rng.random() for _ in rows]
    return a.HypothesisClass(
        examples=tuple(f"x{i + 1}" for i in range(examples)),
        labels=tuple(tuple(str(y) for y in row) for row in rows),
        prior=tuple(p / sum(raw) for p in raw))


CASES = budget_cases()
SPARSE = sparse_cases()


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


@pytest.mark.parametrize("name, instance", SPARSE, ids=[n for n, _ in SPARSE])
def test_sparse_classes_are_priced_as_the_reference_prices_them(name, instance):
    """Where few realizations exist, most patterns of a domain have no
    class; pricing every class of every domain still gives the reference's
    tree and value bits at every budget.  Rounding decides ties here between
    optimal trees of different c_avg, so these cases stay out of the
    comparison with the chained DP below."""
    for k in _budgets(instance):
        expected_tree, expected_value = reference_optimal_budget(instance, k)
        tree, value = a.optimal_budget(instance, k)
        assert tree == expected_tree, (name, k)
        assert float.hex(value) == float.hex(expected_value), (name, k)


def test_pricing_from_the_prior_moves_only_rounding_from_the_chained_dp():
    """Pricing each state from the prior and conditioning each state along
    its first path are the same mathematics: the values agree to 1e-12 and
    the chosen trees have bit-equal f_avg and c_avg.  They round differently,
    which the bit-identical comparison above would catch."""
    differ = 0
    for name, instance in CASES:
        for k in _budgets(instance):
            chained_tree, chained_value = reference_chained_optimal_budget(
                instance, k)
            tree, value = a.optimal_budget(instance, k)
            assert abs(value - chained_value) <= 1e-12, (name, k)
            assert a.f_avg(instance, tree) == a.f_avg(instance, chained_tree), (name, k)
            assert a.c_avg(instance, tree) == a.c_avg(instance, chained_tree), (name, k)
            if tree != chained_tree or value != chained_value:
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


def test_one_solve_per_memo_key(monkeypatch):
    """The DP prices each state once: the stop-value tables it builds, one
    per observed-element mask of size <= k, hold one entry per memo key, the
    positive-mass partial realizations of size <= k, and those stay within
    the gate's bound; the coverage DP's keys are among those of size <= |V|."""
    tables = []
    original = oracle._stop_values

    def counted(*args):
        tables.append(original(*args))
        return tables[-1]

    monkeypatch.setattr(oracle, "_stop_values", counted)
    for name, instance in CASES + SPARSE:
        n = instance.num_elements
        keys = len(list(core.positive_partial_realizations(instance, n)))
        assert keys <= memo_key_bound(instance, n), name
        for k in range(n + 1):
            tables.clear()
            a.optimal_budget(instance, k)
            states = list(core.positive_partial_realizations(instance, k))
            assert len(tables) == sum(math.comb(n, j) for j in range(k + 1)), (
                name, k)
            assert sum(map(len, tables)) == len(states), (name, k)
            assert len(states) <= memo_key_bound(instance, k), (name, k)
