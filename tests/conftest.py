"""Shared fixtures: witness instances, hypothesis classes, and the seeded
random corpus helpers used by the property suites."""

import pytest

import adaptsel as a
from adaptsel import metrics
from adaptsel.core import gains
from reference_walks import gamma_walk_state

#: ``gamma`` roots its walk at the layer walk's states; the walk tests score
#: a tree at any one psi', conditioned from scratch by the reference.
metrics._GammaWalk.state = gamma_walk_state


@pytest.fixture
def thm5():
    """Greedy chain with gain ratio 0.5 on 3 elements."""
    return a.gen_theorem5(3, 0.5)


@pytest.fixture
def thm4():
    """2-approximate-greedy chain with gain ratio 1 on 3 elements."""
    return a.gen_theorem4(3)


@pytest.fixture
def demo_hypotheses():
    """Three threshold functions on two points, uniform prior."""
    return a.HypothesisClass(
        examples=("x1", "x2"),
        labels=(("0", "0"), ("0", "1"), ("1", "1")),
        prior=(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    )


@pytest.fixture
def two_feature_hypotheses():
    """Four hypotheses in bijection with {0,1}^2 over two binary features."""
    return a.HypothesisClass(
        examples=("x1", "x2"),
        labels=(("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")),
        prior=(0.25, 0.25, 0.25, 0.25),
    )


def gain(instance, v, psi):
    """Delta(v | psi) of an unobserved element v, from ``core.gains``."""
    return gains(instance, psi, a.version_space(instance, psi))[v]


def rows_from_subsets(instance, table):
    """``Instance.utility`` rows of ``table``, a dict from every subset of
    ``instance``'s element indices (a tuple) to its row: ``rows[mask]`` is
    the row of the subset whose element bits ``mask`` sets."""
    rows = [None] * (1 << instance.num_elements)
    for subset, row in table.items():
        rows[sum(1 << v for v in subset)] = row
    assert None not in rows, "the table misses a subset"
    return tuple(rows)


def corpus_instance(seed, num_elements=None, monotone=True):
    """One member of the seeded random corpus (|V| in 2..4, |Y| = 2)."""
    if num_elements is None:
        num_elements = 2 + seed % 3
    return a.gen_random(num_elements, 2, seed, monotone=monotone)


def zero_prior_instance(seed):
    """corpus_instance(seed) on 3 elements with two realizations at prior 0."""
    instance = corpus_instance(seed, num_elements=3)
    prior = list(instance.prior)
    prior[1] = prior[6] = 0.0
    total = sum(prior)
    return instance.with_prior(tuple(p / total for p in prior))


def splitting_and_partial():
    """a identifies the realization and is worth nothing; b and c are worth
    1 on one realization each; d is worth 0.1 everywhere.  Q, ``tol`` and
    the prior each change the cheapest cover."""
    instance = a.Instance(("a", "b", "c", "d"), ("0", "1"),
                          ((0, 0, 0, 0), (1, 0, 0, 0)), (0.5, 0.5))
    rows = []
    for mask in range(16):
        d = 0.1 if mask >> 3 & 1 else 0.0
        rows.append((1.0 if mask >> 1 & 1 else d, 1.0 if mask >> 2 & 1 else d))
    return instance.with_utility(tuple(rows))


def complementary_pair():
    """One realization; u is worth 0.5 alone, v and w nothing alone but 1
    together.  The cheapest cover selects v then w, at cost 2; a pass that
    keeps only u, the one element that raises the minimal utility, costs 3."""
    instance = a.Instance(("u", "v", "w"), ("0",), ((0, 0, 0),), (1.0,))
    values = {(): 0.0, (0,): 0.5, (1,): 0.0, (2,): 0.0, (0, 1): 0.5,
              (0, 2): 0.5, (1, 2): 1.0, (0, 1, 2): 1.0}
    return instance.with_utility(rows_from_subsets(
        instance, {key: (value,) for key, value in values.items()}))


def zero_gain_chain():
    """theorem5(2, 0.5) reshaped so v2 gains nothing anywhere while v1
    gains 1, and the chain that selects v2 alone."""
    instance, _ = a.gen_theorem5(2, 0.5)
    shaped = instance.with_utility(((0.0,) * 4, (1.0,) * 4, (0.0,) * 4, (1.0,) * 4))
    return shaped, a.chain_policy(shaped, [1])


def coverage_demo(hc):
    """Bare instance plus its coverage-utility forms (plain and modified)."""
    bare = a.instance_from_hypotheses(hc)
    return (
        bare,
        a.coverage_instance(bare, modified=False),
        a.coverage_instance(bare, modified=True),
    )
