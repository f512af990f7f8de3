"""gamma against its per-realization reference.

``gamma`` scores each candidate tree by one reach-weighted walk over the
tree's positive-mass nodes.  The reference below scores it from first
principles instead: one ``run`` per realization for the numerator and
``policy_gain`` for the denominator.  Both modes must agree with it on
value, raw minimum, mode and anomaly flag, and the reported witness psi'
must attain the reference minimum.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import adaptsel as a
from adaptsel import metrics
from adaptsel.core import gains
from adaptsel.oracle import random_policy_over
from conftest import corpus_instance, coverage_demo

TOL = 1e-9


def reference_terms(instance, psi, tree):
    """Numerator and denominator of the submodularity-ratio objective for
    one (psi', tree) pair, by running the tree on every realization."""
    vs = a.version_space(instance, psi)
    psi_gains = gains(instance, psi, vs)
    selection_prob = {}
    for phi_index, w in vs.items():
        trace = a.run(instance, tree, phi_index)[0]
        for v in trace.selected:
            selection_prob[v] = selection_prob.get(v, 0.0) + w
    numerator = sum(p * psi_gains[v] for v, p in selection_prob.items())
    denominator = a.policy_gain(instance, tree, psi)
    return numerator, denominator


def reference_gamma(instance, n, k, mode, samples, seed):
    """(raw minimum, {psi': its own minimum}) over the same candidate trees
    ``gamma`` scores, in the same order; the raw minimum is +inf when every
    candidate has zero gain."""
    rng = random.Random(seed)
    per_psi = {}
    for psi in a.positive_partial_realizations(instance, max_size=n):
        if mode == "exact":
            trees = a.enumerate_policies(instance, k, psi)
        else:
            available = [v for v in range(instance.num_elements) if v not in psi]
            trees = [random_policy_over(instance, available, k, rng)
                     for _ in range(samples)]
        best = math.inf
        for tree in trees:
            numerator, denominator = reference_terms(instance, psi, tree)
            if abs(denominator) <= metrics.GAMMA_DENOMINATOR_FLOOR:
                continue
            best = min(best, numerator / denominator)
        per_psi[psi] = best
    return min(per_psi.values()), per_psi


def close(x, y):
    """Equal to 1e-9, relative once |y| > 1: a ratio of -5e3 over a
    denominator near 1e-4 carries about 1e-9 of rounding in either path."""
    return abs(x - y) <= TOL * max(1.0, abs(y))


def _cases():
    for seed in range(25):
        yield f"corpus{seed}", corpus_instance(seed), 2, 2
    for seed in range(4):
        yield f"three-state{seed}", a.gen_random(3, 3, seed), 1, 2
    for seed in range(6):
        yield (f"non-monotone{seed}",
               a.gen_random(3, 2, seed, monotone=False), 2, 2)
    yield "theorem4", a.gen_theorem4(3)[0], 2, 2
    yield "theorem5", a.gen_theorem5(3, 0.5)[0], 2, 2
    yield "theorem5-4", a.gen_theorem5(4, 0.25)[0], 1, 3
    labels = (("0", "0", "1"), ("0", "1", "1"), ("1", "1", "0"),
              ("1", "0", "0"))
    hc = a.HypothesisClass(("x1", "x2", "x3"), labels, (0.4, 0.3, 0.2, 0.1))
    _bare, plain, modified = coverage_demo(hc)
    yield "coverage-plain", plain, 2, 2
    yield "coverage-modified", modified, 2, 2


CASES = list(_cases())


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("name, instance, n, k", CASES,
                         ids=[case[0] for case in CASES])
def test_gamma_matches_per_realization_reference(name, instance, n, k, mode):
    result = a.gamma(instance, n, k, mode=mode, samples=40, seed=7)
    raw_min, per_psi = reference_gamma(instance, n, k, mode, 40, 7)
    label = "exact" if mode == "exact" else "sampled-upper-bound"
    assert result.mode == label
    if raw_min == math.inf:
        assert (result.value, result.raw_min, result.witness) == (1.0, 1.0, None)
        assert not result.anomaly
        return
    assert close(result.raw_min, raw_min), (result.raw_min, raw_min)
    assert close(result.value, min(1.0, max(0.0, raw_min)))
    assert result.anomaly == (raw_min < -TOL)
    (witness,) = [psi for psi in per_psi
                  if instance.describe_psi(psi) == result.witness["psi"]]
    assert close(per_psi[witness], raw_min), (per_psi[witness], raw_min)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_vacuous_gamma_keeps_the_mode_label(mode):
    """A constant utility gives every candidate zero gain; the vacuous
    result is still labelled as the mode's bound."""
    instance, _ = a.gen_theorem5(2, 0.5)
    constant = tuple(tuple(1.0 for _ in row) for row in instance.utility)
    result = a.gamma(instance.with_utility(constant), 1, 1, mode=mode)
    assert (result.value, result.raw_min) == (1.0, 1.0)
    assert result.mode == ("exact" if mode == "exact"
                           else "sampled-upper-bound")


def test_single_selection_tree_scores_exactly_one():
    instance = corpus_instance(3)
    walk = metrics._GammaWalk(instance)
    for psi in a.positive_partial_realizations(instance, max_size=1):
        root = walk.state(psi)
        for v in range(instance.num_elements):
            if v in psi.dom:
                continue
            numerator, denominator = walk.terms(
                root, a.chain_policy(instance, [v]))
            assert numerator == denominator


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    num_elements=st.integers(2, 4),
    num_states=st.integers(2, 3),
    seed=st.integers(0, 10**6),
    monotone=st.booleans(),
    draws=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                  st.integers(1, 3)),
        min_size=1, max_size=4,
    ),
)
def test_walk_terms_equal_reference_terms(num_elements, num_states, seed,
                                          monotone, draws):
    """One walk (its state cache shared across draws) gives every random
    tree the reference's (N, D) to 1e-12."""
    instance = a.gen_random(num_elements, num_states, seed, monotone=monotone)
    nodes = list(a.positive_partial_realizations(instance))
    walk = metrics._GammaWalk(instance)
    for pick, tree_seed, height in draws:
        psi = nodes[pick % len(nodes)]
        available = [v for v in range(num_elements) if v not in psi.dom]
        tree = random_policy_over(instance, available, height,
                                  random.Random(tree_seed))
        numerator, denominator = walk.terms(walk.state(psi), tree)
        ref_numerator, ref_denominator = reference_terms(instance, psi, tree)
        assert abs(numerator - ref_numerator) <= 1e-12
        assert abs(denominator - ref_denominator) <= 1e-12


def test_verify_computes_gamma_once_per_instance_and_arguments(monkeypatch):
    """thm1 and eq2 price the same (n, k) on each corpus instance: 40 calls
    to ``gamma`` on the CI's verify call, 20 computations."""
    from click.testing import CliRunner

    from adaptsel import bounds
    from adaptsel.cli import main

    calls, computed = [], []
    gamma, roots = metrics.gamma, metrics.conditioned_states

    def counted_gamma(*args, **kwargs):
        calls.append(1)
        return gamma(*args, **kwargs)

    def counted_roots(*args, **kwargs):
        computed.append(1)
        return roots(*args, **kwargs)

    monkeypatch.setattr(bounds, "gamma", counted_gamma)
    monkeypatch.setattr(metrics, "conditioned_states", counted_roots)
    result = CliRunner().invoke(main, [
        "--json", "verify", "--corpus", "0..20",
        "--bounds", "thm1,eq1,eq2,eq3,lemma2", "--l", "2"])
    assert result.exit_code == 0, result.output
    assert len(calls) == 40
    assert len(computed) == 20


def test_a_cached_gamma_still_checks_the_enumeration_budget():
    instance = corpus_instance(0, num_elements=4)
    first = a.gamma(instance, 1, 2)
    assert a.gamma(instance, 1, 2) is first
    with pytest.raises(metrics.GammaBudgetExceeded):
        a.gamma(instance, 1, 2, enum_budget=10)
    assert a.gamma(instance, 1, 2, enum_budget=10**6) is first
    sampled = a.gamma(instance, 1, 2, mode="sampled", samples=20, seed=3)
    assert sampled is not first
    assert a.gamma(instance, 1, 2, mode="sampled", samples=20, seed=3,
                   enum_budget=0) is sampled
    assert a.gamma(instance, 1, 2, mode="sampled", samples=20, seed=4) is not sampled
