"""The instance's path cache and the descent evaluator against their
references.

``f_avg``, ``c_avg`` and ``policy_gain`` descend each component tree once
per realization; they must give the run-based expectations of
``reference_walks`` bit for bit and raise the same errors.  The tree walkers
read conditional priors, gains and splits from a cache that lives on the
instance; on an instance warmed by other trees they must return exactly
what they return on a fresh one, and a rebuilt instance starts empty.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptsel as a
from adaptsel import bounds, core, fileio
from adaptsel.policy import annotate_tree, cut_nodes, cut_tree, threshold_ladder
from conftest import corpus_instance, zero_prior_instance
from reference_walks import (
    reference_c_avg,
    reference_f_avg,
    reference_policy_gain,
    reference_selected,
)


def _instances():
    out = []
    for seed in range(25):
        out.append(corpus_instance(seed))
        out.append(corpus_instance(seed, monotone=False))
    for seed in range(4):
        out.append(a.gen_random(3, 3, seed))
        out.append(zero_prior_instance(seed))
    out += [a.gen_theorem4(3)[0], a.gen_theorem5(3, 0.5)[0]]
    return out


def _node_gains(instance, tree):
    """Every gain at a positive-mass node of ``tree``, sorted."""
    annot = annotate_tree(instance, tree)
    return sorted({
        g for node, _stop in cut_nodes(annot, -math.inf, True)
        for g in node.gains.values()
    })


def _policies(instance, seed):
    """Deterministic trees, the canonical pi_i, and threshold sub-policies
    at rho 0, 1 and inside (0, 1) on gains of the tree and between them."""
    trees = [a.build_greedy(instance),
             a.random_policy(instance, seed, stop_probability=0.0),
             a.random_policy(instance, seed + 1, stop_probability=0.3)]
    policies = list(trees)
    for tree in trees:
        top = int(math.floor(a.c_avg(instance, tree) + a.TOL))
        if top >= 1:
            policies.append(a.find_threshold_pair(instance, tree, top)[2])
        values = _node_gains(instance, tree)
        taus = values[:: max(1, len(values) // 3)]
        taus += [(x + y) / 2 for x, y in zip(values, values[1:])][:2]
        for tau in taus:
            for rho in (0.0, 1.0, 0.37):
                policies.append(a.ThresholdSubPolicy(tree, tau, rho))
    return policies


def test_descent_equals_the_run_based_expectation():
    checked = 0
    for seed, instance in enumerate(_instances()):
        for policy in _policies(instance, seed):
            assert float.hex(a.f_avg(instance, policy)) == float.hex(
                reference_f_avg(instance, policy))
            assert float.hex(a.c_avg(instance, policy)) == float.hex(
                reference_c_avg(instance, policy))
            checked += 1
    assert checked > 3000


def test_policy_gain_equals_the_run_based_expectation():
    rng = random.Random(0)
    checked = 0
    for instance in _instances():
        for psi in a.positive_partial_realizations(instance, max_size=2):
            available = [v for v in range(instance.num_elements)
                         if v not in psi]
            for _ in range(2):
                tree = a.oracle.random_policy_over(
                    instance, available, len(available), rng)
                for policy in (tree, a.ThresholdSubPolicy(tree, 0.05, 0.5)):
                    assert float.hex(a.policy_gain(instance, policy, psi)) == float.hex(
                        reference_policy_gain(instance, policy, psi))
                    checked += 1
    assert checked > 1000


def test_run_reads_the_same_selections():
    for seed, instance in enumerate(_instances()[:12]):
        for policy in _policies(instance, seed)[:6]:
            for phi_index in range(instance.num_realizations):
                for trace in a.run(instance, policy, phi_index):
                    assert trace.observed.dom == trace.selected
                    phi = instance.realizations[phi_index]
                    assert trace.observed.pairs == tuple(
                        (e, phi[e]) for e in trace.selected)
                for _w, tree in a.policy.components(instance, policy):
                    assert a.policy.selected_elements(
                        instance, tree, phi_index
                    ) == reference_selected(instance, tree, phi_index)


def _malformed(instance):
    leaf = (a.TERMINAL,) * instance.num_states
    reselect = a.Select(0, (a.Select(1, (a.Select(0, leaf),) * 2),) * 2)
    outside = a.Select(1, (a.Select(instance.num_elements, leaf),) * 2)
    negative = a.Select(-1, leaf)
    return [reselect, outside, negative]


def _error(call):
    with pytest.raises(a.MalformedPolicy) as info:
        call()
    return str(info.value)


def test_malformed_trees_raise_the_reference_errors():
    instance = corpus_instance(1)  # 3 elements, 2 states
    psi = a.PartialRealization(((2, 0),))
    for tree in _malformed(instance):
        assert _error(lambda: a.f_avg(instance, tree)) == _error(
            lambda: reference_f_avg(instance, tree))
        assert _error(lambda: a.c_avg(instance, tree)) == _error(
            lambda: reference_c_avg(instance, tree))
        assert _error(lambda: a.policy_gain(instance, tree, psi)) == _error(
            lambda: reference_policy_gain(instance, tree, psi))
        for phi_index in range(instance.num_realizations):
            assert _error(lambda: a.run(instance, tree, phi_index)) == _error(
                lambda: reference_selected(instance, tree, phi_index))


def test_covering_check_reads_the_first_failure_by_descent():
    for seed in range(12):
        instance = corpus_instance(seed)
        full = instance.utility[-1]
        for tree in (a.random_policy(instance, seed, stop_probability=0.0),
                     a.random_policy(instance, seed, stop_probability=0.3)):
            for q in (max(full), min(full)):
                for zero in (False, True):
                    expected = all(
                        abs(instance.value(reference_selected(instance, tree, i), i)
                            - q) <= a.TOL
                        for i, p in enumerate(instance.prior)
                        if p > 0.0 or zero
                    )
                    assert bounds._check_covering(
                        instance, tree, q, zero, a.TOL) is expected
    instance = corpus_instance(1)
    for tree in _malformed(instance):
        assert _error(lambda: bounds._check_covering(
            instance, tree, 1.0, True, a.TOL)) == _error(
            lambda: reference_selected(instance, tree, 0))


def _fresh(instance):
    """An equal instance with an empty path cache."""
    return a.Instance(instance.elements, instance.states, instance.realizations,
                      instance.prior, instance.utility, instance.name)


def _warm(instance, seed):
    """Walk other trees of ``instance`` first, in other selection orders."""
    for s in range(6):
        tree = a.random_policy(instance, 1000 * seed + s, stop_probability=0.0)
        for tau in _node_gains(instance, tree)[::2]:
            cut_tree(instance, tree, tau, strict=s % 2 == 0)


def test_walkers_on_a_warmed_instance_equal_a_fresh_instance():
    for seed, instance in enumerate(_instances()):
        _warm(instance, seed)
        fresh = _fresh(instance)
        assert a.build_greedy(instance) == a.build_greedy(fresh)
        for tree in (a.build_greedy(instance),
                     a.random_policy(instance, seed, stop_probability=0.0),
                     a.random_policy(instance, seed + 7, stop_probability=0.3)):
            assert annotate_tree(instance, tree) == annotate_tree(fresh, tree)
            assert threshold_ladder(instance, tree) == threshold_ladder(fresh, tree)
            for tau in _node_gains(fresh, tree):
                for strict in (True, False):
                    assert cut_tree(instance, tree, tau, strict) == cut_tree(
                        fresh, tree, tau, strict)


def test_the_cache_is_not_part_of_the_instance_value():
    instance = corpus_instance(4)
    before = (repr(instance), fileio.dumps(instance))
    _warm(instance, 4)
    assert (repr(instance), fileio.dumps(instance)) == before
    assert instance == _fresh(instance)
    assert [f.name for f in dataclasses.fields(instance)] == [
        "elements", "states", "realizations", "prior", "utility", "name"]
    for rebuilt in (dataclasses.replace(instance), _fresh(instance),
                    instance.with_utility(instance.utility),
                    instance.with_prior(instance.prior)):
        assert core.path_root(rebuilt) is not core.path_root(instance)


def test_with_prior_does_not_reuse_the_parent_gains():
    instance = corpus_instance(4)
    greedy = a.build_greedy(instance)
    parent = annotate_tree(instance, greedy)
    lifted = instance.with_prior(tuple(reversed(instance.prior)))
    root = core.path_root(lifted)
    assert root.vs == core.version_space(lifted, a.EMPTY)
    assert root.gains == core.gains(lifted, a.EMPTY, root.vs)
    assert root.gains != parent.gains
    assert annotate_tree(lifted, greedy) == annotate_tree(_fresh(lifted), greedy)
    assert a.f_avg(lifted, greedy) == reference_f_avg(lifted, greedy)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 300),
    shape=st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 2)]),
    monotone=st.booleans(),
    pick=st.integers(0, 10**6),
    rho=st.floats(0.0, 1.0),
)
def test_c_avg_is_affine_in_rho(seed, shape, monotone, pick, rho):
    instance = a.gen_random(*shape, seed, monotone=monotone)
    base = a.random_policy(instance, seed, stop_probability=0.0)
    values = _node_gains(instance, base) or [0.0]
    tau = values[pick % len(values)]
    c0, c1, c = (a.c_avg(instance, a.ThresholdSubPolicy(base, tau, r))
                 for r in (0.0, 1.0, rho))
    assert abs(c - (rho * c1 + (1.0 - rho) * c0)) <= 1e-12
