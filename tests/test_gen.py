"""Generators: witness constructions and seeded random corpora."""

import pytest

import adaptsel as a
from adaptsel import fileio
from conftest import gain

TOL = 1e-9


def test_theorem5_small_values():
    instance, _ = a.gen_theorem5(1, 0.5)
    assert abs(instance.value((), 0) - 1.0) <= TOL
    assert abs(instance.value((0,), 0) - 1.5) <= TOL


def test_theorem5_gains_follow_depth():
    eps, k = 0.25, 4
    instance, chain = a.gen_theorem5(k, eps)
    psi = a.EMPTY
    for depth in range(k):
        for v in range(k):
            if v in psi:
                continue
            assert abs(gain(instance, v, psi) - eps ** (depth + 1)) <= TOL
        psi = psi.extended(depth, instance.realizations[0][depth])


def test_theorem5_is_monotone_and_submodular():
    instance, _ = a.gen_theorem5(3, 0.5)
    assert a.check_adaptive_monotone(instance).ok
    assert a.check_adaptive_submodular(instance).ok


def test_theorem4_gain_table_three_cases():
    k = 4
    instance, _ = a.gen_theorem4(k)
    # Case 1: at the empty history every element gains 1/k.
    for v in range(k):
        assert abs(gain(instance, v, a.EMPTY) - 1.0 / k) <= TOL
    # Case 2: after the chain prefix v1..v(i-1), the next chain element
    # gains 1/k while the element after it gains 2/k.
    psi = a.EMPTY
    for i in range(1, k - 1):
        psi = psi.extended(i - 1, instance.realizations[0][i - 1])
        assert abs(gain(instance, i, psi) - 1.0 / k) <= TOL
        assert abs(gain(instance, i + 1, psi) - 2.0 / k) <= TOL
    # Case 3: after v1..v(k-1) the last element gains 1/k.
    psi = psi.extended(k - 2, instance.realizations[0][k - 2])
    assert abs(gain(instance, k - 1, psi) - 1.0 / k) <= TOL


def test_theorem4_k3_doubled_gain_after_one_observation():
    instance, _ = a.gen_theorem4(3)
    for y in (0, 1):
        psi = a.PartialRealization(((0, y),))
        assert abs(gain(instance, 2, psi) - 2.0 / 3.0) <= TOL


def test_theorem4_requires_three_elements():
    with pytest.raises(a.InvalidParams):
        a.gen_theorem4(2)


def test_theorem5_parameter_validation():
    with pytest.raises(a.InvalidParams):
        a.gen_theorem5(0, 0.5)
    with pytest.raises(a.InvalidParams):
        a.gen_theorem5(3, 1.0)


def test_gen_random_is_deterministic():
    first = a.gen_random(3, 2, 11)
    second = a.gen_random(3, 2, 11)
    assert fileio.dumps(fileio.instance_to_dict(first)) == fileio.dumps(
        fileio.instance_to_dict(second)
    )
    different = a.gen_random(3, 2, 12)
    assert first.prior != different.prior


def test_gen_random_monotone_flag_guarantees_monotonicity():
    for seed in range(10):
        instance = a.gen_random(3, 2, seed, monotone=True)
        assert a.check_adaptive_monotone(instance).ok


def test_gen_random_parameter_validation():
    with pytest.raises(a.InvalidParams):
        a.gen_random(6, 2, 0)
    with pytest.raises(a.InvalidParams):
        a.gen_random(3, 4, 0)


def test_gen_random_three_states_supported():
    instance = a.gen_random(2, 3, 5)
    assert instance.num_states == 3
    assert instance.num_realizations == 9
    a.build_greedy(instance)


def test_random_policy_is_deterministic_and_valid():
    instance = a.gen_random(4, 2, 3)
    first = a.random_policy(instance, seed=9)
    second = a.random_policy(instance, seed=9)
    assert first == second
    a.validate_policy(instance, first)
    assert a.tree_height(first) <= instance.num_elements
