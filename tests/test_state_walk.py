"""The adaptive checks' layer walk and the per-instance utility rows.

``core.conditioned_states`` builds every positive-mass psi once, layer by
layer, by splitting its parent's state; it must yield the psi, priors and
gains of ``reference_conditioned_states`` in the same order, floats equal
bit for bit, and stop after the layer of ``max_size`` observations.
``core.utility_rows`` reads ``Instance.utility``, rows by element mask."""

import pytest

import adaptsel as a
from adaptsel import core, fileio
from conftest import coverage_demo, zero_prior_instance
from reference_walks import reference_conditioned_states


def _hexed(gains):
    return [(v, g.hex()) for v, g in gains.items()]


def _corpus():
    for shape in [(3, 2), (4, 2), (3, 3)]:
        for seed in range(20):
            for monotone in (True, False):
                yield a.gen_random(*shape, seed, monotone=monotone)
    hc = a.HypothesisClass(
        examples=("x1", "x2", "x3", "x4"),
        labels=(("0", "0", "1", "1"), ("0", "1", "0", "1"), ("1", "1", "0", "0"),
                ("1", "0", "1", "1"), ("0", "0", "0", "0")),
        prior=(0.4, 0.3, 0.15, 0.1, 0.05),
    )
    _bare, plain, modified = coverage_demo(hc)
    yield plain
    yield modified
    yield zero_prior_instance(3)


def test_layer_walk_equals_the_reference_states():
    compared = 0
    for instance in _corpus():
        states = list(core.conditioned_states(instance))
        reference = list(reference_conditioned_states(instance))
        assert [s.pairs for s in states] == [psi.pairs for psi, _, _ in reference]
        for state, (psi, vs, gains) in zip(states, reference):
            assert state.vs == vs
            assert _hexed(state.gains) == _hexed(gains)
            assert state.dom == sum(1 << e for e in psi.dom)
            assert state.support == sum(1 << i for i in vs.support)
            compared += 1
    assert compared > 5_000


@pytest.mark.parametrize("instance", [
    a.gen_random(3, 2, 4), a.gen_random(3, 2, 4, monotone=False),
    a.gen_random(2, 3, 1), a.gen_random(2, 3, 1, monotone=False),
    a.gen_random(4, 2, 7, monotone=False), zero_prior_instance(3),
], ids=["3x2", "3x2-non-monotone", "2x3", "2x3-non-monotone",
        "4x2-non-monotone", "zero-prior"])
def test_bounded_walk_is_the_prefix_up_to_max_size(instance):
    full = list(core.conditioned_states(instance))
    for j in [*range(instance.num_elements + 1), None]:
        bounded = list(core.conditioned_states(instance, max_size=j))
        prefix = [s for s in full if j is None or len(s.pairs) <= j]
        assert [s.pairs for s in bounded] == [s.pairs for s in prefix]
        assert [s.vs for s in bounded] == [s.vs for s in prefix]
        assert ([_hexed(s.gains) for s in bounded]
                == [_hexed(s.gains) for s in prefix])
        expected = a.positive_partial_realizations(instance, max_size=j)
        assert [s.pairs for s in bounded] == [psi.pairs for psi in expected]


def test_zero_prior_realizations_are_outside_every_support():
    instance = zero_prior_instance(3)
    zero = [i for i, p in enumerate(instance.prior) if p == 0.0]
    assert zero
    for state in core.conditioned_states(instance):
        assert all(not state.support >> i & 1 for i in zero)


def test_utility_rows_index_the_table_by_mask():
    """``rows[mask]`` holds the values a file lists for the subset whose
    element bits ``mask`` sets."""
    for instance in [a.gen_random(4, 3, 5), zero_prior_instance(1), a.gen_theorem5(3, 0.5)[0]]:
        rows = core.utility_rows(instance)
        assert rows is instance.utility
        assert len(rows) == 1 << instance.num_elements
        listed = {}
        for entry in fileio.instance_to_dict(instance)["utility"]["entries"]:
            listed.setdefault(tuple(entry["set"]), []).append(entry["value"])
        for mask, row in enumerate(rows):
            names = tuple(x for v, x in enumerate(instance.elements) if mask >> v & 1)
            assert list(row) == listed[names]


def test_with_utility_and_with_prior_get_fresh_caches():
    instance = a.gen_random(3, 2, 6)
    rows = core.utility_rows(instance)
    bits = core.state_bitsets(instance)
    doubled = tuple(tuple(2.0 * x for x in row) for row in instance.utility)
    scaled = instance.with_utility(doubled)
    assert core.utility_rows(scaled) is doubled
    base_gains = core.path_root(instance).gains
    assert core.path_root(scaled).gains == {v: 2.0 * g for v, g in base_gains.items()}
    lifted = instance.with_prior([0.0] + [1.0 / 7] * 7)
    assert core.state_bitsets(lifted) is not bits
    assert all(not b & 1 for row in core.state_bitsets(lifted) for b in row)
    assert core.utility_rows(lifted) is rows


def test_utility_rows_need_a_table():
    bare = a.instance_from_hypotheses(a.HypothesisClass(
        examples=("x1",), labels=(("0",), ("1",)), prior=(0.5, 0.5)))
    with pytest.raises(ValueError, match="no utility table"):
        core.utility_rows(bare)
    with pytest.raises(ValueError, match="no utility table"):
        bare.value((), 0)


@pytest.mark.parametrize("max_size", [-1, 1.5, True, False, "2"],
                         ids=["negative", "float", "true", "false", "str"])
@pytest.mark.parametrize("walk", [core.conditioned_states,
                                  a.positive_partial_realizations],
                         ids=["conditioned_states", "positive_partial_realizations"])
def test_both_walks_refuse_a_bad_max_size(walk, max_size):
    with pytest.raises(ValueError, match="max_size"):
        list(walk(a.gen_random(3, 2, 1), max_size=max_size))
