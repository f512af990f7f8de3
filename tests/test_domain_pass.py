"""The conditioning pass against the row-at-a-time walk it replaced.

``core._domains`` conditions one whole domain at a time on per-state
vectors; both adaptive checks read it, and ``core.conditioned_states``
yields its states.  Over a corpus fixed before the first run (identification
classes of the ``identify`` shapes under plain and modified coverage, a
class with a zero-prior hypothesis, a 3-label class, and ``gen_random``
draws, monotone and not), every verdict and witness must equal
``reference_walks``' row-at-a-time check at every tolerance, floats compared
by ``float.hex``; every state must carry the reference's pairs, key, prior
and gains; and every split a state carries from the walk must equal what
``core.split`` computes for it."""

import random

import pytest

import adaptsel as a
from adaptsel import core
from conftest import coverage_demo
from reference_walks import (
    reference_layer_check_monotone,
    reference_layer_check_submodular,
    reference_layer_states,
)

TOLS = [a.TOL, 0.05, 1.0]


def _identify_class(seed, examples, hypotheses):
    """A class of the ``identify`` benchmark's kind: distinct binary label
    rows and a prior of 0.05 plus a uniform draw, normalized."""
    rng = random.Random(f"domain-pass/{seed}")
    rows = rng.sample(range(2**examples), hypotheses)
    raw = [0.05 + rng.random() for _ in rows]
    return a.HypothesisClass(
        tuple(f"x{i + 1}" for i in range(examples)),
        tuple(tuple(str(row >> i & 1) for i in range(examples)) for row in rows),
        tuple(w / sum(raw) for w in raw),
    )


def _corpus():
    shapes = [(5, 12), (6, 16), (5, 20), (6, 24), (6, 28)]
    classes = [_identify_class(seed, *shape) for seed, shape in enumerate(shapes)]
    classes.append(a.HypothesisClass(  # one hypothesis at prior 0
        ("x1", "x2", "x3"),
        (("0", "0", "1"), ("0", "1", "0"), ("1", "0", "0"), ("1", "1", "1")),
        (0.5, 0.0, 0.3, 0.2)))
    classes.append(a.HypothesisClass(  # three labels
        ("x1", "x2", "x3"),
        (("0", "1", "2"), ("1", "2", "0"), ("2", "0", "1"), ("0", "0", "2"),
         ("2", "2", "2")),
        (0.3, 0.25, 0.2, 0.15, 0.1)))
    for hc in classes:
        _bare, plain, modified = coverage_demo(hc)
        yield plain
        yield modified
    for shape in [(3, 2), (4, 2), (3, 3)]:
        for seed in range(6):
            for monotone in (True, False):
                yield a.gen_random(*shape, seed, monotone=monotone)


CORPUS = list(_corpus())


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    return value


@pytest.mark.parametrize("check, reference", [
    (a.check_adaptive_monotone, reference_layer_check_monotone),
    (a.check_adaptive_submodular, reference_layer_check_submodular),
], ids=["monotone", "submodular"])
def test_checks_equal_the_row_at_a_time_walk(check, reference):
    failed = {tol: 0 for tol in TOLS}
    for instance in CORPUS:
        for tol in TOLS:
            result, expected = check(instance, tol), reference(instance, tol)
            assert result.ok == expected.ok
            assert _hexed(result.witness) == _hexed(expected.witness)
            failed[tol] += not expected.ok
    assert failed[a.TOL] >= 10 and failed[a.TOL] > failed[1.0]


def test_states_equal_the_row_at_a_time_walk():
    compared = 0
    for instance in CORPUS:
        states = list(core.conditioned_states(instance))
        reference = list(reference_layer_states(instance))
        assert len(states) == len(reference)
        for state, expected in zip(states, reference):
            assert (state.pairs, state.dom, state.support) == (
                expected.pairs, expected.dom, expected.support)
            assert state.vs.support == expected.vs.support
            assert ([w.hex() for w in state.vs.weights]
                    == [w.hex() for w in expected.vs.weights])
            assert _hexed(state.gains) == _hexed(expected.gains)
            compared += 1
    assert compared > 6_000


def test_the_walks_splits_equal_split():
    """Each state carries the split on every element e whose extension the
    walk reaches, as ``PathState.split`` returns it with the walk's states
    as its table: ``core.split``'s outcome order and masses, each part the
    walk's state of psi plus (e, y).  That state is ``core.split``'s part
    itself where e is psi plus (e, y)'s largest element."""
    carried = 0
    for instance in CORPUS:
        n, bits = instance.num_elements, core.state_bitsets(instance)
        for max_size in (None, n // 2):
            states = list(core.conditioned_states(instance, max_size))
            by_key = {(state.dom, state.support): state for state in states}
            for state in states:
                unobserved = {e for e in range(n) if not state.dom >> e & 1}
                last = max_size is not None and len(state.pairs) == max_size
                assert set(state.after) == (set() if last else unobserved)
                for e, outcomes in state.after.items():
                    expected = core.split(instance, state.vs, e)
                    assert list(outcomes) == list(expected)
                    for y, (mass, part) in outcomes.items():
                        assert mass.hex() == expected[y][0].hex()
                        key = (state.dom | 1 << e, state.support & bits[e][y])
                        assert by_key[key] is part
                        assert dict(part.pairs) == {**dict(state.pairs), e: y}
                        if e >= state.dom.bit_length():
                            assert part.vs == expected[y][1]
                    carried += 1
    assert carried > 10_000
