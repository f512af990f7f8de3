"""Core primitives: instances, conditioning, gains, exact expectations."""

import itertools

import pytest

import adaptsel as a
from conftest import corpus_instance, gain

TOL = 1e-9


def brute_force_marginal_gain(instance, element, psi):
    """Independent oracle: compute the gain directly from the prior, without
    the library's version-space machinery."""
    total = 0.0
    mass = 0.0
    for i, p in enumerate(instance.prior):
        if p <= 0.0:
            continue
        if any(instance.realizations[i][e] != y for e, y in psi.pairs):
            continue
        before = instance.value(psi.dom, i)
        after = instance.value(psi.dom + (element,), i)
        total += p * (after - before)
        mass += p
    return total / mass


def test_value_reads_a_subset_in_any_order_and_with_repeats():
    instance = corpus_instance(0)
    assert instance.num_elements == 2
    for i in range(instance.num_realizations):
        assert instance.value([], i) == instance.utility[0][i]
        for subset in ([1, 0], (0, 1), (1, 1, 0)):
            assert instance.value(subset, i) == instance.utility[0b11][i]


@pytest.mark.parametrize("subset, phi_index, message", [
    ((0,), -1, "unknown realization index -1"),
    ((0,), 4, "unknown realization index 4"),
    ((2,), 0, "unknown element index 2"),
    ((0, -1), 0, "unknown element index -1"),
], ids=["realization-minus-1", "realization-past-end", "element-past-end",
        "element-minus-1"])
def test_value_refuses_an_index_outside_the_instance(subset, phi_index, message):
    """Realization -1 once read the last realization's value, element 2 of
    two raised a bare ``IndexError`` and element -1 "negative shift
    count"."""
    with pytest.raises(ValueError, match=message):
        a.gen_random(2, 2, 1).value(subset, phi_index)


def test_extended_rejects_an_observed_element():
    psi = a.EMPTY.extended(2, 1).extended(0, 0)
    assert psi == a.PartialRealization(((2, 1), (0, 0)))
    assert hash(psi) == hash(a.PartialRealization(((2, 1), (0, 0))))
    assert psi.dom == (2, 0)
    for state in (0, 1):
        with pytest.raises(a.MalformedPolicy, match="observed twice"):
            psi.extended(0, state)
    with pytest.raises(a.MalformedPolicy):
        a.PartialRealization(((2, 1), (2, 0)))


def test_version_space_weights_sum_to_one():
    for seed in range(10):
        instance = corpus_instance(seed)
        for psi in a.positive_partial_realizations(instance):
            vs = a.version_space(instance, psi)
            assert abs(sum(vs.weights) - 1.0) <= TOL


def test_version_space_empty_raises():
    instance = corpus_instance(0)
    # Force a zero-mass observation by zeroing out all realizations with
    # state 1 at element 0.
    prior = tuple(
        0.0 if phi[0] == 1 else p
        for phi, p in zip(instance.realizations, instance.prior)
    )
    total = sum(prior)
    instance = instance.with_prior(tuple(p / total for p in prior))
    with pytest.raises(a.EmptyVersionSpace):
        a.version_space(instance, a.PartialRealization(((0, 1),)))


@pytest.mark.parametrize("pair", [(99, 0), (-1, 0), (3, 0), (0, 2), (0, -1),
                                  (True, 0), (0, 1.0)],
                         ids=["element-99", "element-negative", "element-3",
                              "state-2", "state-negative", "element-bool",
                              "state-float"])
@pytest.mark.parametrize("condition", [a.version_space, a.core.path_state],
                         ids=["version_space", "path_state"])
def test_a_psi_naming_no_element_or_state_is_refused(condition, pair):
    """Once an ``IndexError``, a "negative shift count", or a support read
    off the wrong element or state by Python's negative indexing."""
    instance = a.gen_random(3, 2, 1)
    with pytest.raises(ValueError, match="psi observes an unknown element or state"):
        condition(instance, a.PartialRealization(((2, 0), pair)))


BAD_TOLS = [float("nan"), float("inf"), -1e-3, True]


@pytest.mark.parametrize("tol", BAD_TOLS, ids=["nan", "inf", "negative", "true"])
@pytest.mark.parametrize("check", [a.check_adaptive_monotone,
                                   a.check_adaptive_submodular],
                         ids=["monotone", "submodular"])
def test_adaptive_checks_refuse_a_bad_tolerance(check, tol):
    """A NaN tolerance once made every comparison false, so a non-monotone
    instance passed."""
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        check(a.gen_random(3, 2, 0, monotone=False), tol=tol)


def test_split_matches_conditioning_from_scratch(thm4, thm5):
    """Each part of core.split equals the version space of the extended
    observation, and each mass the outcome probability taken from the raw
    prior; the masses sum to 1."""
    instances = [corpus_instance(seed) for seed in range(25)]
    instances += [thm4[0], thm5[0], a.gen_theorem5(4, 0.25)[0]]
    for instance in instances:
        for psi in a.positive_partial_realizations(instance):
            vs = a.version_space(instance, psi)
            consistent = [
                i for i, p in enumerate(instance.prior)
                if p > 0.0
                and all(instance.realizations[i][e] == y for e, y in psi.pairs)
            ]
            psi_mass = sum(instance.prior[i] for i in consistent)
            for v in range(instance.num_elements):
                if v in psi:
                    continue
                parts = a.core.split(instance, vs, v)
                assert abs(sum(mass for mass, _ in parts.values()) - 1.0) <= 1e-12
                states = {instance.realizations[i][v] for i in consistent}
                assert set(parts) == states
                for y, (mass, part) in parts.items():
                    raw = sum(
                        instance.prior[i] for i in consistent
                        if instance.realizations[i][v] == y
                    )
                    assert abs(mass - raw / psi_mass) <= 1e-12
                    reference = a.version_space(instance, psi.extended(v, y))
                    assert part.support == reference.support
                    for w, w_ref in zip(part.weights, reference.weights):
                        assert abs(w - w_ref) <= 1e-12


def test_marginal_gain_matches_brute_force():
    for seed in range(15):
        instance = corpus_instance(seed)
        for psi in a.positive_partial_realizations(instance):
            for v in range(instance.num_elements):
                if v in psi:
                    continue
                expected = brute_force_marginal_gain(instance, v, psi)
                assert abs(gain(instance, v, psi) - expected) <= TOL


def test_marginal_gain_of_observed_element_is_zero():
    instance = corpus_instance(3)
    psi = a.PartialRealization(((0, instance.realizations[0][0]),))
    assert 0 not in a.core.gains(instance, psi, a.version_space(instance, psi))


def test_policy_gain_from_empty_equals_f_avg_shift():
    for seed in range(10):
        instance = corpus_instance(seed)
        policy = a.build_greedy(instance)
        base = sum(
            p * instance.value((), i)
            for i, p in enumerate(instance.prior)
            if p > 0.0
        )
        gain = a.policy_gain(instance, policy, a.EMPTY)
        assert abs(gain - (a.f_avg(instance, policy) - base)) <= TOL


def test_f_avg_c_avg_affine_in_mixture_weight():
    instance, chain = a.gen_theorem5(3, 0.5)
    tau = 0.25
    strict = a.ThresholdSubPolicy(chain, tau, 1.0)
    weak = a.ThresholdSubPolicy(chain, tau, 0.0)
    for rho in (0.0, 0.3, 0.5, 0.8, 1.0):
        mixed = a.ThresholdSubPolicy(chain, tau, rho)
        for measure in (a.f_avg, a.c_avg):
            blended = (1 - rho) * measure(instance, weak) + rho * measure(
                instance, strict
            )
            assert abs(measure(instance, mixed) - blended) <= TOL


def test_monotone_corpus_passes_monotone_check():
    for seed in range(15):
        instance = corpus_instance(seed, monotone=True)
        assert a.check_adaptive_monotone(instance).ok


def test_non_monotone_instance_fails_with_witness():
    found = False
    for seed in range(30):
        instance = corpus_instance(seed, monotone=False)
        result = a.check_adaptive_monotone(instance)
        if not result.ok:
            assert result.witness is not None
            assert result.witness["gain"] < -TOL
            found = True
            break
    assert found, "no non-monotone draw in 30 seeds"


def test_submodular_check_accepts_theorem5(thm5):
    instance, _ = thm5
    assert a.check_adaptive_submodular(instance).ok


def test_submodular_check_rejects_theorem4_with_witness(thm4):
    instance, _ = thm4
    result = a.check_adaptive_submodular(instance)
    assert not result.ok
    witness = result.witness
    assert witness["psi"] == {}
    assert set(witness["psi_prime"]) == {"v1"}
    assert witness["element"] == "v3"
    assert abs(witness["gain_early"] - 1.0 / 3.0) <= TOL
    assert abs(witness["gain_late"] - 2.0 / 3.0) <= TOL


def test_instance_validation_rejects_bad_priors():
    base = corpus_instance(0)
    with pytest.raises(ValueError):
        base.with_prior((0.5,) * base.num_realizations)
    with pytest.raises(ValueError):
        a.Instance(
            elements=("v1",),
            states=("0", "1"),
            realizations=((0,), (0,)),
            prior=(0.5, 0.5),
        )


@pytest.mark.parametrize("bad, message", [
    (((0.5,), (1,)), "state indices must be ints"),
    (((0,), (1.0,)), "state indices must be ints"),
    (((0,), (True,)), "state indices must be ints"),
    (((0,), (2,)), "unknown state index"),
    (((0,), (-1,)), "unknown state index"),
    (((0,), (1, 0)), "arity does not match"),
])
def test_instance_validation_rejects_bad_state_indices(bad, message):
    """A state index is an int below |Y|: a fractional one would pass the
    range check and fail later in ``state_bitsets``."""
    with pytest.raises(ValueError, match=message):
        a.Instance(elements=("v1",), states=("0", "1"), realizations=bad,
                   prior=(0.5, 0.5))


@pytest.mark.parametrize("prior, message", [
    ((None, 1.0), "prior entry 0 is not a number: None"),
    (("0.5", 0.5), "prior entry 0 is not a number: '0.5'"),
    ((0.0, True), "prior entry 1 is not a number: True"),
    ((0.5, float("nan")), "non-finite prior probability"),
    ((10**400, 1.0), "non-finite prior probability"),
    ((1.5, -0.5), "negative prior probability"),
], ids=["none", "str", "bool", "nan", "huge-int", "negative"])
def test_instance_validation_rejects_a_bad_prior(prior, message):
    """A prior entry that is not a number once raised an untyped
    ``TypeError`` from ``math.isfinite``, an int beyond the float range an
    ``OverflowError``, and a bool ran as 0 or 1."""
    with pytest.raises(ValueError, match=message):
        a.Instance(("v",), ("s", "t"), ((0,), (1,)), prior)
    with pytest.raises(ValueError, match=message):
        a.gen_random(1, 2, 0).with_prior(prior)


def test_instance_validation_rejects_bad_utility():
    """Each bad table is refused by ``with_utility`` and by the full check,
    with a message that names what is wrong.  A dict by subset is the file
    form, not the table's."""
    base = corpus_instance(0)
    rows, m = base.utility, base.num_realizations
    bare = (base.elements, base.states, base.realizations, base.prior)
    by_subset = {subset: rows[mask] for subset, mask in a.core.subsets(2)}
    for table, message in [
        (rows[1:], "utility has 3 rows, expected 4"),  # a subset missing
        (rows + rows[:1], "utility has 5 rows, expected 4"),
        ((rows[0][:-1],) + rows[1:], "row length does not match realizations"),
        (tuple(row[0] for row in rows), "utility rows must be tuples"),  # flat
        (((-1.0,) * m,) + rows[1:], "negative utility value"),
        (by_subset, "utility must be a tuple of rows by element mask, not a dict"),
    ]:
        with pytest.raises(ValueError, match=message):
            base.with_utility(table)
        with pytest.raises(ValueError, match=message):
            a.Instance(*bare, utility=table)


def test_instance_validation_rejects_non_finite_numbers():
    base = corpus_instance(0)
    nan_prior = (float("nan"),) + base.prior[1:]
    with pytest.raises(ValueError):
        base.with_prior(nan_prior)
    for bad in (float("inf"), float("nan"), 10**400):
        table = ((bad,) * base.num_realizations,) + base.utility[1:]
        with pytest.raises(ValueError, match="non-finite utility value"):
            base.with_utility(table)
    with pytest.raises(ValueError):
        a.HypothesisClass(
            examples=("x1",),
            labels=(("0",), ("1",)),
            prior=(float("nan"), 1.0),
        )


def test_positive_partial_realizations_cover_all_observable_patterns():
    instance = corpus_instance(1)
    nodes = list(a.positive_partial_realizations(instance, max_size=2))
    keys = {psi.key() for psi in nodes}
    assert len(keys) == len(nodes)
    # Every 2-subset pattern of every positive realization must appear.
    for i, p in enumerate(instance.prior):
        if p <= 0.0:
            continue
        phi = instance.realizations[i]
        for dom in itertools.combinations(range(instance.num_elements), 2):
            key = frozenset((e, phi[e]) for e in dom)
            assert key in keys
