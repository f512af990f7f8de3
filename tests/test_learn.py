"""Active learning: coverage utility, modified prior, GBS."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import adaptsel as a
from adaptsel.core import CoverageTable
from conftest import coverage_demo
from reference_walks import reference_coverage_utility
from test_coverage_and_checks import random_hypotheses

TOL = 1e-9


@st.composite
def hypothesis_classes(draw):
    """Up to 4 examples, 2 or 3 labels, up to 8 distinct hypotheses, and a
    prior that may put zero mass on some of them."""
    n = draw(st.integers(1, 4))
    labels = st.sampled_from(draw(st.sampled_from(["01", "012"])))
    rows = draw(st.lists(st.tuples(*[labels] * n), min_size=1, max_size=8,
                         unique=True))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=len(rows),
                        max_size=len(rows)).filter(lambda ws: sum(ws) > 0.01))
    total = sum(raw)
    return a.HypothesisClass(tuple(f"x{i}" for i in range(n)), tuple(rows),
                             tuple(w / total for w in raw))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(hypothesis_classes())
def test_coverage_utility_equals_pairwise_reference(hc):
    bare = a.instance_from_hypotheses(hc)
    assert a.coverage_utility(bare) == reference_coverage_utility(bare)
    modified = a.modified_prior(bare.prior)
    assert a.coverage_utility(bare, modified) == reference_coverage_utility(
        bare, modified
    )


def _three_label_class(seed, examples, hypotheses):
    """A random class over labels a, b, c with its first hypothesis at
    prior 0."""
    rng = random.Random(seed)
    rows = set()
    while len(rows) < hypotheses:
        rows.add(tuple(rng.choice("abc") for _ in range(examples)))
    weights = [0.0] + [rng.random() + 0.05 for _ in range(hypotheses - 1)]
    return a.HypothesisClass(tuple(f"x{i}" for i in range(examples)),
                             tuple(sorted(rows)),
                             tuple(w / sum(weights) for w in weights))


def test_coverage_utility_equals_reference_bit_for_bit(demo_hypotheses,
                                                      two_feature_hypotheses):
    """Bitset refinement against the pairwise scans: the same
    keys in the same order and float.hex-identical rows, zero-prior rows
    included, under the plain and the modified prior."""
    classes = (demo_hypotheses, two_feature_hypotheses,
               random_hypotheses(99, 4, 8, zero_prior=2),
               _three_label_class(7, 4, 11))
    assert len(a.instance_from_hypotheses(classes[-1]).states) == 3
    for hc in classes:
        bare = a.instance_from_hypotheses(hc)
        for prior in (bare.prior, a.modified_prior(bare.prior)):
            table = a.coverage_utility(bare, prior)
            expected = reference_coverage_utility(bare, prior)
            assert [[v.hex() for v in row] for row in table] == [
                [v.hex() for v in row] for row in expected]


def test_coverage_table_keeps_its_prior_through_copy_and_pickle(demo_hypotheses):
    """A tuple subclass whose ``__new__`` takes the prior could not be
    copied or pickled until it said what to pass back to ``__new__``."""
    instance = a.coverage_instance(a.instance_from_hypotheses(demo_hypotheses),
                                   modified=True)
    for again in (copy.copy(instance), copy.deepcopy(instance),
                  pickle.loads(pickle.dumps(instance))):
        assert isinstance(again.utility, CoverageTable)
        assert again.utility == instance.utility
        assert again.utility.prior == instance.utility.prior


def test_coverage_utility_empty_set_is_prior_mass(demo_hypotheses):
    bare = a.instance_from_hypotheses(demo_hypotheses)
    table = a.coverage_utility(bare)
    for i, p in enumerate(bare.prior):
        assert abs(table[0][i] - p) <= TOL


def test_coverage_utility_identification_reaches_one(demo_hypotheses):
    bare = a.instance_from_hypotheses(demo_hypotheses)
    table = a.coverage_utility(bare)
    for i in range(bare.num_realizations):
        assert abs(table[-1][i] - 1.0) <= TOL


def test_coverage_utility_two_hypotheses_separated_by_one_example():
    hc = a.HypothesisClass(("x1",), (("0",), ("1",)), (0.5, 0.5))
    bare = a.instance_from_hypotheses(hc)
    table = a.coverage_utility(bare)
    assert abs(table[0b1][0] - 1.0) <= TOL
    assert abs(table[0b1][1] - 1.0) <= TOL


def test_coverage_utility_values_in_unit_interval(two_feature_hypotheses):
    bare = a.instance_from_hypotheses(two_feature_hypotheses)
    table = a.coverage_utility(bare)
    for row in table:
        for value in row:
            assert -TOL <= value <= 1.0 + TOL


def test_coverage_utility_is_monotone_and_submodular(demo_hypotheses,
                                                     two_feature_hypotheses):
    for hc in (demo_hypotheses, two_feature_hypotheses):
        _, cov_plain, cov_mod = coverage_demo(hc)
        for instance in (cov_plain, cov_mod):
            assert a.check_adaptive_monotone(instance).ok
            assert a.check_adaptive_submodular(instance).ok


def test_modified_prior_uniform_is_unchanged():
    prior = (0.25, 0.25, 0.25, 0.25)
    assert a.modified_prior(prior) == prior


def test_modified_prior_two_point_closed_form():
    lifted = a.modified_prior((0.9, 0.1))
    assert abs(lifted[0] - 0.9 / 1.15) <= TOL
    assert abs(lifted[1] - 0.25 / 1.15) <= TOL


def test_modified_prior_lifts_zero_mass_and_bounds():
    prior = (0.7, 0.3, 0.0, 0.0)
    m = len(prior)
    lifted = a.modified_prior(prior)
    z = sum(max(p, 1.0 / (m * m)) for p in prior)
    assert 1.0 <= z <= 1.0 + 1.0 / m
    assert min(lifted) >= 1.0 / (2 * m * m) - TOL
    assert abs(sum(lifted) - 1.0) <= TOL
    assert lifted[2] > 0.0


def test_instance_from_hypotheses_shape(demo_hypotheses):
    bare = a.instance_from_hypotheses(demo_hypotheses)
    assert bare.elements == ("x1", "x2")
    assert bare.states == ("0", "1")
    assert bare.num_realizations == 3
    assert bare.utility is None


def test_duplicate_hypotheses_rejected():
    with pytest.raises(a.DuplicateHypothesis):
        a.HypothesisClass(
            ("x1",), (("0",), ("0",)), (0.5, 0.5)
        )


def test_hypothesis_class_refuses_a_repeated_example():
    """A class with two examples of one name once built, and failed later
    as an instance with duplicate element identifiers."""
    with pytest.raises(ValueError, match="duplicate example 'x1'"):
        a.HypothesisClass(("x1", "x2", "x1"), (("0", "1", "0"), ("1", "0", "1")),
                          (0.5, 0.5))


@pytest.mark.parametrize("prior, message", [
    ((1.5, -0.5), "negative prior probability"),
    ((float("nan"), 1.0), "non-finite prior probability"),
    ((1.0,), "prior length does not match"),
    ((0.5, 0.25), "prior sums to 0.75, not 1"),
    (("0.5", 0.5), "prior entry 0 is not a number: '0.5'"),
    ((0.0, True), "prior entry 1 is not a number: True"),
], ids=["negative", "nan", "short", "sum", "str", "bool"])
def test_hypothesis_class_refuses_a_bad_prior(prior, message):
    """The prior passes the rule an instance's prior passes; a negative
    entry was once let through to fail inside ``Instance``."""
    with pytest.raises(ValueError, match=message):
        a.HypothesisClass(("x1",), (("0",), ("1",)), prior)


def test_gbs_demo_root_and_cost(demo_hypotheses):
    _, cov_plain, cov_mod = coverage_demo(demo_hypotheses)
    gbs = a.gbs_policy(cov_mod)
    assert cov_mod.elements[gbs.element] == "x1"
    assert abs(a.c_avg(cov_plain, gbs) - 5.0 / 3.0) <= TOL


def test_gbs_single_hypothesis_is_immediate():
    hc = a.HypothesisClass(("x1",), (("0",),), (1.0,))
    _, _, cov_mod = coverage_demo(hc)
    assert a.gbs_policy(cov_mod) == a.TERMINAL


def test_gbs_two_hypotheses_single_query():
    hc = a.HypothesisClass(("x1",), (("0",), ("1",)), (0.5, 0.5))
    _, cov_plain, cov_mod = coverage_demo(hc)
    gbs = a.gbs_policy(cov_mod)
    assert abs(a.c_avg(cov_plain, gbs) - 1.0) <= TOL


def test_gbs_requires_attached_utility(demo_hypotheses):
    bare = a.instance_from_hypotheses(demo_hypotheses)
    with pytest.raises(ValueError):
        a.gbs_policy(bare)


def test_gbs_identifies_on_every_modified_prior_branch(two_feature_hypotheses):
    bare, _, cov_mod = coverage_demo(two_feature_hypotheses)
    gbs = a.gbs_policy(cov_mod)
    for phi_index in range(cov_mod.num_realizations):
        for trace in a.run(cov_mod, gbs, phi_index):
            assert abs(cov_mod.value(trace.selected, phi_index) - 1.0) <= TOL


def test_cost_relations_between_priors(demo_hypotheses, two_feature_hypotheses):
    for hc in (demo_hypotheses, two_feature_hypotheses):
        bare, cov_plain, cov_mod = coverage_demo(hc)
        m = bare.num_realizations
        gbs = a.gbs_policy(cov_mod)
        opt, _ = a.optimal_coverage(cov_plain)
        for policy in (gbs, opt):
            cost_p = a.c_avg(cov_plain, policy)
            cost_mod = a.c_avg(cov_mod, policy)
            assert cost_p <= 2.0 * cost_mod + TOL
            if a.policy_height(cov_plain, policy) <= m:
                assert cost_mod <= cost_p + 1.0 + TOL
