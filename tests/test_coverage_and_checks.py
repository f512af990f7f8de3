"""The bitset coverage DP and the running-minimum adaptive checks against
their first-principles references: the same trees, costs within 1e-12, the
same verdicts and the same witnesses; and the coverage optimum against
exhaustive enumeration of covering trees."""

import random

import pytest

import adaptsel as a
from conftest import corpus_instance, coverage_demo, splitting_and_partial
from reference_walks import (
    reference_check_adaptive_monotone,
    reference_check_adaptive_submodular,
    reference_optimal_coverage,
)

TOL = 1e-9


def random_hypotheses(seed, examples, hypotheses, zero_prior=0):
    """A random binary hypothesis class; the first ``zero_prior`` hypotheses
    (in label order) get prior 0."""
    rng = random.Random(seed)
    labels = set()
    while len(labels) < hypotheses:
        labels.add(tuple(rng.choice("01") for _ in range(examples)))
    weights = [0.0 if h < zero_prior else rng.random() + 0.05
               for h in range(hypotheses)]
    total = sum(weights)
    return a.HypothesisClass(
        tuple(f"x{i}" for i in range(examples)),
        tuple(sorted(labels)),
        tuple(w / total for w in weights),
    )


def _zero_prior_instance():
    """corpus_instance(3) with two realizations at prior 0."""
    instance = corpus_instance(3, num_elements=3)
    prior = list(instance.prior)
    prior[0] = prior[5] = 0.0
    total = sum(prior)
    return instance.with_prior(tuple(p / total for p in prior))


def coverage_cases(demo_hypotheses, two_feature_hypotheses):
    """(name, instance) coverage problems: the coverage forms of the
    25-seed corpus, random hypothesis classes under the plain and the
    modified prior, 3-state draws, and instances with zero-prior
    realizations."""
    bare = []
    for seed in range(25):
        bare.append((f"corpus{seed}", corpus_instance(seed)))
    for seed in range(12):
        hc = random_hypotheses(seed, 4 + seed % 3, 6 + seed % 10)
        bare.append((f"hc{seed}", a.instance_from_hypotheses(hc)))
    for seed in range(4):
        bare.append((f"three-state{seed}", a.gen_random(3, 3, seed)))
    for hc in (demo_hypotheses, two_feature_hypotheses,
               random_hypotheses(99, 4, 8, zero_prior=2)):
        bare.append(("fixture", coverage_demo(hc)[0]))
    bare.append(("zero-prior", _zero_prior_instance()))
    cases = []
    for name, instance in bare:
        cases.append((name + "/plain", a.coverage_instance(instance)))
        cases.append((name + "/modified",
                      a.coverage_instance(instance, modified=True)))
    return cases


def _same_coverage(instance, **kwargs):
    try:
        expected = reference_optimal_coverage(instance, **kwargs)
    except a.CoverageUnreachable:
        with pytest.raises(a.CoverageUnreachable):
            a.optimal_coverage(instance, **kwargs)
        return None
    tree, cost = a.optimal_coverage(instance, **kwargs)
    assert tree == expected[0]
    assert abs(cost - expected[1]) <= 1e-12
    return cost


def test_bitset_coverage_dp_equals_reference(demo_hypotheses,
                                             two_feature_hypotheses):
    cases = coverage_cases(demo_hypotheses, two_feature_hypotheses)
    assert any(p == 0.0 for _name, inst in cases for p in inst.prior)
    for name, instance in cases:
        for pruned in (True, False):
            assert _same_coverage(instance, pruned=pruned) is not None, name


def test_bitset_coverage_dp_equals_reference_on_capped_utilities():
    """The corpus's own utilities capped at the least full-set value Q, so
    every realization reaches Q and elements that split nothing can still
    raise the minimal utility; the uncapped maximum is unreachable in
    both."""
    for seed in range(25):
        instance = corpus_instance(seed, monotone=seed % 2 == 0)
        with pytest.raises(a.CoverageUnreachable):
            a.optimal_coverage(instance)
        assert _same_coverage(instance) is None
        q = min(instance.utility[-1])
        capped = instance.with_utility(tuple(
            tuple(min(value, q) for value in row) for row in instance.utility))
        for pruned in (True, False):
            assert _same_coverage(capped, q=q, pruned=pruned) is not None


def test_pruning_keeps_a_splitting_element_that_raises_nothing():
    """Observing a identifies the realization but is worth nothing itself;
    d is worth 0.1 everywhere and splits nothing.  The cheapest cover asks
    a, then b or c (cost 2); a filter that keeps only d pays 3."""
    instance = splitting_and_partial()
    for pruned in (True, False):
        tree, cost = a.optimal_coverage(instance, pruned=pruned)
        assert tree.element == 0 and cost == 2.0
        assert _same_coverage(instance, pruned=pruned) == cost


def _covers(instance, tree, q):
    return all(
        abs(instance.value(trace.selected, i) - q) <= TOL
        for i, p in enumerate(instance.prior) if p > 0.0
        for trace in a.run(instance, tree, i)
    )


def test_coverage_optimum_is_the_cheapest_enumerated_covering_tree(
        demo_hypotheses, two_feature_hypotheses):
    """Independent of both DPs: the minimum c_avg over every enumerated
    covering tree.  Dropping a node that splits nothing never raises a
    coverage tree's cost, so some optimum has height below the number m of
    positive-prior realizations, and enumerating height min(|V|, m - 1)
    suffices.  The DP keeps the first of candidates tied within tol, so
    its cost may exceed that minimum by at most tol."""
    instances = [coverage_demo(hc)[1] for hc in (demo_hypotheses,
                                                 two_feature_hypotheses)]
    shapes = [(3, 3), (3, 5), (3, 7), (3, 8), (4, 4), (4, 4)]
    for seed, (examples, hypotheses) in enumerate(shapes):
        hc = random_hypotheses(seed, examples, hypotheses)
        bare = a.instance_from_hypotheses(hc)
        instances += [a.coverage_instance(bare),
                      a.coverage_instance(bare, modified=True)]
    instances.append(a.coverage_instance(a.gen_random(2, 3, 1)))
    instances.append(a.coverage_instance(_zero_prior_instance()))
    for instance in instances:
        assert instance.num_elements <= 4
        positive = sum(p > 0.0 for p in instance.prior)
        height = min(instance.num_elements, positive - 1)
        best = min(
            a.c_avg(instance, tree)
            for tree in a.enumerate_policies(instance, height)
            if _covers(instance, tree, 1.0)
        )
        for pruned in (True, False):
            tree, cost = a.optimal_coverage(instance, q=1.0, pruned=pruned)
            assert abs(cost - best) <= TOL
            assert _covers(instance, tree, 1.0)
            assert abs(a.c_avg(instance, tree) - cost) <= TOL


def check_cases(demo_hypotheses, two_feature_hypotheses):
    cases = [corpus_instance(seed) for seed in range(25)]
    cases += [corpus_instance(seed, monotone=False) for seed in range(25)]
    cases += [a.gen_random(3, 3, seed) for seed in range(4)]
    cases += [a.gen_random(4, 2, seed, monotone=False) for seed in range(4)]
    cases += [a.gen_theorem4(3)[0], a.gen_theorem5(3, 0.5)[0],
              a.gen_theorem5(4, 0.25)[0], _zero_prior_instance()]
    for hc in (demo_hypotheses, two_feature_hypotheses,
               random_hypotheses(5, 5, 12), random_hypotheses(6, 4, 9, 2)):
        cases += coverage_demo(hc)[1:]
    return cases


def _same_verdict(result, expected):
    assert result.ok == expected.ok
    if expected.ok:
        assert result.witness is None
        return
    assert result.witness.keys() == expected.witness.keys()
    for key, value in expected.witness.items():
        if key.startswith("gain"):
            assert abs(result.witness[key] - value) <= 1e-12
        else:
            assert result.witness[key] == value


@pytest.mark.parametrize("check, reference", [
    (a.check_adaptive_monotone, reference_check_adaptive_monotone),
    (a.check_adaptive_submodular, reference_check_adaptive_submodular),
])
def test_adaptive_checks_equal_reference(check, reference, demo_hypotheses,
                                         two_feature_hypotheses):
    cases = check_cases(demo_hypotheses, two_feature_hypotheses)
    verdicts = []
    for instance in cases:
        expected = reference(instance)
        _same_verdict(check(instance), expected)
        verdicts.append(expected.ok)
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 10


def _split_gain(instance, described, element):
    """Delta(element | psi) for the psi a witness describes, its prior
    conditioned by ``core.split`` along psi's pairs in element order."""
    pairs = sorted((instance.element_index(e), instance.states.index(y))
                   for e, y in described.items())
    vs = a.version_space(instance, a.EMPTY)
    for e, y in pairs:
        vs = a.core.split(instance, vs, e)[y][1]
    psi = a.PartialRealization(tuple(pairs))
    return a.core.gains(instance, psi, vs)[instance.element_index(element)]


def test_check_witnesses_are_priced_on_split_priors():
    """Every state the checks price is one split part of its parent's (psi
    without its last pair), so each witness gain equals, bit for bit, the
    gain under the prior split along psi: on some of these instances that
    rounds differently from conditioning psi from scratch."""
    rounded_differently = 0
    for shape in ((3, 2), (4, 2), (3, 3)):
        for seed in range(40):
            instance = a.gen_random(*shape, seed, monotone=False)
            monotone = a.check_adaptive_monotone(instance)
            witness = monotone.witness
            gain = _split_gain(instance, witness["psi"], witness["element"])
            assert witness["gain"] == gain
            scratch = reference_check_adaptive_monotone(instance).witness
            rounded_differently += scratch["gain"] != gain
            submodular = a.check_adaptive_submodular(instance, tol=0.05)
            if submodular.ok:
                continue
            witness = submodular.witness
            late = _split_gain(instance, witness["psi_prime"], witness["element"])
            early = _split_gain(instance, witness["psi"], witness["element"])
            assert (witness["gain_late"], witness["gain_early"]) == (late, early)
            scratch = reference_check_adaptive_submodular(instance, tol=0.05)
            rounded_differently += (scratch.witness["gain_late"],
                                    scratch.witness["gain_early"]) != (late, early)
    assert rounded_differently >= 10


def _table(num_elements, values):
    """One-realization rows by element mask: ``values`` by subset, else 0."""
    return tuple((values.get(tuple(v for v in range(num_elements) if mask >> v & 1),
                             0.0),) for mask in range(1 << num_elements))


def test_submodularity_check_compares_beyond_single_steps():
    """v's gain rises by 0.6 per observation; with tol = 1 no single step
    fails, but psi = {} against psi' = {a, b} does."""
    instance = a.Instance(("a", "b", "v"), ("s",), ((0, 0, 0),), (1.0,))
    instance = instance.with_utility(_table(3, {
        (0, 2): 0.6, (1, 2): 0.6, (0, 1, 2): 1.2,
    }))
    expected = reference_check_adaptive_submodular(instance, tol=1.0)
    assert expected.witness == {
        "psi": {}, "psi_prime": {"a": "s", "b": "s"}, "element": "v",
        "gain_early": 0.0, "gain_late": 1.2,
    }
    _same_verdict(a.check_adaptive_submodular(instance, tol=1.0), expected)
    assert a.check_adaptive_submodular(instance, tol=1.3).ok
