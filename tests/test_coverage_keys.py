"""The exact coverage pass keys by support on a coverage utility.

On a table that ``learn.coverage_utility`` built under the instance's own
prior, ``optimal_coverage``'s exact pass memoizes one state per support and
tries only the elements that split it.  These tests hold that pass to the
reference that tries every unobserved element from every partial
realization, and to the (observed elements, support) pass on a plain-tuple
copy of the same table; and they check which inputs take which keys.

The corpus is fixed: zero-prior realizations, 3-label classes, priors on a
grid of quarters (exact ties) and a prior below ``TOL``.  Where the exact
pass keys by support, the pruned pass is that same solve; a second fixed
corpus, the 60 classes of the ``identify`` benchmark pool, holds it to the
state-keyed and the reference pruned passes.
"""

import itertools
import random

import pytest

import adaptsel as a
from adaptsel import fileio, oracle
from adaptsel.core import CoverageTable
from reference_walks import reference_optimal_coverage

PRIORS = ("zero", "quarters", "tiny", "random")


def structured_class(seed):
    """A hypothesis class of 3 to 5 examples over 2 or 3 labels with 3 to 8
    distinct labelings, under the prior kind ``PRIORS[seed % 4]``."""
    rng = random.Random(seed)
    examples = 3 + seed % 3
    alphabet = "012"[:2 + seed // 4 % 2]
    rows = rng.sample(list(itertools.product(alphabet, repeat=examples)),
                      3 + seed % 6)
    kind = PRIORS[seed % 4]
    if kind == "quarters":  # four quarters over the rows: ties and zeros
        weights = [0] * len(rows)
        for _ in range(4):
            weights[rng.randrange(len(rows))] += 1
        prior = [w / 4 for w in weights]
    else:
        weights = [rng.random() + 0.05 for _ in rows]
        if kind == "zero":
            weights[0] = weights[-1] = 0.0
        if kind == "tiny":
            weights[-1] = 0.0
        total = sum(weights)
        prior = [w / total for w in weights]
        if kind == "tiny":
            prior = [p * (1.0 - 1e-10) for p in prior[:-1]] + [1e-10]
    return a.HypothesisClass(tuple(f"x{i}" for i in range(examples)),
                             tuple(rows), tuple(prior))


def corpus():
    """(name, coverage instance) under the plain and the modified prior."""
    cases = []
    for seed in range(48):
        bare = a.instance_from_hypotheses(structured_class(seed))
        for modified in (False, True):
            name = f"{seed}-{PRIORS[seed % 4]}-{'modified' if modified else 'plain'}"
            cases.append((name, a.coverage_instance(bare, modified=modified)))
    return cases


def solve_with_keys(monkeypatch, instance, **kwargs):
    """``optimal_coverage(instance, **kwargs)`` and the keys of the choices
    its tree is built from, which are its memo keys."""
    seen = []
    original = oracle._chosen_tree

    def spy(choice, *args):
        if not seen:
            seen.append(set(choice))
        return original(choice, *args)

    monkeypatch.setattr(oracle, "_chosen_tree", spy)
    try:
        result = a.optimal_coverage(instance, **kwargs)
    finally:
        monkeypatch.setattr(oracle, "_chosen_tree", original)
    return result, seen[0]


def plain_copy(instance):
    return instance.with_utility(tuple(instance.utility))


def assert_as_reference(instance, result, **kwargs):
    """``result`` has the all-candidates reference's tree and its cost within
    1e-12 (the reference renormalizes, so it rounds differently)."""
    tree, cost = reference_optimal_coverage(instance, pruned=False, **kwargs)
    assert result[0] == tree
    assert abs(result[1] - cost) <= 1e-12


def test_the_corpus_has_what_it_is_for():
    cases = corpus()
    priors = [p for _name, instance in cases for p in instance.prior]
    assert 0.0 in priors and 0.25 in priors and 1e-10 in priors
    assert any(instance.num_states == 3 for _name, instance in cases)
    assert all(isinstance(instance.utility, CoverageTable)
               for _name, instance in cases)


def test_the_support_keyed_pass_equals_the_references(monkeypatch):
    """The reference's tree and cost (see :func:`assert_as_reference`), and
    tree and cost ``float.hex``-equal to the state-keyed pass on the same
    values."""
    for name, instance in corpus():
        (tree, cost), keys = solve_with_keys(monkeypatch, instance)
        assert {dom for dom, _support in keys} <= {0}, name
        assert_as_reference(instance, (tree, cost))
        plain_tree, plain_cost = a.optimal_coverage(plain_copy(instance))
        assert tree == plain_tree, name
        assert cost.hex() == plain_cost.hex(), name


def test_one_memo_state_per_support(monkeypatch):
    """The support-keyed pass memoizes exactly the supports the state-keyed
    pass reaches, each once; the state-keyed pass memoizes more states
    somewhere in the corpus."""
    more = 0
    for name, instance in corpus():
        _result, keys = solve_with_keys(monkeypatch, instance)
        supports = [support for _dom, support in keys]
        assert len(supports) == len(set(supports)), name
        _result, state_keys = solve_with_keys(monkeypatch, plain_copy(instance))
        assert set(supports) == {support for _dom, support in state_keys}, name
        more += len(state_keys) > len(keys)
    assert more > 0


def _hypotheses():
    return a.HypothesisClass(
        examples=("x1", "x2", "x3"),
        labels=(("0", "0", "1"), ("0", "1", "0"), ("1", "1", "0"), ("1", "0", "1")),
        prior=(0.4, 0.3, 0.2, 0.1),
    )


def test_only_a_coverage_table_under_the_instance_prior_is_keyed_by_support(
        monkeypatch):
    """The lifted instance of thm6, a builtin file with ``modified: true``
    read under the plain prior, and a plain-tuple copy of a coverage table
    all keep (observed elements, support) keys, and solve as before."""
    bare = a.instance_from_hypotheses(_hypotheses())
    plain = a.coverage_instance(bare)
    data = fileio.instance_to_dict(bare)
    data["utility"] = {"kind": "builtin", "name": "coverage",
                       "params": {"modified": True}}
    fallbacks = {
        "with_prior": plain.with_prior(a.modified_prior(plain.prior)),
        "builtin-modified": fileio.instance_from_dict(data),
        "plain-tuple": plain_copy(plain),
    }
    _result, keys = solve_with_keys(monkeypatch, plain)
    assert {dom for dom, _support in keys} == {0}
    for name, instance in fallbacks.items():
        result, keys = solve_with_keys(monkeypatch, instance)
        assert any(dom for dom, _support in keys), name
        assert_as_reference(instance, result)
    data["utility"]["params"] = {}
    _result, keys = solve_with_keys(monkeypatch, fileio.instance_from_dict(data))
    assert {dom for dom, _support in keys} == {0}


def test_the_pruned_pass_is_the_support_keyed_solve_on_a_coverage_utility(
        monkeypatch):
    """Where the exact pass keys by support, ``pruned=True`` returns that
    very solve, whichever pass is asked for first; a plain-tuple copy and a
    builtin ``modified: true`` file read under the plain prior keep the
    state-keyed pruned pass."""
    bare = a.instance_from_hypotheses(_hypotheses())
    plain = a.coverage_instance(bare)
    result, keys = solve_with_keys(monkeypatch, plain, pruned=True)
    assert {dom for dom, _support in keys} == {0}
    assert a.optimal_coverage(plain) is result
    assert len(plain.__dict__["_coverage"]) == 1
    exact_first = a.coverage_instance(bare)
    assert (a.optimal_coverage(exact_first)
            is a.optimal_coverage(exact_first, pruned=True))
    data = fileio.instance_to_dict(bare)
    data["utility"] = {"kind": "builtin", "name": "coverage",
                       "params": {"modified": True}}
    for name, instance in {"plain-tuple": plain_copy(plain),
                           "builtin-modified": fileio.instance_from_dict(data)
                           }.items():
        pruned, keys = solve_with_keys(monkeypatch, instance, pruned=True)
        assert any(dom for dom, _support in keys), name
        assert a.optimal_coverage(instance) is not pruned, name


def identify_class(r):
    """Round ``r``'s hypothesis class of the ``identify`` benchmark pool at
    seed 1, as ``benchmarks/workloads.py`` draws it: ``h`` distinct binary
    labelings of ``n`` examples and a prior of 0.05 plus a uniform draw,
    normalized."""
    n, h = [(5, 12), (6, 16), (5, 20), (6, 24), (6, 28)][r % 5]
    rng = random.Random(f"identify/1/h{r:03d}")
    rows = rng.sample(range(2**n), h)
    raw = [0.05 + rng.random() for _ in range(h)]
    total = sum(raw)
    return a.HypothesisClass(
        tuple(f"x{i + 1}" for i in range(n)),
        tuple(tuple(str(row >> i & 1) for i in range(n)) for row in rows),
        tuple(p / total for p in raw))


def test_the_identify_pool_pruned_pass_equals_the_state_keyed_and_reference_passes():
    """All 60 ``identify`` classes of seed 1, each under the plain and the
    modified prior: the pruned pass (the support-keyed solve) has the
    state-keyed pruned pass's tree and ``float.hex``-equal cost on a
    plain-tuple copy, and the tree of the pruned reference, which
    renormalizes its masses and so may differ in the last bit."""
    for r in range(60):
        bare = a.instance_from_hypotheses(identify_class(r))
        for modified in (False, True):
            name = f"h{r:03d}-{'modified' if modified else 'plain'}"
            instance = a.coverage_instance(bare, modified=modified)
            tree, cost = a.optimal_coverage(instance, pruned=True)
            state_tree, state_cost = a.optimal_coverage(plain_copy(instance),
                                                        pruned=True)
            assert tree == state_tree, name
            assert cost.hex() == state_cost.hex(), name
            ref_tree, ref_cost = reference_optimal_coverage(instance, pruned=True)
            assert tree == ref_tree, name
            assert abs(cost - ref_cost) <= 1e-9, name


@pytest.mark.parametrize("q, tol, by_support", [
    (None, 0.19, True), (None, 0.2, False), (10.0, 9.5, False)])
def test_the_support_keys_need_a_tolerance_well_below_one(monkeypatch, q, tol,
                                                          by_support):
    """The support-keyed pass needs (|V| + 2) x tol < 1 (see
    ``optimal_coverage``), here tol < 0.2; from there on the state-keyed
    pass runs.  At tol 9.5 no later candidate beats the first by more than
    tol, so the optimum selects x0, which all hypotheses label alike: a
    pass that tried only splitting elements would differ."""
    hc = a.HypothesisClass(
        examples=("x0", "x1", "x2"),
        labels=(("0", "0", "0"), ("0", "0", "1"), ("0", "1", "1")),
        prior=(0.5, 0.3, 0.2),
    )
    plain = a.coverage_instance(a.instance_from_hypotheses(hc))
    result, keys = solve_with_keys(monkeypatch, plain, q=q, tol=tol)
    assert (not any(dom for dom, _support in keys)) == by_support
    assert_as_reference(plain, result, q=q, tol=tol)
    assert (result[0].element == 0) == (tol > 1.0)


def test_a_negative_prior_keeps_state_keys(monkeypatch):
    """A prior within ``TOL`` below 0 is allowed, but such a realization
    adds its mass to every class it is in.  The third hypothesis, never in a
    support, holds the second one's utility above 1 + tol after x1 until x0
    sets them apart.  So coverage is not a function of the support, and the
    state-keyed pass selects x0 where no element splits the support."""
    hc = a.HypothesisClass(
        examples=("x0", "x1"),
        labels=(("0", "0"), ("1", "1"), ("0", "1")),
        prior=(0.6 + 4e-10, 0.4, -4e-10),
    )
    plain = a.coverage_instance(a.instance_from_hypotheses(hc))
    result, keys = solve_with_keys(monkeypatch, plain, q=1.0, tol=2e-10)
    assert any(dom for dom, _support in keys)
    assert_as_reference(plain, result, q=1.0, tol=2e-10)
    assert result[0] == a.Select(1, (a.TERMINAL,
                                     a.Select(0, (a.TERMINAL, a.TERMINAL))))
