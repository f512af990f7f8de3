"""gamma's per-domain scoring: one enumeration per domain of psi', every
tree scored against each psi' of that domain with a subtree memo per psi'.

The memo keys subtrees by ``id()``, so a memo entry must keep its subtree
alive: the enumerator frees each subtree pool once its trees are yielded,
and a freed id can come back as another subtree.  The witness is the first
psi', in walk order, whose own minimum is the overall one.
"""

import itertools
import random
from operator import attrgetter

import pytest

import adaptsel as a
from adaptsel import metrics
from conftest import rows_from_subsets
from test_gamma import reference_gamma, reference_terms


def _memo_cases():
    for shape, heights in [((2, 2), (1, 2, 3)), ((3, 2), (1, 2, 3)),
                           ((2, 3), (1, 2, 3)), ((4, 2), (3,))]:
        for monotone in (True, False):
            for k in heights:
                name = f"{shape[0]}x{shape[1]}-{'mono' if monotone else 'non'}-k{k}"
                yield name, a.gen_random(*shape, 5, monotone=monotone), k


MEMO_CASES = list(_memo_cases())


@pytest.mark.parametrize("name, instance, k", MEMO_CASES,
                         ids=[case[0] for case in MEMO_CASES])
def test_memoized_terms_equal_reference_terms(name, instance, k):
    """Every (psi', tree) of each domain's whole enumeration, consumed one
    tree at a time with one memo per psi', gives the reference's (N, D) to
    1e-12, and every memo entry keeps the subtree its key names."""
    walk = metrics._GammaWalk(instance)
    scored = 0
    for _dom, group in itertools.groupby(walk.roots(instance.num_elements),
                                         key=attrgetter("dom")):
        group = list(group)
        memos = [{} for _ in group]
        psi = a.PartialRealization(group[0].pairs)
        for tree in a.enumerate_policies(instance, k, psi):
            for root, memo in zip(group, memos):
                numerator, denominator = walk.terms(root, tree, memo)
                ref_numerator, ref_denominator = reference_terms(
                    instance, a.PartialRealization(root.pairs), tree)
                assert abs(numerator - ref_numerator) <= 1e-12
                assert abs(denominator - ref_denominator) <= 1e-12
                scored += 1
        # Each entry holds the subtree whose id keys it, so no id in a live
        # memo can name another subtree.
        for memo in memos:
            assert all(id(entry[-1]) == key[0]
                       for key, entry in memo.items())
    assert scored > 10


def flip_symmetric(seed):
    """3 elements, 2 states, uniform prior over all 8 realizations, and a
    utility whose values are multiples of 1/4, equal on every realization
    and its state-flipped mirror.  Every sum is exact in binary, so a psi'
    and its mirror score every tree to the same float."""
    rng = random.Random(seed)
    realizations = list(itertools.product((0, 1), repeat=3))
    index = {phi: i for i, phi in enumerate(realizations)}
    table = {}
    for size in range(4):
        for subset in itertools.combinations(range(3), size):
            row = [None] * 8
            for phi in realizations:
                if row[index[phi]] is None:
                    mirror = index[tuple(1 - y for y in phi)]
                    row[index[phi]] = row[mirror] = (
                        rng.randrange(9) / 4 if size else 0.0)
            table[subset] = tuple(row)
    instance = a.Instance(("v1", "v2", "v3"), ("0", "1"), tuple(realizations),
                          (0.125,) * 8)
    return instance.with_utility(rows_from_subsets(instance, table))


def test_witness_is_the_first_of_tied_psi_in_walk_order():
    instance = flip_symmetric(11)
    raw_min, per_psi = reference_gamma(instance, 1, 2, "exact", 0, 0)
    first = a.PartialRealization(((2, 0),))
    mirror = a.PartialRealization(((2, 1),))
    # The tie is exact, and every psi' before the pair scores above it.
    assert per_psi[first] == per_psi[mirror] == raw_min
    order = list(per_psi)
    assert all(per_psi[psi] > raw_min for psi in order[:order.index(first)])
    result = a.gamma(instance, 1, 2)
    assert result.raw_min == raw_min
    assert result.witness == {"psi": {"v3": "0"}}
