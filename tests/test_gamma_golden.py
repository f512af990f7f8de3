"""Golden gamma: the ``float.hex`` of ``raw_min`` and the witness that gamma
returns on a fixed corpus, so that a change to how gamma builds, splits or
scores its states that moves one bit shows here.

The exact cases are monotone instances of the ``gamma`` benchmark pool's
shapes (3x2, 3x3 and 4x2), drawn as ``benchmarks/workloads.py`` draws them,
scored at the pool's n and k: n is the greedy tree's height and k that of
the budget optimum at l (at the greedy height where the pool gives no l),
as ``verify --bounds eq2 --policy greedy`` computes them.  Sampled gamma on
one ``gen_random`` instance pins the random trees' draw order and the splits
filled below the roots as those trees reach them.  Other gamma tests compare
terms to within 1e-12; these compare bits."""

import hashlib
import itertools
import random

import pytest

import adaptsel as a


def pool_instance(seed, slot, n, y):
    """The monotone instance of one ``gamma`` pool slot: a prior of 0.05
    plus a uniform draw, normalized, over all |Y|^|V| realizations, and
    f(A) the largest f(A minus v) plus a fresh uniform draw per
    realization, subsets by size, then ``itertools.combinations`` order."""
    rng = random.Random(f"gamma/{seed}/{slot}")
    realizations = list(itertools.product(range(y), repeat=n))
    raw = [0.05 + rng.random() for _ in realizations]
    total = sum(raw)
    prior = tuple(p / total for p in raw)
    rows = {}
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            rows[subset] = tuple(
                max((rows[tuple(x for x in subset if x != v)][i] for v in subset),
                    default=0.0) + rng.random()
                for i in range(len(realizations)))
    table = [None] * 2**n
    for subset, row in rows.items():
        table[sum(1 << v for v in subset)] = row
    return a.Instance(tuple(f"v{i + 1}" for i in range(n)),
                      tuple(str(s) for s in range(y)), tuple(realizations),
                      prior, tuple(table))


def pool_gamma(instance, l):
    """gamma at the n and k that ``verify --bounds eq2`` gives the greedy
    tree against the budget optimum."""
    n = max(a.policy_height(instance, a.build_greedy(instance)), 1)
    opt, _value = a.optimal_budget(instance, n if l is None else l)
    return a.gamma(instance, n, max(a.policy_height(instance, opt), 1))


SHAPES = [(3, 2, None), (3, 3, 2), (4, 2, 2)]

#: SHA-256 of the ``repr`` of every (n, k, raw_min.hex(), witness) of the
#: 120 instances of the seed-1 pool, round by round, slot by slot.
POOL_DIGEST = "b2f393b27fcd02358a085a218dcf5e6ac24d3d2f937ac620decd3adba9027957"

#: (n, k) -> (raw_min.hex(), witness) of sampled gamma on gen_random(4, 2, 1).
SAMPLED = {
    (2, 2): ("0x1.4b170dc4f5c41p-1", {"psi": {"v2": "1", "v4": "1"}}),
    (4, 3): ("0x1.4b170dc4f5c41p-1", {"psi": {"v2": "1", "v4": "1"}}),
}


def test_the_seed_1_pool_keeps_its_bits():
    digest = hashlib.sha256()
    for r in range(40):
        for c, (n, y, l) in zip("abc", SHAPES):
            result = pool_gamma(pool_instance(1, f"g{r:03d}{c}", n, y), l)
            digest.update(repr((result.n, result.k, result.raw_min.hex(),
                                result.witness)).encode())
    assert digest.hexdigest() == POOL_DIGEST


@pytest.mark.parametrize("n, k", sorted(SAMPLED))
def test_sampled_gamma_keeps_its_bits(n, k):
    result = a.gamma(a.gen_random(4, 2, 1), n, k, mode="sampled")
    assert result.mode == "sampled-upper-bound"
    assert (result.raw_min.hex(), result.witness) == SAMPLED[n, k]
