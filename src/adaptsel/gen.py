"""Instance generators: the two witness constructions and seeded random
corpora.

The first witness is a chain policy whose maximal gain ratio equals an
arbitrary epsilon even though the policy is exactly greedy; the second is a
2-approximate-greedy chain whose maximal gain ratio is still 1.  Both are
state-independent set functions tabulated over uniform priors, so every
asserted gain value can be checked directly against the table.
"""

from __future__ import annotations

import itertools
import random

from .core import Instance, UtilityRows, subsets
from .errors import InvalidParams
from .oracle import random_policy_over
from .policy import Node, chain_policy


def _all_realizations(num_elements: int, num_states: int):
    return tuple(itertools.product(range(num_states), repeat=num_elements))


def _tabulate_set_function(num_elements: int, num_realizations: int, fn) -> UtilityRows:
    """Expand f(A) (a pure set function) into a full (subset, realization)
    table, rows by element mask."""
    rows: list = [None] * (1 << num_elements)
    for subset, mask in subsets(num_elements):
        rows[mask] = (fn(subset),) * num_realizations
    return tuple(rows)


def _chain_witness(k: int, utility, name: str) -> tuple[Instance, Node]:
    """The chain v1..vk on a uniform prior over every binary realization,
    with the table ``utility(k, number of realizations)``."""
    realizations = _all_realizations(k, 2)
    m = len(realizations)
    instance = Instance(
        elements=tuple(f"v{i + 1}" for i in range(k)),
        states=("0", "1"),
        realizations=realizations,
        prior=(1.0 / m,) * m,
        utility=utility(k, m),
        name=name,
    )
    return instance, chain_policy(instance, list(range(k)))


def theorem5_utility(k: int, num_realizations: int, epsilon: float) -> UtilityRows:
    """The theorem-5 witness utility f(A) = sum_{i=0..|A|} epsilon^i over
    ``k`` elements, the same under every realization."""
    return _tabulate_set_function(
        k, num_realizations,
        lambda subset: sum(epsilon**i for i in range(len(subset) + 1)),
    )


def gen_theorem5(k: int, epsilon: float) -> tuple[Instance, Node]:
    """Greedy chain with maximal gain ratio epsilon.

    f(A, phi) = sum_{i=0..|A|} epsilon^i over a uniform prior on all binary
    realizations; every element always has gain epsilon^(depth+1), so the
    fixed chain is greedy, collects epsilon^i at step i, and leaves
    epsilon^(i+1) on the table at every truncation point.
    """
    if k < 1:
        raise InvalidParams("k must be at least 1")
    if not 0.0 < epsilon < 1.0:
        raise InvalidParams("epsilon must lie strictly inside (0, 1)")
    return _chain_witness(
        k, lambda n, m: theorem5_utility(n, m, epsilon),
        f"arbitrarily-small-gain-ratio(k={k}, eps={epsilon})",
    )


def _staircase_value(subset: tuple[int, ...], k: int) -> float:
    """Prefix-gain completion of the 2-approximate-greedy witness.

    Processing A in ascending index order, element e contributes 2/k when
    the already-processed prefix is exactly {0, ..., e-2} (so the element
    one past the next chain step doubles), and 1/k otherwise.
    """
    total = 0.0
    processed: set[int] = set()
    for e in sorted(subset):
        if e >= 2 and processed == set(range(e - 1)):
            total += 2.0 / k
        else:
            total += 1.0 / k
        processed.add(e)
    return total


def theorem4_utility(k: int, num_realizations: int) -> UtilityRows:
    """The theorem-4 witness utility, :func:`_staircase_value` over ``k``
    elements, the same under every realization."""
    return _tabulate_set_function(
        k, num_realizations, lambda subset: _staircase_value(subset, k)
    )


def gen_theorem4(k: int) -> tuple[Instance, Node]:
    """Non-greedy chain (approximation ratio 2) with maximal gain ratio 1.

    Along the chain prefix {v1..v(i-1)} the next chain element gains 1/k
    while v(i+1) would gain 2/k, so the chain is only 2-approximate greedy;
    yet its truncations stop either before anything (all gains 1/k) or
    after everything (no gains remain), so nothing better than 1/k is ever
    left behind.
    """
    if k < 3:
        raise InvalidParams("the construction needs k >= 3")
    return _chain_witness(k, theorem4_utility, f"non-greedy-gain-ratio-1(k={k})")


def gen_random(
    num_elements: int,
    num_states: int,
    seed: int,
    monotone: bool = True,
) -> Instance:
    """A seeded, reproducible random instance over all state assignments.

    With ``monotone=True`` the utility is built from cumulative non-negative
    increments (f(A) = max over v of f(A minus v) plus a fresh draw, per
    realization), which guarantees the adaptive monotonicity check passes;
    otherwise values are unconstrained non-negative draws.
    """
    if not 1 <= num_elements <= 5:
        raise InvalidParams("num_elements must be in 1..5")
    if not 2 <= num_states <= 3:
        raise InvalidParams("num_states must be 2 or 3")
    rng = random.Random(seed)
    realizations = _all_realizations(num_elements, num_states)
    m = len(realizations)
    raw = [0.05 + rng.random() for _ in range(m)]
    total = sum(raw)
    prior = tuple(p / total for p in raw)

    rows: list = [None] * (1 << num_elements)
    for subset, mask in subsets(num_elements):
        if monotone:
            below = [rows[mask ^ 1 << v] for v in subset]
            row = [max((r[i] for r in below), default=0.0) + rng.random()
                   for i in range(m)]
        else:
            row = [2.0 * rng.random() for _ in range(m)]
        rows[mask] = tuple(row)
    return Instance(
        elements=tuple(f"v{i + 1}" for i in range(num_elements)),
        states=tuple(str(y) for y in range(num_states)),
        realizations=realizations,
        prior=prior,
        utility=tuple(rows),
        name=f"random(seed={seed}, monotone={monotone})",
    )


def random_policy(
    instance: Instance,
    seed: int,
    stop_probability: float = 0.25,
) -> Node:
    """A seeded random deterministic tree over the whole ground set.

    ``stop_probability=0`` produces exhaustive trees that select until no
    element remains (random order per branch); positive values admit
    early-terminating shapes.
    """
    return random_policy_over(
        instance,
        list(range(instance.num_elements)),
        instance.num_elements,
        random.Random(seed),
        stop_probability=stop_probability,
    )
