"""Brute-force optimal baselines and exhaustive policy enumeration.

Everything here is desk-scale exact computation: a memoized dynamic program
for the best height-k policy, a coverage DP for the cheapest policy that
drives the utility to its maximum on every branch, and a generator for
every deterministic tree of bounded height.  A budget check estimates the
state count before running and refuses beyond the configured limit rather
than hanging.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Optional

from .core import (
    TOL,
    EMPTY,
    ConditionalPrior,
    Instance,
    PartialRealization,
    split,
    subset_key,
    version_space,
)
from .errors import CoverageUnreachable, EnumerationBudgetExceeded
from .policy import Node, Select, TERMINAL

DEFAULT_ENUM_BUDGET = 10**7


def count_policies(num_available: int, height: int, num_states: int) -> int:
    """Number of deterministic trees of height <= ``height`` over
    ``num_available`` elements: N(m, k) = 1 + m * N(m-1, k-1)^{|Y|}."""
    if height <= 0 or num_available <= 0:
        return 1
    inner = count_policies(num_available - 1, height - 1, num_states)
    return 1 + num_available * inner**num_states


def enumerate_policies(
    instance: Instance,
    height: int,
    psi: PartialRealization = EMPTY,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> Iterator[Node]:
    """Every deterministic tree of height <= ``height`` over the elements
    outside dom(psi), including all early-terminating shapes."""
    available = tuple(v for v in range(instance.num_elements) if v not in psi)
    total = count_policies(len(available), height, instance.num_states)
    if total > enum_budget:
        raise EnumerationBudgetExceeded(
            f"{total} policies exceed the enumeration budget {enum_budget}"
        )
    num_states = instance.num_states

    def generate(avail: tuple[int, ...], h: int) -> Iterator[Node]:
        yield TERMINAL
        if h <= 0:
            return
        for v in avail:
            rest = tuple(x for x in avail if x != v)
            subtrees = list(generate(rest, h - 1))
            indices = [0] * num_states
            while True:
                yield Select(v, tuple(subtrees[i] for i in indices))
                pos = num_states - 1
                while pos >= 0:
                    indices[pos] += 1
                    if indices[pos] < len(subtrees):
                        break
                    indices[pos] = 0
                    pos -= 1
                if pos < 0:
                    break

    return generate(available, height)


def random_policy_over(
    instance: Instance,
    available: list[int],
    height: int,
    rng: random.Random,
    stop_probability: float = 0.25,
) -> Node:
    """A random deterministic tree over the given elements, used by sampled
    gamma mode and by randomized test corpora."""
    if height <= 0 or not available or rng.random() < stop_probability:
        return TERMINAL
    v = rng.choice(available)
    rest = [x for x in available if x != v]
    children = tuple(
        random_policy_over(instance, rest, height - 1, rng, stop_probability)
        for _ in range(instance.num_states)
    )
    return Select(v, children)


# -- maximization under a cardinality constraint ---------------------------


def _budget_state_estimate(num_elements: int, num_states: int, k: int) -> int:
    total = 0
    perm = 1
    for depth in range(k + 1):
        total += perm * (num_states**depth)
        perm *= max(num_elements - depth, 1)
    return total


def optimal_budget(
    instance: Instance,
    k: int,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[Node, float]:
    """The exact best expected utility over policies of height <= k, via a
    memoized DP over (observations, remaining budget).

    Stopping is preferred on ties, then the lexicographically smallest
    element.
    """
    if k < 0:
        raise ValueError("budget must be non-negative")
    k = min(k, instance.num_elements)
    if instance.utility is None:
        raise ValueError("instance has no utility table attached")
    estimate = _budget_state_estimate(instance.num_elements, instance.num_states, k)
    if estimate > enum_budget:
        raise EnumerationBudgetExceeded(
            f"about {estimate} DP states exceed the enumeration budget"
        )
    table = instance.utility
    memo: dict[tuple[frozenset, int], tuple[float, Node]] = {}

    def solve(
        psi: PartialRealization, vs: ConditionalPrior, budget: int
    ) -> tuple[float, Node]:
        key = (psi.key(), budget)
        if key in memo:
            return memo[key]
        dom = psi.dom
        row = table[subset_key(dom)]
        best_value = sum(w * row[i] for i, w in vs.items())
        best_node: Node = TERMINAL
        if budget > 0:
            for v in range(instance.num_elements):
                if v in dom:
                    continue
                value = 0.0
                children: list[Node] = [TERMINAL] * instance.num_states
                for y, (p_y, part) in split(instance, vs, v).items():
                    sub_value, sub_node = solve(
                        psi.extended(v, y), part, budget - 1
                    )
                    value += p_y * sub_value
                    children[y] = sub_node
                if value > best_value:
                    best_value = value
                    best_node = Select(v, tuple(children))
        memo[key] = (best_value, best_node)
        return memo[key]

    value, tree = solve(EMPTY, version_space(instance, EMPTY), k)
    return tree, value


# -- minimum cost coverage -------------------------------------------------


def optimal_coverage(
    instance: Instance,
    q: Optional[float] = None,
    pruned: bool = True,
    tol: float = TOL,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[Node, float]:
    """The cheapest policy (by expected selections) that drives the utility
    to Q on every positive-mass branch.

    The pruned pass considers only elements that either shrink the version
    space or strictly raise the minimal consistent utility, mirroring the
    argument that an optimal covering policy eliminates a realization per
    query; ``pruned=False`` considers every unobserved element and exists
    as a cross-check that both passes agree.
    """
    if instance.utility is None:
        raise ValueError("instance has no utility table attached")
    table = instance.utility
    if q is None:
        q = max(
            row[i]
            for row in table.values()
            for i, p in enumerate(instance.prior)
            if p > 0.0
        )
    full = subset_key(range(instance.num_elements))
    for i, p in enumerate(instance.prior):
        if p > 0.0 and abs(table[full][i] - q) > tol:
            raise CoverageUnreachable(
                f"realization {i} only reaches {table[full][i]} != {q} "
                f"with every element selected"
            )
    estimate = _budget_state_estimate(
        instance.num_elements, instance.num_states, instance.num_elements
    )
    if estimate > enum_budget:
        raise EnumerationBudgetExceeded(
            f"about {estimate} DP states exceed the enumeration budget"
        )
    memo: dict[frozenset, tuple[float, Node]] = {}

    def covered(psi: PartialRealization, vs: ConditionalPrior) -> bool:
        row = table[subset_key(psi.dom)]
        return all(abs(row[i] - q) <= tol for i in vs.support)

    def candidates(psi: PartialRealization, vs: ConditionalPrior) -> list[int]:
        unobserved = [v for v in range(instance.num_elements) if v not in psi]
        if not pruned:
            return unobserved
        row = table[subset_key(psi.dom)]
        current_min = min(row[i] for i in vs.support)
        keep = []
        for v in unobserved:
            states = {instance.realizations[i][v] for i in vs.support}
            if len(states) > 1:
                keep.append(v)
                continue
            after = table[subset_key(psi.dom + (v,))]
            if min(after[i] for i in vs.support) > current_min + tol:
                keep.append(v)
        # Coverage is reachable, so some element must eventually help; fall
        # back to everything if the heuristic filters them all out.
        return keep or unobserved

    def solve(psi: PartialRealization, vs: ConditionalPrior) -> tuple[float, Node]:
        key = psi.key()
        if key in memo:
            return memo[key]
        if covered(psi, vs):
            memo[key] = (0.0, TERMINAL)
            return memo[key]
        best_cost = math.inf
        best_node: Node = TERMINAL
        for v in candidates(psi, vs):
            cost = 1.0
            children: list[Node] = [TERMINAL] * instance.num_states
            for y, (p_y, part) in split(instance, vs, v).items():
                sub_cost, sub_node = solve(psi.extended(v, y), part)
                cost += p_y * sub_cost
                children[y] = sub_node
            if cost < best_cost - tol:
                best_cost = cost
                best_node = Select(v, tuple(children))
        memo[key] = (best_cost, best_node)
        return memo[key]

    cost, tree = solve(EMPTY, version_space(instance, EMPTY))
    return tree, cost
