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
    state_bitsets,
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

    At each state, stopping is the incumbent and elements are tried in index
    order; one replaces the incumbent only if its value is strictly greater,
    with no tolerance.  Exact ties therefore keep stopping, then the smallest
    element, but options whose values differ only by rounding are decided by
    that rounding: the last bits of the sums pick among trees that are tied
    mathematically.
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


def _members(bits: int) -> list[int]:
    """Indices of the set bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


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

    A DP state is (observed elements, support), both as bitsets; supports
    are conditioned with :func:`~adaptsel.core.state_bitsets`.  A state is
    covered when its support misses every realization whose utility there is
    more than ``tol`` from Q.  An outcome's probability is the prior mass of
    its support over its parent's, each summed in index order as
    ``version_space`` sums it; outcomes are added in order of first
    appearance in the support.  The first candidate whose cost is below the
    best so far by more than ``tol`` wins.
    """
    if instance.utility is None:
        raise ValueError("instance has no utility table attached")
    table = instance.utility
    prior = instance.prior
    if q is None:
        q = max(
            row[i]
            for row in table.values()
            for i, p in enumerate(prior)
            if p > 0.0
        )
    n = instance.num_elements
    full = subset_key(range(n))
    for i, p in enumerate(prior):
        if p > 0.0 and abs(table[full][i] - q) > tol:
            raise CoverageUnreachable(
                f"realization {i} only reaches {table[full][i]} != {q} "
                f"with every element selected"
            )
    estimate = _budget_state_estimate(n, instance.num_states, n)
    if estimate > enum_budget:
        raise EnumerationBudgetExceeded(
            f"about {estimate} DP states exceed the enumeration budget"
        )
    bits = state_bitsets(instance)
    rows: dict[int, tuple[float, ...]] = {}
    uncovered: dict[int, int] = {}
    masses: dict[int, float] = {}
    memo: dict[tuple[int, int], tuple[float, Node]] = {}

    def row(dom: int) -> tuple[float, ...]:
        found = rows.get(dom)
        if found is None:
            found = rows[dom] = table[tuple(v for v in range(n) if dom >> v & 1)]
        return found

    def uncovered_at(dom: int) -> int:
        found = uncovered.get(dom)
        if found is None:
            found = 0
            for i, value in enumerate(row(dom)):
                if abs(value - q) > tol:
                    found |= 1 << i
            uncovered[dom] = found
        return found

    def mass(support: int) -> float:
        found = masses.get(support)
        if found is None:
            found = masses[support] = sum([prior[i] for i in _members(support)])
        return found

    def candidates(dom: int, support: int) -> list[tuple[int, list[tuple[int, int]]]]:
        """(element, its outcomes as (state, child support)) per candidate."""
        options = []
        for v in range(n):
            if dom >> v & 1:
                continue
            outcomes = []
            for y, observed in enumerate(bits[v]):
                child = support & observed
                if child:
                    outcomes.append((y, child))
            options.append((v, outcomes))
        if not pruned:
            return options
        members = _members(support)
        here = row(dom)
        current_min = min([here[i] for i in members])
        keep = []
        for v, outcomes in options:
            if len(outcomes) > 1:
                keep.append((v, outcomes))
                continue
            after = row(dom | 1 << v)
            if min([after[i] for i in members]) > current_min + tol:
                keep.append((v, outcomes))
        # Coverage is reachable, so some element must eventually help; fall
        # back to everything if the heuristic filters them all out.
        return keep or options

    def solve(dom: int, support: int) -> tuple[float, Node]:
        key = (dom, support)
        found = memo.get(key)
        if found is not None:
            return found
        if not support & uncovered_at(dom):
            memo[key] = (0.0, TERMINAL)
            return memo[key]
        total = mass(support)
        best_cost = math.inf
        best_node: Node = TERMINAL
        for v, outcomes in candidates(dom, support):
            outcomes.sort(key=lambda outcome: outcome[1] & -outcome[1])
            cost = 1.0
            children: list[Node] = [TERMINAL] * instance.num_states
            for y, child in outcomes:
                sub_cost, sub_node = solve(dom | 1 << v, child)
                cost += mass(child) / total * sub_cost
                children[y] = sub_node
            if cost < best_cost - tol:
                best_cost = cost
                best_node = Select(v, tuple(children))
        memo[key] = (best_cost, best_node)
        return memo[key]

    root = 0
    for i, p in enumerate(prior):
        if p > 0.0:
            root |= 1 << i
    cost, tree = solve(0, root)
    return tree, cost
