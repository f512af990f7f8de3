"""Brute-force optimal baselines and exhaustive policy enumeration.

Everything here is desk-scale exact computation: a bottom-up dynamic program
for the best height-k policy, a memoized coverage DP for the cheapest policy
that drives the utility to its maximum on every branch, and a generator for
every deterministic tree of bounded height.  A budget check bounds the
DP memo keys or counts the policies before running and refuses beyond the
configured limit rather than hanging.  Each DP prices a state from the
prior by its key alone, keeps state values only, records the element each
selecting state picks, and builds the returned tree from those choices once
the root is priced.  The key is (observed elements, support), except in the
coverage DP on a coverage utility, a function of the support alone, which
keys by the support (see :func:`optimal_coverage`).

Nothing here refers to itself: the enumerator recurses through a module-level
generator, the budget DP is a loop over domains, and the coverage DP drops its
recursive ``solve`` once the root is solved.  A self-referencing closure is a
reference cycle, which would keep the memo and the instance it holds alive
until the cyclic collector ran; without one, reference counting frees them as
the call returns.
"""

from __future__ import annotations

import math
import random
from itertools import product
from operator import and_, mul
from typing import Iterator, Optional

from .core import (
    TOL,
    EMPTY,
    CoverageTable,
    Instance,
    PartialRealization,
    members,
    require_count,
    require_finite,
    require_int,
    require_tol,
    state_bitsets,
    utility_rows,
)
from .errors import CoverageUnreachable, EnumerationBudgetExceeded
from .policy import Node, Select, TERMINAL

DEFAULT_ENUM_BUDGET = 10**7


def count_policies(num_available: int, height: int, num_states: int) -> int:
    """Number of deterministic trees of height <= ``height`` over
    ``num_available`` elements: N(m, k) = 1 + m * N(m-1, k-1)^{|Y|}.
    ``height`` must be an int."""
    require_int(height=height)
    count = 1
    for available in range(max(num_available - height, 0) + 1, num_available + 1):
        count = 1 + available * count**num_states
    return count


def enumerate_policies(
    instance: Instance,
    height: int,
    psi: PartialRealization = EMPTY,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> Iterator[Node]:
    """Every deterministic tree of height <= ``height`` over the elements
    outside dom(psi), including all early-terminating shapes.  ``height``
    must be an int and ``enum_budget`` an int >= 0."""
    require_count(enum_budget=enum_budget)
    available = tuple(v for v in range(instance.num_elements) if v not in psi)
    total = count_policies(len(available), height, instance.num_states)
    if total > enum_budget:
        raise EnumerationBudgetExceeded(
            f"{total} policies exceed the enumeration budget {enum_budget}"
        )
    return _generate(available, height, instance.num_states)


def _generate(avail: tuple[int, ...], h: int, num_states: int) -> Iterator[Node]:
    """The trees of :func:`enumerate_policies` over ``avail``, height <= h."""
    yield TERMINAL
    if h <= 0:
        return
    for v in avail:
        rest = tuple(x for x in avail if x != v)
        for children in product(_generate(rest, h - 1, num_states), repeat=num_states):
            yield Select(v, children)


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


def _check_memo_keys(instance: Instance, k: int, enum_budget: int) -> None:
    """Refuse a DP whose (observed elements, support) memo keys of at most k
    observations may exceed ``enum_budget``: there are at most sum over
    j <= k of C(|V|, j) * min(|Y|^j, m+), m+ the positive-prior realizations.
    ``enum_budget`` must be an int >= 0."""
    require_count(enum_budget=enum_budget)
    positive = sum(1 for p in instance.prior if p > 0.0)
    n, num_states = instance.num_elements, instance.num_states
    bound = sum(math.comb(n, j) * min(num_states**j, positive) for j in range(k + 1))
    if bound > enum_budget:
        raise EnumerationBudgetExceeded(
            f"up to {bound} DP memo keys exceed the enumeration budget {enum_budget}"
        )


def optimal_budget(
    instance: Instance,
    k: int,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[Node, float]:
    """The exact best expected utility over policies of height <= k, via a
    DP over (observed elements, support) bitsets; the remaining budget is k
    minus the observed count.  ``k`` must be an int >= 0.  ``enum_budget``
    bounds the states, not the paths to them.

    The DP runs bottom-up over the observed-element masks d with |d| <= k.
    A depth-first pass finds each d's supports, one per positive
    realization, from those of d without its top element, and sums their
    stop values; then the masks are priced largest first, each state of d
    from the finished tables of the masks one element larger.  A state is
    priced from its key, weighted by the prior, not conditioned: stopping is
    worth the sum of p_i x f(d, i) over the support in index order, so the
    root's value is the expectation ``f_avg`` takes, and an element the sum
    of its outcome states' values in state order.  Stopping is the incumbent
    and elements are tried in index order; one replaces the incumbent only
    if strictly greater, with no tolerance.  Exact ties keep stopping, then
    the smallest element, but rounding decides mathematical ties, so that
    summation order is a contract.
    """
    require_count(k=k)
    n = instance.num_elements
    k = min(k, n)
    rows = utility_rows(instance)
    _check_memo_keys(instance, k, enum_budget)
    bits = state_bitsets(instance)
    prior = instance.prior
    positive = [i for i, p in enumerate(prior) if p > 0.0]
    weights = [prior[i] for i in positive]
    if len(positive) < len(prior):  # each row cut to the positive realizations
        rows = [tuple(map(row.__getitem__, positive)) for row in rows]
    # own[v][j]: the positive realizations that share the j-th one's state
    # at v; the support of mask d is the AND of own[v][j] over the v in d.
    columns = zip(*map(instance.realizations.__getitem__, positive))
    own = [list(map(b.__getitem__, column)) for b, column in zip(bits, columns)]
    root = sum([1 << i for i in positive])
    tables: dict[int, dict[int, float]] = {}
    # Depth first, so that only one chain of masks keeps its supports.
    pending = [(0, [root] * len(positive))]
    while pending:
        d, supports = pending.pop()
        supports = list(supports)
        tables[d] = _stop_values(supports, map(mul, weights, rows[d]))
        if d.bit_count() < k:
            pending += [(d | 1 << top, map(and_, supports, own[top]))
                        for top in range(d.bit_length(), n)]
    choice: dict[tuple[int, int], int] = {}
    for d in sorted(tables, reverse=True):  # every d | v is finished first
        if d.bit_count() == k:
            continue
        table = tables[d]
        options = [(v, tables[d | 1 << v], bits[v])
                   for v in range(n) if not d >> v & 1]
        for s, best in table.items():
            for v, after, outcomes in options:
                value = 0.0
                for b in outcomes:
                    if c := s & b:
                        value += after[c]
                if value > best:
                    best = value
                    choice[d, s] = v
            table[s] = best
    return _chosen_tree(choice, bits, 0, root, {}), tables[0][root]


def _stop_values(supports, terms) -> dict[int, float]:
    """The stop value of each support: the sum of its realizations' ``terms``
    (p_i x f(d, i), in index order), keyed by support in order of first
    appearance."""
    table: dict[int, float] = {}
    get = table.get
    for s, term in zip(supports, terms):
        table[s] = get(s, 0.0) + term
    return table


# -- minimum cost coverage -------------------------------------------------


def optimal_coverage(
    instance: Instance,
    q: Optional[float] = None,
    pruned: bool = False,
    tol: float = TOL,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[Node, float]:
    """The cheapest policy (by expected selections) that drives the utility
    to Q on every positive-mass branch.

    The default pass is exact.  ``pruned=True`` keeps only elements that
    shrink the version space or strictly raise the minimal consistent
    utility: exact for identification, where a query that splits nothing
    changes no coverage utility, but not in general.  Only lemma 3 runs it,
    against the exact pass; on a coverage utility the two are one solve
    (see below).

    A DP state is (observed elements, support), both as bitsets; supports
    are conditioned with :func:`~adaptsel.core.state_bitsets`.  A state is
    covered when its support misses every realization whose utility there is
    more than ``tol`` from Q.  An outcome's probability is the prior mass of
    its support over its parent's, each summed in index order as
    ``version_space`` sums it; outcomes are added in order of first
    appearance in the support.  The first candidate whose cost is below the
    best so far by more than ``tol`` wins.

    The exact pass tries every unobserved element and keys its memo and
    choices by the state, except on a coverage utility: a
    :class:`~adaptsel.core.CoverageTable` built under the instance's own
    prior, none of it negative, with (|V| + 2) x ``tol`` < 1.  There it keys
    them by the support alone and tries only the elements that split the
    support, which is exact too.  For a positive i in support S after
    observing A, f(A, phi_i) = 1 - p(S) + p_i: i's class under A is S plus
    zero-prior realizations, which add exactly 0.0 to its mass.  So whether
    S is covered, and by induction its cost to go c, depend on S alone.  An
    element that splits nothing (every element of A, perhaps others) leads
    back to S at cost 1 + c, more than c + ``tol``, so it never ends as the
    best.  It can take the running best only at 1 + c; from there the
    running best stays within ``tol`` per acceptance of where the splitting
    candidates alone would hold it, less than 1 - ``tol`` in all, so the
    candidate of cost c is still accepted and the pass ends with the same
    choice and cost.  Two positive realizations differ at some element,
    which splits their support, and a single one is covered, as Q is
    reachable.

    Where the exact pass keys by support, ``pruned=True`` returns its solve:
    the pruned filter drops exactly the elements that split nothing, which
    change no coverage utility, and its fallback never fires, as an
    uncovered support holds two positive realizations.  Elsewhere the pruned
    pass keys by the state.  Each instance solves each pass once per (Q,
    ``tol``) and returns the same ``(tree, cost)`` object on a repeated call;
    support masses are kept on the instance for every pass.  The
    reachability of Q and the ``enum_budget`` gate are checked on every
    call, cached or not.
    """
    if q is not None:
        require_finite(q=q)
    require_tol(tol)
    rows = utility_rows(instance)
    prior = instance.prior
    positive = [i for i, p in enumerate(prior) if p > 0.0]
    if q is None:
        q = max([max([row[i] for i in positive]) for row in rows])
    n = instance.num_elements
    full = rows[-1]
    for i in positive:
        if abs(full[i] - q) > tol:
            raise CoverageUnreachable(
                f"realization {i} only reaches {full[i]} != {q} "
                f"with every element selected"
            )
    _check_memo_keys(instance, n, enum_budget)
    by_support = (isinstance(rows, CoverageTable) and rows.prior == prior
                  and min(prior) >= 0.0 and (n + 2) * tol < 1.0)
    pruned = pruned and not by_support  # there the pruned pass is this one
    cache = instance.__dict__  # not fields: kept out of ==, repr and the JSON
    solved = cache.setdefault("_coverage", {})
    if (q, pruned, tol) in solved:
        return solved[q, pruned, tol]
    masses: dict[int, float] = cache.setdefault("_masses", {})
    bits = state_bitsets(instance)
    uncovered = [sum([1 << i for i, value in enumerate(row) if abs(value - q) > tol])
                 for row in rows]
    dom_key = 0 if by_support else -1  # a key is (dom & dom_key, support)
    memo: dict[tuple[int, int], float] = {}
    choice: dict[tuple[int, int], int] = {}

    def mass(support: int) -> float:
        found = masses.get(support)
        if found is None:
            found = masses[support] = sum([prior[i] for i in members(support)])
        return found

    def candidates(dom: int, support: int) -> list[tuple[int, list]]:
        """(element, its outcomes as (lowest bit, state, child support)
        sorted) per candidate element."""
        options = []
        for v in range(n):
            if not dom >> v & 1:
                outcomes = [(child & -child, y, child)
                            for y, observed in enumerate(bits[v])
                            if (child := support & observed)]
                if by_support and len(outcomes) == 1:
                    continue
                outcomes.sort()
                options.append((v, outcomes))
        if not pruned or all(len(outcomes) > 1 for _, outcomes in options):
            return options  # the filter below keeps every splitting element
        inside = members(support)
        here = rows[dom]
        current_min = min([here[i] for i in inside])
        keep = []
        for v, outcomes in options:
            if len(outcomes) > 1:
                keep.append((v, outcomes))
                continue
            after = rows[dom | 1 << v]
            if min([after[i] for i in inside]) > current_min + tol:
                keep.append((v, outcomes))
        # Coverage is reachable, so some element must eventually help; fall
        # back to everything if the heuristic filters them all out.
        return keep or options

    def solve(dom: int, support: int) -> float:
        """The cost of an uncovered state not yet in the memo, at least 1;
        covered children cost 0 and are left out of the memo."""
        total = mass(support)
        best_cost = math.inf
        for v, outcomes in candidates(dom, support):
            observed = dom | 1 << v
            unmet = uncovered[observed]
            cost = 1.0
            for _, _, child in outcomes:
                if child & unmet:
                    found = (memo.get((observed & dom_key, child))
                             or solve(observed, child))
                    cost += (masses.get(child) or mass(child)) / total * found
            if cost < best_cost - tol:
                best_cost, best = cost, v
        choice[dom & dom_key, support] = best
        memo[dom & dom_key, support] = best_cost
        return best_cost

    root = sum([1 << i for i in positive])
    try:
        cost = solve(0, root) if root & uncovered[0] else 0.0
    finally:
        del solve  # solve's cell holds solve: free the memo without the collector
    tree = _chosen_tree(choice, bits, 0, root, {}, dom_key)
    solved[q, pruned, tol] = result = (tree, cost)
    return result


def _chosen_tree(
    choice: dict[tuple[int, int], int],
    bits: tuple[tuple[int, ...], ...],
    dom: int,
    support: int,
    built: dict[tuple[int, int], Node],
    dom_key: int = -1,
) -> Node:
    """The tree a DP chose from state (``dom``, ``support``), whose key is
    (``dom & dom_key``, ``support``): -1 keys by the state, 0 by the support
    alone.  A state whose key is in ``choice`` selects its element and
    branches on its states' supports (``bits``), any other state stops.
    Each key's subtree is built once, kept in ``built``, and shared by every
    path that reaches it."""
    key = dom & dom_key, support
    v = choice.get(key)
    if v is None:
        return TERMINAL
    node = built.get(key)
    if node is None:
        observed = dom | 1 << v
        node = built[key] = Select(v, tuple([
            _chosen_tree(choice, bits, observed, support & b, built, dom_key)
            for b in bits[v]
        ]))
    return node
