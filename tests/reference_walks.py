"""First-principles reference walks for the threshold machinery, the
coverage oracle and the adaptive checks.

Each positive-mass node of a deterministic tree is reached from scratch,
its gains are recomputed with ``core.gains``, and a threshold sub-policy is
cut with ``cut_tree`` into its coin components.  The differential tests
require the library's annotated-tree results to equal these exactly,
witnesses included.

``reference_optimal_budget`` and ``reference_optimal_coverage`` are the
budget and coverage DPs keyed by partial realizations, every state
conditioned with ``core.split``; the two reference checks
condition every partial realization from scratch with ``version_space`` and
compare every pair psi subseteq psi' directly.  The library's bitset DPs and
running-minimum check must return the same trees and witnesses.

``reference_f_avg``, ``reference_c_avg`` and ``reference_policy_gain`` are
the run-based expectations: every positive-weight realization runs every
component tree from the root, building its observations one
``PartialRealization`` at a time.  The library's descent must give the same
floats and raise the same errors.
"""

import itertools
import math

import adaptsel as a
from adaptsel.core import (
    EMPTY,
    CheckResult,
    PartialRealization,
    gains,
    positive_partial_realizations,
    split,
    subset_key,
    version_space,
)


def reachable_nodes(instance, tree):
    """Positive-mass nodes of a deterministic tree, root first.

    Yields (observations so far, their conditional prior, node); includes
    terminal nodes.
    """
    stack = [(EMPTY, version_space(instance, EMPTY), tree)]
    while stack:
        psi, vs, node = stack.pop()
        yield psi, vs, node
        if isinstance(node, a.Terminal):
            continue
        if node.element in psi:
            raise a.MalformedPolicy(
                f"element {instance.elements[node.element]!r} re-selected"
            )
        for y, (_mass, part) in split(instance, vs, node.element).items():
            stack.append((psi.extended(node.element, y), part, node.children[y]))


def reference_selected(instance, tree, phi_index):
    """The elements ``tree`` selects on realization ``phi_index``, by running
    it with a growing partial realization."""
    phi = instance.realizations[phi_index]
    psi = EMPTY
    node = tree
    while isinstance(node, a.Select):
        if not 0 <= node.element < instance.num_elements:
            raise a.MalformedPolicy(f"element index {node.element} outside ground set")
        if node.element in psi:
            raise a.MalformedPolicy(
                f"element {instance.elements[node.element]!r} re-selected"
            )
        y = phi[node.element]
        psi = psi.extended(node.element, y)
        node = node.children[y]
    return psi.dom


def _reference_expectation(instance, policy, weights, value):
    trees = a.policy.components(instance, policy)
    total = 0.0
    for phi_index, w in weights:
        if w <= 0.0:
            continue
        for branch, tree in trees:
            selected = reference_selected(instance, tree, phi_index)
            total += w * branch * value(selected, phi_index)
    return total


def reference_f_avg(instance, policy):
    return _reference_expectation(
        instance, policy, enumerate(instance.prior), instance.value
    )


def reference_c_avg(instance, policy):
    return _reference_expectation(
        instance, policy, enumerate(instance.prior),
        lambda selected, _phi_index: len(selected),
    )


def reference_policy_gain(instance, policy, psi):
    dom = psi.dom
    return _reference_expectation(
        instance, policy, version_space(instance, psi).items(),
        lambda selected, phi_index: instance.value(dom + selected, phi_index)
        - instance.value(dom, phi_index),
    )


def _ratio(numerator, denominator, tol):
    if abs(denominator) <= tol:
        return 1.0 if abs(numerator) <= tol else math.inf
    return numerator / denominator


def reference_alpha(instance, policy, tol=a.TOL):
    """Greedy approximation ratio over the reachable selection nodes of every
    coin component of the policy."""
    worst = 1.0
    for _weight, tree in a.policy.components(instance, policy):
        for psi, vs, node in reachable_nodes(instance, tree):
            if isinstance(node, a.Terminal):
                continue
            node_gains = gains(instance, psi, vs)
            best = max(max(node_gains.values(), default=0.0), 0.0)
            worst = max(worst, _ratio(best, node_gains[node.element], tol))
    return worst


def reference_frontier_gains(instance, policy, i):
    """delta_u / delta_l of pi_i and the first node attaining each, over the
    ``cut_tree`` components of pi_i in ``reachable_nodes`` order."""
    if i < 1:
        raise a.BudgetExceedsCost(f"frontier gains need a budget >= 1, got {i}")
    sub = a.sub_policy_at_cost(instance, policy, i)
    delta_u = -math.inf
    delta_l = math.inf
    u_witness = None
    l_witness = None
    for _weight, tree in a.policy.components(instance, sub):
        for psi, vs, node in reachable_nodes(instance, tree):
            node_gains = gains(instance, psi, vs)
            if isinstance(node, a.Terminal):
                top = max(max(node_gains.values(), default=0.0), 0.0)
                if top > delta_u:
                    delta_u = top
                    u_witness = instance.describe_psi(psi)
            else:
                low = node_gains[node.element]
                if low < delta_l:
                    delta_l = low
                    l_witness = {
                        "psi": instance.describe_psi(psi),
                        "element": instance.elements[node.element],
                    }
    if delta_l == math.inf:
        delta_l = 0.0
    return a.FrontierGains(i, delta_u, delta_l, u_witness, l_witness)


def stops_exhausted(instance, tree, tol=a.TOL):
    """Whether no positive-mass terminal of ``tree`` leaves a gain above
    ``tol``."""
    return all(
        max(gains(instance, psi, vs).values(), default=0.0) <= tol
        for psi, vs, node in reachable_nodes(instance, tree)
        if isinstance(node, a.Terminal)
    )


def reference_optimal_budget(instance, k):
    """Best tree of height <= k by a DP over (partial realization, remaining
    budget), splitting every state's prior for every element (no
    enumeration-budget gate).  Elements replace stopping or an earlier
    element only when strictly better, with no tolerance."""
    if k < 0:
        raise ValueError("budget must be non-negative")
    k = min(k, instance.num_elements)
    if instance.utility is None:
        raise ValueError("instance has no utility table attached")
    table = instance.utility
    memo = {}

    def solve(psi, vs, budget):
        key = (psi.key(), budget)
        if key in memo:
            return memo[key]
        dom = psi.dom
        row = table[subset_key(dom)]
        best_value = sum(w * row[i] for i, w in vs.items())
        best_node = a.TERMINAL
        if budget > 0:
            for v in range(instance.num_elements):
                if v in dom:
                    continue
                value = 0.0
                children = [a.TERMINAL] * instance.num_states
                for y, (p_y, part) in split(instance, vs, v).items():
                    sub_value, sub_node = solve(
                        psi.extended(v, y), part, budget - 1
                    )
                    value += p_y * sub_value
                    children[y] = sub_node
                if value > best_value:
                    best_value = value
                    best_node = a.Select(v, tuple(children))
        memo[key] = (best_value, best_node)
        return memo[key]

    value, tree = solve(EMPTY, version_space(instance, EMPTY), k)
    return tree, value


def reference_optimal_coverage(instance, q=None, pruned=True, tol=a.TOL):
    """Cheapest covering tree by a DP over partial realizations, each
    conditioned with ``core.split`` (no enumeration-budget gate)."""
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
            raise a.CoverageUnreachable(
                f"realization {i} only reaches {table[full][i]} != {q} "
                f"with every element selected"
            )
    memo = {}

    def covered(psi, vs):
        row = table[subset_key(psi.dom)]
        return all(abs(row[i] - q) <= tol for i in vs.support)

    def candidates(psi, vs):
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
        return keep or unobserved

    def solve(psi, vs):
        key = psi.key()
        if key in memo:
            return memo[key]
        if covered(psi, vs):
            memo[key] = (0.0, a.TERMINAL)
            return memo[key]
        best_cost = math.inf
        best_node = a.TERMINAL
        for v in candidates(psi, vs):
            cost = 1.0
            children = [a.TERMINAL] * instance.num_states
            for y, (p_y, part) in split(instance, vs, v).items():
                sub_cost, sub_node = solve(psi.extended(v, y), part)
                cost += p_y * sub_cost
                children[y] = sub_node
            if cost < best_cost - tol:
                best_cost = cost
                best_node = a.Select(v, tuple(children))
        memo[key] = (best_cost, best_node)
        return memo[key]

    cost, tree = solve(EMPTY, version_space(instance, EMPTY))
    return tree, cost


def reference_check_adaptive_monotone(instance, tol=a.TOL):
    """Every gain of every positive-mass psi, conditioned from scratch."""
    for psi in positive_partial_realizations(instance):
        for v, gain in gains(instance, psi, version_space(instance, psi)).items():
            if gain < -tol:
                return CheckResult(False, {
                    "psi": instance.describe_psi(psi),
                    "element": instance.elements[v],
                    "gain": gain,
                })
    return CheckResult(True)


def reference_check_adaptive_submodular(instance, tol=a.TOL):
    """Every pair psi subseteq psi', each conditioned from scratch."""
    nodes = list(positive_partial_realizations(instance))
    gains_at = {
        psi.key(): gains(instance, psi, version_space(instance, psi))
        for psi in nodes
    }
    for psi_big in nodes:
        big_key = psi_big.key()
        big_gains = gains_at[big_key]
        for r in range(len(psi_big.pairs) + 1):
            for sub in itertools.combinations(psi_big.pairs, r):
                sub_key = frozenset(sub)
                if sub_key == big_key:
                    continue
                small_gains = gains_at[sub_key]
                for v, late in big_gains.items():
                    if small_gains[v] < late - tol:
                        return CheckResult(False, {
                            "psi": instance.describe_psi(PartialRealization(sub)),
                            "psi_prime": instance.describe_psi(psi_big),
                            "element": instance.elements[v],
                            "gain_early": small_gains[v],
                            "gain_late": late,
                        })
    return CheckResult(True)
