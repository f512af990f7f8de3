"""First-principles reference walks for the threshold machinery.

Each positive-mass node of a deterministic tree is reached from scratch,
its gains are recomputed with ``core.gains``, and a threshold sub-policy is
cut with ``cut_tree`` into its coin components.  The differential tests
require the library's annotated-tree results to equal these exactly,
witnesses included.
"""

import math

import adaptsel as a
from adaptsel.core import EMPTY, gains, split, version_space


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


def reference_frontier_gains(instance, policy, i, tol=a.TOL):
    """delta_u / delta_l of pi_i and the first node attaining each, over the
    ``cut_tree`` components of pi_i in ``reachable_nodes`` order."""
    if i < 1:
        raise a.BudgetExceedsCost(f"frontier gains need a budget >= 1, got {i}")
    sub = a.sub_policy_at_cost(instance, policy, i, tol)
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
