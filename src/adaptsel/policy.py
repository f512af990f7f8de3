"""Policy trees, greedy construction, and threshold/tie-break sub-policies.

A deterministic policy is a tree whose internal nodes select an element and
branch on its observed state.  The randomized form used by the gain-ratio
machinery is a :class:`ThresholdSubPolicy` (base tree, threshold tau,
tie-break probability rho): a single coin is drawn at the start of a run;
with probability rho the run terminates as soon as every remaining element
has expected marginal gain strictly below tau, and with probability 1 - rho
as soon as every remaining gain is at most tau.  Run-level (not
per-decision) randomization is what makes the average cost of the mixture
exactly the two-point interpolation used by the threshold-pair construction.

Conditioning lives in ``core``: tree walks take each node's conditional prior,
gains and split from the instance's path cache, ``core.path_root``.  Every
walker recurses through a module-level function with explicit arguments, never
through a closure that names itself: such a closure is a reference cycle that
would keep the instance and its path cache alive until the cyclic collector
ran, where reference counting frees them once the caller drops the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

from .core import (
    TOL,
    Instance,
    PartialRealization,
    PathState,
    c_avg,
    path_root,
    require_count,
)
from .errors import BudgetExceedsCost, MalformedPolicy

#: Gains at or below this are treated as "no remaining value" by the greedy
#: builder's threshold-0 stopping rule.
GREEDY_STOP = 1e-12


@dataclass(frozen=True)
class Terminal:
    """Leaf node: the policy stops."""


@dataclass(frozen=True)
class Select:
    """Internal node: select ``element`` and branch on its observed state.

    ``children`` has one subtree per state index, covering every state.
    """

    element: int
    children: tuple["Node", ...]


Node = Union[Terminal, Select]
Policy = Union[Terminal, Select, "ThresholdSubPolicy"]

TERMINAL = Terminal()

#: The policy that terminates before selecting any element.
IMMEDIATE = TERMINAL


@dataclass(frozen=True)
class ThresholdSubPolicy:
    base: Node
    tau: float
    rho: float

    def __post_init__(self) -> None:
        # Every threshold defines a cut, including the negative ones that
        # the gains of non-monotone utilities give.
        if math.isnan(self.tau):
            raise MalformedPolicy(f"threshold {self.tau} is NaN")
        if not -TOL <= self.rho <= 1.0 + TOL:
            raise MalformedPolicy(f"tie-break probability {self.rho} outside [0,1]")


def coin_outcomes(rho: float) -> list[tuple[bool, float]]:
    """(strict, weight) of each coin outcome of positive weight, strict rule
    first: it has weight rho, the at-most rule 1 - rho."""
    return [(s, w) for s, w in ((True, rho), (False, 1.0 - rho)) if w > 0.0]


def base_tree(policy: Policy) -> Node:
    """The deterministic tree a policy runs on: a threshold sub-policy's
    base, or the tree itself."""
    return policy.base if isinstance(policy, ThresholdSubPolicy) else policy


@dataclass(frozen=True)
class RunTrace:
    """One randomness branch of a policy run on a fixed realization."""

    selected: tuple[int, ...]
    observed: PartialRealization
    weight: float


# -- structural helpers ----------------------------------------------------


def tree_height(node: Node) -> int:
    """Maximal number of selections on any root-to-leaf path.  A node
    without children counts as a selection; the walks that price a tree
    refuse it."""
    if isinstance(node, Terminal):
        return 0
    return 1 + max((tree_height(child) for child in node.children), default=0)


def validate_policy(instance: Instance, policy: Policy) -> None:
    """Raise :class:`MalformedPolicy` on structural violations."""
    if isinstance(policy, ThresholdSubPolicy):
        validate_policy(instance, policy.base)
        return
    _validate(instance, policy, 0)


def _validate(instance: Instance, node: Node, seen: int) -> None:
    """:func:`validate_policy` below a node reached by selecting the
    elements of the mask ``seen``."""
    if isinstance(node, Terminal):
        return
    e = node.element
    if (not 0 <= e < instance.num_elements or seen >> e & 1
            or len(node.children) != instance.num_states):
        raise _malformed(instance, node, seen)
    for child in node.children:
        _validate(instance, child, seen | 1 << e)


def _malformed(instance: Instance, node: Select, seen: int) -> MalformedPolicy:
    """The error of a node, reached by selecting the elements of the mask
    ``seen``, that selects an element outside the ground set or in ``seen``,
    or that lacks one child per state."""
    e = node.element
    if not 0 <= e < instance.num_elements:
        return MalformedPolicy(f"element index {e} outside ground set")
    if seen >> e & 1:
        return MalformedPolicy(f"element {instance.elements[e]!r} re-selected")
    return MalformedPolicy("children do not cover every state")


def chain_policy(instance: Instance, element_indices: list[int]) -> Node:
    """A fixed-order chain that selects the given elements regardless of
    observed states."""
    node: Node = TERMINAL
    for e in reversed(element_indices):
        node = Select(e, (node,) * instance.num_states)
    validate_policy(instance, node)
    return node


# -- running policies ------------------------------------------------------


def selected_elements(instance: Instance, tree: Node, phi_index: int) -> tuple[int, ...]:
    """The elements a deterministic tree selects on realization
    ``phi_index``, in selection order, read by descending to its leaf."""
    phi = instance.realizations[phi_index]
    n, arity = instance.num_elements, instance.num_states
    seen, selected, node = 0, [], tree
    while isinstance(node, Select):
        e = node.element
        if not 0 <= e < n or seen >> e & 1 or len(node.children) != arity:
            raise _malformed(instance, node, seen)
        seen |= 1 << e
        selected.append(e)
        node = node.children[phi[e]]
    return tuple(selected)


def _stop_rule(tau: float, strict: bool) -> Callable[[float], bool]:
    """Whether a threshold-``tau`` cut stops at a node, from the node's
    largest remaining gain: strictly below tau (``strict``) or at most tau,
    within ``TOL``, the one tolerance of every threshold cut."""
    if strict:
        bar = tau - TOL
        return lambda gmax: gmax < bar
    bar = tau + TOL
    return lambda gmax: gmax <= bar


def cut_tree(instance: Instance, base: Node, tau: float, strict: bool) -> Node:
    """The deterministic tree obtained by terminating ``base`` at threshold
    ``tau`` under one coin outcome, by :func:`_stop_rule`.

    Branches with zero prior mass are cut to terminals, since no gain is
    defined there and no expectation ever reaches them.  A malformed node
    that the cut reaches raises :class:`MalformedPolicy`.
    """
    return _cut(instance, base, path_root(instance), _stop_rule(tau, strict))


def _cut(instance: Instance, node: Node, state: PathState,
         stops: Callable[[float], bool]) -> Node:
    """:func:`cut_tree` of the subtree ``node`` at ``state``."""
    if isinstance(node, Terminal):
        return TERMINAL
    if stops(max(state.gains.values(), default=0.0)):
        return TERMINAL
    if node.element not in state.gains or len(node.children) != instance.num_states:
        raise _malformed(instance, node, state.dom)
    parts = state.split(instance, node.element)
    children = tuple(
        _cut(instance, node.children[y], parts[y][1], stops) if y in parts
        else TERMINAL
        for y in range(instance.num_states)
    )
    return Select(node.element, children)


def components(instance: Instance, policy: Policy) -> list[tuple[float, Node]]:
    """A policy as a finite mixture of deterministic trees.

    Deterministic trees are their own single component; a threshold
    sub-policy yields its strict-rule cut with weight rho and its at-most
    rule cut with weight 1 - rho (zero-weight components are dropped).
    """
    if isinstance(policy, ThresholdSubPolicy):
        return [
            (weight, cut_tree(instance, policy.base, policy.tau, strict))
            for strict, weight in coin_outcomes(policy.rho)
        ]
    return [(1.0, policy)]


def run(instance: Instance, policy: Policy, phi_index: int) -> list[RunTrace]:
    """Enumerate all randomness branches of one run, with branch weights.

    Deterministic trees give exactly one trace of weight 1; threshold
    sub-policies give at most two, one per coin outcome, merged when the
    outcomes coincide.
    """
    if not 0 <= phi_index < instance.num_realizations:
        raise ValueError(f"realization index {phi_index} out of range")
    phi = instance.realizations[phi_index]
    weights: dict[tuple[int, ...], float] = {}
    for weight, tree in components(instance, policy):
        selected = selected_elements(instance, tree, phi_index)
        weights[selected] = weights.get(selected, 0.0) + weight
    return [RunTrace(s, PartialRealization(tuple((e, phi[e]) for e in s)), w)
            for s, w in weights.items()]


def policy_height(instance: Instance, policy: Policy) -> int:
    """Maximal number of selections over realizations and random bits."""
    if isinstance(policy, ThresholdSubPolicy):
        return max(tree_height(tree) for _, tree in components(instance, policy))
    return tree_height(policy)


# -- annotated trees (shared gain computations) ----------------------------


@dataclass(frozen=True)
class AnnotatedNode:
    """A positive-mass node of a deterministic tree with its expected
    marginal gains precomputed, so repeated threshold cuts of the same base
    tree do not recompute expectations.  ``children`` are in split order."""

    pairs: tuple[tuple[int, int], ...]  # the node's observations, in path order
    mass: float  # probability of reaching this node under the prior
    gains: dict[int, float]
    gmax: float
    element: Optional[int]  # None at termination nodes
    children: tuple["AnnotatedNode", ...]


def annotate_tree(instance: Instance, tree: Node) -> AnnotatedNode:
    """Precompute reach probabilities and gain tables for every
    positive-mass node of a deterministic tree, raising
    :class:`MalformedPolicy` at a malformed one."""
    return _annotate(instance, tree, path_root(instance), 1.0)


def _annotate(instance: Instance, node: Node, state: PathState,
              mass: float) -> AnnotatedNode:
    """:func:`annotate_tree` of the subtree ``node`` at ``state``, reached
    with probability ``mass``."""
    node_gains = state.gains
    gmax = max(node_gains.values(), default=0.0)
    if isinstance(node, Terminal):
        return AnnotatedNode(state.pairs, mass, node_gains, gmax, None, ())
    if node.element not in node_gains or len(node.children) != instance.num_states:
        raise _malformed(instance, node, state.dom)
    children = tuple(
        _annotate(instance, node.children[y], child, mass * p_y)
        for y, (p_y, child) in state.split(instance, node.element).items()
    )
    return AnnotatedNode(state.pairs, mass, node_gains, gmax, node.element, children)


def cut_nodes(
    annot: AnnotatedNode, tau: float, strict: bool
) -> Iterator[tuple[AnnotatedNode, bool]]:
    """The nodes of the threshold-``tau`` cut of an annotated tree under one
    coin outcome, each with whether the cut stops there, depth first from
    the root with each node's children in reverse split order.

    Terminals always stop, other nodes by :func:`_stop_rule` as in
    :func:`cut_tree`; ``tau=-inf, strict=True`` walks the uncut tree.
    """
    stops = _stop_rule(tau, strict)
    stack = [annot]
    while stack:
        node = stack.pop()
        stop = node.element is None or stops(node.gmax)
        yield node, stop
        if not stop:
            stack.extend(node.children)


def cut_stats(
    annot: AnnotatedNode, tau: float, strict: bool
) -> tuple[float, float, float, AnnotatedNode, Optional[AnnotatedNode]]:
    """(average cost mu, largest gain left at a stop delta_u, smallest
    selected gain delta_l, first stop node leaving delta_u, first selection
    node of delta_l) of the threshold-``tau`` cut of an annotated tree under
    one coin outcome, in one pass in :func:`cut_nodes` order.

    A stop node leaves its largest remaining gain, or 0 if none is positive
    or none remains; over an empty selection set delta_l is +inf and its
    node None (the caller converts).
    """
    mu, delta_u, delta_l = 0.0, -math.inf, math.inf
    frontier = selection = None
    for node, stop in cut_nodes(annot, tau, strict):
        if stop:
            top = max(node.gmax, 0.0)
            if top > delta_u:
                delta_u, frontier = top, node
        else:
            mu += node.mass
            low = node.gains[node.element]
            if low < delta_l:
                delta_l, selection = low, node
    return mu, delta_u, delta_l, frontier, selection


# -- greedy construction ---------------------------------------------------


def build_greedy(instance: Instance) -> Node:
    """The lexicographic-tie-break greedy tree, run to the threshold-0 stop.

    At every reachable positive-mass node the selected element attains the
    maximal expected marginal gain (within ``TOL``); construction stops
    once no remaining element has positive gain.
    """
    return _greedy(instance, path_root(instance))


def _greedy(instance: Instance, state: PathState) -> Node:
    """:func:`build_greedy` below ``state``."""
    node_gains = state.gains
    if not node_gains:
        return TERMINAL
    gmax = max(node_gains.values())
    if gmax <= GREEDY_STOP:
        return TERMINAL
    element = min(v for v, g in node_gains.items() if g >= gmax - TOL)
    parts = state.split(instance, element)
    children = tuple(
        _greedy(instance, parts[y][1]) if y in parts else TERMINAL
        for y in range(instance.num_states)
    )
    return Select(element, children)


# -- threshold pairs (existence/uniqueness construction) -------------------


@dataclass(frozen=True)
class ThresholdLadder:
    """The threshold classes of one base tree, in order of increasing cost.

    ``steps`` starts at ``(sentinel, 0.0)``, a threshold above every
    achievable gain; each later ``(tau, mu)`` is a threshold class whose
    strict-rule cut of ``annot`` costs ``mu``, strictly more than the step
    before it.
    """

    annot: AnnotatedNode
    sentinel: float
    steps: tuple[tuple[float, float], ...]

    def pair(self, i: int) -> tuple[float, float]:
        """The canonical (tau_i, rho_i) whose sub-policy has average cost i:
        the first class costing at least i, with the coin interpolating from
        the class below.  Budget 0 stops at once, on the sentinel."""
        if i == 0:
            return self.sentinel, 0.0
        for (_, mu_low), (tau, mu) in zip(self.steps, self.steps[1:]):
            if i <= mu + TOL:
                # Snap to the pure strict rule when the budget sits on the
                # class boundary, so float noise cannot leave a
                # vanishing-weight non-strict component behind.
                if mu - i <= TOL:
                    return tau, 1.0
                rho = (i - mu_low) / (mu - mu_low)
                return tau, min(1.0, max(0.0, rho))
        raise BudgetExceedsCost(
            f"budget {i} exceeds the policy's average cost {self.steps[-1][1]}"
        )


def threshold_ladder(instance: Instance, base: Node) -> ThresholdLadder:
    """The threshold ladder of a deterministic tree.

    Candidate thresholds are the gains of remaining elements at every
    positive-mass node, grouped within ``TOL`` (the tolerance every cut
    stops at) with each class represented by its maximum, and priced by
    :func:`cut_stats` on one annotated tree.
    """
    annot = annotate_tree(instance, base)
    values = [
        value
        for node, _stop in cut_nodes(annot, -math.inf, True)
        for value in node.gains.values()
    ]
    sentinel = max(values, default=0.0) + 1.0
    steps = [(sentinel, 0.0)]
    rep = math.inf
    for value in sorted(values, reverse=True):
        if value >= rep - TOL:
            continue
        rep = value
        mu = cut_stats(annot, rep, True)[0]
        if mu > steps[-1][1] + TOL:
            steps.append((rep, mu))
    return ThresholdLadder(annot, sentinel, tuple(steps))


def budget_ladder(instance: Instance, policy: Policy, i: int) -> ThresholdLadder:
    """The :func:`threshold_ladder` of ``policy``'s base tree, once budget
    ``i`` is checked to be a count (:func:`~adaptsel.core.require_count`)
    within the policy's average cost."""
    require_count(i=i)
    base = base_tree(policy)
    validate_policy(instance, base)
    total_cost = c_avg(instance, policy)
    if i > total_cost + TOL:
        raise BudgetExceedsCost(
            f"budget {i} exceeds the policy's average cost {total_cost}"
        )
    return threshold_ladder(instance, base)


def find_threshold_pair(
    instance: Instance, policy: Policy, i: int
) -> tuple[float, float, ThresholdSubPolicy]:
    """The canonical (tau_i, rho_i) whose sub-policy has average cost i.

    Follows the constructive existence proof, read off the base tree's
    :func:`threshold_ladder`.  Any other valid pair induces the same
    policy, which the test suite checks directly on run traces.
    """
    tau, rho = budget_ladder(instance, policy, i).pair(i)
    return tau, rho, ThresholdSubPolicy(base_tree(policy), tau, rho)
