"""Policy and utility-function parameters: alpha, beta, gamma, Q, eta.

``alpha`` is the greedy approximation ratio (how far each selection falls
short of the best available gain), ``beta`` the maximal gain ratio (gains
left on the table at termination versus gains collected, maximized over
integer budgets), ``gamma`` the adaptive submodularity ratio of the utility
function, and (Q, eta) the discrete-covering parameters of the utility
table.  All are exact computations over the instance table; ``gamma`` also
offers a sampled upper-bound mode when exact policy enumeration is too
large.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    TOL,
    ConditionalPrior,
    Instance,
    PartialRealization,
    c_avg,
    f_avg,
    gains,
    positive_partial_realizations,
    split,
    version_space,
)
from .errors import BudgetExceedsCost, EnumerationBudgetExceeded
from .oracle import DEFAULT_ENUM_BUDGET
from .policy import (
    Node,
    Policy,
    Select,
    Terminal,
    ThresholdSubPolicy,
    components,
    cut_stats,
    policy_height,
    reachable_nodes,
    sub_policy_at_cost,
    threshold_ladder,
)


def _ratio(numerator: float, denominator: float, tol: float) -> float:
    """Ratio with the 0/0 := 1 and positive/0 := +inf conventions used by
    the greedy approximation ratio."""
    if abs(denominator) <= tol:
        return 1.0 if abs(numerator) <= tol else math.inf
    return numerator / denominator


def alpha(instance: Instance, policy: Policy, tol: float = TOL) -> float:
    """Greedy approximation ratio over reachable positive-mass selection
    nodes (both coin outcomes for a threshold sub-policy)."""
    worst = 1.0
    for _weight, tree in components(instance, policy):
        for psi, vs, node in reachable_nodes(instance, tree):
            if isinstance(node, Terminal):
                continue
            node_gains = gains(instance, psi, vs)
            best = max(node_gains.values(), default=0.0)
            best = max(best, 0.0)  # observed elements gain exactly 0
            worst = max(worst, _ratio(best, node_gains[node.element], tol))
    return worst


@dataclass(frozen=True)
class FrontierGains:
    """Largest remaining gain at termination (delta_u) and smallest selected
    gain (delta_l) of the cost-i sub-policy."""

    i: int
    delta_u: float
    delta_l: float
    termination_witness: Optional[dict] = None
    selection_witness: Optional[dict] = None


def frontier_gains(
    instance: Instance, policy: Policy, i: int, tol: float = TOL
) -> FrontierGains:
    """delta_u / delta_l of pi_i, over both coin outcomes and all
    positive-mass branches.  The maximum over an empty remaining set is 0."""
    if i < 1:
        raise BudgetExceedsCost(f"frontier gains need a budget >= 1, got {i}")
    sub = sub_policy_at_cost(instance, policy, i, tol)
    delta_u = -math.inf
    delta_l = math.inf
    u_witness = None
    l_witness = None
    seen: set[frozenset] = set()
    for _weight, tree in components(instance, sub):
        for psi, vs, node in reachable_nodes(instance, tree):
            key = psi.key()
            node_gains = gains(instance, psi, vs)
            if isinstance(node, Terminal):
                top = max(node_gains.values(), default=0.0)
                top = max(top, 0.0)
                if (key, True) not in seen and top > delta_u:
                    delta_u = top
                    u_witness = instance.describe_psi(psi)
                seen.add((key, True))
            else:
                low = node_gains[node.element]
                if low < delta_l:
                    delta_l = low
                    l_witness = {
                        "psi": instance.describe_psi(psi),
                        "element": instance.elements[node.element],
                    }
    if delta_u == -math.inf:
        delta_u = 0.0
    if delta_l == math.inf:
        delta_l = 0.0
    return FrontierGains(i, delta_u, delta_l, u_witness, l_witness)


@dataclass(frozen=True)
class BetaResult:
    value: float
    per_budget: tuple[FrontierGains, ...]
    argmax_budget: Optional[int]
    empty_range: bool = False

    def __float__(self) -> float:
        return self.value


def beta(instance: Instance, policy: Policy, tol: float = TOL) -> BetaResult:
    """Maximal gain ratio: max over integer budgets i <= c_avg of
    delta_u / delta_l, with 0/0 := 0 and positive/0 := +inf per budget.

    A policy with average cost below 1 has an empty budget range; the result
    is 0 with ``empty_range`` flagged (the definition is silent there).

    Every budget's (tau_i, rho_i) and threshold cuts are read off one
    :func:`~adaptsel.policy.threshold_ladder` of the base tree;
    ``frontier_gains`` recomputes any per-budget pair from first principles
    for cross-checking and witnesses.
    """
    cost = c_avg(instance, policy)
    top = int(math.floor(cost + tol))
    if top < 1:
        return BetaResult(0.0, (), None, empty_range=True)
    base = policy.base if isinstance(policy, ThresholdSubPolicy) else policy
    ladder = threshold_ladder(instance, base, tol)

    best = -math.inf
    best_i = None
    per = []
    for i in range(1, top + 1):
        tau, rho = ladder.pair(i)
        delta_u = 0.0
        delta_l = math.inf
        for strict, weight in ((True, rho), (False, 1.0 - rho)):
            if weight > 0.0:
                _mu, du, dl = cut_stats(ladder.annot, tau, strict, tol)
                delta_u = max(delta_u, du)
                delta_l = min(delta_l, dl)
        if delta_l == math.inf:
            delta_l = 0.0
        fg = FrontierGains(i, delta_u, delta_l)
        per.append(fg)
        if abs(fg.delta_l) <= tol:
            ratio = 0.0 if abs(fg.delta_u) <= tol else math.inf
        else:
            ratio = fg.delta_u / fg.delta_l
        if ratio > best:
            best = ratio
            best_i = i
    return BetaResult(best, tuple(per), best_i)


# -- adaptive submodularity ratio ------------------------------------------


@dataclass(frozen=True)
class GammaResult:
    value: float
    mode: str
    raw_min: float
    n: int
    k: int
    witness: Optional[dict] = None
    anomaly: bool = False

    def __float__(self) -> float:
        return self.value


#: Candidate policies whose expected gain is within this of 0 are skipped by
#: ``gamma`` in both modes: their ratio is undefined.
GAMMA_DENOMINATOR_FLOOR = 1e-12


@dataclass(slots=True)
class _State:
    """One conditioning state of a gamma call: observations, their
    conditional prior and gains, and, per element split on so far, each
    outcome's ``(state index, mass, next state)``."""

    psi: PartialRealization
    vs: ConditionalPrior
    gains: dict[int, float]
    after: dict[int, tuple[tuple[int, float, "_State"], ...]]


class _GammaWalk:
    """Scores candidate trees of one ``gamma`` call by walking their
    positive-mass nodes, with every conditioning state split and priced
    once per call, whichever psi' and tree reach it."""

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.states: dict[frozenset, _State] = {}

    def state(
        self, psi: PartialRealization, vs: Optional[ConditionalPrior] = None
    ) -> _State:
        """The state of psi; ``vs``, its conditional prior, is computed
        only if psi was not reached before."""
        key = psi.key()
        found = self.states.get(key)
        if found is None:
            if vs is None:
                vs = version_space(self.instance, psi)
            found = self.states[key] = _State(
                psi, vs, gains(self.instance, psi, vs), {}
            )
        return found

    def terms(self, root: _State, tree: Node) -> tuple[float, float]:
        """(N, D) of ``tree`` run after ``root``'s psi': the reach-weighted
        sums of Delta(v | psi') and of Delta(v | psi' and the path to v) over
        the tree's selections.  D telescopes to the tree's expected gain."""
        numerator = 0.0
        denominator = 0.0
        psi_gains = root.gains
        stack = [(tree, root, 1.0)] if isinstance(tree, Select) else []
        while stack:
            node, at, reach = stack.pop()
            v = node.element
            numerator += reach * psi_gains[v]
            denominator += reach * at.gains[v]
            outcomes = at.after.get(v)
            if outcomes is None:
                outcomes = at.after[v] = tuple(
                    (y, mass, self.state(at.psi.extended(v, y), part))
                    for y, (mass, part) in split(self.instance, at.vs, v).items()
                )
            for y, mass, child in outcomes:
                sub = node.children[y]
                if isinstance(sub, Select):
                    stack.append((sub, child, reach * mass))
        return numerator, denominator


def gamma(
    instance: Instance,
    n: int,
    k: int,
    mode: str = "exact",
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    samples: int = 200,
    seed: int = 0,
    tol: float = TOL,
) -> GammaResult:
    """Adaptive submodularity ratio gamma^s_{n,k}.

    Minimizes, over positive-mass partial realizations psi' with at most n
    observations and deterministic height-<=k policies over the unobserved
    elements, the ratio of summed per-element gains (weighted by selection
    probability) to the policy's expected gain.  Terms whose denominator is
    within ``GAMMA_DENOMINATOR_FLOOR`` of 0 are skipped, and the result is
    clamped to [0, 1]; a raw minimum meaningfully below 0 is reported as an
    anomaly.

    Exact mode scores every policy of ``enumerate_policies`` by one walk
    over its positive-mass nodes (no per-realization runs); the
    conditioning states it walks are split and priced once per call.
    ``mode="sampled"`` scores a random subset of policies per psi' the same
    way and therefore returns an upper bound on gamma, labeled as such.
    """
    from .oracle import count_policies, enumerate_policies, random_policy_over

    if n < 1 or k < 1:
        raise ValueError("gamma requires n, k >= 1")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown gamma mode {mode!r}")

    nodes = list(positive_partial_realizations(instance, max_size=n))
    if mode == "exact":
        total = sum(
            count_policies(
                instance.num_elements - len(psi), k, instance.num_states
            )
            for psi in nodes
        )
        if total > enum_budget:
            raise EnumerationBudgetExceeded(
                f"exact gamma would evaluate {total} policies "
                f"(budget {enum_budget}); use sampled mode"
            )

    rng = random.Random(seed)
    walk = _GammaWalk(instance)
    raw_min = math.inf
    witness = None
    for psi in nodes:
        root = walk.state(psi)
        if mode == "exact":
            trees = enumerate_policies(instance, k, psi, enum_budget)
        else:
            available = [v for v in range(instance.num_elements) if v not in psi]
            trees = (
                random_policy_over(instance, available, k, rng)
                for _ in range(samples)
            )
        for tree in trees:
            numerator, denominator = walk.terms(root, tree)
            if abs(denominator) <= GAMMA_DENOMINATOR_FLOOR:
                continue
            ratio = numerator / denominator
            if ratio < raw_min:
                raw_min = ratio
                witness = {"psi": instance.describe_psi(psi)}
    label = "exact" if mode == "exact" else "sampled-upper-bound"
    if raw_min == math.inf:
        # Every candidate policy had zero gain: the constraint set is empty
        # and the function is vacuously submodular.
        return GammaResult(1.0, label, 1.0, n, k)
    value = min(1.0, max(0.0, raw_min))
    return GammaResult(value, label, raw_min, n, k, witness, raw_min < -tol)


# -- discrete covering parameters ------------------------------------------


def covering_params(
    instance: Instance,
    prior: Optional[tuple[float, ...]] = None,
    tol: float = TOL,
) -> tuple[float, float]:
    """(Q, eta): the maximal achievable utility and the gap to the next
    distinct achievable value, over positive-probability realizations.

    If every achievable value equals Q, eta = Q (the whole range is the
    gap).  ``prior`` overrides the instance prior for deciding which
    realizations count.
    """
    if instance.utility is None:
        raise ValueError("instance has no utility table attached")
    weights = instance.prior if prior is None else tuple(prior)
    values = sorted(
        {
            row[i]
            for row in instance.utility.values()
            for i, p in enumerate(weights)
            if p > 0.0
        },
        reverse=True,
    )
    q = values[0]
    for value in values[1:]:
        if value < q - tol:
            return q, q - value
    return q, q


# -- aggregate report ------------------------------------------------------


@dataclass(frozen=True)
class ParamReport:
    """All computed parameters of an (instance, policy) pair, with the
    witnesses attaining each extremum."""

    alpha: float
    beta: float
    gamma: Optional[float]
    gamma_mode: Optional[str]
    n: Optional[int]
    k: Optional[int]
    q: float
    eta: float
    f_avg: float
    c_avg: float
    height: int
    witnesses: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if math.isfinite(self.alpha) and self.beta > self.alpha + TOL:
            raise AssertionError(
                f"maximal gain ratio {self.beta} exceeds greedy approximation "
                f"ratio {self.alpha}"
            )
        if self.gamma is not None and not 0.0 <= self.gamma <= 1.0:
            raise AssertionError(f"gamma {self.gamma} outside [0, 1]")


def param_report(
    instance: Instance,
    policy: Policy,
    n: Optional[int] = None,
    k: Optional[int] = None,
    gamma_mode: str = "exact",
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    tol: float = TOL,
) -> ParamReport:
    """Compute every parameter for one instance/policy pair.

    ``gamma_mode="skip"`` omits the submodularity ratio (it is by far the
    most expensive number).  ``n`` defaults to the policy height, ``k`` to
    the number of elements.
    """
    height = policy_height(instance, policy)
    if n is None:
        n = max(height, 1)
    if k is None:
        k = instance.num_elements
    a = alpha(instance, policy, tol)
    b = beta(instance, policy, tol)
    q, eta = covering_params(instance, tol=tol)
    witnesses: dict = {"beta_budget": b.argmax_budget}
    if b.argmax_budget is not None:
        fg = frontier_gains(instance, policy, b.argmax_budget, tol)
        witnesses["beta_termination"] = fg.termination_witness
        witnesses["beta_selection"] = fg.selection_witness
    g_value = None
    g_mode = None
    if gamma_mode != "skip":
        g = gamma(instance, n, k, gamma_mode, enum_budget, tol=tol)
        g_value = g.value
        g_mode = g.mode
        witnesses["gamma"] = g.witness
    return ParamReport(
        alpha=a,
        beta=b.value,
        gamma=g_value,
        gamma_mode=g_mode,
        n=n if gamma_mode != "skip" else None,
        k=k if gamma_mode != "skip" else None,
        q=q,
        eta=eta,
        f_avg=f_avg(instance, policy),
        c_avg=c_avg(instance, policy),
        height=height,
        witnesses=witnesses,
    )
