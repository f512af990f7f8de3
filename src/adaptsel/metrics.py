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
    Instance,
    PartialRealization,
    c_avg,
    f_avg,
    path_state,
    positive_partial_realizations,
)
from .errors import BudgetExceedsCost, EnumerationBudgetExceeded
from .oracle import (
    DEFAULT_ENUM_BUDGET,
    count_policies,
    enumerate_policies,
    random_policy_over,
)
from .policy import (
    AnnotatedNode,
    Node,
    Policy,
    Select,
    ThresholdLadder,
    ThresholdSubPolicy,
    annotate_tree,
    base_tree,
    budget_ladder,
    coin_outcomes,
    cut_nodes,
    cut_stats,
    policy_height,
    threshold_ladder,
)


def alpha(instance: Instance, policy: Policy) -> float:
    """Greedy approximation ratio: the largest ratio of the best available
    gain to the selected element's gain over the positive-mass selection
    nodes of the policy's annotated base tree (for a threshold sub-policy,
    the selection nodes of both coin outcomes' cuts)."""
    return _alpha(annotate_tree(instance, base_tree(policy)), policy)


def _alpha(annot: AnnotatedNode, policy: Policy) -> float:
    if isinstance(policy, ThresholdSubPolicy):
        tau, rho = policy.tau, policy.rho
    else:
        tau, rho = -math.inf, 1.0  # a tree is its own uncut strict-rule cut
    worst = 1.0
    for strict, _weight in coin_outcomes(rho):
        for node, stop in cut_nodes(annot, tau, strict):
            if stop:
                continue
            # Observed elements gain exactly 0, so the best is >= 0; the
            # ratio takes 0/0 := 1 and positive/0 := +inf.
            best, chosen = max(node.gmax, 0.0), node.gains[node.element]
            if abs(chosen) > TOL:
                worst = max(worst, best / chosen)
            elif best > TOL:
                return math.inf
    return worst


@dataclass(frozen=True)
class FrontierGains:
    """Largest remaining gain at termination (delta_u) and smallest selected
    gain (delta_l) of the cost-i sub-policy, with the first node attaining
    each (its observations, plus the selected element for delta_l)."""

    i: int
    delta_u: float
    delta_l: float
    termination_witness: Optional[dict] = None
    selection_witness: Optional[dict] = None


def budget_frontier(
    instance: Instance, ladder: ThresholdLadder, i: int
) -> FrontierGains:
    """delta_u / delta_l of pi_i, read off ``ladder`` at its ``pair(i)``:
    the extremes over the :func:`~adaptsel.policy.cut_stats` of both coin
    outcomes' cuts, strict first, so each witness is the first attaining
    node in cut order.  delta_l over an empty selection set is 0."""
    delta_u, delta_l = -math.inf, math.inf
    frontier = selection = None
    tau, rho = ladder.pair(i)
    for strict, _weight in coin_outcomes(rho):
        _mu, du, dl, at_u, at_l = cut_stats(ladder.annot, tau, strict)
        if du > delta_u:
            delta_u, frontier = du, at_u
        if dl < delta_l:
            delta_l, selection = dl, at_l
    if selection is None:
        return FrontierGains(i, delta_u, 0.0, instance.describe_psi(frontier.psi))
    return FrontierGains(i, delta_u, delta_l, instance.describe_psi(frontier.psi), {
        "psi": instance.describe_psi(selection.psi),
        "element": instance.elements[selection.element],
    })


def frontier_gains(instance: Instance, policy: Policy, i: int) -> FrontierGains:
    """delta_u / delta_l of pi_i over both coin outcomes and all
    positive-mass branches, with witnesses: :func:`budget_frontier` on the
    base tree's threshold ladder."""
    if i < 1:
        raise BudgetExceedsCost(f"frontier gains need a budget >= 1, got {i}")
    return budget_frontier(instance, budget_ladder(instance, policy, i), int(i))


@dataclass(frozen=True)
class BetaResult:
    """``anomaly`` flags a budget whose ratio is negative: its selected gain
    delta_l is below -``TOL``, which only a non-monotone utility allows.
    The value stays the computed maximum."""

    value: float
    per_budget: tuple[FrontierGains, ...]
    argmax_budget: Optional[int]
    empty_range: bool = False
    anomaly: bool = False

    def __float__(self) -> float:
        return self.value


def beta(instance: Instance, policy: Policy) -> BetaResult:
    """Maximal gain ratio: max over integer budgets i <= c_avg of
    delta_u / delta_l, with 0/0 := 0 and positive/0 := +inf per budget.

    A policy with average cost below 1 has an empty budget range; the result
    is 0 with ``empty_range`` flagged (the definition is silent there).

    Every ``per_budget`` entry, witnesses included, is the
    :func:`budget_frontier` of one threshold ladder of the base tree, the
    same that :func:`frontier_gains` reads for a single budget.
    """
    cost = c_avg(instance, policy)
    return _beta(instance, threshold_ladder(instance, base_tree(policy)), cost)


def _beta(instance: Instance, ladder: ThresholdLadder, cost: float) -> BetaResult:
    top = int(math.floor(cost + TOL))
    if top < 1:
        return BetaResult(0.0, (), None, empty_range=True)
    per = tuple(budget_frontier(instance, ladder, i) for i in range(1, top + 1))
    ratios = [
        fg.delta_u / fg.delta_l if abs(fg.delta_l) > TOL
        else 0.0 if abs(fg.delta_u) <= TOL else math.inf
        for fg in per
    ]
    best = max(ratios)
    return BetaResult(best, per, ratios.index(best) + 1,
                      anomaly=any(r < 0.0 for r in ratios))


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


class GammaBudgetExceeded(EnumerationBudgetExceeded):
    """Exact gamma would evaluate more policies than the enumeration
    budget; sampled mode bounds gamma from above without enumerating."""


#: Candidate policies whose expected gain is within this of 0 are skipped by
#: ``gamma`` in both modes: their ratio is undefined.
GAMMA_DENOMINATOR_FLOOR = 1e-12


class _GammaWalk:
    """Scores candidate trees of one ``gamma`` call by walking their
    positive-mass nodes, with every conditioning state split and priced
    once per call, whichever psi' and tree reach it."""

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.states: dict = {}  # psi.key() -> core.PathState

    def state(self, psi: PartialRealization):
        """The ``core.PathState`` of psi, conditioned by ``version_space``
        only if psi was not reached before."""
        return path_state(self.instance, psi, table=self.states)

    def terms(self, root, tree: Node) -> tuple[float, float]:
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
                outcomes = at.split(self.instance, v, self.states)
            for y, (mass, child) in outcomes.items():
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
            raise GammaBudgetExceeded(
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
    beta_anomaly: bool = False

    def __post_init__(self) -> None:
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
    the number of elements.  alpha, beta and its witnesses are read off one
    threshold ladder of the base tree, cut at ``TOL`` like every threshold
    cut; ``tol`` sets only Q/eta's value grouping and gamma's anomaly flag.
    """
    height = policy_height(instance, policy)
    if n is None:
        n = max(height, 1)
    if k is None:
        k = instance.num_elements
    ladder = threshold_ladder(instance, base_tree(policy))
    cost = c_avg(instance, policy)
    a = _alpha(ladder.annot, policy)
    b = _beta(instance, ladder, cost)
    # beta <= alpha holds where the base tree stops only once no gain above
    # TOL is left; a tree that stops early can leave any gain behind.  A cut
    # at tau stops where every gain is at most tau + TOL and selects where the
    # best, at most alpha times the selected gain, is at least tau - TOL, so
    # delta_u <= alpha * delta_l + 2 TOL: beta may pass alpha by 2 TOL over
    # delta_l.  A delta_l within TOL of 0 makes the ratio 0 or +inf by
    # convention, which bounds nothing.
    exhaustive = cut_stats(ladder.annot, -math.inf, True)[1] <= TOL
    fg = b.per_budget[b.argmax_budget - 1] if b.argmax_budget else None
    slack = 2.0 * TOL / fg.delta_l if fg and fg.delta_l > TOL else math.inf
    if exhaustive and math.isfinite(a) and b.value > a + TOL + slack:
        raise AssertionError(
            f"maximal gain ratio {b.value} exceeds greedy approximation "
            f"ratio {a}"
        )
    q, eta = covering_params(instance, tol=tol)
    witnesses: dict = {"beta_budget": b.argmax_budget}
    if fg is not None:
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
        c_avg=cost,
        height=height,
        witnesses=witnesses,
        beta_anomaly=b.anomaly,
    )
