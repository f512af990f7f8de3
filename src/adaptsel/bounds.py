"""Numerical verification of the approximation guarantees.

Each bound is evaluated from first principles: every quantity on either
side (average utility/cost, gain ratios, submodularity ratio, covering
parameters, optimal baselines) comes from the corresponding module
operation, both sides are computed at full double precision, and the report
records the slack, the inputs used, and the outcome of every precondition
check.  Hard preconditions raise; legacy preconditions of the older bounds
(adaptive submodularity, exact greediness) are recorded in the report
instead of refusing, since the point of the newer bounds is that they hold
without them.

All logarithms and exponentials are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .core import (
    TOL,
    Instance,
    c_avg,
    check_adaptive_monotone,
    check_adaptive_submodular,
    f_avg,
    require_tol,
)
from .errors import PreconditionFailed
from .learn import coverage_instance, gbs_policy, modified_prior
from .metrics import (
    alpha,
    beta,
    budget_frontier,
    covering_params,
    gamma,
)
from .oracle import DEFAULT_ENUM_BUDGET, optimal_coverage
from .policy import (
    IMMEDIATE,
    Policy,
    ThresholdSubPolicy,
    base_tree,
    components,
    find_threshold_pair,
    policy_height,
    selected_elements,
    threshold_ladder,
    validate_policy,
)

@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: both sides, slack oriented so that a
    non-negative slack means the bound holds, and full provenance."""

    bound_id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    direction: str  # "lower": lhs >= rhs must hold; "upper": lhs <= rhs
    inputs: dict = field(default_factory=dict)
    preconditions: dict = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()


def _report(bound_id, direction, lhs, rhs, inputs, preconditions, diagnostics=(),
            tol=TOL) -> BoundReport:
    slack = (lhs - rhs) if direction == "lower" else (rhs - lhs)
    return BoundReport(
        bound_id=bound_id,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        holds=slack >= -tol,
        direction=direction,
        inputs=inputs,
        preconditions=preconditions,
        diagnostics=tuple(diagnostics),
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionFailed(message)


def _ratio_over_gamma(b: float, g: float) -> float:
    """beta/gamma with the degenerate cases pinned: a zero ratio numerator
    gives 0, a zero gamma with positive beta gives +inf."""
    if b <= 0.0:
        return 0.0
    if g <= 0.0:
        return math.inf
    return b / g


def _cap_factor(l: float, ratio: float, c_star: float) -> float:
    """1 - exp(-l / (ratio * c_star + 1)) with inf/0 products guarded."""
    if math.isinf(ratio):
        denom = 1.0 if c_star == 0.0 else math.inf
    else:
        denom = ratio * c_star + 1.0
    if math.isinf(denom):
        return 0.0
    return 1.0 - math.exp(-l / denom)


def _check_covering(instance: Instance, opt_policy, q: float,
                    include_zero_mass: bool, tol: float) -> bool:
    trees = components(instance, opt_policy)
    return all(
        abs(instance.value(selected_elements(instance, tree, i), i) - q) <= tol
        for i, p in enumerate(instance.prior) if p > 0.0 or include_zero_mass
        for _weight, tree in trees
    )


def verify(
    instance: Instance,
    bound_id: str,
    policy: Optional[Policy] = None,
    opt_policy: Optional[Policy] = None,
    l: Optional[int] = None,
    gamma_mode: str = "exact",
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    tol: float = TOL,
) -> BoundReport:
    """Evaluate one named bound and report both sides with slack.

    ``policy`` is the policy being judged (for thm1/eq3 the base policy
    whose threshold truncation at budget ``l`` is judged) and
    ``opt_policy`` the baseline pi*.  For eq5 both default to the
    GBS/optimal-coverage pipeline of the instance's realization list.
    ``tol`` sets the ``holds`` slack and the tolerance of the precondition
    checks; every threshold cut, and so alpha and beta, is taken at ``TOL``.
    """
    require_tol(tol)
    bound_id = bound_id.lower()
    if bound_id not in _HANDLERS:
        raise ValueError(f"unknown bound id {bound_id!r}")
    return _HANDLERS[bound_id](
        instance, policy=policy, opt_policy=opt_policy, l=l,
        gamma_mode=gamma_mode, enum_budget=enum_budget, tol=tol,
    )


# -- cardinality-constraint bounds -----------------------------------------


#: How far the average cost of the canonical threshold truncation may miss
#: the budget l.  The round trip is a sanity check of the threshold-pair
#: construction, not a comparison at the user's tolerance: the ladder snaps
#: to a class boundary within TOL of l, so the cost can miss l by TOL plus
#: rounding, and 1e-6 leaves room for both while still catching a wrong pair.
TRUNCATION_COST_TOL = 1e-6


def _truncated(instance, policy, l):
    """pi_l, built at ``TOL``: the tolerance that f_avg and c_avg cut at."""
    _require(policy is not None, "a base policy is required")
    _require(l is not None and not isinstance(l, bool) and l == int(l) and l >= 1,
             "an integer budget l >= 1 is required")
    tau, rho, sub = find_threshold_pair(instance, policy, int(l))
    # Round-trip check: the truncation really has average cost l.
    _require(
        abs(c_avg(instance, sub) - l) <= TRUNCATION_COST_TOL,
        f"threshold truncation does not reach average cost {l}",
    )
    return tau, rho, sub


def _verify_thm1(instance, policy, opt_policy, l, gamma_mode, enum_budget, tol):
    _require(opt_policy is not None, "a baseline policy pi* is required")
    monotone = check_adaptive_monotone(instance, tol)
    _require(monotone.ok, f"utility is not adaptive monotone: {monotone.witness}")
    tau, rho, sub = _truncated(instance, policy, l)
    n = max(policy_height(instance, sub), 1)
    k = max(policy_height(instance, opt_policy), 1)
    b = beta(instance, sub).value
    g = gamma(instance, n, k, gamma_mode, enum_budget)
    c_star = c_avg(instance, opt_policy)
    f_star = f_avg(instance, opt_policy)
    factor = _cap_factor(float(l), _ratio_over_gamma(b, g.value), c_star)
    lhs = f_avg(instance, sub)
    rhs = factor * f_star
    inputs = {
        "l": int(l), "n": n, "k": k, "beta": b, "gamma": g.value,
        "gamma_mode": g.mode, "c_avg_opt": c_star, "tau": tau, "rho": rho,
        "f_avg_opt": f_star,
    }
    return _report("thm1", "lower", lhs, rhs, inputs,
                   {"adaptive_monotone": True}, tol=tol)


def _verify_eq1(instance, policy, opt_policy, l, gamma_mode, enum_budget, tol):
    _require(policy is not None and opt_policy is not None,
             "policy and baseline are required")
    submodular = check_adaptive_submodular(instance, tol)
    a = alpha(instance, policy)
    height = max(policy_height(instance, policy), 1)
    k = max(policy_height(instance, opt_policy), 1)
    f_star = f_avg(instance, opt_policy)
    diagnostics = []
    if math.isinf(a):
        rhs = 0.0
        diagnostics.append("alpha is infinite; bound trivialized to 0")
    else:
        rhs = (1.0 - math.exp(-height / (a * k))) * f_star
    lhs = f_avg(instance, policy)
    inputs = {"l": height, "k": k, "alpha": a, "f_avg_opt": f_star}
    return _report("eq1", "lower", lhs, rhs, inputs,
                   {"adaptive_submodular": submodular.ok}, diagnostics, tol)


def _verify_eq2(instance, policy, opt_policy, l, gamma_mode, enum_budget, tol):
    _require(policy is not None and opt_policy is not None,
             "policy and baseline are required")
    a = alpha(instance, policy)
    height = max(policy_height(instance, policy), 1)
    k = max(policy_height(instance, opt_policy), 1)
    g = gamma(instance, height, k, gamma_mode, enum_budget)
    f_star = f_avg(instance, opt_policy)
    lhs = f_avg(instance, policy)
    rhs = (1.0 - math.exp(-g.value * height / k)) * f_star
    inputs = {"l": height, "k": k, "gamma": g.value, "gamma_mode": g.mode,
              "f_avg_opt": f_star}
    return _report("eq2", "lower", lhs, rhs, inputs,
                   {"greedy": abs(a - 1.0) <= tol}, tol=tol)


def _verify_eq3(instance, policy, opt_policy, l, gamma_mode, enum_budget, tol):
    _require(opt_policy is not None, "a baseline policy pi* is required")
    submodular = check_adaptive_submodular(instance, tol)
    tau, rho, sub = _truncated(instance, policy, l)
    a = alpha(instance, policy)
    c_star = c_avg(instance, opt_policy)
    f_star = f_avg(instance, opt_policy)
    lhs = f_avg(instance, sub)
    rhs = (1.0 - math.exp(-float(l) / (c_star + 1.0))) * f_star
    inputs = {"l": int(l), "c_avg_opt": c_star, "tau": tau, "rho": rho,
              "f_avg_opt": f_star}
    return _report("eq3", "lower", lhs, rhs, inputs,
                   {"adaptive_submodular": submodular.ok,
                    "greedy": abs(a - 1.0) <= tol}, tol=tol)


# -- coverage bounds -------------------------------------------------------


def _coverage_common(instance, policy, opt_policy, tol, prior=None):
    """(Q, eta) under ``prior`` (the instance's if None), once pi* is known
    to reach a positive Q on every realization that counts: those of
    positive mass under the instance's prior, or all of them if a prior is
    given."""
    _require(policy is not None and opt_policy is not None,
             "policy and baseline are required")
    q, eta = covering_params(instance, prior=prior, tol=tol)
    _require(q > tol, "covering bounds need a positive maximal utility Q")
    every = prior is not None
    _require(
        _check_covering(instance, opt_policy, q, include_zero_mass=every, tol=tol),
        "pi* does not reach Q on every realization" if every
        else "pi* does not reach Q on every positive-mass realization",
    )
    return q, eta


def _verify_thm2(instance, policy, opt_policy, l, gamma_mode, enum_budget, tol):
    monotone = check_adaptive_monotone(instance, tol)
    _require(monotone.ok, f"utility is not adaptive monotone: {monotone.witness}")
    q, eta = _coverage_common(instance, policy, opt_policy, tol)
    n = policy_height(instance, policy)
    _require(n >= 1, "the policy must be able to select at least one element")
    k = max(policy_height(instance, opt_policy), 1)
    b = beta(instance, policy).value
    g = gamma(instance, n, k, gamma_mode, enum_budget)
    c_star = c_avg(instance, opt_policy)
    ratio = _ratio_over_gamma(b, g.value)
    rhs = (ratio * c_star + 1.0) * math.log(n * q / eta) + 2.0
    lhs = c_avg(instance, policy)
    inputs = {"n": n, "k": k, "beta": b, "gamma": g.value, "gamma_mode": g.mode,
              "q": q, "eta": eta, "c_avg_opt": c_star}
    return _report("thm2", "upper", lhs, rhs, inputs,
                   {"adaptive_monotone": True, "covering": True}, tol=tol)


def _verify_eq4(instance, policy, opt_policy, l, gamma_mode, enum_budget, tol):
    q, eta = _coverage_common(instance, policy, opt_policy, tol)
    submodular = check_adaptive_submodular(instance, tol)
    a = alpha(instance, policy)
    c_star = c_avg(instance, opt_policy)
    rhs = (c_star + 1.0) * math.log(instance.num_elements * q / eta) + 1.0
    lhs = c_avg(instance, policy)
    inputs = {"num_elements": instance.num_elements, "q": q, "eta": eta,
              "c_avg_opt": c_star}
    return _report("eq4", "upper", lhs, rhs, inputs,
                   {"adaptive_submodular": submodular.ok,
                    "greedy": abs(a - 1.0) <= tol,
                    "covering": True}, tol=tol)


def _verify_thm6(instance, policy, opt_policy, l, gamma_mode, enum_budget, tol):
    monotone = check_adaptive_monotone(instance, tol)
    _require(monotone.ok, f"utility is not adaptive monotone: {monotone.witness}")
    p_mod = modified_prior(instance.prior)
    q, eta = _coverage_common(instance, policy, opt_policy, tol, prior=p_mod)
    lifted = instance.with_prior(p_mod)
    k = policy_height(instance, opt_policy)
    _require(
        k <= instance.num_realizations,
        "pi* must have height at most the number of realizations",
    )
    n = policy_height(lifted, policy)
    _require(n >= 1, "the policy must be able to select at least one element")
    b = beta(lifted, policy).value
    _require(b >= -TOL, f"beta on the modified prior is negative: {b}")
    g = gamma(lifted, n, max(k, 1), gamma_mode, enum_budget)
    c_star = c_avg(instance, opt_policy)  # cost under the original prior
    ratio = _ratio_over_gamma(b, g.value)
    rhs = 2.0 * (ratio * (c_star + 1.0) + 1.0) * math.log(n * q / eta) + 4.0
    lhs = c_avg(instance, policy)
    inputs = {"n": n, "k": k, "beta_modified": b, "gamma_modified": g.value,
              "gamma_mode": g.mode, "q": q, "eta": eta, "c_avg_opt": c_star,
              "monotone_modified": check_adaptive_monotone(lifted, tol).ok}
    return _report("thm6", "upper", lhs, rhs, inputs,
                   {"adaptive_monotone": True, "covering": True,
                    "height_bound": True}, tol=tol)


def _verify_eq5(instance, policy, opt_policy, l, gamma_mode, enum_budget, tol):
    """Coverage-utility specialization: GBS on the modified prior, judged
    under the true prior, against the cheapest covering policy."""
    cov_plain = coverage_instance(instance, modified=False)
    cov_mod = coverage_instance(instance, modified=True)
    if policy is None:
        policy = gbs_policy(cov_mod)
    if opt_policy is None:
        opt_policy, _cost = optimal_coverage(cov_plain, q=1.0, tol=tol,
                                             enum_budget=enum_budget)
    _require(
        _check_covering(cov_mod, opt_policy, 1.0, include_zero_mass=True, tol=tol),
        "pi* does not identify every realization under the modified prior",
    )
    m = instance.num_realizations
    _require(
        policy_height(cov_mod, opt_policy) <= m,
        "pi* must have height at most the number of realizations",
    )
    b = beta(cov_mod, policy).value
    height = max(policy_height(cov_mod, policy), 1)
    c_star = c_avg(cov_plain, opt_policy)
    rhs = 2.0 * (b * (c_star + 1.0) + 1.0) * math.log(2.0 * m * m * height) + 4.0
    lhs = c_avg(cov_plain, policy)
    inputs = {"n": height, "num_realizations": m, "beta_modified": b,
              "c_avg_opt": c_star, "eta": 1.0 / (2.0 * m * m), "q": 1.0}
    return _report("eq5", "upper", lhs, rhs, inputs,
                   {"covering": True, "height_bound": True}, tol=tol)


# -- lemmas ----------------------------------------------------------------


def _verify_lemma2(instance, policy, opt_policy, l, gamma_mode, enum_budget, tol):
    """f_avg(pi_i) - f_avg(pi_{i-1}) >= delta_l at every budget i, with
    every pi_i and delta_l read off one threshold ladder of the base tree,
    built at ``TOL`` like every cut that f_avg takes, as is the budget
    range; ``tol`` sets only the slack."""
    _require(policy is not None, "a policy is required")
    total = c_avg(instance, policy)
    top = int(math.floor(total + TOL))
    _require(top >= 1, "the policy must select at least one element on average")
    base = base_tree(policy)
    validate_policy(instance, base)
    ladder = threshold_ladder(instance, base)
    worst = math.inf
    per_budget = []
    previous = f_avg(instance, IMMEDIATE)
    for i in range(1, top + 1):
        tau, rho = ladder.pair(i)
        current = f_avg(instance, ThresholdSubPolicy(base, tau, rho))
        delta_l = budget_frontier(instance, ladder, i).delta_l
        margin = (current - previous) - delta_l
        per_budget.append(
            {"i": i, "gain": current - previous, "delta_l": delta_l}
        )
        worst = min(worst, margin)
        previous = current
    return _report("lemma2", "lower", worst, 0.0,
                   {"per_budget": per_budget, "c_avg": total}, {}, tol=tol)


def _verify_lemma3(instance, policy, opt_policy, l, gamma_mode, enum_budget, tol):
    """Pruned and unpruned coverage optima agree, and the pruned tree's
    height is at most the number of realizations.  Both are claims about
    identification, where every useful query eliminates a realization; on
    other instances either can fail, and the report then reads false.  On a
    coverage utility both sides are one solve, the support-keyed exact pass,
    so the cost check compares that solve with itself.  What checks the
    lemma there is the pass's proof (see ``optimal_coverage``) and the
    differential tests that hold it to the reference passes, pruned and
    over every unobserved element, and to the state-keyed pruned pass."""
    tree_pruned, cost_pruned = optimal_coverage(
        instance, pruned=True, tol=tol, enum_budget=enum_budget
    )
    tree_full, cost_full = optimal_coverage(
        instance, pruned=False, tol=tol, enum_budget=enum_budget
    )
    costs_agree = abs(cost_pruned - cost_full) <= tol
    height = policy_height(instance, tree_pruned)
    report = _report(
        "lemma3", "upper", float(height), float(instance.num_realizations),
        {"cost_pruned": cost_pruned, "cost_unpruned": cost_full,
         "height": height},
        {"pruned_cost_matches_unpruned": costs_agree}, tol=tol,
    )
    if not costs_agree:
        report = replace(report, holds=False, diagnostics=(
            "pruned and unpruned optimal costs disagree",))
    return report


#: Each bound's handler; ``BOUND_IDS`` lists the ids in this order.
_HANDLERS = {
    "thm1": _verify_thm1, "thm2": _verify_thm2, "thm6": _verify_thm6,
    "eq1": _verify_eq1, "eq2": _verify_eq2, "eq3": _verify_eq3,
    "eq4": _verify_eq4, "eq5": _verify_eq5,
    "lemma2": _verify_lemma2, "lemma3": _verify_lemma3,
}

BOUND_IDS = tuple(_HANDLERS)
