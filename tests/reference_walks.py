"""First-principles reference walks for the threshold machinery, the
coverage oracle and the adaptive checks.

Each positive-mass node of a deterministic tree is reached from scratch,
its gains are recomputed with ``core.gains``, and a threshold sub-policy is
cut with ``cut_tree`` into its coin components.  The differential tests
require the library's annotated-tree results to equal these exactly,
witnesses included.

``reference_coverage_utility`` tabulates the coverage utility subset by
subset, each version-space mass by a scan over every realization, as rows
by element mask.  The library's bitset refinement must give the same rows
and the same floats.

``reference_optimal_budget`` and ``reference_optimal_coverage`` are the
budget and coverage DPs keyed by partial realizations: the budget DP prices
each state from the prior, the coverage DP conditions every state with
``core.split``.  ``reference_chained_optimal_budget`` is the budget DP that
conditioned every state with ``core.split``, the same optimum up to
rounding.  The two reference checks
condition every partial realization from scratch with ``version_space`` and
compare every pair psi subseteq psi' directly.  The library's bitset DPs and
running-minimum check must return the same trees and witnesses.
``reference_conditioned_states`` conditions the checks' states the way they
were conditioned before the layer walk: per psi of
``positive_partial_realizations``, one ``core.split`` part of the prior of
psi without its last pair, found in a table keyed by ``psi.key()``.
``reference_layer_states`` is that layer walk, state by state, and
``reference_layer_check_monotone`` and ``reference_layer_check_submodular``
are the checks that read it one ``PathState`` at a time, the running minimum
kept in a dict by pairs: the conditioning pass, which works a domain at a
time, must give their verdicts, witnesses and states bit for bit.
``gamma_walk_state`` roots gamma's walk at any psi' conditioned from scratch,
so a test can score one tree at one psi' without the layer walk.

``reference_f_avg``, ``reference_c_avg`` and ``reference_policy_gain`` are
the run-based expectations: every positive-weight realization runs every
component tree from the root, building its observations one
``PartialRealization`` at a time.  The library's descent must give the same
floats and raise the same errors.

``reference_parse_utility`` is the utility-table parse that looked every
entry's member list up in a dict of all-string lists and checked realization
and value through ``fileio``'s error helpers; ``fileio`` must return the
same rows by element mask, bit for bit, or raise the same ``ParseError``.
``subset_row`` reads the row of a subset of element indices from the rows.
``reference_jsonable`` is the report converter that asked
``dataclasses.is_dataclass`` of every value first; ``fileio.dumps`` must
write the same bytes as it.

``reference_enumerate_policies`` is the enumerator's odometer: each node's
children advance like digits, the last state fastest.  ``enumerate_policies``
must yield the same trees in the same order, since gamma's witness is the
first minimum in that order.  ``canonical_traces`` compares two policies by
their per-realization run traces, for the threshold-pair uniqueness tests.
"""

import dataclasses
import itertools
import math
from operator import attrgetter

import adaptsel as a
from adaptsel.core import (
    EMPTY,
    CheckResult,
    PartialRealization,
    PathState,
    _gain_rows,
    _gains,
    gains,
    path_state,
    positive_partial_realizations,
    split,
    state_bitsets,
    version_space,
)
from adaptsel.fileio import (
    _builtin_utility,
    _expect,
    _fail,
    _number,
    _subset_mask,
)


def subset_row(instance, subset):
    """The utility row of the subset of element indices ``subset``, in any
    order and with repeats."""
    return instance.utility[sum(1 << v for v in set(subset))]


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
    sub = a.find_threshold_pair(instance, policy, i)[2]
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
    budget), reading the table by subset (no enumeration-budget gate).  A state is
    priced from the prior, not conditioned: stopping is worth the sum of
    prior x utility over its positive-prior consistent realizations in index
    order, and an element the sum of its outcomes' values in state order.
    Elements replace stopping or an earlier element only when strictly
    better, with no tolerance."""
    if k < 0:
        raise ValueError("budget must be non-negative")
    k = min(k, instance.num_elements)
    if instance.utility is None:
        raise ValueError("instance has no utility table attached")
    prior = instance.prior
    memo = {}

    def solve(psi, budget):
        key = (psi.key(), budget)
        if key in memo:
            return memo[key]
        dom = psi.dom
        support = [i for i, phi in enumerate(instance.realizations)
                   if prior[i] > 0.0 and all(phi[e] == y for e, y in psi.pairs)]
        row = subset_row(instance, dom)
        best_value = sum(prior[i] * row[i] for i in support)
        best_node = a.TERMINAL
        if budget > 0:
            for v in range(instance.num_elements):
                if v in dom:
                    continue
                value = 0.0
                children = [a.TERMINAL] * instance.num_states
                for y in range(instance.num_states):
                    if any(instance.realizations[i][v] == y for i in support):
                        sub_value, children[y] = solve(psi.extended(v, y), budget - 1)
                        value += sub_value
                if value > best_value:
                    best_value = value
                    best_node = a.Select(v, tuple(children))
        memo[key] = (best_value, best_node)
        return memo[key]

    value, tree = solve(EMPTY, k)
    return tree, value


def reference_chained_optimal_budget(instance, k):
    """The budget DP before it priced states from the prior: a DP over
    (partial realization, remaining budget) that conditions every state with
    ``core.split``, so a child's weights are its parent's divided by the
    outcome mass, and adds mass x child value over outcomes in order of first
    appearance.  It is the same optimum up to rounding."""
    if k < 0:
        raise ValueError("budget must be non-negative")
    k = min(k, instance.num_elements)
    memo = {}

    def solve(psi, vs, budget):
        key = (psi.key(), budget)
        if key in memo:
            return memo[key]
        dom = psi.dom
        row = subset_row(instance, dom)
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


def reference_coverage_utility(instance, prior=None):
    """f_p(A, phi) = 1 - p(version space of phi restricted to A) + p(phi) for
    every subset A, by element mask, and every realization phi: each
    version-space mass by its own scan over all m realizations in index
    order, m^2 scans per subset."""
    p = tuple(instance.prior if prior is None else prior)
    realizations = instance.realizations
    table = []
    for mask in range(1 << instance.num_elements):
        subset = [e for e in range(instance.num_elements) if mask >> e & 1]
        table.append(tuple(
            1.0 - sum(p[j] for j, other in enumerate(realizations)
                      if all(other[e] == phi[e] for e in subset)) + p[i]
            for i, phi in enumerate(realizations)))
    return tuple(table)


def reference_optimal_coverage(instance, q=None, pruned=True, tol=a.TOL):
    """Cheapest covering tree by a DP over partial realizations, each
    conditioned with ``core.split`` (no enumeration-budget gate)."""
    if instance.utility is None:
        raise ValueError("instance has no utility table attached")
    if q is None:
        q = max(
            row[i]
            for row in instance.utility
            for i, p in enumerate(instance.prior)
            if p > 0.0
        )
    full = subset_row(instance, range(instance.num_elements))
    for i, p in enumerate(instance.prior):
        if p > 0.0 and abs(full[i] - q) > tol:
            raise a.CoverageUnreachable(
                f"realization {i} only reaches {full[i]} != {q} "
                f"with every element selected"
            )
    memo = {}

    def covered(psi, vs):
        row = subset_row(instance, psi.dom)
        return all(abs(row[i] - q) <= tol for i in vs.support)

    def candidates(psi, vs):
        unobserved = [v for v in range(instance.num_elements) if v not in psi]
        if not pruned:
            return unobserved
        row = subset_row(instance, psi.dom)
        current_min = min(row[i] for i in vs.support)
        keep = []
        for v in unobserved:
            states = {instance.realizations[i][v] for i in vs.support}
            if len(states) > 1:
                keep.append(v)
                continue
            after = subset_row(instance, psi.dom + (v,))
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


def gamma_walk_state(walk, psi):
    """The state of psi in ``walk``'s table (a ``metrics._GammaWalk``),
    conditioned by ``version_space`` if psi was not reached before: how
    ``gamma`` rooted its trees before its roots came from the layer walk.
    ``conftest`` installs it as ``_GammaWalk.state``."""
    return path_state(walk.instance, psi, table=walk.states)


def reference_conditioned_states(instance):
    """(psi, conditional prior, gains) of every positive-mass psi, in
    ``positive_partial_realizations`` order; the empty psi is conditioned by
    ``version_space``, every other one as the ``split`` part of its parent,
    psi without its last pair."""
    priors = {}
    for psi in positive_partial_realizations(instance):
        if psi.pairs:
            element, y = psi.pairs[-1]
            parent = priors[frozenset(psi.pairs[:-1])]
            vs = split(instance, parent, element)[y][1]
        else:
            vs = version_space(instance, psi)
        priors[psi.key()] = vs
        yield psi, vs, gains(instance, psi, vs)


def reference_layer_states(instance, max_size=None):
    """The row-at-a-time layer walk that the conditioning pass
    (``core._domains``) replaced: each layer's parents split domain by
    domain, then element by element, parent by parent and state by state,
    each part a ``PathState`` priced on its domain's shared gain rows by
    ``split`` and ``_gains``.  ``core.conditioned_states`` walks in the same
    order, but each part comes from ``PathState.split``."""
    bits = state_bitsets(instance)
    layer = [path_state(instance, EMPTY)]
    while layer:
        yield from layer
        if max_size is not None and len(layer[0].pairs) >= max_size:
            return
        below = []
        for dom, group in itertools.groupby(layer, key=attrgetter("dom")):
            group = list(group)
            for v in range(dom.bit_length(), instance.num_elements):
                child = dom | 1 << v
                rows = _gain_rows(instance, child)
                for parent in group:
                    for y, (_, part) in sorted(split(instance, parent.vs, v).items()):
                        below.append(PathState(parent.pairs + ((v, y),), child,
                                               parent.support & bits[v][y], part,
                                               _gains(rows, part)))
        layer = below


def reference_layer_check_monotone(instance, tol=a.TOL):
    """The monotonicity check state by state over the row-at-a-time walk."""
    for at in reference_layer_states(instance):
        for v, gain in at.gains.items():
            if gain < -tol:
                return CheckResult(False, {
                    "psi": instance.describe_psi(PartialRealization(at.pairs)),
                    "element": instance.elements[v], "gain": gain,
                })
    return CheckResult(True)


def reference_layer_check_submodular(instance, tol=a.TOL):
    """The running-minimum submodularity check state by state over the
    row-at-a-time walk, each state's minimum kept in a dict by its pairs."""
    seen = {}  # the sorted pairs of each psi so far -> (gains, M(psi, .))
    for at in reference_layer_states(instance):
        pairs = at.pairs
        low = at.gains
        if pairs:
            earlier = [seen[pairs[:j] + pairs[j + 1:]][1] for j in range(len(pairs))]
            low = {}
            for v, late in at.gains.items():
                early = min([m[v] for m in earlier])
                if early < late - tol:
                    return _reference_submodularity_witness(instance, at, seen, tol)
                low[v] = min(early, late)
        seen[pairs] = (at.gains, low)
    return CheckResult(True)


def _reference_submodularity_witness(instance, big, seen, tol):
    psi_prime = instance.describe_psi(PartialRealization(big.pairs))
    for r in range(len(big.pairs)):
        for sub in itertools.combinations(big.pairs, r):
            small_gains = seen[sub][0]
            for v, late in big.gains.items():
                if small_gains[v] < late - tol:
                    return CheckResult(False, {
                        "psi": instance.describe_psi(PartialRealization(sub)),
                        "psi_prime": psi_prime, "element": instance.elements[v],
                        "gain_early": small_gains[v], "gain_late": late,
                    })
    raise AssertionError("running minimum found a violation the rescan missed")


def reference_parse_utility(instance, spec):
    """A utility spec's rows by element mask: every entry's set resolved
    through a dict of all-string member lists, its realization and value
    checked through ``_expect`` and ``_number``."""
    kind = _expect(spec, "kind", str, "utility")
    if kind == "builtin":
        name = _expect(spec, "name", str, "utility")
        params = spec.get("params", {})
        if not isinstance(params, dict):
            _fail("utility: params must be an object")
        return _builtin_utility(instance, name, params)
    if kind != "table":
        _fail(f"utility: unknown kind {kind!r}")
    entries = _expect(spec, "entries", list, "utility")
    m = instance.num_realizations
    rows = {}
    # Only exact-string member lists cache their key: 1, True and 1.0 are equal.
    keys = {}
    for entry in entries:
        members = _expect(entry, "set", list, "utility entry")
        try:
            key = keys[tuple(members)]
        except (KeyError, TypeError):  # a new or an unhashable member list
            key = _subset_mask(instance, entry, members)
            if all(type(member) is str for member in members):
                keys[tuple(members)] = key
        phi_index = entry.get("realization")
        if type(phi_index) is not int or not 0 <= phi_index < m:
            phi_index = _expect(entry, "realization", int, "utility entry")
            _fail(f"utility entry {entry!r}: realization {phi_index!r} is not "
                  f"an index below {m}")
        value = _number(entry.get("value"), "utility entry value")
        row = rows.get(key)
        if row is None:
            row = rows[key] = [None] * m
        if row[phi_index] is not None:
            names = [x for e, x in enumerate(instance.elements) if key >> e & 1]
            _fail(f"utility entry {entry!r}: duplicate entry for set "
                  f"{names!r} and realization {phi_index!r}")
        row[phi_index] = value
    for size in range(instance.num_elements + 1):
        for subset in itertools.combinations(range(instance.num_elements), size):
            row = rows.get(sum(1 << e for e in subset))
            if row is None or None in row:
                _fail(f"utility table is missing entries for subset {subset!r}")
    return tuple(tuple(rows[mask]) for mask in range(1 << instance.num_elements))


def reference_jsonable(value):
    """Dataclasses, dicts, lists and tuples to plain JSON values, non-finite
    floats to their repr, asking ``is_dataclass`` of every value first."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: reference_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def reference_enumerate_policies(instance, height, psi=EMPTY):
    """Every deterministic tree of height <= ``height`` over the elements
    outside dom(psi), each node's children counted up by an odometer."""

    def generate(avail, h):
        yield a.TERMINAL
        if h <= 0:
            return
        for v in avail:
            subtrees = list(generate(tuple(x for x in avail if x != v), h - 1))
            indices = [0] * instance.num_states
            while True:
                yield a.Select(v, tuple(subtrees[i] for i in indices))
                pos = len(indices) - 1
                while pos >= 0 and indices[pos] == len(subtrees) - 1:
                    indices[pos] = 0
                    pos -= 1
                if pos < 0:
                    break
                indices[pos] += 1

    available = tuple(v for v in range(instance.num_elements) if v not in psi)
    return generate(available, height)


#: Decimal places ``canonical_traces`` keeps of each trace weight.  Two
#: threshold pairs that induce one policy give coin weights (rho, 1 - rho
#: and their sums) that agree only up to rounding, and a weight that rounds
#: to 0 is a coin outcome of vanishing probability; 9 places matches TOL.
TRACE_WEIGHT_DIGITS = 9


def canonical_traces(instance, policy):
    """Per-realization trace sets in a canonical order, for comparing whether
    two policies behave identically."""
    out = {}
    for phi_index, p in enumerate(instance.prior):
        if p <= 0.0:
            continue
        merged = sorted(
            (t.selected, round(t.weight, TRACE_WEIGHT_DIGITS))
            for t in a.run(instance, policy, phi_index)
            if round(t.weight, TRACE_WEIGHT_DIGITS) > 0.0
        )
        out[phi_index] = tuple(merged)
    return out
