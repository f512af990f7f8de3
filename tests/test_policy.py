"""Policy trees, greedy construction, and the threshold/tie-break
sub-policy machinery."""

import pytest

import adaptsel as a
from conftest import corpus_instance, coverage_demo
from reference_walks import canonical_traces, reachable_nodes

TOL = 1e-9


def alternative_threshold_pairs(instance, base, i, tol=TOL):
    """Independent oracle for threshold-pair uniqueness: scan many candidate
    thresholds (achievable gains, class midpoints, and the sentinel) and
    solve for every tie-break probability that yields average cost i."""
    values = sorted(
        {
            gain
            for psi, vs, _node in reachable_nodes(instance, base)
            for gain in a.core.gains(instance, psi, vs).values()
        },
        reverse=True,
    )
    candidates = list(values) + [(max(values) if values else 0.0) + 1.0]
    for low, high in zip(values[1:], values):
        candidates.append((low + high) / 2.0)
    pairs = []
    for tau in candidates:
        if tau < 0.0:
            continue
        strict = a.c_avg(instance, a.ThresholdSubPolicy(base, tau, 1.0))
        weak = a.c_avg(instance, a.ThresholdSubPolicy(base, tau, 0.0))
        if weak - tol <= i <= strict + tol:
            if strict - weak > tol:
                rho = (i - weak) / (strict - weak)
            elif abs(weak - i) <= tol:
                rho = 0.0
            else:
                continue
            rho = min(1.0, max(0.0, rho))
            pairs.append((tau, rho))
    return pairs


def test_run_chain_is_single_full_trace(thm5):
    instance, chain = thm5
    for phi_index in range(instance.num_realizations):
        traces = a.run(instance, chain, phi_index)
        assert len(traces) == 1
        assert traces[0].weight == 1.0
        assert traces[0].selected == (0, 1, 2)


def test_run_immediate_policy_selects_nothing(thm5):
    instance, _ = thm5
    traces = a.run(instance, a.IMMEDIATE, 0)
    assert len(traces) == 1
    assert traces[0].selected == ()


def test_run_theorem4_threshold_policy_is_all_or_nothing(thm4):
    instance, chain = thm4
    k = instance.num_elements
    for i in (1, 2):
        sp = a.ThresholdSubPolicy(chain, 1.0 / k, i / k)
        for phi_index in range(instance.num_realizations):
            traces = {t.selected: t.weight for t in a.run(instance, sp, phi_index)}
            assert set(traces) == {(0, 1, 2), ()}
            assert abs(traces[(0, 1, 2)] - i / k) <= TOL
            assert abs(traces[()] - (1 - i / k)) <= TOL


def test_trace_weights_sum_to_one():
    instance, chain = a.gen_theorem5(3, 0.5)
    sp = a.ThresholdSubPolicy(chain, 0.25, 0.4)
    for phi_index in range(instance.num_realizations):
        total = sum(t.weight for t in a.run(instance, sp, phi_index))
        assert abs(total - 1.0) <= TOL


def test_build_greedy_on_theorem5_is_the_chain(thm5):
    instance, chain = thm5
    greedy = a.build_greedy(instance)
    assert greedy == chain


def test_build_greedy_coverage_demo_root_breaks_tie_lexicographically(
    demo_hypotheses,
):
    _, _, cov_mod = coverage_demo(demo_hypotheses)
    greedy = a.build_greedy(cov_mod)
    assert cov_mod.elements[greedy.element] == "x1"


def test_build_greedy_root_picks_unique_argmax():
    for seed in range(10):
        instance = corpus_instance(seed)
        greedy = a.build_greedy(instance)
        gains = a.core.gains(instance, a.EMPTY, a.version_space(instance, a.EMPTY))
        best = max(gains.values())
        assert gains[greedy.element] >= best - TOL


def test_build_greedy_is_greedy_at_every_reachable_node():
    for seed in range(20):
        instance = corpus_instance(seed)
        greedy = a.build_greedy(instance)
        assert abs(a.alpha(instance, greedy) - 1.0) <= TOL


def test_threshold_zero_rho_one_behaves_as_base(thm5):
    instance, chain = thm5
    sp = a.ThresholdSubPolicy(chain, 0.0, 1.0)
    assert canonical_traces(instance, sp) == canonical_traces(instance, chain)


def test_threshold_above_every_gain_terminates_immediately(thm5):
    instance, chain = thm5
    sp = a.ThresholdSubPolicy(chain, 100.0, 0.5)
    for phi_index in range(instance.num_realizations):
        for trace in a.run(instance, sp, phi_index):
            assert trace.selected == ()


def test_threshold_half_on_theorem5_selects_one_or_zero(thm5):
    instance, chain = thm5
    assert a.c_avg(instance, a.ThresholdSubPolicy(chain, 0.5, 1.0)) == 1.0
    assert a.c_avg(instance, a.ThresholdSubPolicy(chain, 0.5, 0.0)) == 0.0


def test_find_threshold_pair_theorem4_matches_closed_form(thm4):
    instance, chain = thm4
    tau, rho, sp = a.find_threshold_pair(instance, chain, 2)
    assert abs(tau - 1.0 / 3.0) <= TOL
    assert abs(rho - 2.0 / 3.0) <= TOL
    assert abs(a.c_avg(instance, sp) - 2.0) <= TOL


def test_find_threshold_pair_theorem5_budget_one(thm5):
    instance, chain = thm5
    tau, rho, sp = a.find_threshold_pair(instance, chain, 1)
    assert abs(tau - 0.5) <= TOL
    assert abs(rho - 1.0) <= TOL
    assert abs(a.c_avg(instance, sp) - 1.0) <= TOL


def test_find_threshold_pair_budget_zero_is_immediate(thm5):
    instance, chain = thm5
    tau, rho, sp = a.find_threshold_pair(instance, chain, 0)
    assert rho == 0.0
    assert a.c_avg(instance, sp) == 0.0


def test_find_threshold_pair_rejects_budget_beyond_cost(thm5):
    instance, chain = thm5
    with pytest.raises(a.BudgetExceedsCost):
        a.find_threshold_pair(instance, chain, 4)


def test_threshold_pair_cost_and_uniqueness_on_corpus():
    for seed in range(25):
        instance = corpus_instance(seed)
        greedy = a.build_greedy(instance)
        top = int(a.c_avg(instance, greedy) + TOL)
        for i in range(1, top + 1):
            tau, rho, sp = a.find_threshold_pair(instance, greedy, i)
            assert abs(a.c_avg(instance, sp) - i) <= TOL
            canonical = canonical_traces(instance, sp)
            for alt_tau, alt_rho in alternative_threshold_pairs(
                instance, greedy, i
            ):
                alt = a.ThresholdSubPolicy(greedy, alt_tau, alt_rho)
                assert abs(a.c_avg(instance, alt) - i) <= 1e-6
                assert canonical_traces(instance, alt) == canonical


def test_threshold_ladder_costs_match_reference_cuts(thm4):
    """Every (tau, mu) step of the ladder prices the strict-rule cut exactly
    as the reference cut_tree + run evaluator does."""
    cases = [
        (instance, a.build_greedy(instance))
        for instance in map(corpus_instance, range(25))
    ]
    cases += [thm4, a.gen_theorem5(3, 0.5), a.gen_theorem5(4, 0.25)]
    for instance, base in cases:
        ladder = a.policy.threshold_ladder(instance, base)
        assert ladder.steps[0] == (ladder.sentinel, 0.0)
        for tau, mu in ladder.steps:
            sp = a.ThresholdSubPolicy(base, tau, 1.0)
            assert abs(mu - a.c_avg(instance, sp)) <= 1e-9


def test_sub_policies_are_nested_by_budget():
    for seed in range(15):
        instance = corpus_instance(seed)
        greedy = a.build_greedy(instance)
        top = int(a.c_avg(instance, greedy) + TOL)
        for i in range(1, top):
            small = a.find_threshold_pair(instance, greedy, i)[2]
            large = a.find_threshold_pair(instance, greedy, i + 1)[2]
            for phi_index, p in enumerate(instance.prior):
                if p <= 0.0:
                    continue
                small_sets = [t.selected for t in a.run(instance, small, phi_index)]
                large_sets = [t.selected for t in a.run(instance, large, phi_index)]
                for selected in small_sets:
                    assert any(
                        big[: len(selected)] == selected for big in large_sets
                    )


def test_mixture_affinity_of_c_avg():
    instance, chain = a.gen_theorem5(4, 0.25)
    for tau in (0.0625, 0.25, 0.7):
        strict = a.c_avg(instance, a.ThresholdSubPolicy(chain, tau, 1.0))
        weak = a.c_avg(instance, a.ThresholdSubPolicy(chain, tau, 0.0))
        for rho in (0.2, 0.5, 0.9):
            mixed = a.c_avg(instance, a.ThresholdSubPolicy(chain, tau, rho))
            assert abs(mixed - ((1 - rho) * weak + rho * strict)) <= TOL


_LEAF = (a.TERMINAL, a.TERMINAL)

#: Trees for a 3-element, 2-state instance, each with one malformed node
#: below the root, and the error each must raise.
MALFORMED = {
    "child-count": (a.Select(0, (a.Select(1, (a.TERMINAL,)), a.Select(1, _LEAF))),
                    "children do not cover every state"),
    "no-children": (a.Select(0, (a.Select(1, ()), a.Select(1, _LEAF))),
                    "children do not cover every state"),
    "element-range": (a.Select(0, (a.Select(3, _LEAF),) * 2),
                      "element index 3 outside ground set"),
    "repeat": (a.Select(0, (a.Select(1, (a.Select(0, _LEAF),) * 2),) * 2),
               "element 'v1' re-selected"),
}

READERS = {
    "alpha": a.alpha,
    "beta": a.beta,
    "f_avg": a.f_avg,
    "c_avg": a.c_avg,
    "param_report": lambda instance, tree: a.param_report(
        instance, tree, gamma_mode="skip"),
    "lemma2": lambda instance, tree: a.verify(instance, "lemma2", policy=tree),
    "thm2": lambda instance, tree: a.verify(
        instance, "thm2", policy=tree, opt_policy=a.optimal_coverage(instance)[0]),
}


@pytest.mark.parametrize("reader", list(READERS))
@pytest.mark.parametrize("fault", list(MALFORMED))
def test_every_reader_refuses_a_malformed_tree_with_a_typed_error(fault, reader):
    """The walks that visit each node (annotation, threshold cuts and the
    descent by realization) raise MalformedPolicy, never IndexError,
    KeyError or, from the height of a node without children, ValueError."""
    instance, _chain = a.gen_theorem5(3, 0.5)  # Q is reachable, as thm2 needs
    assert all(p > 0.0 for p in instance.prior)
    tree, message = MALFORMED[fault]
    with pytest.raises(a.MalformedPolicy, match=message):
        READERS[reader](instance, tree)
    with pytest.raises(a.MalformedPolicy, match=message):
        a.validate_policy(instance, tree)


def test_validate_policy_rejects_repeats_and_bad_arity(thm5):
    instance, _ = thm5
    repeat = a.Select(0, (a.Select(0, (a.TERMINAL, a.TERMINAL)), a.TERMINAL))
    with pytest.raises(a.MalformedPolicy):
        a.validate_policy(instance, repeat)
    bad_arity = a.Select(0, (a.TERMINAL,))
    with pytest.raises(a.MalformedPolicy):
        a.validate_policy(instance, bad_arity)
