"""Reference counting alone frees each call's working set.

No function of ``adaptsel`` keeps a reference cycle through an instance: the
DPs drop their recursive ``solve`` once the root is solved, and the
enumerator and the tree walkers recurse through module-level functions.  So,
with the cyclic collector paused, an instance (with its path cache, memos and
trees) is gone as soon as the caller drops it, and a CLI request, whether it
succeeds or ends in a typed error, leaves nothing at all for the collector.
That is what lets ``cli._guarded`` pause the collector for each command.
"""

import contextlib
import gc
import io
import weakref

import click
import pytest

import adaptsel as a
from adaptsel import cli, fileio, metrics, policy
from adaptsel.bounds import BOUND_IDS
from adaptsel.cli import main
from adaptsel.errors import EnumerationBudgetExceeded, ParseError


def _name(obj) -> str:
    """A function's or a class's qualified name, else its type's."""
    if callable(obj) and hasattr(obj, "__qualname__"):
        return f"{obj.__module__}.{obj.__qualname__}"
    return f"{type(obj).__module__}.{type(obj).__qualname__}"


@contextlib.contextmanager
def nothing_left_for_the_collector():
    """Run the block with the cyclic collector paused, then check that a
    collection finds nothing in a cycle."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
        gc.collect()
        left = sorted(map(_name, gc.garbage))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not left


def _check_freed(make, call):
    """The instance ``make()`` is freed as soon as ``call(instance)`` has
    returned and the last reference to it is dropped, with nothing of ours
    left for the collector."""
    with nothing_left_for_the_collector():
        instance = make()
        ref = weakref.ref(instance)
        call(instance)
        del instance
        assert ref() is None


def _random():
    return a.gen_random(3, 2, 1)


def _exhaust(instance):
    for _tree in a.enumerate_policies(instance, 2):
        pass


def _components(instance):
    greedy = a.build_greedy(instance)
    tau = a.find_threshold_pair(instance, greedy, 1)[0]
    policy.components(instance, a.ThresholdSubPolicy(greedy, tau, 0.5))


@pytest.mark.parametrize("make, call", [
    (_random, lambda inst: a.optimal_budget(inst, 3)),
    (lambda: a.gen_theorem5(3, 0.5)[0], a.optimal_coverage),
    (_random, _exhaust),
    (_random, lambda inst: a.gamma(inst, 1, 2)),
    (_random, lambda inst: a.gamma(inst, 2, 2, mode="sampled", samples=20)),
    (_random, a.build_greedy),
    (_random, _components),
    (_random, lambda inst: policy.annotate_tree(inst, a.build_greedy(inst))),
    (_random, lambda inst: a.validate_policy(inst, a.build_greedy(inst))),
    (_random, lambda inst: a.param_report(inst, a.build_greedy(inst))),
], ids=["optimal_budget", "optimal_coverage", "enumerate_policies",
        "gamma-exact", "gamma-sampled", "build_greedy", "components",
        "annotate_tree", "validate_policy", "param_report"])
def test_an_instance_is_freed_when_the_caller_drops_it(make, call):
    _check_freed(make, call)


def _verify_call(bound_id):
    """(instance factory, call) verifying ``bound_id`` as the CLI would:
    the greedy policy against the budget or the coverage optimum."""
    def call(instance):
        judged = opt = None
        if bound_id not in ("eq5", "lemma3"):
            judged = a.build_greedy(instance)
        if bound_id in ("thm1", "eq1", "eq2", "eq3"):
            opt = a.optimal_budget(instance, 2)[0]
        elif bound_id in ("thm2", "thm6", "eq4"):
            opt = a.optimal_coverage(instance)[0]
        report = a.verify(instance, bound_id, policy=judged, opt_policy=opt, l=2)
        assert report.holds

    if bound_id in ("thm2", "thm6", "eq4", "lemma3"):
        return lambda: a.gen_theorem5(3, 0.5)[0], call
    if bound_id == "eq5":
        return lambda: a.instance_from_hypotheses(a.HypothesisClass(
            examples=("x1", "x2"), labels=(("0", "0"), ("0", "1"), ("1", "1")),
            prior=(0.5, 0.3, 0.2))), call
    return _random, call


@pytest.mark.parametrize("bound_id", BOUND_IDS)
def test_verify_frees_the_instance_for_every_bound(bound_id):
    _check_freed(*_verify_call(bound_id))


@pytest.fixture
def cli_files(tmp_path):
    paths = {name: str(tmp_path / f"{name}.json")
             for name in ("random", "t5", "t5p", "hypotheses", "coverage", "out",
                          "policy-out", "truncated", "negative-prior",
                          "duplicate-example", "no-utility")}
    fileio.save_instance(paths["random"], a.gen_random(3, 2, 1))
    instance, chain = a.gen_theorem5(3, 0.5)
    fileio.save_instance(paths["t5"], instance)
    fileio.save_policy(paths["t5p"], instance, chain)
    fileio.save(paths["hypotheses"], fileio.hypotheses_to_dict(a.HypothesisClass(
        examples=("x1", "x2"), labels=(("0", "0"), ("0", "1"), ("1", "1")),
        prior=(0.5, 0.3, 0.2))))
    coverage = fileio.instance_to_dict(a.instance_from_hypotheses(a.HypothesisClass(
        examples=("x1", "x2", "x3"),
        labels=(("0", "0", "1"), ("0", "1", "0"), ("1", "1", "0"), ("1", "0", "1")),
        prior=(0.4, 0.3, 0.2, 0.1))))
    coverage["utility"] = {"kind": "builtin", "name": "coverage"}
    fileio.save(paths["coverage"], coverage)
    fileio.save(paths["negative-prior"], {"examples": ["x1"], "labels": [["0"], ["1"]],
                                          "prior": [1.5, -0.5]})
    fileio.save(paths["duplicate-example"], {"examples": ["x1", "x1"],
                                             "labels": [["0", "1"], ["1", "0"]],
                                             "prior": [0.5, 0.5]})
    coverage.pop("utility")
    fileio.save(paths["no-utility"], coverage)
    with open(paths["truncated"], "w", encoding="utf-8") as handle:
        handle.write('{"kind": "instance"')
    return paths


REQUESTS = {
    "generate": ["generate", "random", "--elements", "3", "--out", "{out}"],
    "generate-theorem4": ["generate", "theorem4", "--out", "{out}",
                          "--policy-out", "{policy-out}"],
    "generate-theorem5": ["generate", "theorem5", "--out", "{out}",
                          "--policy-out", "{policy-out}"],
    "generate-hypotheses-demo": ["generate", "hypotheses-demo", "--out", "{out}"],
    "params-exact": ["params", "--instance", "{random}", "--greedy"],
    "params-sampled": ["params", "--instance", "{random}", "--greedy",
                       "--gamma-mode", "sampled"],
    "params-policy": ["params", "--instance", "{t5}", "--policy", "{t5p}"],
    "verify-budget": ["verify", "--instance", "{random}", "--l", "2",
                      "--bounds", "thm1,eq1,eq2,eq3,lemma2"],
    "verify-coverage": ["verify", "--instance", "{t5}",
                        "--bounds", "thm2,thm6,eq4,lemma3"],
    "verify-eq5": ["verify", "--hypotheses", "{hypotheses}", "--bounds", "eq5"],
    "verify-corpus": ["verify", "--corpus", "0..3", "--l", "2",
                      "--bounds", "thm1,eq1,eq2,eq3,lemma2"],
    "solve-budget": ["solve", "--objective", "budget", "--k", "3",
                     "--instance", "{random}", "--out", "{out}"],
    "solve-coverage": ["solve", "--objective", "coverage",
                       "--instance", "{t5}", "--out", "{out}"],
    "active-learning": ["active-learning", "--hypotheses", "{hypotheses}",
                        "--out", "{out}"],
    "solve-coverage-builtin": ["solve", "--objective", "coverage",
                               "--instance", "{coverage}", "--out", "{out}"],
    "verify-lemma3-eq4-builtin": ["verify", "--instance", "{coverage}",
                                  "--bounds", "lemma3,eq4", "--policy", "greedy"],
}

#: Requests that end in a typed error, with a piece of the message it gives.
ERRORS = {
    "parse-error": (["params", "--instance", "{truncated}"],
                    "is not valid JSON"),
    "gamma-refusal": (["--enum-budget", "0", "params", "--instance", "{random}",
                       "--greedy"], "--gamma-mode sampled"),
    "dp-refusal": (["--enum-budget", "0", "solve", "--objective", "budget",
                    "--k", "3", "--instance", "{random}"], "DP memo keys"),
    "coverage-unreachable": (["solve", "--objective", "coverage",
                              "--instance", "{random}"],
                             "with every element selected"),
    "negative-prior": (["active-learning", "--hypotheses", "{negative-prior}"],
                       "hypotheses: negative prior probability"),
    "duplicate-example": (["active-learning", "--hypotheses", "{duplicate-example}"],
                          "hypotheses: duplicate example 'x1'"),
    "no-utility": (["verify", "--instance", "{no-utility}",
                    "--bounds", "lemma3,eq4"],
                   'has no "utility", which --bounds lemma3,eq4 needs'),
}


def _send(cli_files, request):
    """Send ``--json`` plus ``request`` in-process, as the benchmark does;
    returns the ``ClickException`` message, or None on success."""
    args = ["--json", *(arg.format_map(cli_files) for arg in request)]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(args, standalone_mode=False)
        except click.ClickException as exc:
            return exc.message
    return None


@pytest.mark.parametrize("request_id", list(REQUESTS))
def test_a_cli_request_leaves_nothing_of_ours_for_the_collector(cli_files, request_id):
    with nothing_left_for_the_collector():
        assert _send(cli_files, REQUESTS[request_id]) is None


@pytest.mark.parametrize("request_id", list(ERRORS))
def test_a_refused_cli_request_leaves_nothing_for_the_collector(cli_files, request_id):
    request, message = ERRORS[request_id]
    with nothing_left_for_the_collector():
        error = _send(cli_files, request)
    assert message in error


#: How a command body ends inside ``cli._guarded``: the exception it raises
#: (None for success) and the one the guard passes on.
ENDINGS = {
    "success": (None, None),
    "gamma-budget": (metrics.GammaBudgetExceeded, click.ClickException),
    "enumeration-budget": (EnumerationBudgetExceeded, click.ClickException),
    "typed-error": (ParseError, click.ClickException),
    "click-exception": (click.ClickException, click.ClickException),
    "other-exception": (ValueError, ValueError),
}


@pytest.mark.parametrize("ending", list(ENDINGS))
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_pauses_the_collector_and_restores_what_it_found(enabled, ending):
    raised, passed_on = ENDINGS[ending]
    seen = []

    def work():
        seen.append(gc.isenabled())
        if raised is not None:
            raise raised("stop")

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with (contextlib.nullcontext() if passed_on is None
              else pytest.raises(passed_on)):
            cli._guarded(work)()
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]
    assert after is enabled
