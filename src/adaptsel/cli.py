"""Command-line surface.

Subcommands: ``generate`` (witness/random instances), ``params`` (alpha,
beta, gamma, Q, eta of an instance/policy pair), ``solve`` (brute-force
optimal policies), ``verify`` (numerical bound checks; exit code 0 iff all
requested bounds hold), ``active-learning`` (the hypothesis-class pipeline).

Every command is deterministic given its arguments and input files; floats
are printed at 12 significant digits, and ``--json`` output is
stable-ordered.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

import click

from . import bounds as bounds_mod
from . import fileio, gen, learn, metrics, oracle
from .core import TOL, Instance, c_avg, f_avg
from .errors import AdaptselError, EnumerationBudgetExceeded, InvalidParams
from .policy import Policy, build_greedy, policy_height

FAMILIES = ("theorem4", "theorem5", "random", "hypotheses-demo")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _table(rows: list[tuple[str, object]]) -> str:
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {_fmt(value)}" for name, value in rows)


def _echo(message: str, nl: bool = True) -> None:
    """click.echo to the current stdout.  Naming the stream skips click's
    per-stream wrapper cache, which keeps every redirected stdout alive."""
    click.echo(message, nl=nl, file=sys.stdout)


def _echo_json(data) -> None:
    _echo(fileio.dumps(data), nl=False)


def _tolerance(ctx, param, value: float) -> float:
    if not 0.0 <= value < math.inf:
        raise click.BadParameter(f"must be a finite number >= 0, got {value}")
    return value


def _corpus(ctx, param, spec: Optional[str]) -> Optional[range]:
    if spec is None:
        return None
    try:
        first, last = spec.split("..")
        seeds = range(int(first), int(last))
    except ValueError:
        raise click.BadParameter(f"must look like 0..200, got {spec!r}")
    if not seeds:
        raise click.BadParameter(f"{spec!r} is empty (the end seed is excluded)")
    return seeds


@click.group()
@click.option("--json", "as_json", is_flag=True, help="Emit JSON output.")
@click.option("--tolerance", type=float, default=TOL, show_default=True,
              callback=_tolerance,
              help="Absolute tolerance of bound slacks and preconditions, "
                   "Q/eta, the coverage optimum and gamma's anomaly flag; "
                   "threshold cuts, and so alpha and beta, always use 1e-9.")
@click.option("--enum-budget", type=click.IntRange(min=0),
              default=oracle.DEFAULT_ENUM_BUDGET,
              show_default=True,
              help="Refuse an exact DP whose memo-key bound, or an "
                   "enumeration whose policy count, exceeds this.")
@click.pass_context
def main(ctx, as_json, tolerance, enum_budget):
    """Adaptive selection policies: parameters, oracles, bound checks."""
    ctx.obj = {"json": as_json, "tol": tolerance, "budget": enum_budget}


def _run(ctx, fn):
    try:
        fn()
    except metrics.GammaBudgetExceeded as exc:
        raise click.ClickException(
            f"{exc} (try --gamma-mode sampled or raise --enum-budget)"
        )
    except EnumerationBudgetExceeded as exc:
        raise click.ClickException(f"{exc} (raise --enum-budget)")
    except AdaptselError as exc:
        raise click.ClickException(str(exc))


def demo_hypotheses() -> "learn.HypothesisClass":
    """The three-threshold-functions-on-two-points demo class."""
    return learn.HypothesisClass(
        examples=("x1", "x2"),
        labels=(("0", "0"), ("0", "1"), ("1", "1")),
        prior=(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    )


@main.command()
@click.argument("family_arg", required=False, type=click.Choice(FAMILIES))
@click.option("--family", type=click.Choice(FAMILIES), default=None,
              help="Instance family (alternative to the positional argument).")
@click.option("--k", type=int, default=3, show_default=True,
              help="Ground-set size for the witness families.")
@click.option("--epsilon", type=float, default=0.5, show_default=True,
              help="Gain-ratio parameter of the theorem5 family.")
@click.option("--elements", type=int, default=4, show_default=True,
              help="Ground-set size for the random family.")
@click.option("--states", type=int, default=2, show_default=True,
              help="State-alphabet size for the random family.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--monotone/--no-monotone", default=True, show_default=True,
              help="Force adaptive monotonicity of the random family.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Instance (or hypotheses) output path.")
@click.option("--policy-out", type=click.Path(dir_okay=False), default=None,
              help="Companion policy output path, for families that define one.")
@click.pass_context
def generate(ctx, family_arg, family, k, epsilon, elements, states, seed,
             monotone, out, policy_out):
    """Write a generated instance (and companion policy) to JSON files."""
    chosen = family_arg or family
    if chosen is None:
        raise click.ClickException(
            f"specify a family: one of {', '.join(FAMILIES)}"
        )

    def work():
        policy = None
        if chosen == "theorem5":
            instance, policy = gen.gen_theorem5(k, epsilon)
        elif chosen == "theorem4":
            instance, policy = gen.gen_theorem4(k)
        elif chosen == "random":
            instance = gen.gen_random(elements, states, seed, monotone)
        else:  # hypotheses-demo
            hc = demo_hypotheses()
            path = out or "hypotheses-demo.json"
            fileio.save(path, fileio.hypotheses_to_dict(hc))
            _echo(f"wrote {path}")
            return
        path = out or f"{chosen}.json"
        fileio.save_instance(path, instance)
        _echo(f"wrote {path}")
        if policy is not None:
            ppath = policy_out or f"{chosen}-policy.json"
            fileio.save_policy(ppath, instance, policy)
            _echo(f"wrote {ppath}")

    _run(ctx, work)


def _policy(instance: Instance, policy_path: Optional[str]) -> Policy:
    """The policy in ``policy_path``, or the greedy tree without one."""
    if policy_path is None:
        return build_greedy(instance)
    return fileio.load_policy(policy_path, instance)


@main.command()
@click.option("--instance", "instance_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--policy", "policy_path", type=click.Path(dir_okay=False),
              default=None, help="Policy file; defaults to the greedy tree.")
@click.option("--greedy", is_flag=True, help="Build the greedy tree.")
@click.option("--n", type=click.IntRange(min=1), default=None,
              help="Observation bound for gamma (default: policy height).")
@click.option("--k", type=click.IntRange(min=1), default=None,
              help="Policy-height bound for gamma (default: |V|).")
@click.option("--gamma-mode", type=click.Choice(["exact", "sampled", "skip"]),
              default="exact", show_default=True)
@click.pass_context
def params(ctx, instance_path, policy_path, greedy, n, k, gamma_mode):
    """Compute alpha, beta, gamma, Q, eta for an instance/policy pair."""

    def work():
        instance = fileio.load_instance(instance_path)
        policy = _policy(instance, None if greedy else policy_path)
        report = metrics.param_report(
            instance, policy, n=n, k=k, gamma_mode=gamma_mode,
            enum_budget=ctx.obj["budget"], tol=ctx.obj["tol"],
        )
        if ctx.obj["json"]:
            _echo_json(report)
            return
        rows = [
            ("alpha", report.alpha),
            ("beta", report.beta),
            ("beta_anomaly", report.beta_anomaly),
            ("gamma", "skipped" if report.gamma is None else report.gamma),
        ]
        if report.gamma_mode is not None:
            rows.append(("gamma_mode", report.gamma_mode))
            rows.extend([("n", report.n), ("k", report.k)])
        rows.extend(
            [
                ("Q", report.q),
                ("eta", report.eta),
                ("f_avg", report.f_avg),
                ("c_avg", report.c_avg),
                ("height", report.height),
            ]
        )
        _echo(_table(rows))
        for name, witness in sorted(report.witnesses.items()):
            if witness is not None:
                _echo(f"witness {name}: {witness}")

    _run(ctx, work)


@main.command()
@click.option("--instance", "instance_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--objective", type=click.Choice(["budget", "coverage"]),
              required=True)
@click.option("--k", type=click.IntRange(min=0), default=None,
              help="Height bound (required for the budget objective).")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the optimal policy tree here.")
@click.pass_context
def solve(ctx, instance_path, objective, k, out):
    """Compute a brute-force optimal policy and print its value or cost."""

    def work():
        instance = fileio.load_instance(instance_path)
        if objective == "budget":
            if k is None:
                raise InvalidParams("--k is required for the budget objective")
            tree, value = oracle.optimal_budget(
                instance, k, enum_budget=ctx.obj["budget"]
            )
            rows = [("objective", "budget"), ("k", k), ("value", value),
                    ("c_avg", c_avg(instance, tree))]
        else:
            tree, cost = oracle.optimal_coverage(
                instance, tol=ctx.obj["tol"], enum_budget=ctx.obj["budget"]
            )
            rows = [("objective", "coverage"), ("cost", cost),
                    ("f_avg", f_avg(instance, tree))]
        if out:
            fileio.save_policy(out, instance, tree)
            rows.append(("policy", out))
        if ctx.obj["json"]:
            _echo_json(
                {"policy": fileio.policy_to_dict(instance, tree),
                 **{name: value for name, value in rows}}
            )
        else:
            _echo(_table(rows))

    _run(ctx, work)


def _verify_one(ctx, instance, bound_ids, policy_path, l, gamma_mode,
                hypotheses=None):
    """Verify the requested bounds on one instance; returns the reports."""
    tol = ctx.obj["tol"]
    budget = ctx.obj["budget"]
    reports = []
    for bound_id in bound_ids:
        policy = None
        opt_policy = None
        if bound_id == "eq5":
            base = hypotheses if hypotheses is not None else instance
            reports.append(
                bounds_mod.verify(base, "eq5", gamma_mode=gamma_mode,
                                  enum_budget=budget, tol=tol)
            )
            continue
        if bound_id != "lemma3":
            policy = _policy(instance, policy_path)
        if bound_id in ("thm1", "eq1", "eq2", "eq3"):
            height = l if l is not None else policy_height(instance, policy)
            opt_policy, _value = oracle.optimal_budget(
                instance, max(int(height), 1), enum_budget=budget
            )
        elif bound_id in ("thm2", "thm6", "eq4"):
            opt_policy, _cost = oracle.optimal_coverage(
                instance, tol=tol, enum_budget=budget
            )
        reports.append(
            bounds_mod.verify(
                instance, bound_id, policy=policy, opt_policy=opt_policy,
                l=l, gamma_mode=gamma_mode, enum_budget=budget, tol=tol,
            )
        )
    return reports


def _render_reports(ctx, label, reports):
    if ctx.obj["json"]:
        _echo_json({"instance": label, "reports": reports})
        return
    for report in reports:
        status = "holds" if report.holds else "VIOLATED"
        _echo(
            f"{label}  {report.bound_id:<7} {status:<8} "
            f"lhs={_fmt(report.lhs)} rhs={_fmt(report.rhs)} "
            f"slack={_fmt(report.slack)}"
        )


@main.command()
@click.option("--bounds", "bound_spec", required=True,
              help="Comma-separated bound ids "
                   "(thm1,thm2,thm6,eq1,eq2,eq3,eq4,eq5,lemma2,lemma3).")
@click.option("--instance", "instance_path",
              type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--policy", "policy_path", default=None,
              help="Policy file, or the word 'greedy'.")
@click.option("--l", type=int, default=None,
              help="Budget for the truncation bounds (thm1, eq3).")
@click.option("--gamma-mode", type=click.Choice(["exact", "sampled"]),
              default="exact", show_default=True)
@click.option("--corpus", default=None, callback=_corpus,
              help="Seed range like 0..200, end seed excluded: sweep random "
                   "monotone instances.")
@click.option("--corpus-elements", type=int, default=3, show_default=True)
@click.option("--hypotheses", "hypotheses_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Hypothesis-class file for eq5.")
@click.pass_context
def verify(ctx, bound_spec, instance_path, policy_path, l, gamma_mode,
           corpus, corpus_elements, hypotheses_path):
    """Check approximation guarantees numerically; exit 0 iff all hold."""
    bound_ids = [b.strip().lower() for b in bound_spec.split(",") if b.strip()]
    for bound_id in bound_ids:
        if bound_id not in bounds_mod.BOUND_IDS:
            raise click.ClickException(f"unknown bound id {bound_id!r}")
    if policy_path == "greedy":
        policy_path = None
    all_hold = True

    def work():
        nonlocal all_hold
        targets = []
        if corpus is not None:
            for seed in corpus:
                targets.append(
                    (f"seed={seed}", gen.gen_random(corpus_elements, 2, seed))
                )
        elif instance_path is not None:
            targets.append((instance_path, fileio.load_instance(instance_path)))
        elif hypotheses_path is None:
            raise click.ClickException(
                "provide --instance, --corpus, or --hypotheses"
            )
        hypo_instance = None
        if hypotheses_path is not None:
            hc = fileio.load_hypotheses(hypotheses_path)
            hypo_instance = learn.instance_from_hypotheses(hc)
            if not targets:
                targets.append((hypotheses_path, hypo_instance))
        for label, instance in targets:
            reports = _verify_one(
                ctx, instance, bound_ids, policy_path, l, gamma_mode,
                hypotheses=hypo_instance,
            )
            all_hold = all_hold and all(r.holds for r in reports)
            _render_reports(ctx, label, reports)

    _run(ctx, work)
    if not all_hold:
        sys.exit(1)


@main.command("active-learning")
@click.option("--hypotheses", "hypotheses_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the GBS policy tree here.")
@click.pass_context
def active_learning(ctx, hypotheses_path, out):
    """Run the GBS pipeline on a hypothesis class and report its costs."""

    def work():
        hc = fileio.load_hypotheses(hypotheses_path)
        instance = learn.instance_from_hypotheses(hc)
        cov_plain = learn.coverage_instance(instance, modified=False)
        cov_mod = learn.coverage_instance(instance, modified=True)
        policy = learn.gbs_policy(cov_mod)
        rows = [
            ("hypotheses", instance.num_realizations),
            ("examples", instance.num_elements),
            ("c_avg_p", c_avg(cov_plain, policy)),
            ("c_avg_p_modified", c_avg(cov_mod, policy)),
            ("height", policy_height(cov_mod, policy)),
        ]
        if out:
            fileio.save_policy(out, instance, policy)
            rows.append(("policy", out))
        if ctx.obj["json"]:
            _echo_json(
                {"policy": fileio.policy_to_dict(instance, policy),
                 **{name: value for name, value in rows}}
            )
        else:
            _echo(_table(rows))

    _run(ctx, work)


if __name__ == "__main__":
    main()
