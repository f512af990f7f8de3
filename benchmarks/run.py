"""Closed-loop benchmark of the adaptsel command line.

One client sends requests in-process, each a call to
``adaptsel.cli.main(["--json", ...], standalone_mode=False)`` with stdout
captured, and sends the next only after the previous one has finished.
Interpreter start-up is not part of any request.  Inputs are generated from
``--seed`` into a fresh work directory under ``.bench_work/`` and removed at
the end; every answer is checked (see ``check.py``).

    python3 benchmarks/run.py --workload truncation --seed 1 --seconds 25
    python3 benchmarks/run.py --workload truncation --trace 1
    python3 benchmarks/run.py --workload all

With ``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1``
it sends a fixed request sequence once untraced and twice traced, and
reports per-layer calls, self time and work counts, which must repeat
exactly between the two traced passes.  ``--workload all`` runs every
workload in its own process and checks that the repository's
``git status --porcelain`` is unchanged afterwards.  The last line of
output is always one JSON object.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference"
DEFAULT_SEED = 1
SETUPS = 3  # set-ups per run; setup_s is their median
# latency_p90_ms needs at least 100 samples, so 10 lie beyond it.  A run
# goes past --seconds to reach them, but never past three times --seconds.
MIN_SAMPLES = 100

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_cli():
    """Import ``adaptsel.cli`` afresh from this checkout's ``src/``."""
    for key in [k for k in sys.modules
                if k == "adaptsel" or k.startswith("adaptsel.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("adaptsel.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"adaptsel was imported from {cli.__file__}, "
                          f"not from {SRC}")
    return cli


def send(main, request):
    """Send one request; returns ``((exit_code, error, stdout), seconds)``.

    Any exception, including ``ClickException`` and
    ``EnumerationBudgetExceeded``, is an outcome of the request, never a
    reason to stop the run.
    """
    out = io.StringIO()
    code, error = 0, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["--json", *request.args])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # counted as a failed request
        error = f"{type(exc).__name__}: {exc}"
    return (code, error, out.getvalue()), time.perf_counter() - start


class Checker:
    """Judges outcomes: against the recorded responses on the default seed,
    and on every seed against the first response to the same request."""

    def __init__(self, workload: str, seed: int) -> None:
        self.reference = None
        if seed == DEFAULT_SEED:
            with open(REFERENCE / f"{workload}.json", encoding="utf-8") as fh:
                self.reference = json.load(fh)
        self.first: dict[str, object] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, request, outcome) -> None:
        self.attempted += 1
        if self.reference is not None and request.key not in self.reference:
            reason = "no reference response recorded"
        else:
            expected = (self.reference or {}).get(request.key,
                                                  self.first.get(request.key))
            reason = check.failure(outcome, expected)
        if reason is None and request.key not in self.first:
            self.first[request.key] = json.loads(outcome[2])
        if reason is not None:
            self.failures.append(f"{request.key}: {reason}")


def setup(workload, seed: int, parent: str):
    """Import adaptsel, generate the inputs into a fresh work directory
    under ``parent``, enter it, and send one warm-up request per request
    class."""
    cli = load_cli()
    workdir = tempfile.mkdtemp(dir=parent)
    rounds = workload.build(seed, workdir, workload.rounds)
    os.chdir(workdir)
    main = functools.partial(cli.main, standalone_mode=False)
    warm = {}
    for request in (r for batch in rounds for r in batch):
        warm.setdefault(request.cls, request)
    for request in warm.values():
        send(main, request)
    return main, rounds


def run_timed(name: str, seed: int, seconds: float, parent: str):
    workload = WORKLOADS[name]
    checker = Checker(name, seed)
    setups, raw_setups = [], []
    start = PROCESS_START
    for _ in range(SETUPS):
        main, rounds = setup(workload, seed, parent)
        raw_setups.append(time.perf_counter() - start)
        setups.append(raw_setups[-1] * speed.scale_now())
        start = time.perf_counter()
    sequence = [r for batch in rounds for r in batch]

    latencies, references, outcomes = [], [], []
    begin = time.perf_counter()
    while True:
        request = sequence[len(latencies) % len(sequence)]
        outcome, latency = send(main, request)
        latencies.append(latency)
        outcomes.append((request, outcome))
        references.append(speed.measure())
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds and (len(latencies) >= MIN_SAMPLES
                                   or elapsed >= 3 * seconds):
            break

    for request, outcome in outcomes:
        checker(request, outcome)
    completed = checker.attempted - len(checker.failures)
    scaled = [t * s for t, s in zip(latencies, speed.local_scales(references))]

    def timings(lat, setup_times):
        # Closed loop, one client: throughput is completed requests over
        # the time spent waiting for answers.
        return {
            "requests_per_s": completed / sum(lat),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_p90_ms": 1e3 * statistics.quantiles(
                lat, n=10, method="inclusive")[8],
            "setup_s": statistics.median(setup_times),
        }

    metrics = timings(scaled, setups)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    notes = {"error_rate": len(checker.failures) / checker.attempted,
             "latency_samples": len(latencies),
             **{f"raw.{k}": v for k, v in timings(latencies, raw_setups).items()}}
    by_class: dict[str, list[float]] = {}
    for (request, _), latency in zip(outcomes, scaled):
        by_class.setdefault(request.cls, []).append(1e3 * latency)
    for cls, values in sorted(by_class.items()):
        notes[f"class.{cls}"] = (
            f"share {len(values) / len(scaled):.3f}, "
            f"ms min {min(values):.1f} median {statistics.median(values):.1f} "
            f"max {max(values):.1f}")
    return checker, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes


def run_traced(name: str, seed: int, parent: str):
    from tracing import TRACED, Tracer, counts

    workload = WORKLOADS[name]
    checker = Checker(name, seed)
    main, rounds = setup(workload, seed, parent)
    sequence = [r for batch in rounds[:workload.trace_rounds] for r in batch]

    def one_pass(call, tracer=None) -> float:
        """Send the sequence once; returns requests per second at nominal
        speed."""
        outcomes, latencies, references = [], [], []
        for i, request in enumerate(sequence):
            if tracer is not None:
                tracer.request_id = i
            outcome, latency = send(call, request)
            outcomes.append(outcome)
            latencies.append(latency)
            references.append(speed.measure())
        for request, outcome in zip(sequence, outcomes):
            checker(request, outcome)
        scales = speed.local_scales(references)
        return len(sequence) / sum(t * s for t, s in zip(latencies, scales))

    untraced = one_pass(main)
    tracer = Tracer()
    tracer.install()
    traced_main = tracer.wrap("cli.main", main)
    summaries, rates = [], []
    try:
        for _ in range(2):
            tracer.reset()
            rates.append(one_pass(traced_main, tracer))
            summaries.append(tracer.summary())
            if len(summaries) == 1:
                TRACE_OUT.mkdir(exist_ok=True)
                tracer.save(str(TRACE_OUT / f"spans-{name}-seed{seed}.npz"))
    finally:
        tracer.uninstall()
    first, second = counts(summaries[0]), counts(summaries[1])
    for key in first:
        if first[key] != second[key]:
            checker.failures.append(
                f"count {key} differs between traced passes: "
                f"{first[key]} != {second[key]}")
    summary = dict(summaries[0], **{"trace.overhead": untraced / rates[0]})
    notes = {"traced_requests": len(sequence),
             "untraced_requests_per_s": untraced,
             "traced_requests_per_s": rates[0]}
    total = sum(summary[f"{mod}.self_s"] for mod in TRACED)
    for mod in TRACED:
        notes[f"share.{mod}"] = round(summary[f"{mod}.self_s"] / total, 4)
    return checker, {k: (v, unit(k)) for k, v in summary.items()}, notes


def unit(metric: str) -> str:
    if metric.endswith("self_s"):
        return "s"
    if metric.startswith("fileio.bytes"):
        return "bytes"
    if metric in ("policy.cut_tree_per_run", "trace.overhead"):
        return "ratio"
    return "count"


def run_one(args) -> int:
    WORK.mkdir(exist_ok=True)
    cwd = os.getcwd()
    parent = tempfile.mkdtemp(dir=WORK)
    try:
        if args.trace:
            checker, metrics, notes = run_traced(args.workload, args.seed,
                                                 parent)
        else:
            checker, metrics, notes = run_timed(args.workload, args.seed,
                                                args.seconds, parent)
    except ImportError as exc:
        print(f"cannot import adaptsel from {SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(cwd)
        shutil.rmtree(parent, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for failure in checker.failures[:20]:
        print(f"FAILED {failure}")
    for key, value in notes.items():
        print(f"{args.workload} {key} = {value}")
    for key, (value, u) in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {u}")
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in a fresh process and print its metrics; fail if
    any answer is wrong or the repository's working tree changed."""
    def tree_status():
        if not (ROOT / ".git").exists() or shutil.which("git") is None:
            return None
        return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout

    before = tree_status()
    results, ok = {}, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(f"{line}\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"]
    if args.trace:
        # The workloads separate: only truncation builds cut trees, only
        # gamma enumerates policies.
        for metric, owner in (("policy.cut_tree.calls", "truncation"),
                              ("oracle.enumerate_policies.yielded", "gamma")):
            for name, result in results.items():
                value = result["metrics"][metric]["value"]
                if (value > 0) != (name == owner):
                    print(f"SEPARATION {metric} = {value} on {name}")
                    ok = False
    after = tree_status()
    if before is None:
        print("not a git checkout: working-tree check skipped")
    elif before != after:
        print(f"working tree changed:\n{before}---\n{after}")
        ok = False
    else:
        print("working tree unchanged")
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
