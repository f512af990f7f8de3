"""Seeded inputs and request mixes for the benchmark workloads.

Every input file is written here, in the documented JSON formats, by this
module's own generator.  Nothing calls ``adaptsel.gen`` or the ``fileio``
writers, so a change to those modules cannot change what is measured.  The
monotone utility mirrors ``gen_random``'s construction: f(A) is the largest
f(A minus v) plus a fresh uniform draw, per realization.

The shape of every input (|V|, |Y|, hypothesis count, budget) is fixed per
pool slot; the seed only draws the numbers and labels.  Request cost depends
mostly on shape, so runs on different seeds measure the same amount of work.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Request:
    """One CLI call: ``adaptsel --json <args>``, run in the work directory."""

    key: str  # stable identifier, used to look up the reference response
    cls: str  # request class; one warm-up request is sent per class
    args: tuple[str, ...]


def _write(workdir: str, name: str, data) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
    return name


def _rng(workload: str, seed: int, slot: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{slot}")


def _prior(rng: random.Random, m: int) -> list[float]:
    raw = [0.05 + rng.random() for _ in range(m)]
    total = sum(raw)
    return [p / total for p in raw]


def monotone_instance(rng: random.Random, n: int, y: int) -> dict:
    """A random adaptive-monotone instance over all |Y|^|V| realizations,
    with an explicit utility table."""
    elements = [f"v{i + 1}" for i in range(n)]
    states = [str(s) for s in range(y)]
    realizations = list(itertools.product(range(y), repeat=n))
    m = len(realizations)
    prior = _prior(rng, m)
    rows: dict[tuple[int, ...], list[float]] = {}
    entries = []
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            row = []
            for i in range(m):
                base = max(
                    (rows[tuple(x for x in subset if x != v)][i] for v in subset),
                    default=0.0,
                )
                row.append(base + rng.random())
            rows[subset] = row
            names = [elements[e] for e in subset]
            entries.extend(
                {"set": names, "realization": i, "value": value}
                for i, value in enumerate(row)
            )
    return {
        "elements": elements,
        "states": states,
        "realizations": [
            {e: states[phi[j]] for j, e in enumerate(elements)}
            for phi in realizations
        ],
        "prior": prior,
        "utility": {"kind": "table", "entries": entries},
    }


def hypothesis_class(rng: random.Random, n: int, h: int) -> dict:
    """``h`` distinct binary labelings of ``n`` examples with a random
    prior, in the hypotheses file format."""
    rows = rng.sample(range(2**n), h)
    return {
        "examples": [f"x{i + 1}" for i in range(n)],
        "labels": [[str((row >> i) & 1) for i in range(n)] for row in rows],
        "prior": _prior(rng, h),
    }


def coverage_instance(hc: dict) -> dict:
    """The instance file of a hypothesis class, carrying the builtin
    coverage utility."""
    examples = hc["examples"]
    return {
        "elements": examples,
        "states": ["0", "1"],
        "realizations": [dict(zip(examples, row)) for row in hc["labels"]],
        "prior": hc["prior"],
        "utility": {"kind": "builtin", "name": "coverage"},
    }


# -- workloads -------------------------------------------------------------
#
# A workload is a pool of rounds.  A round is a fixed group of requests whose
# class shares are the workload's mix; the closed loop sends the pool's
# rounds in order and starts again at the first when the pool runs out.
# Paths are relative to the work directory, so a response that echoes a
# path reads the same in every run.


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, str, int], list[list[Request]]]
    rounds: int        # rounds in the pool
    trace_rounds: int  # leading rounds sent in each traced pass


def _instance(workdir: str, workload: str, seed: int, slot: str,
              n: int, y: int) -> str:
    data = monotone_instance(_rng(workload, seed, slot), n, y)
    return _write(workdir, f"{slot}.json", data)


def _lemma2(path: str, shape: str) -> Request:
    return Request(f"lemma2/{path}", f"lemma2-{shape}", (
        "verify", "--bounds", "lemma2", "--instance", path,
        "--policy", "greedy"))


def _params(path: str, shape: str) -> Request:
    return Request(f"params/{path}", f"params-{shape}", (
        "params", "--instance", path, "--greedy", "--gamma-mode", "skip"))


def _truncation(seed: int, workdir: str, rounds: int) -> list[list[Request]]:
    # Per round: one 4-element lemma2 (the slow tail, 20%), two 3-element
    # lemma2 and two params requests (the body), so neither p50 nor p90
    # sits on a boundary between classes.
    out = []
    for r in range(rounds):
        slot = f"t{r:03d}"
        big = _instance(workdir, "truncation", seed, f"{slot}a", 4, 2)
        small = [_instance(workdir, "truncation", seed, f"{slot}{c}", 3, 2)
                 for c in "bc"]
        n, y = (4, 2) if r % 2 else (3, 3)
        other = _instance(workdir, "truncation", seed, f"{slot}d", n, y)
        out.append([_lemma2(big, "4x2"), _lemma2(small[0], "3x2"),
                    _params(small[0], "3x2"), _lemma2(small[1], "3x2"),
                    _params(other, f"{n}x{y}")])
    return out


def _gamma(seed: int, workdir: str, rounds: int) -> list[list[Request]]:
    shapes = [(3, 2, None), (3, 3, 2), (4, 2, 2)]
    out = []
    for r in range(rounds):
        batch = []
        for c, (n, y, l) in zip("abc", shapes):
            path = _instance(workdir, "gamma", seed, f"g{r:03d}{c}", n, y)
            args = ("verify", "--bounds", "eq2", "--instance", path,
                    "--policy", "greedy")
            if l is not None:
                args += ("--l", str(l))
            batch.append(Request(f"eq2/{path}", f"eq2-{n}x{y}", args))
        out.append(batch)
    return out


def _identify(seed: int, workdir: str, rounds: int) -> list[list[Request]]:
    shapes = [(5, 12), (6, 16), (5, 20), (6, 24), (6, 28)]
    out = []
    for r in range(rounds):
        n, h = shapes[r % len(shapes)]
        slot = f"h{r:03d}"
        hc = hypothesis_class(_rng("identify", seed, slot), n, h)
        hpath = _write(workdir, f"{slot}-hypotheses.json", hc)
        ipath = _write(workdir, f"{slot}.json", coverage_instance(hc))
        out.append([
            Request(f"gbs/{slot}", "gbs", (
                "active-learning", "--hypotheses", hpath,
                "--out", f"{slot}-gbs.json")),
            Request(f"eq5/{slot}", "eq5", (
                "verify", "--bounds", "eq5", "--hypotheses", hpath)),
            Request(f"lemma3-eq4/{slot}", "lemma3-eq4", (
                "verify", "--bounds", "lemma3,eq4", "--instance", ipath,
                "--policy", "greedy")),
            Request(f"coverage/{slot}", "coverage", (
                "solve", "--instance", ipath, "--objective", "coverage",
                "--out", f"{slot}-opt.json")),
        ])
    return out


def _tables(seed: int, workdir: str, rounds: int) -> list[list[Request]]:
    solves = [((4, 2), 3), ((4, 3), 4), ((5, 2), 5), ((5, 3), 3), ((5, 3), 5)]
    out = []
    for r in range(rounds):
        paths = {}
        for c, (n, y) in zip("abcd", [(4, 2), (4, 3), (5, 2), (5, 3)]):
            paths[n, y] = _instance(workdir, "tables", seed, f"b{r:03d}{c}",
                                    n, y)
        batch = []
        for (n, y), k in solves:
            path = paths[n, y]
            stem = path.removesuffix(".json")
            batch.append(Request(f"budget-k{k}/{path}", f"budget-{n}x{y}-k{k}", (
                "solve", "--instance", path, "--objective", "budget",
                "--k", str(k), "--out", f"{stem}-k{k}-opt.json")))
        out.append(batch)
    return out


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "truncation": Workload(_truncation, rounds=30, trace_rounds=4),
    "gamma": Workload(_gamma, rounds=40, trace_rounds=10),
    "identify": Workload(_identify, rounds=60, trace_rounds=10),
    "tables": Workload(_tables, rounds=6, trace_rounds=6),
}
