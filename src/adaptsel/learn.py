"""Bayesian active learning: coverage utility, modified prior, GBS.

A hypothesis class maps directly onto an instance: examples are the ground
elements, labels are the states, and each hypothesis row is a realization.
The coverage utility rewards shrinking the version space, reaching its
maximum of 1 exactly when the true hypothesis is identified.  The modified
prior floors every probability at 1 / |Phi|^2 (then renormalizes), which is
what removes the dependence on the smallest prior probability from the
coverage guarantees.  Generalized binary search is the greedy policy for
the coverage utility built on the modified prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Optional, Sequence

from .core import CoverageTable, Instance, check_prior, members
from .errors import DuplicateHypothesis
from .policy import Node, build_greedy


@dataclass(frozen=True)
class HypothesisClass:
    """A finite hypothesis class: labels[h][x] is the label hypothesis h
    assigns to example x."""

    examples: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    prior: tuple[float, ...]

    def __post_init__(self) -> None:
        for index, x in enumerate(self.examples):
            if x in self.examples[:index]:
                raise ValueError(f"duplicate example {x!r}")
        for row in self.labels:
            if len(row) != len(self.examples):
                raise ValueError("label row length does not match examples")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateHypothesis("two hypotheses assign identical labels")
        check_prior(self.prior, len(self.labels))


def instance_from_hypotheses(hc: HypothesisClass) -> Instance:
    """The bare instance of a hypothesis class; no utility attached yet
    (attach a coverage utility under the plain or modified prior)."""
    states = tuple(sorted({label for row in hc.labels for label in row}))
    state_of = {s: i for i, s in enumerate(states)}
    realizations = tuple(
        tuple(state_of[label] for label in row) for row in hc.labels
    )
    return Instance(
        elements=tuple(hc.examples),
        states=states,
        realizations=realizations,
        prior=tuple(hc.prior),
    )


def coverage_utility(
    instance: Instance, prior: Optional[Sequence[float]] = None
) -> CoverageTable:
    """Tabulate f_p(A, phi) = 1 - p(version space of phi restricted to A)
    + p(phi) for every subset and every realization, as the rows by element
    mask of a :class:`~adaptsel.core.CoverageTable` that records p.

    The value is 1 exactly when observing A under phi identifies phi.
    Zero-probability realizations get rows too; their version-space mass
    simply never includes them.

    The realizations that agree on A (its classes) share a version space.
    As bitsets, A's classes are those of A without its largest element split
    by that element's label bitsets, which cover every realization, zero-prior
    ones included: adding element v to each mask below 2^v in turn builds
    them in ascending mask order.  A class's mass sums p over its members in
    index order.
    """
    p = tuple(instance.prior if prior is None else prior)
    n, m = instance.num_elements, instance.num_realizations
    labels = [[sum(1 << i for i, phi in enumerate(instance.realizations) if phi[e] == y)
               for y in range(instance.num_states)] for e in range(n)]
    classes = [[(1 << m) - 1]]  # by element mask
    for v in range(n):
        classes += [[part for whole in below for label in labels[v]
                     if (part := whole & label)] for below in classes]
    known: dict[int, tuple[list[int], float]] = {}  # each part's members and rest
    rows = []
    for parts in classes:
        outside = [0.0] * m
        for part in parts:
            found = known.get(part)
            if found is None:
                inside = members(part)
                found = known[part] = inside, 1.0 - sum([p[i] for i in inside])
            inside, rest = found
            for i in inside:
                outside[i] = rest
        rows.append(tuple(map(add, outside, p)))
    return CoverageTable(rows, p)


def modified_prior(prior: Sequence[float]) -> tuple[float, ...]:
    """Floor every probability at 1/|Phi|^2 and renormalize.

    The normalizer Z lies in [1, 1 + 1/|Phi|], so every output probability
    is at least 1 / (2 |Phi|^2).
    """
    m = len(prior)
    if m < 1:
        raise ValueError("empty realization list")
    floor = 1.0 / (m * m)
    lifted = [max(p, floor) for p in prior]
    z = sum(lifted)
    return tuple(p / z for p in lifted)


def coverage_instance(instance: Instance, modified: bool = False) -> Instance:
    """The instance re-equipped with a coverage utility.

    With ``modified=True`` both the prior and the utility use the modified
    prior, which is the configuration GBS is built on.
    """
    prior = modified_prior(instance.prior) if modified else instance.prior
    out = instance if not modified else instance.with_prior(prior)
    return out.with_utility(coverage_utility(instance, prior))


def gbs_policy(instance: Instance) -> Node:
    """Generalized binary search: the greedy policy of an instance carrying
    a coverage utility.

    The caller attaches the utility (normally via
    ``coverage_instance(inst, modified=True)``); the greedy threshold-0
    stop then runs every positive-mass branch down to a singleton version
    space.
    """
    if instance.utility is None:
        raise ValueError(
            "attach a coverage utility first (see coverage_instance)"
        )
    return build_greedy(instance)
