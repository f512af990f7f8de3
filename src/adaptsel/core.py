"""Instances, partial realizations, and exact expectation primitives.

An :class:`Instance` is a fully enumerated Bayesian selection problem: a
ground set of elements, a finite state alphabet, an explicit list of
realizations (full element-to-state maps) with prior probabilities, and a
utility table, one row per subset by element mask (see :class:`Instance`).
Everything downstream (policies, parameters, oracles, bound checks) is an
exact computation over this table; no sampling is used anywhere.

Conditioning lives here and nowhere else: :class:`ConditionalPrior` is the
only form of p(phi | psi), built by :func:`version_space` or, one observation
at a time, by :func:`split`, which divides each :func:`partition` part by
its mass with :func:`renormalize`; :func:`gains` is the only computation of
the expected marginal gains Delta(v | psi).  Where only the support of a
conditional prior matters, :func:`state_bitsets` conditions supports without
weights: a support is a bitset of realization indices, and observing state y
at element v intersects it with ``state_bitsets(instance)[v][y]``; the
oracles' DPs price each such support from prior masses alone.

A :class:`PathState` (a psi, its conditional prior and gains) is keyed by
(observed-element mask, support bitset).  Tree walkers condition each ordered
path once per instance (:func:`path_root`).  The conditioning pass
(:func:`_domains`) conditions every positive-mass psi once, up to a size, one
domain (set of observed elements) at a time: each domain's states are vectors
over the positive realizations, and its gains one list per unobserved element,
built with C-level ``map`` passes and equal bit for bit to :func:`split` and
:func:`gains`.  Both adaptive checks read it; :func:`conditioned_states` yields
its states as :class:`PathState` objects, from which ``gamma`` roots its trees,
splitting each state below them once per call.  A split renormalizes only the
parts its table does not already hold.  Caches hold only deterministic values,
so concurrent use of an instance is safe.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from operator import add, itemgetter, lt, mul, sub, truediv
from typing import Iterable, Iterator, Optional

from .errors import EmptyVersionSpace, MalformedPolicy

#: Absolute comparison tolerance used throughout the library.
TOL = 1e-9

#: A utility table, rows by element mask (see :class:`Instance`).
UtilityRows = tuple[tuple[float, ...], ...]


class CoverageTable(tuple):
    """The utility rows :func:`~adaptsel.learn.coverage_utility` tabulates,
    f(A, phi) = 1 - p(version space of phi under A) + p(phi), with the prior
    p it was built under.  A plain tuple of the same rows is a plain table:
    only this type tells the coverage DP that the utility is a function of
    the version space (see :func:`~adaptsel.oracle.optimal_coverage`)."""

    def __new__(cls, rows: Iterable[tuple], prior: tuple[float, ...]):
        table = super().__new__(cls, rows)
        table.prior = prior
        return table

    def __getnewargs__(self):  # what copy and pickle pass to __new__
        return tuple(self), self.prior


def require_int(**values: object) -> None:
    """Raise ValueError for the first of ``values`` that is not an int; a
    bool is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")


def require_count(**values: object) -> None:
    """Raise ValueError for the first of ``values`` that is not an int >= 0."""
    require_int(**values)
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def _finite(value: object) -> bool:
    """Whether ``value`` is an int or float within the float range; a bool
    is not one, and NaN and the infinities are not within it."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max)


def require_finite(**values: object) -> None:
    """Raise ValueError for the first of ``values`` that is not a finite
    real (:func:`_finite`)."""
    for name, value in values.items():
        if not _finite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def require_tol(tol: object) -> None:
    """Raise ValueError unless ``tol`` is a finite real >= 0, not a bool."""
    if not (_finite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def check_prior(prior: tuple[float, ...], count: int) -> None:
    """Raise ValueError unless ``prior`` is ``count`` probabilities, to
    ``TOL``: ints or floats, not bools."""
    if len(prior) != count:
        raise ValueError("prior length does not match realization list")
    if not set(map(type, prior)) <= {float, int}:
        for i, p in enumerate(prior):
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise ValueError(f"prior entry {i} is not a number: {p!r}")
    try:
        finite = all(map(math.isfinite, prior))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError("non-finite prior probability")
    if min(prior, default=0.0) < -TOL:
        raise ValueError("negative prior probability")
    if abs(sum(prior) - 1.0) > TOL:
        raise ValueError(f"prior sums to {sum(prior)}, not 1")


def subsets(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every subset of ``range(n)`` with its mask, by size, then in
    ``itertools.combinations`` order: the order files list tables in."""
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            yield subset, _mask(subset, n)


@dataclass(frozen=True)
class PartialRealization:
    """An ordered set of (element index, state index) observations.

    The observation order is the selection order of the policy that produced
    it; set-level operations (consistency, conditioning, the utility of the
    domain) depend only on the underlying set.
    """

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if len({e for e, _ in self.pairs}) != len(self.pairs):
            raise MalformedPolicy(f"element observed twice in {self.pairs!r}")

    @property
    def dom(self) -> tuple[int, ...]:
        """Observed element indices, in selection order."""
        return tuple(e for e, _ in self.pairs)

    def key(self) -> frozenset[tuple[int, int]]:
        """Order-independent canonical key, suitable for memoization."""
        return frozenset(self.pairs)

    def extended(self, element: int, state: int) -> "PartialRealization":
        return PartialRealization(self.pairs + ((element, state),))

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, element: int) -> bool:
        return any(e == element for e, _ in self.pairs)


#: The empty partial realization (conditioning on nothing).
EMPTY = PartialRealization()


@dataclass(frozen=True, slots=True)
class ConditionalPrior:
    """Renormalized prior over the realizations consistent with some psi."""

    support: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise EmptyVersionSpace("conditional prior with empty support")
        total = sum(self.weights)
        if abs(total - 1.0) > TOL:
            raise ValueError(f"conditional weights sum to {total}, not 1")

    def items(self) -> Iterator[tuple[int, float]]:
        return zip(self.support, self.weights)


@dataclass(frozen=True)
class Instance:
    """A fully enumerated adaptive selection problem.

    ``realizations[i][e]`` is the state index of element ``e`` under the
    i-th realization.  ``utility`` is a tuple of 2^|V| rows by element mask
    (:data:`UtilityRows`): ``utility[mask][i]`` is the utility of selecting
    the subset whose element bits ``mask`` sets when realization ``i`` is
    the truth, and :meth:`value` reads it by subset.  ``utility`` may be
    ``None`` for bare hypothesis-class instances until a table is attached
    with :meth:`with_utility`.

    Zero-probability realizations are allowed in the list (the modified
    prior can lift them later); conditioning under the instance prior
    silently excludes them.
    """

    elements: tuple[str, ...]
    states: tuple[str, ...]
    realizations: tuple[tuple[int, ...], ...]
    prior: tuple[float, ...]
    utility: Optional[UtilityRows] = None
    name: str = ""

    def __post_init__(self) -> None:
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise ValueError("duplicate element identifiers")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state identifiers")
        if any(map(n.__ne__, map(len, self.realizations))):
            raise ValueError("realization arity does not match elements")
        indices = list(itertools.chain.from_iterable(self.realizations))
        if not set(map(type, indices)) <= {int}:  # 1.0 and True are no index
            raise ValueError("realization state indices must be ints")
        if not set(indices) <= set(range(len(self.states))):
            raise ValueError("realization uses an unknown state index")
        if len(set(self.realizations)) != len(self.realizations):
            raise ValueError("duplicate realization maps")
        self._check_prior(self.prior)
        if self.utility is not None:
            self._check_utility(self.utility)

    def _check_prior(self, prior: tuple[float, ...]) -> None:
        check_prior(prior, len(self.realizations))

    def _check_utility(self, rows: UtilityRows) -> None:
        """ValueError unless ``rows`` is 2^|V| rows of |Phi| finite numbers >= -TOL."""
        if not isinstance(rows, tuple):
            raise ValueError("utility must be a tuple of rows by element mask, "
                             f"not a {type(rows).__name__}")
        expected = 1 << len(self.elements)
        if len(rows) != expected:
            raise ValueError(f"utility has {len(rows)} rows, expected {expected}")
        if not set(map(type, rows)) <= {tuple}:
            raise ValueError("utility rows must be tuples")
        if set(map(len, rows)) != {len(self.realizations)}:
            raise ValueError("utility row length does not match realizations")
        values = list(itertools.chain.from_iterable(rows))
        try:
            finite = all(map(math.isfinite, values))
        except (TypeError, OverflowError):  # not a number, or an int too large
            finite = False
        if not finite:
            raise ValueError("non-finite utility value")
        if min(values) < -TOL:
            raise ValueError("negative utility value")

    # -- basic accessors ---------------------------------------------------

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_realizations(self) -> int:
        return len(self.realizations)

    def element_index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise KeyError(f"unknown element {name!r}") from None

    def value(self, subset: Iterable[int], phi_index: int) -> float:
        """Utility f(A, phi) of the subset A of element indices ``subset``
        under realization ``phi_index``: the subset-level reader of
        :attr:`utility`.  An index outside the instance raises ValueError."""
        row = utility_rows(self)[_mask(subset, len(self.elements))]
        if not 0 <= phi_index < len(row):
            raise ValueError(f"unknown realization index {phi_index!r}")
        return row[phi_index]

    def with_utility(self, table: Optional[UtilityRows]) -> "Instance":
        """This instance with ``table`` as its utility; only the table is
        checked, the other fields were checked when this one was built."""
        if table is not None:
            self._check_utility(table)
        return self._replaced(utility=table)

    def with_prior(self, prior: Iterable[float]) -> "Instance":
        """This instance under ``prior``; only the prior is checked."""
        self._check_prior(prior := tuple(prior))
        return self._replaced(prior=prior)

    def _replaced(self, **changes) -> "Instance":
        """A copy with checked ``changes`` to its fields and none of the
        caches, built without running ``__post_init__`` again."""
        out = object.__new__(type(self))
        out.__dict__.update({f.name: getattr(self, f.name) for f in fields(self)},
                            **changes)
        return out

    def describe_psi(self, psi: PartialRealization) -> dict[str, str]:
        """Human-readable form of a partial realization, for witnesses."""
        return {self.elements[e]: self.states[y] for e, y in psi.pairs}


# -- conditioning ---------------------------------------------------------


def version_space(instance: Instance, psi: PartialRealization) -> ConditionalPrior:
    """Realizations consistent with ``psi``, with renormalized prior weights.

    Raises :class:`EmptyVersionSpace` if the consistent realizations carry no
    prior mass (conditioning on a measure-zero event).
    """
    support = members(_key(instance, psi.pairs)[1])
    masses = [instance.prior[i] for i in support]
    total = sum(masses)
    if total <= 0.0:
        raise EmptyVersionSpace("no positive-probability realization consistent "
                                f"with {instance.describe_psi(psi)}")
    return renormalize(support, masses, total)


def renormalize(
    support: list[int], weights: list[float], mass: float
) -> ConditionalPrior:
    """``weights`` on ``support`` divided by ``mass``, their sum."""
    return ConditionalPrior(tuple(support), tuple([w / mass for w in weights]))


def partition(
    instance: Instance, vs: ConditionalPrior, element: int
) -> dict[int, tuple[list[int], list[float]]]:
    """Support and unnormalized weights of ``vs`` per observable state of
    ``element``: states by first appearance, each part in support order."""
    parts: dict[int, tuple[list[int], list[float]]] = {}
    realizations = instance.realizations
    for phi_index, w in vs.items():
        y = realizations[phi_index][element]
        part = parts.get(y)
        if part is None:
            part = parts[y] = ([], [])
        part[0].append(phi_index)
        part[1].append(w)
    return parts


def split(
    instance: Instance, vs: ConditionalPrior, element: int
) -> dict[int, tuple[float, ConditionalPrior]]:
    """Condition ``vs`` on each observable state of ``element``.

    Maps every state with positive mass, in order of first appearance in
    the support, to ``(p(state | vs), vs conditioned on it)``: the
    :func:`partition` of ``vs``, each part renormalized by its mass.
    """
    return {
        y: (mass := sum(weights), renormalize(support, weights, mass))
        for y, (support, weights) in partition(instance, vs, element).items()
    }


@dataclass(eq=False, slots=True)
class PathState:
    """The observations ``pairs`` of a path, in path order, with their key
    (``dom``, ``support``), conditional prior, gains (shared by every
    reader: never mutate them) and splits."""

    pairs: tuple[tuple[int, int], ...]
    dom: int
    support: int
    vs: ConditionalPrior
    gains: dict[int, float]
    after: dict[int, dict] = field(default_factory=dict)

    def split(self, instance: Instance, element: int,
              table: Optional[dict] = None) -> dict:
        """:func:`split` on ``element``, each part as the state of the
        extended path: read from ``table`` if given and found there, else
        renormalized and stored in it."""
        found = self.after.get(element)
        if found is None:
            dom = self.dom | 1 << element
            bits, rows = state_bitsets(instance)[element], _gain_rows(instance, dom)
            found = self.after[element] = {}
            for y, (support, weights) in partition(instance, self.vs, element).items():
                mass = sum(weights)
                key = (dom, self.support & bits[y])
                state = table.get(key) if table is not None else None
                if state is None:  # renormalized only on a table miss
                    state = _state(self.pairs + ((element, y),), key,
                                   renormalize(support, weights, mass), rows, table)
                found[y] = (mass, state)
        return found


def _state(pairs, key, vs, rows, table) -> PathState:
    """A new state of ``pairs`` under ``key``, by ``vs`` and its domain's
    :func:`_gain_rows`, stored in ``table`` if given."""
    state = PathState(pairs, *key, vs, _gains(rows, vs))
    if table is not None:
        table[key] = state
    return state


def path_state(instance: Instance, psi: PartialRealization,
               table: Optional[dict] = None) -> PathState:
    """The state of psi, conditioned by :func:`version_space`.  With ``table``,
    a dict by (observed-element mask, support bitset), the state already under
    psi's key is returned as is, and a new one is stored there."""
    key = _key(instance, psi.pairs)
    if table is not None and key in table:
        return table[key]
    return _state(psi.pairs, key, version_space(instance, psi),
                  _gain_rows(instance, key[0]), table)


def path_root(instance: Instance) -> PathState:
    """The empty path of ``instance``, conditioned by :func:`version_space`;
    every state below it is one :func:`split` part of its parent's.  Paths
    are ordered (another order rounds differently) and live as long as the
    instance."""
    cache = instance.__dict__  # not a field: kept out of ==, repr and the JSON
    if "_paths" not in cache:
        cache["_paths"] = path_state(instance, EMPTY)
    return cache["_paths"]


def utility_rows(instance: Instance) -> UtilityRows:
    """``instance.utility``, rows by element mask; ValueError if it has none."""
    if instance.utility is None:
        raise ValueError("instance has no utility table attached")
    return instance.utility


def state_bitsets(instance: Instance) -> tuple[tuple[int, ...], ...]:
    """``bits[v][y]`` is the set of positive-prior realizations that have
    state y at element v, as a bitset over realization indices (bit i set
    for realization i).  Built once per instance.

    The support of psi is the AND of ``bits[e][y]`` over its pairs (the
    positive-prior realizations when psi is empty): the weightless form of
    :func:`version_space` and :func:`split`.
    """
    cache = instance.__dict__
    if "_bits" not in cache:
        bits = [[0] * instance.num_states for _ in range(instance.num_elements)]
        for i in members(_positive(instance)):
            for e, y in enumerate(instance.realizations[i]):
                bits[e][y] |= 1 << i
        cache["_bits"] = tuple(tuple(row) for row in bits)
    return cache["_bits"]


def members(bits: int) -> list[int]:
    """Indices of the set bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _positive(instance: Instance) -> int:
    """The bitset of positive-prior realizations: the support of the empty psi."""
    return sum(1 << i for i, p in enumerate(instance.prior) if p > 0.0)


def _mask(elements: Iterable[int], n: int) -> int:
    """The bitset of the element indices ``elements``, each below ``n``; one
    that is not raises ValueError."""
    mask = 0
    for v in elements:
        if not 0 <= v < n:
            raise ValueError(f"unknown element index {v!r}")
        mask |= 1 << v
    return mask


def _key(instance: Instance, pairs: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """(observed-element mask, support bitset) of the observations ``pairs``:
    :func:`_positive` narrowed by :func:`state_bitsets` as splits narrow it."""
    bits = state_bitsets(instance)
    support = _positive(instance)
    for e, y in pairs:
        if not (type(e) is type(y) is int and 0 <= e < len(bits)
                and 0 <= y < len(bits[e])):
            raise ValueError(f"psi observes an unknown element or state: {(e, y)}")
        support &= bits[e][y]
    return _mask((e for e, _ in pairs), len(bits)), support


def gains(
    instance: Instance, psi: PartialRealization, vs: ConditionalPrior
) -> dict[int, float]:
    """Expected marginal gain Delta(v | psi) of every unobserved element,
    under ``vs``, the conditional prior of psi."""
    return _gains(_gain_rows(instance, _key(instance, psi.pairs)[0]), vs)


def _gain_rows(instance: Instance, dom: int) -> tuple:
    """The utility row of the observed-element mask ``dom`` and, per element v
    outside it, (v, the row of dom plus v): what :func:`_gains` prices on."""
    rows = utility_rows(instance)
    n = instance.num_elements
    return rows[dom], [(v, rows[dom | 1 << v]) for v in range(n) if not dom >> v & 1]


def _gains(rows: tuple, vs: ConditionalPrior) -> dict[int, float]:
    """Delta(v | psi) per unobserved element v, from psi's
    :func:`_gain_rows` and its conditional prior ``vs``."""
    before, afters = rows
    return {v: sum([w * (after[i] - before[i]) for i, w in vs.items()])
            for v, after in afters}


def _expectation(instance: Instance, policy, weights, value) -> float:
    """Sum over the positive ``(phi_index, weight)`` pairs and the component
    trees of ``policy`` of weight x branch weight x ``value(selected,
    phi_index)``, each tree descended once per realization.  The policy is
    split into its deterministic component trees once per call."""
    from . import policy as policy_mod

    trees = policy_mod.components(instance, policy)
    descend = policy_mod.selected_elements
    total = 0.0
    for phi_index, w in weights:
        if w <= 0.0:
            continue
        for branch, tree in trees:
            total += w * branch * value(descend(instance, tree, phi_index), phi_index)
    return total


def policy_gain(instance: Instance, policy, psi: PartialRealization) -> float:
    """Expected gain of running ``policy`` from scratch after observing psi.

    The expectation is over realizations consistent with psi and over the
    policy's randomness, computed exactly by tree traversal with branch
    weights.
    """
    dom = psi.dom
    return _expectation(
        instance,
        policy,
        version_space(instance, psi).items(),
        lambda selected, phi_index: instance.value(dom + selected, phi_index)
        - instance.value(dom, phi_index),
    )


def f_avg(instance: Instance, policy) -> float:
    """Expected final utility of a policy under the instance prior."""
    return _expectation(instance, policy, enumerate(instance.prior), instance.value)


def c_avg(instance: Instance, policy) -> float:
    """Expected number of elements a policy selects under the prior."""
    return _expectation(
        instance, policy, enumerate(instance.prior),
        lambda selected, _phi_index: len(selected),
    )


# -- positive-mass partial realizations -----------------------------------


def positive_partial_realizations(
    instance: Instance, max_size: Optional[int] = None
) -> Iterator[PartialRealization]:
    """All partial realizations with positive prior mass, as canonical
    (sorted-domain) observation tuples.

    Enumerates, for every subset of elements up to ``max_size``, the
    observation patterns realized by at least one positive-probability
    realization.  ``max_size`` is None or a count (:func:`require_count`),
    checked when iteration starts.
    """
    if max_size is not None:
        require_count(max_size=max_size)
    n = instance.num_elements
    limit = n if max_size is None else min(max_size, n)
    positive = [
        phi for phi, p in zip(instance.realizations, instance.prior) if p > 0.0
    ]
    for size in range(limit + 1):
        for dom in itertools.combinations(range(n), size):
            patterns = {tuple(phi[e] for e in dom) for phi in positive}
            for pattern in sorted(patterns):
                yield PartialRealization(tuple(zip(dom, pattern)))


@dataclass(eq=False, slots=True)
class _Domain:
    """The states of one domain (a set of observed elements) as vectors over
    the positive realizations, each indexed by its position p in
    ``positive`` (ascending realization index).

    States are numbered in pattern order.  ``where[p]`` is the state of
    realization p, ``weights[p]`` its weight in that state's conditional
    prior, ``order`` the positions grouped by state and ascending within
    one, ``slices[s]`` state s's run of ``order``, and ``gains[u][s]`` is
    Delta(u | state s) for every unobserved element u, in element order.
    ``columns[e][p]`` is the state realization p has at element e."""

    elements: tuple[int, ...]
    mask: int
    positive: tuple[int, ...]
    columns: list[tuple[int, ...]]
    where: list[int]
    weights: list[float]
    order: list[int]
    slices: list[slice]
    firsts: list[int]
    gains: dict[int, list[float]]

    def pairs(self, s: int) -> tuple[tuple[int, int], ...]:
        """The observations of state s, in element order."""
        p = self.firsts[s]
        return tuple([(e, self.columns[e][p]) for e in self.elements])

    def path_states(self) -> list[PathState]:
        """Each state as a :class:`PathState`, in pattern order."""
        runs, order, repeat = self.slices, self.order, itertools.repeat
        support = list(map(self.positive.__getitem__, order))
        weights = list(map(self.weights.__getitem__, order))
        bits = list(map((1).__lshift__, support))
        pairs = zip(*[zip(repeat(e), map(self.columns[e].__getitem__, self.firsts))
                      for e in self.elements]) if self.elements else [()]
        gains = map(dict, map(zip, repeat(tuple(self.gains)),
                              zip(*self.gains.values()))
                    if self.gains else repeat((), len(runs)))
        priors = map(ConditionalPrior, map(tuple, map(support.__getitem__, runs)),
                     map(tuple, map(weights.__getitem__, runs)))
        return list(map(PathState, pairs, repeat(self.mask),
                        map(sum, map(bits.__getitem__, runs)), priors, gains))


def _domains(instance: Instance, max_size: Optional[int] = None
             ) -> Iterator[_Domain]:
    """The conditioning pass: every domain of at most ``max_size`` elements
    (all if None) as a :class:`_Domain`, by size, then in
    ``itertools.combinations`` order, each built from its parent, the
    domain without its largest element, one whole domain at a time.

    The empty domain is :func:`version_space` of the empty psi.  A child
    D + {v} numbers its states by (parent state, state at v), which is
    pattern order.  Each state's mass is its members' parent weights summed
    in index order, and each weight is the parent weight over that mass, as
    :func:`split` computes them.  Each gain is the sum, over the state's
    members in index order, of weight x (f(D + u) - f(D)), as
    :func:`_gains` sums it, so every float equals the row-at-a-time walk's
    (``tests/reference_walks.py``) bit for bit."""
    vs = version_space(instance, EMPTY)
    positive = vs.support
    m = len(positive)
    columns = list(zip(*map(instance.realizations.__getitem__, positive)))
    rows = utility_rows(instance)
    if m < instance.num_realizations:  # each row by position, as the weights
        rows = list(map(_reader(positive), rows))
    n, base = instance.num_elements, instance.num_states
    root = _Domain((), 0, positive, columns, [0] * m, list(vs.weights),
                   list(range(m)), [slice(0, m)], [0], {})
    layer = [_priced(root, rows, n)]
    while layer:
        yield from layer
        if max_size is not None and len(layer[0].elements) >= max_size:
            return
        below = []
        for parent in layer:
            scaled = list(map(mul, parent.where, itertools.repeat(base)))
            for v in range(parent.mask.bit_length(), n):
                child = _child(parent, v, list(map(add, scaled, columns[v])))
                below.append(_priced(child, rows, n))
        layer = below


def _child(parent: _Domain, v: int, keys: list[int]) -> _Domain:
    """The domain of ``parent`` plus v, without its gains: ``keys[p]`` is
    (parent state, state at v) of realization p as one int."""
    patterns = sorted(set(keys))
    where = list(map(dict(zip(patterns, itertools.count())).__getitem__, keys))
    order = sorted(range(len(keys)), key=where.__getitem__)
    ends = list(map(bisect_right, itertools.repeat(sorted(keys)), patterns))
    starts = [0, *ends[:-1]]
    slices = list(map(slice, starts, ends))
    masses = _masses(parent.weights, order, slices)
    return _Domain((*parent.elements, v), parent.mask | 1 << v, parent.positive,
                   parent.columns, where,
                   list(map(truediv, parent.weights, map(masses.__getitem__, where))),
                   order, slices, list(map(order.__getitem__, starts)), {})


def _masses(weights: list[float], order: list[int], slices: list[slice]
            ) -> list[float]:
    """Each state's mass under ``weights`` (by position): its members'
    weights summed in index order, as :func:`split` sums a part."""
    grouped = list(map(weights.__getitem__, order))
    return list(map(sum, map(grouped.__getitem__, slices)))


def _priced(domain: _Domain, rows, n: int) -> _Domain:
    """``domain`` with the gains of its states filled in; ``rows[mask]`` is
    the utility row of ``mask`` by position."""
    mask, weights, slices = domain.mask, domain.weights, domain.slices
    read, before = _reader(domain.order), rows[mask]
    for u in range(n):
        if not mask >> u & 1:
            terms = read(list(map(mul, weights,
                                  map(sub, rows[mask | 1 << u], before))))
            domain.gains[u] = list(map(sum, map(terms.__getitem__, slices)))
    return domain


def _reader(indices: list[int]):
    """A function that reads the entries ``indices`` of a row as a tuple."""
    if len(indices) == 1:
        return lambda row: (row[indices[0]],)
    return itemgetter(*indices)


def conditioned_states(
    instance: Instance, max_size: Optional[int] = None
) -> Iterator[PathState]:
    """The state of every positive-mass psi with at most ``max_size``
    observations (every psi if None), each built once, in
    :func:`positive_partial_realizations` order (by size, domain, pattern):
    the :class:`PathState` form of the conditioning pass's domains.  Every
    psi but the empty one is a :func:`split` part of the state of psi
    without its largest element, with the same floats.

    Each state's ``after`` holds the split on every element e whose
    extension the walk reaches (none in the layer of ``max_size``), as
    :meth:`PathState.split` returns it with the walk's states as its table:
    outcomes in order of first appearance, each mass the state's weights
    summed over the part in index order, each part the walk's state of psi
    plus (e, y).  ``gamma`` roots its trees at the states of at most n
    observations, so it splits only those of n observations and the states
    below them.  ``max_size`` is None or a count (:func:`require_count`),
    checked when iteration starts."""
    if max_size is not None:
        require_count(max_size=max_size)
    built: dict = {}  # domain mask -> (domain, its states)
    for domain in _domains(instance, max_size):
        states = domain.path_states()
        firsts, order, slices = domain.firsts, domain.order, domain.slices
        ranked = sorted(range(len(states)), key=firsts.__getitem__)
        for e in domain.elements:
            parent, above = built[domain.mask ^ 1 << e]
            masses = _masses(parent.weights, order, slices)
            column, parts = domain.columns[e], [{} for _ in above]
            for s in ranked:
                p = firsts[s]
                parts[parent.where[p]][column[p]] = (masses[s], states[s])
            for state, part in zip(above, parts):
                state.after.setdefault(e, part)
        built[domain.mask] = (domain, states)
        yield from states


# -- structural checks ----------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a quantified property check, with a witness on failure."""

    ok: bool
    witness: Optional[dict] = field(default=None)

    def __bool__(self) -> bool:
        return self.ok


def check_adaptive_monotone(instance: Instance, tol: float = TOL) -> CheckResult:
    """True iff every expected marginal gain is non-negative (within tol).

    Reads the conditioning pass's gains one domain at a time, each as one
    list per element, by state.  The witness is the first negative gain in
    :func:`positive_partial_realizations` order, then element order, with
    the same float as the walk of :class:`PathState` objects gives.
    """
    require_tol(tol)
    floor = -tol
    for domain in _domains(instance):
        failing = [next(s for s, gain in enumerate(g) if gain < floor)
                   for g in domain.gains.values() if min(g) < floor]
        if failing:
            s = min(failing)
            v = next(u for u, g in domain.gains.items() if g[s] < floor)
            return CheckResult(False, {
                "psi": instance.describe_psi(PartialRealization(domain.pairs(s))),
                "element": instance.elements[v], "gain": domain.gains[v][s],
            })
    return CheckResult(True)


def check_adaptive_submodular(instance: Instance, tol: float = TOL) -> CheckResult:
    """True iff gains never increase as observations accumulate.

    The full quantifier over pairs psi subseteq psi' is checked, not just
    single-step extensions, through the running minimum
    M(psi', v) = min(Delta(v | psi'), min over one-removed psi of M(psi, v)):
    the least gain of v over every subset of psi'.  psi' fails when M is
    below Delta(v | psi') - tol, which only the minimum over its proper
    subsets can be.  The check reads the conditioning pass one domain at a
    time and keeps M as one list per element, by state; the one-removed psi
    of a state of D is the state of D - e that holds the state's first
    realization.  The witness is the first failing psi' in
    :func:`positive_partial_realizations` order, with the first failing
    subset psi and element in (size, ``itertools.combinations``, element)
    order, its gains read from the pass's lists.
    """
    require_tol(tol)
    seen: dict = {}  # domain mask -> (domain, M(., v) per element v, by state)
    for domain in _domains(instance):
        low = domain.gains
        if domain.elements:
            # Per e in D: each state's one-removed state in D - e, and M there.
            below = [(list(map(smaller.where.__getitem__, domain.firsts)), m)
                     for smaller, m in (seen[domain.mask ^ 1 << e]
                                        for e in domain.elements)]
            low, failing = {}, []
            for v, late in domain.gains.items():
                low[v] = least = list(map(min, *[map(m[v].__getitem__, at)
                                                 for at, m in below], late))
                if any(map(lt, least, map(sub, late, itertools.repeat(tol)))):
                    failing.append(next(s for s, (early, gain)
                                        in enumerate(zip(least, late))
                                        if early < gain - tol))
            if failing:
                return _submodularity_witness(instance, domain, min(failing),
                                              seen, tol)
        seen[domain.mask] = (domain, low)
    return CheckResult(True)


def _submodularity_witness(instance: Instance, big: _Domain, s: int, seen: dict,
                           tol: float) -> CheckResult:
    """The first subset psi of the failing psi', state s of ``big``, and
    element whose gain rose by more than tol, in (size,
    ``itertools.combinations``, element) order."""
    pairs, first = big.pairs(s), big.firsts[s]
    psi_prime = instance.describe_psi(PartialRealization(pairs))
    for r in range(len(pairs)):
        for sub_pairs in itertools.combinations(pairs, r):
            small = seen[_mask((e for e, _ in sub_pairs), instance.num_elements)][0]
            at = small.where[first]
            for v, late in big.gains.items():
                if small.gains[v][at] < late[s] - tol:
                    return CheckResult(False, {
                        "psi": instance.describe_psi(PartialRealization(sub_pairs)),
                        "psi_prime": psi_prime, "element": instance.elements[v],
                        "gain_early": small.gains[v][at], "gain_late": late[s],
                    })
    raise AssertionError("running minimum found a violation the rescan missed")
