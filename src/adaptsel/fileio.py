"""JSON serialization for instances, policies, hypothesis classes, and
reports.

Formats:

* instance: ``{"elements": [...], "states": [...], "realizations":
  [{"v1": "0", ...}, ...], "prior": [...], "utility": ...}`` where the
  utility is either an explicit table ``{"kind": "table", "entries":
  [{"set": ["v1"], "realization": 0, "value": 1.5}, ...]}`` or a builtin
  reference ``{"kind": "builtin", "name": "coverage" | "theorem4" |
  "theorem5", "params": {...}}`` expanded against the instance's own
  elements and realizations.  A builtin coverage utility keeps the prior
  it was built under, the file's own or its modified form, so that the
  coverage DP can tell whether the table matches the instance's prior.
* policy: a decision tree ``{"select": "v1", "children": {"0": ..., "1":
  ...}}`` with ``"terminal"`` leaves, or the threshold form ``{"base":
  <tree>, "tau": x, "rho": y}``.
* hypotheses: ``{"examples": [...], "labels": [[...], ...], "prior":
  [...]}``.

A table is read in one pass into rows by element mask; each entry's set,
realization, value and uniqueness are checked in that order, then missing
subsets.  An entry whose set list equals an earlier entry's all-name list
reuses its mask and row.  It is written in :func:`~adaptsel.core.subsets` order.

Every file and ``--json`` answer is written by :func:`dumps` in one walk:
dataclasses become objects of their fields, tuples lists, keys strings and
non-finite floats their ``repr`` strings, in stable-ordered (sorted-key)
JSON, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math

from .core import Instance, UtilityRows, subsets
from .errors import ParseError
from .policy import Node, Policy, Select, TERMINAL, Terminal, ThresholdSubPolicy


def _fail(message: str) -> None:
    raise ParseError(message)


def _expect(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        _fail(f"{where}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        _fail(f"{where}: field {key!r} has the wrong type")
    return value


def _number(value, where) -> float:
    """A JSON number as a float; booleans and non-numbers are rejected."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{where}: {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        _fail(f"{where}: integer too large for a float")


# -- instances -------------------------------------------------------------


def _builtin_utility(instance: Instance, name: str, params: dict) -> UtilityRows:
    from . import gen, learn

    if name == "coverage":
        prior = instance.prior
        modified = params.get("modified", False)
        if type(modified) is not bool:
            _fail("builtin coverage needs params.modified to be true or false")
        if modified:
            prior = learn.modified_prior(prior)
        return learn.coverage_utility(instance, prior)
    if name == "theorem5":
        epsilon = params.get("epsilon")
        if not isinstance(epsilon, (int, float)) or not 0.0 < epsilon < 1.0:
            _fail("builtin theorem5 needs params.epsilon in (0, 1)")
        return gen.theorem5_utility(
            instance.num_elements, instance.num_realizations, epsilon
        )
    if name == "theorem4":
        return gen.theorem4_utility(instance.num_elements, instance.num_realizations)
    _fail(f"unknown builtin utility {name!r}")


def _parse_utility(instance: Instance, spec) -> UtilityRows:
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
    rows: dict[int, list] = {}  # by element mask, as large as the entries
    # Mask and row of each all-name member list checked so far: 1, True and
    # 1.0 are equal, so a list with any other member is checked every time.
    named: dict[tuple, tuple] = {}
    unnamed = object()  # equals no entry's set
    last = unnamed  # the previous entry's list, if it was all names
    for entry in entries:
        try:
            members, phi_index, value = (
                entry["set"], entry["realization"], entry["value"])
        except (KeyError, TypeError):  # not an object, or a field is missing
            get = entry.get if type(entry) is dict else {}.get
            members, phi_index, value = get("set"), get("realization"), get("value")
        if members != last:
            try:
                mask, row = named[tuple(members) if type(members) is list else None]
            except (KeyError, TypeError):  # a new, unhashable or malformed set
                members = _expect(entry, "set", list, "utility entry")
                mask = _subset_mask(instance, entry, members)
                row = rows.get(mask) or rows.setdefault(mask, [None] * m)
                if all(type(x) is str for x in members):
                    named[tuple(members)] = mask, row
            last = members if tuple(members) in named else unnamed
        if type(phi_index) is not int or not 0 <= phi_index < m:
            phi_index = _expect(entry, "realization", int, "utility entry")
            _fail(f"utility entry {entry!r}: realization {phi_index!r} is not "
                  f"an index below {m}")
        if type(value) is not float:
            value = _number(value, "utility entry value")
        if row[phi_index] is not None:
            names = [x for e, x in enumerate(instance.elements) if mask >> e & 1]
            _fail(f"utility entry {entry!r}: duplicate entry for set {names!r} "
                  f"and realization {phi_index!r}")
        row[phi_index] = value
    for subset, mask in subsets(instance.num_elements):
        if mask not in rows or None in rows[mask]:
            _fail(f"utility table is missing entries for subset {subset!r}")
    return tuple(map(tuple, map(rows.__getitem__, range(len(rows)))))


def _subset_mask(instance: Instance, entry: dict, members: list) -> int:
    """The element mask of a utility entry's set, each member named once."""
    mask = 0
    for member in members:
        if isinstance(member, str):
            index = instance.element_index(member)
        elif (isinstance(member, int) and not isinstance(member, bool)
              and 0 <= member < instance.num_elements):
            index = member
        else:
            _fail(f"utility entry {entry!r}: set member {member!r} is not "
                  f"an element name or index")
        if mask >> index & 1:
            _fail(f"utility entry {entry!r}: set names element "
                  f"{instance.elements[index]!r} twice")
        mask |= 1 << index
    return mask


def instance_from_dict(data: dict) -> Instance:
    elements = tuple(_expect(data, "elements", list, "instance"))
    states = tuple(_expect(data, "states", list, "instance"))
    if not all(isinstance(x, str) for x in elements + states):
        _fail("instance: elements and states must be strings")
    state_of = {s: i for i, s in enumerate(states)}.__getitem__
    names = set(elements)
    realizations = []
    for index, row in enumerate(_expect(data, "realizations", list, "instance")):
        if not isinstance(row, dict) or row.keys() != names:
            _fail("instance: each realization must map every element to a state")
        try:
            realizations.append(tuple(map(state_of, map(row.__getitem__, elements))))
        except KeyError as exc:
            _fail(f"instance: realization uses unknown state {exc.args[0]!r}")
        except TypeError:  # a list or an object, which cannot be a state
            element = next(e for e in elements if row[e] not in states)
            _fail(f"instance: realization {index} maps {element!r} to "
                  f"{row[element]!r}, which is not a state")
    prior = tuple(
        _number(p, "instance: prior entry")
        for p in _expect(data, "prior", list, "instance")
    )
    name = _expect(data, "name", str, "instance") if "name" in data else ""
    try:
        instance = Instance(
            elements=elements,
            states=states,
            realizations=tuple(realizations),
            prior=prior,
            name=name,
        )
        if "utility" in data and data["utility"] is not None:
            instance = instance.with_utility(
                _parse_utility(instance, data["utility"])
            )
    except ParseError:
        raise
    except (ValueError, KeyError) as exc:
        _fail(f"instance: {exc}")
    return instance


def instance_to_dict(instance: Instance) -> dict:
    data = {
        "elements": list(instance.elements),
        "states": list(instance.states),
        "realizations": [
            {e: instance.states[phi[i]] for i, e in enumerate(instance.elements)}
            for phi in instance.realizations
        ],
        "prior": list(instance.prior),
    }
    if instance.name:
        data["name"] = instance.name
    if instance.utility is not None:
        entries = []
        for subset, mask in subsets(instance.num_elements):
            for i, value in enumerate(instance.utility[mask]):
                entries.append({"set": [instance.elements[e] for e in subset],
                                "realization": i, "value": value})
        data["utility"] = {"kind": "table", "entries": entries}
    return data


# -- policies --------------------------------------------------------------


def policy_from_dict(instance: Instance, data) -> Policy:
    if isinstance(data, dict) and "base" in data:
        base = _tree_from_dict(instance, data["base"])
        tau = _number(data.get("tau"), "policy: field 'tau'")
        rho = _number(data.get("rho"), "policy: field 'rho'")
        return ThresholdSubPolicy(base, tau, rho)
    return _tree_from_dict(instance, data)


def _tree_from_dict(instance: Instance, data, seen: int = 0) -> Node:
    """The tree ``data`` describes, below a node reached by selecting the
    elements of the mask ``seen``."""
    if data == "terminal":
        return TERMINAL
    if not isinstance(data, dict) or "select" not in data:
        _fail("policy: node must be \"terminal\" or have a \"select\" field")
    element = _expect(data, "select", str, "policy node")
    children_spec = _expect(data, "children", dict, "policy node")
    if set(children_spec) != set(instance.states):
        _fail(f"policy: children of {element!r} must cover every state")
    try:
        index = instance.element_index(element)
    except KeyError:
        _fail(f"policy: unknown element {element!r}")
    if seen >> index & 1:
        _fail(f"policy: {element!r} is selected again below itself")
    children = tuple(
        _tree_from_dict(instance, children_spec[state], seen | 1 << index)
        for state in instance.states
    )
    return Select(index, children)


def policy_to_dict(instance: Instance, policy: Policy):
    if isinstance(policy, ThresholdSubPolicy):
        return {
            "base": policy_to_dict(instance, policy.base),
            "tau": policy.tau,
            "rho": policy.rho,
        }
    if isinstance(policy, Terminal):
        return "terminal"
    return {
        "select": instance.elements[policy.element],
        "children": {
            state: policy_to_dict(instance, child)
            for state, child in zip(instance.states, policy.children)
        },
    }


# -- hypothesis classes ----------------------------------------------------


def hypotheses_from_dict(data: dict):
    from .learn import HypothesisClass

    examples = _expect(data, "examples", list, "hypotheses")
    for x in examples:
        if not isinstance(x, str):
            _fail(f"hypotheses: example {x!r} is not a string")
    labels = _expect(data, "labels", list, "hypotheses")
    for row in labels:
        if not isinstance(row, list) or not all(isinstance(y, str) for y in row):
            _fail(f"hypotheses: label row {row!r} is not a list of strings")
    prior = tuple(
        _number(p, "hypotheses: prior entry")
        for p in _expect(data, "prior", list, "hypotheses")
    )
    try:
        return HypothesisClass(
            examples=tuple(examples),
            labels=tuple(tuple(row) for row in labels),
            prior=prior,
        )
    except (ValueError, TypeError) as exc:
        _fail(f"hypotheses: {exc}")


def hypotheses_to_dict(hc) -> dict:
    return {
        "examples": list(hc.examples),
        "labels": [list(row) for row in hc.labels],
        "prior": list(hc.prior),
    }


# -- files -----------------------------------------------------------------


def load(path: str):
    """The JSON value in ``path``, as :func:`save` writes it; a file that
    cannot be read or decoded raises :class:`ParseError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    except ValueError as exc:  # bad JSON or UTF-8, or an integer too long to read
        _fail(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        _fail(f"{path} nests too deeply to read")


_encode_string = json.encoder.encode_basestring_ascii

#: The exact types that are never dataclasses, so :func:`_encode` skips
#: ``dataclasses.is_dataclass`` on them.
_PLAIN = frozenset((str, int, float, bool, type(None), list, tuple, dict))


def _encode(value, out: list, indent: str) -> None:
    """Append to ``out`` the pieces of ``json.dumps(value, indent=2,
    sort_keys=True)`` after a dataclass becomes an object of its fields, a
    tuple a list, a dict key ``str(key)`` (of keys with equal strings the
    later wins) and a non-finite float its ``repr`` string.  Other types are
    tested in the stdlib encoder's order, so int and float subclasses print
    as plain numbers; ``indent`` is the newline and spaces before the
    enclosing container's items."""
    if (type(value) not in _PLAIN and dataclasses.is_dataclass(value)
            and not isinstance(value, type)):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, str):
        out.append(_encode_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(float.__repr__(value) if math.isfinite(value)
                   else _encode_string(repr(value)))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            separator = "," + inner
            _encode(item, out, inner)
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key, item in sorted({str(k): v for k, v in value.items()}.items()):
            out.append(separator + _encode_string(key) + ": ")
            separator = "," + inner
            _encode(item, out, inner)
        out.append(indent + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        f"is not JSON serializable")


def dumps(data) -> str:
    """``data`` as indent-2, sorted-key JSON plus a newline, written in one
    walk by :func:`_encode`."""
    out: list[str] = []
    _encode(data, out, "\n")
    out.append("\n")
    return "".join(out)


def save(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(data))


def load_instance(path: str) -> Instance:
    return instance_from_dict(load(path))


def save_instance(path: str, instance: Instance) -> None:
    save(path, instance_to_dict(instance))


def load_policy(path: str, instance: Instance) -> Policy:
    return policy_from_dict(instance, load(path))


def save_policy(path: str, instance: Instance, policy: Policy) -> None:
    save(path, policy_to_dict(instance, policy))


def load_hypotheses(path: str):
    return hypotheses_from_dict(load(path))
