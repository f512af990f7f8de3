"""JSON round-trips for instances, policies, and hypothesis classes."""

import copy
import dataclasses
import enum
import json
import random
import re
import tempfile
from collections import OrderedDict, namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptsel as a
from adaptsel import fileio
from adaptsel.core import CheckResult
from conftest import corpus_instance
from reference_walks import reference_jsonable, reference_parse_utility

TOL = 1e-9


def test_instance_round_trip(tmp_path):
    instance = corpus_instance(4)
    path = tmp_path / "instance.json"
    fileio.save_instance(path, instance)
    loaded = fileio.load_instance(path)
    assert loaded.elements == instance.elements
    assert loaded.states == instance.states
    assert loaded.realizations == instance.realizations
    assert loaded.prior == instance.prior
    assert loaded.utility == instance.utility


def test_instance_files_are_stable(tmp_path):
    instance = corpus_instance(1)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    fileio.save_instance(first, instance)
    fileio.save_instance(second, instance)
    assert first.read_bytes() == second.read_bytes()


@st.composite
def instances_and_policies(draw):
    """A ``gen_random`` instance with 2-3 states and a random tree over it,
    bare or as a threshold sub-policy."""
    instance = a.gen_random(draw(st.integers(2, 4)), draw(st.integers(2, 3)),
                            draw(st.integers(0, 10_000)),
                            monotone=draw(st.booleans()))
    stop = draw(st.sampled_from([0.0, 0.25, 0.6]))
    policy = a.random_policy(instance, draw(st.integers(0, 10_000)),
                             stop_probability=stop)
    if draw(st.booleans()):
        policy = a.ThresholdSubPolicy(
            policy, draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 1.0)))
    return instance, policy


@settings(derandomize=True, max_examples=40, deadline=None)
@given(instances_and_policies())
def test_saved_files_load_back_to_the_same_bytes(case):
    """dump -> load -> dump is byte-stable for instances and policies."""
    instance, policy = case
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
        fileio.save_instance(first, instance)
        loaded = fileio.load_instance(first)
        fileio.save_instance(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        fileio.save_policy(first, instance, policy)
        fileio.save_policy(second, loaded, fileio.load_policy(first, loaded))
        assert first.read_bytes() == second.read_bytes()


def test_policy_round_trip(tmp_path):
    instance = corpus_instance(2)
    greedy = a.build_greedy(instance)
    path = tmp_path / "policy.json"
    fileio.save_policy(path, instance, greedy)
    loaded = fileio.load_policy(path, instance)
    assert loaded == greedy


def test_threshold_policy_round_trip(tmp_path):
    instance, chain = a.gen_theorem5(3, 0.5)
    sp = a.ThresholdSubPolicy(chain, 0.25, 0.4)
    path = tmp_path / "sp.json"
    fileio.save_policy(path, instance, sp)
    loaded = fileio.load_policy(path, instance)
    assert loaded == sp


def test_builtin_coverage_utility_matches_library(tmp_path,
                                                  demo_hypotheses):
    bare = a.instance_from_hypotheses(demo_hypotheses)
    data = fileio.instance_to_dict(bare)
    data["utility"] = {"kind": "builtin", "name": "coverage", "params": {}}
    loaded = fileio.instance_from_dict(data)
    assert loaded.utility == a.coverage_utility(bare)
    data["utility"] = {
        "kind": "builtin", "name": "coverage", "params": {"modified": True}
    }
    modified = fileio.instance_from_dict(data)
    assert modified.utility == a.coverage_utility(
        bare, a.modified_prior(bare.prior)
    )


def test_builtin_theorem_utilities_match_generators():
    for name, build in (
        ("theorem5", lambda: a.gen_theorem5(3, 0.5)),
        ("theorem4", lambda: a.gen_theorem4(3)),
    ):
        instance, _ = build()
        data = fileio.instance_to_dict(instance)
        data["utility"] = {"kind": "builtin", "name": name,
                           "params": {"epsilon": 0.5}}
        loaded = fileio.instance_from_dict(data)
        assert loaded.utility == instance.utility


def test_hypotheses_round_trip(tmp_path, demo_hypotheses):
    path = tmp_path / "h.json"
    fileio.save(path, fileio.hypotheses_to_dict(demo_hypotheses))
    loaded = fileio.load_hypotheses(path)
    assert loaded == demo_hypotheses


def test_parse_errors_are_reported(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(a.ParseError):
        fileio.load_instance(bad)
    bad.write_text(json.dumps({"elements": ["v1"]}))
    with pytest.raises(a.ParseError):
        fileio.load_instance(bad)


@pytest.mark.parametrize("bad", [["0"], {"state": "0"}])
def test_a_realization_row_naming_no_state_is_a_parse_error(bad):
    data = fileio.instance_to_dict(corpus_instance(0))
    data["realizations"][2]["v2"] = bad
    with pytest.raises(a.ParseError, match=re.escape(
            f"instance: realization 2 maps 'v2' to {bad!r}, which is not a state")):
        fileio.instance_from_dict(data)


def test_policy_parse_rejects_incomplete_children(thm5):
    instance, _ = thm5
    with pytest.raises(a.ParseError):
        fileio.policy_from_dict(
            instance, {"select": "v1", "children": {"0": "terminal"}}
        )
    with pytest.raises(a.ParseError):
        fileio.policy_from_dict(instance, {"children": {}})


@pytest.mark.parametrize("field", ["tau", "rho"])
@pytest.mark.parametrize("bad", [True, False, "0.5", None])
def test_threshold_policy_numbers_are_checked(thm5, field, bad):
    instance, chain = thm5
    data = fileio.policy_to_dict(instance, a.ThresholdSubPolicy(chain, 0.25, 0.5))
    data[field] = bad
    with pytest.raises(a.ParseError, match=f"policy: field '{field}': {bad!r}"):
        fileio.policy_from_dict(instance, data)
    data[field] = float("nan")
    with pytest.raises(a.MalformedPolicy, match="NaN|outside"):
        fileio.policy_from_dict(instance, data)


@pytest.mark.parametrize("bad", [1, 2.5, True, None, ["x1"]])
def test_non_string_example_rejected(bad):
    data = {"examples": ["x1", bad], "labels": [["0", "0"], ["0", "1"]],
            "prior": [0.5, 0.5]}
    with pytest.raises(a.ParseError,
                       match=rf"hypotheses: example {re.escape(repr(bad))} "
                             r"is not a string"):
        fileio.hypotheses_from_dict(data)


def test_incomplete_utility_table_rejected():
    instance = corpus_instance(0)
    data = fileio.instance_to_dict(instance)
    data["utility"]["entries"].pop()
    with pytest.raises(a.ParseError):
        fileio.instance_from_dict(data)


def test_non_finite_numbers_rejected(tmp_path):
    """Non-finite or mistyped numbers, and label rows that are not lists of
    strings, fail to load with a ParseError naming the field."""
    instance = corpus_instance(0)
    path = tmp_path / "instance.json"
    data = fileio.instance_to_dict(instance)
    data["prior"][0] = float("nan")
    path.write_text(json.dumps(data))
    with pytest.raises(a.ParseError, match="non-finite prior"):
        fileio.load_instance(path)
    data = fileio.instance_to_dict(instance)
    data["utility"]["entries"][-1]["value"] = float("inf")
    path.write_text(json.dumps(data))
    with pytest.raises(a.ParseError, match="non-finite utility"):
        fileio.load_instance(path)
    data = fileio.instance_to_dict(instance)
    data["prior"] = [True] + [False] * (len(data["prior"]) - 1)
    path.write_text(json.dumps(data))
    with pytest.raises(a.ParseError, match="instance: prior entry: True"):
        fileio.load_instance(path)
    hypotheses = {"examples": ["x1"], "labels": [["0"], ["1"]],
                  "prior": [0.5, 0.5]}
    for field, bad, message in (
        ("prior", [float("nan"), 1.0], "non-finite prior"),
        ("prior", [1.5, -0.5], "hypotheses: negative prior"),
        ("prior", ["0.5", 0.5], "hypotheses: prior entry: '0.5'"),
        ("prior", [True, False], "hypotheses: prior entry: True"),
        ("labels", ["0", "1"], "hypotheses: label row '0'"),
        ("labels", [[0], [1]], "hypotheses: label row \\[0\\]"),
    ):
        with pytest.raises(a.ParseError, match=message):
            fileio.hypotheses_from_dict({**hypotheses, field: bad})


@pytest.mark.parametrize(
    "field, bad",
    [
        ("realization", 99),
        ("realization", -1),
        ("realization", True),
        ("set", [True]),
        ("set", [7]),
        ("value", True),
        ("value", "1.5"),
        # The last entry is (every element, realization 3); moving it to
        # realization 0 gives that set two entries for realization 0.
        pytest.param("realization", 0, id="duplicate"),
    ],
)
def test_bad_utility_entry_is_named(field, bad):
    data = fileio.instance_to_dict(corpus_instance(0))
    entry = data["utility"]["entries"][-1]
    entry[field] = bad
    with pytest.raises(a.ParseError, match="utility entry") as info:
        fileio.instance_from_dict(data)
    assert repr(bad[0] if field == "set" else bad) in str(info.value)
    assert "missing entries" not in str(info.value)
    if field == "realization" and bad == 0:
        assert "duplicate entry for set ['v1', 'v2'] and realization 0" in str(
            info.value
        )


@pytest.mark.parametrize("name, members", [("v1", ["v1", "v1"]),
                                           ("v2", ["v2", 1])])
def test_set_naming_an_element_twice_is_rejected(name, members):
    data = fileio.instance_to_dict(corpus_instance(0))
    for entry in data["utility"]["entries"]:
        if entry["set"] == [name]:
            entry["set"] = list(members)
    with pytest.raises(a.ParseError, match="utility entry") as info:
        fileio.instance_from_dict(data)
    assert f"set names element {name!r} twice" in str(info.value)
    assert repr(members) in str(info.value)


@pytest.mark.parametrize("bad", [True, 1.0])
def test_index_lookalikes_are_rejected_where_the_index_is_used(bad):
    """1, True and 1.0 compare equal, yet only the integer is an index."""
    data = fileio.instance_to_dict(corpus_instance(0))
    entries = [e for e in data["utility"]["entries"] if e["set"] == ["v2"]]
    for entry in entries:
        entry["set"] = [1]
    assert fileio.instance_from_dict(data).utility == corpus_instance(0).utility
    entries[-1]["set"] = [bad]
    with pytest.raises(a.ParseError,
                       match=rf"set member {bad!r} is not an element name"):
        fileio.instance_from_dict(data)


def test_reordered_set_is_still_a_duplicate():
    data = fileio.instance_to_dict(corpus_instance(0))
    entries = data["utility"]["entries"]
    first = next(e for e in entries if e["set"] == ["v1", "v2"])
    entries.append({**first, "set": ["v2", "v1"]})
    with pytest.raises(a.ParseError, match=re.escape(
            "duplicate entry for set ['v1', 'v2'] and realization 0")):
        fileio.instance_from_dict(data)


def test_a_short_table_over_many_elements_fails_at_its_first_gap():
    """The reader holds rows only for the subsets its entries name, so a
    table over 40 elements that lists only the empty set fails at the first
    missing subset instead of laying out 2^40 rows."""
    names = [f"v{i}" for i in range(40)]
    data = {"elements": names, "states": ["0", "1"],
            "realizations": [dict.fromkeys(names, "0"), dict.fromkeys(names, "1")],
            "prior": [0.5, 0.5],
            "utility": {"kind": "table", "entries": [
                {"set": [], "realization": i, "value": 0.0} for i in (0, 1)]}}
    with pytest.raises(a.ParseError,
                       match=re.escape("missing entries for subset (0,)")):
        fileio.instance_from_dict(data)


def test_jsonable_handles_non_finite_floats():
    out = json.loads(fileio.dumps({"x": float("inf"), "y": [float("nan")]}))
    assert out == {"x": "inf", "y": ["nan"]}


def _parsed(parse, instance, spec):
    """A parse's rows by element mask as float.hex rows, or the type and
    text of the error it raised."""
    try:
        table = parse(instance, copy.deepcopy(spec))
    except (a.ParseError, KeyError) as exc:  # KeyError: an unknown name
        return type(exc).__name__, str(exc)
    return [[v.hex() for v in row] for row in table]


def _edit(**fields):
    """Give the entry at ``at`` these fields (None deletes one)."""
    def mutate(entries, at):
        entries[at].update(fields)
        for name in [name for name, value in fields.items() if value is None]:
            del entries[at][name]
    return mutate


def _replace(entry):
    def mutate(entries, at):
        entries[at] = entries[at]["set"] if entry is None else entry
    return mutate


def _indices(pick):
    """Give the members ``pick(rng)`` chooses as indices, not names."""
    def mutate(entries, at):
        rng = random.Random(at)
        for entry in entries:
            entry["set"] = [int(m[1:]) - 1 if pick(rng) else m for m in entry["set"]]
    return mutate


def _reverse_sets(entries, at):
    for entry in entries:
        entry["set"].reverse()


def _duplicate(**fields):
    def mutate(entries, at):
        entries.insert(at, {**entries[at], **fields})
    return mutate


def _drop_entry(entries, at):
    del entries[at]


def _drop_subset(entries, at):
    members = entries[at]["set"]
    entries[:] = [e for e in entries if e["set"] != members]


def _reuse_hazard(first, second):
    """Two consecutive entries of one subset with these set lists."""
    def mutate(entries, at):
        one = next(i for i, e in enumerate(entries)
                   if e["set"] == entries[i + 1]["set"] == ["v1"])
        entries[one]["set"], entries[one + 1]["set"] = list(first), list(second)
    return mutate


# Each mutation edits the entry list in place, at position ``at`` where it
# edits one entry; the flag says whether the table must be refused.
MUTATIONS = {
    "as-written": (lambda entries, at: None, False),
    "index-sets": (_indices(lambda rng: True), False),
    "mixed-sets": (_indices(lambda rng: rng.random() < 0.5), False),
    "reordered-sets": (_reverse_sets, False),
    "int-value": (_edit(value=1), False),
    "nan-value": (_edit(value=float("nan")), False),
    "non-dict-entry": (_replace(None), True),
    "string-entry": (_replace("v1"), True),
    "missing-set": (_edit(set=None), True),
    "string-set": (_edit(set="v1"), True),
    "object-set": (_edit(set={"v1": 0}), True),
    "unhashable-member": (_edit(set=[["v1"]]), True),
    "bool-member": (_edit(set=[True]), True),
    "float-member": (_edit(set=[1.0]), True),
    "unknown-member": (_edit(set=["v9"]), True),
    "range-member": (_edit(set=[7]), True),
    "name-twice": (_edit(set=["v1", "v1"]), True),
    "name-and-index": (_edit(set=["v2", 1]), True),
    "realization-range": (_edit(realization=99), True),
    "realization-negative": (_edit(realization=-1), True),
    "realization-bool": (_edit(realization=True), True),
    "realization-str": (_edit(realization="0"), True),
    "realization-float": (_edit(realization=0.0), True),
    "missing-realization": (_edit(realization=None), True),
    "value-bool": (_edit(value=True), True),
    "value-str": (_edit(value="1.5"), True),
    "missing-value": (_edit(value=None), True),
    "duplicate": (_duplicate(), True),
    "missing-entry": (_drop_entry, True),
    "missing-subset": (_drop_subset, True),
    "set-and-realization": (_edit(set=[True], realization=99, value="x"), True),
    "realization-and-value": (_edit(realization=99, value="x"), True),
    "value-and-duplicate": (_duplicate(value="x"), True),
    "reuse-0-then-false": (_reuse_hazard([0], [False]), True),
    "reuse-name-then-false": (_reuse_hazard(["v1"], [False]), True),
    "reuse-0-then-0.0": (_reuse_hazard([0], [0.0]), True),
}


@pytest.mark.parametrize("shuffled", [False, True],
                         ids=["writer-order", "shuffled"])
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_utility_parse_equals_reference(mutation, shuffled):
    """The one-pass parse returns the reference's rows by element mask, bits
    included, or raises its error with the same text."""
    mutate, refused = MUTATIONS[mutation]
    for instance in (corpus_instance(0), a.gen_random(3, 3, 7)):
        written = fileio.instance_to_dict(instance)["utility"]
        for at in (0, len(written["entries"]) // 2, len(written["entries"]) - 1):
            spec = copy.deepcopy(written)
            mutate(spec["entries"], at)
            if shuffled:
                random.Random(at).shuffle(spec["entries"])
            got = _parsed(fileio._parse_utility, instance, spec)
            assert got == _parsed(reference_parse_utility, instance, spec)
            assert isinstance(got[0], str) == refused, got
            if refused and mutation != "unknown-member":
                assert got[0] == "ParseError"


@pytest.mark.parametrize("spec", [
    None, [], {"kind": 1}, {"kind": "nope"}, {"kind": "table"},
    {"kind": "table", "entries": {}}, {"kind": "table", "entries": []},
    {"kind": "builtin", "name": "theorem4"}, {"kind": "builtin", "name": 4},
    {"kind": "builtin", "name": "theorem4", "params": []},
])
def test_utility_spec_errors_equal_reference(spec):
    instance = corpus_instance(0)
    got = _parsed(fileio._parse_utility, instance, spec)
    assert got == _parsed(reference_parse_utility, instance, spec)


@dataclasses.dataclass(frozen=True)
class _Leaf:
    value: float
    tags: tuple


@dataclasses.dataclass
class _Report:
    name: str
    leaf: _Leaf
    leaves: list
    by_index: dict
    missing: object = None


def test_jsonable_writes_the_bytes_of_the_reference():
    """Dataclasses, tuples, int-keyed dicts, keys whose strings collide (the
    later wins), non-finite floats, IntEnum values, bools and None give the
    same ``dumps`` bytes as the is_dataclass-first walk."""
    Pair = namedtuple("Pair", "left right")
    value = {
        "report": _Report(
            name="r",
            leaf=_Leaf(float("inf"), (1, 2.5, True, None)),
            leaves=[_Leaf(float("-inf"), ()), _Leaf(float("nan"), ("a", False))],
            by_index={0: (float("nan"), -0.0), 1: [None, {"x": 1e308 * 10}]},
        ),
        "pair": Pair(_Leaf(0.1, (3,)), OrderedDict([(2, "b"), (1, "a")])),
        "check": CheckResult(False, {"psi": {"v1": "0"}, "gap": float("-inf")}),
        7: ((), [], {}),
        "flags": (True, False, None, 0, -3, 2**70),
        "colliding": {1: "a", "1": "b"},
        "reversed": {"2": "first", 2: "second"},
        "level": [_Level.HIGH, {_Level.LOW: _Level.LOW}],
    }
    expected = json.dumps(reference_jsonable(value), indent=2, sort_keys=True) + "\n"
    assert fileio.dumps(value) == expected
    assert json.loads(expected)["colliding"] == {"1": "b"}


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


_CHARS = ['"', "\\", "/", "\n", "\t", "\b", "\f", "\r", "\x00", "\x1f", "\x7f",
          " ", "a", "Z", "\u00e9", "\u2028", "\U0001f600"]
_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           0.1, 1e16, 1e-7, -2.5, float("inf"), float("-inf"), float("nan")]
_INTS = [0, -3, 2**70, -(2**70), _Level.LOW, _Level.HIGH]


def _random_value(rng, depth):
    """A nested value of JSON leaves, lists, tuples, str-keyed dicts,
    namedtuples, OrderedDicts and dataclasses, empty containers included."""
    def text():
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(5)))

    if depth == 0 or rng.random() < 0.3:
        return rng.choice([
            text, lambda: None, lambda: True, lambda: False,
            lambda: rng.choice(_INTS), lambda: rng.randrange(-10**6, 10**6),
            lambda: rng.choice(_FLOATS), rng.random,
        ])()
    size = rng.randrange(4)
    kind = rng.randrange(6)
    if kind == 0:
        return [_random_value(rng, depth - 1) for _ in range(size)]
    if kind == 1:
        return tuple(_random_value(rng, depth - 1) for _ in range(size))
    if kind == 2:
        return {text(): _random_value(rng, depth - 1) for _ in range(size)}
    if kind == 3:
        return OrderedDict((text(), _random_value(rng, depth - 1))
                           for _ in range(size))
    if kind == 4:
        return namedtuple("Pair", "left right")(_random_value(rng, depth - 1),
                                                _random_value(rng, depth - 1))
    return _Leaf(rng.choice(_FLOATS), tuple(_random_value(rng, depth - 1)
                                            for _ in range(size)))


@pytest.mark.parametrize("seed", range(4))
def test_dumps_writes_the_bytes_of_json_dumps(seed):
    """The one-pass writer gives ``json.dumps(..., indent=2, sort_keys=True)``
    byte for byte: escapes, astral characters, -0.0, subnormals, huge ints,
    int subclasses, empty containers and non-finite floats."""
    rng = random.Random(seed)
    for _ in range(250):
        value = _random_value(rng, 4)
        expected = json.dumps(reference_jsonable(value), indent=2,
                              sort_keys=True) + "\n"
        assert fileio.dumps(value) == expected


@pytest.mark.parametrize("bad", [{1, 2}, b"x", object(), 1j])
def test_dumps_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError):
        json.dumps(reference_jsonable({"x": [bad]}))
    with pytest.raises(TypeError, match="is not JSON serializable"):
        fileio.dumps({"x": [bad]})


_HUGE = 10**400  # a JSON integer beyond the largest float


@pytest.mark.parametrize("field, message", [
    ("prior", "instance: prior entry"),
    ("value", "utility entry value"),
    ("hypotheses", "hypotheses: prior entry"),
    ("tau", "policy: field 'tau'"),
    ("rho", "policy: field 'rho'"),
])
def test_an_integer_too_large_for_a_float_is_named(tmp_path, field, message):
    load = fileio.load_instance
    if field in ("prior", "value"):
        data = fileio.instance_to_dict(corpus_instance(0))
        if field == "prior":
            data["prior"][0] = _HUGE
        else:
            data["utility"]["entries"][-1]["value"] = _HUGE
    elif field == "hypotheses":
        data = {"examples": ["x1"], "labels": [["0"], ["1"]],
                "prior": [_HUGE, 0.5]}
        load = fileio.load_hypotheses
    else:
        instance, chain = a.gen_theorem5(3, 0.5)
        data = fileio.policy_to_dict(instance, a.ThresholdSubPolicy(chain, 0.25, 0.5))
        data[field] = _HUGE
        load = lambda path: fileio.load_policy(path, instance)  # noqa: E731
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    with pytest.raises(a.ParseError,
                       match=f"{message}: integer too large for a float"):
        load(path)


def test_an_integer_too_long_to_read_is_a_parse_error(tmp_path):
    """Beyond 4,300 digits ``json`` refuses the integer; an interpreter
    without that limit reads it, and ``_number`` refuses it."""
    data = fileio.instance_to_dict(corpus_instance(0))
    data["prior"][0] = 0.5
    text = json.dumps(data).replace('"prior": [0.5', '"prior": [' + "1" * 5000, 1)
    path = tmp_path / "in.json"
    path.write_text(text)
    with pytest.raises(a.ParseError,
                       match="is not valid JSON|integer too large for a float"):
        fileio.load_instance(path)


@pytest.mark.parametrize("text, message", [
    (b'{"name": "\xff"}', "is not valid JSON: 'utf-8' codec"),
    (b"[" * 100000 + b"]" * 100000, "nests too deeply to read"),
], ids=["bad-utf8", "deep-nesting"])
def test_an_unreadable_file_is_a_parse_error(tmp_path, text, message):
    path = tmp_path / "in.json"
    path.write_bytes(text)
    with pytest.raises(a.ParseError, match=message):
        fileio.load_instance(path)


@pytest.mark.parametrize("bad", ["false", "true", 0, 1, None, []])
def test_builtin_coverage_modified_must_be_a_bool(demo_hypotheses, bad):
    data = fileio.instance_to_dict(a.instance_from_hypotheses(demo_hypotheses))
    data["utility"] = {"kind": "builtin", "name": "coverage",
                       "params": {"modified": bad}}
    with pytest.raises(a.ParseError, match="params.modified to be true or false"):
        fileio.instance_from_dict(data)


@pytest.mark.parametrize("bad", [["x"], 1, None, {"x": 1}])
def test_instance_name_must_be_a_string(bad):
    data = fileio.instance_to_dict(corpus_instance(0))
    data["name"] = "x"
    assert fileio.instance_from_dict(data).name == "x"
    data["name"] = bad
    with pytest.raises(a.ParseError, match="instance: field 'name' has the wrong type"):
        fileio.instance_from_dict(data)


def _count_checks(monkeypatch):
    """Count each run of ``Instance``'s three checks: the whole of
    ``__post_init__``, and the prior and utility checks on their own."""
    from collections import Counter

    counts = Counter()
    for name in ("__post_init__", "_check_prior", "_check_utility"):
        original = getattr(a.Instance, name)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(a.Instance, name, counted)
    return counts


def test_each_instance_is_checked_once(monkeypatch, tmp_path, demo_hypotheses):
    """A file, with a table or a builtin utility, is checked once: the
    structure, the prior and the utility each once.  ``coverage_instance``
    checks only what it attaches to an instance already checked."""
    bare = a.instance_from_hypotheses(demo_hypotheses)
    data = fileio.instance_to_dict(a.coverage_instance(bare))
    builtin = dict(data, utility={"kind": "builtin", "name": "coverage",
                                  "params": {"modified": True}})
    counts = _count_checks(monkeypatch)
    for spec in (data, builtin):
        counts.clear()
        fileio.instance_from_dict(spec)
        assert counts == {"__post_init__": 1, "_check_prior": 1,
                          "_check_utility": 1}
    counts.clear()
    a.coverage_instance(bare)
    assert counts == {"_check_utility": 1}
    counts.clear()
    a.coverage_instance(bare, modified=True)
    assert counts == {"_check_prior": 1, "_check_utility": 1}


def test_with_prior_and_with_utility_check_what_they_change(demo_hypotheses):
    """Each refuses a bad value with the message the full check gives, and
    the copy it returns keeps none of the original's caches."""
    cov = a.coverage_instance(a.instance_from_hypotheses(demo_hypotheses))
    a.optimal_coverage(cov)
    with pytest.raises(ValueError, match="prior sums to 0.5, not 1"):
        cov.with_prior((0.25, 0.25, 0.0))
    with pytest.raises(ValueError, match="prior length does not match"):
        cov.with_prior((1.0,))
    with pytest.raises(ValueError, match="utility has 1 rows, expected 4"):
        cov.with_utility(((1.0, 1.0, 1.0),))
    for copy_ in (cov.with_prior(cov.prior), cov.with_utility(cov.utility)):
        assert copy_ == cov and vars(copy_).keys() == {
            f.name for f in dataclasses.fields(cov)}
    assert cov.with_utility(None).utility is None
