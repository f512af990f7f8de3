"""Golden bytes: the SHA-256 of the instance files ``fileio.save_instance``
writes for fixed generated instances.

The digests pin the generators' seeded draws, the coverage utility's floats
and the writer's entry order (by size, then ``itertools.combinations``
order), so a change to any of them shows here first.  The demo class has a
uniform prior, which the modified prior leaves as it is, so its two files
are one file; the skewed class (the six hypotheses on four examples used in
CI) has a zero-prior hypothesis, which the modified prior lifts."""

import hashlib

import pytest

import adaptsel as a
from adaptsel import fileio
from adaptsel.cli import demo_hypotheses


def _skewed():
    examples = ("x1", "x2", "x3", "x4")
    labels = ("0001", "0010", "0110", "1010", "1100", "1111")
    return a.instance_from_hypotheses(a.HypothesisClass(
        examples, tuple(map(tuple, labels)), (0.3, 0.25, 0.2, 0.15, 0.1, 0.0)))


def _demo():
    return a.instance_from_hypotheses(demo_hypotheses())


GOLDEN = {
    "random-5-3-1": (
        lambda: a.gen_random(5, 3, 1),
        "728615bc5232efd975a74c430098a71226dfd4914c5ae7cc2f53c03b91bc7012"),
    "random-4-2-1-nonmonotone": (
        lambda: a.gen_random(4, 2, 1, monotone=False),
        "39dce08134811c5d19ccab259ae0df7078b8d1b8c5d1d5ca58d8ae22b1331ea3"),
    "theorem4-3": (
        lambda: a.gen_theorem4(3)[0],
        "154d5cd395eed88d32dce0dff2e971ae241b211915c64490be5a040cc7dc6cb9"),
    "theorem5-3-0.5": (
        lambda: a.gen_theorem5(3, 0.5)[0],
        "a9df938db848228b1dc000c97ec25a7d1ff4c9f8f1671bc64df3a4b3580d0b13"),
    "demo-coverage": (
        lambda: a.coverage_instance(_demo()),
        "36123c7ca7d915054b310bcb46f2c501136140303a854a20bbb91c1bd0320f85"),
    "demo-coverage-modified": (
        lambda: a.coverage_instance(_demo(), modified=True),
        "36123c7ca7d915054b310bcb46f2c501136140303a854a20bbb91c1bd0320f85"),
    "skewed-coverage": (
        lambda: a.coverage_instance(_skewed()),
        "af2688dbc4d17f6dc383764bf35b866c24295e6e2fbb5669e8fc0e7f16b825e1"),
    "skewed-coverage-modified": (
        lambda: a.coverage_instance(_skewed(), modified=True),
        "02bdfb7b350d36d99d98e35d1e6a116ccda49f13fe3bf5fa0e20bda6dd18122c"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_saved_instance_files_keep_their_bytes(name, tmp_path):
    build, digest = GOLDEN[name]
    path = tmp_path / "instance.json"
    fileio.save_instance(path, build())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
