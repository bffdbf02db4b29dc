"""The CLI's report encoder writes what json.dumps writes, byte for byte."""

import json

import numpy as np
import pytest

from cliffstring import cli

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1e308, 0.1, -2.5, 1.0]
STRINGS = ["", "a", "kind", "é", "日本", "tab\there", "nul\x00", "\x1f\x7f", " ", "😀", '"\\/']


def _plain(x):
    """The builtins json.dumps takes for a report tree (numpy items and lists)."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    return x


def oracle(tree):
    return json.dumps(_plain(tree), indent=2, sort_keys=True, allow_nan=False)


def _float(rng):
    if rng.random() < 0.4:
        return SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))]
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320, 308))


def _array(rng):
    kind = rng.integers(6)
    if kind == 0:  # empty, 0-d and int arrays
        shapes = [(0,), (2, 0), (0, 3), ()]
        return rng.normal(size=shapes[rng.integers(len(shapes))])
    if kind == 1:
        return np.asarray(rng.integers(-5, 5, size=rng.integers(0, 4, size=rng.integers(3))))
    shape = tuple(rng.integers(1, 4, size=rng.integers(1, 4)))
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 17)
    x[rng.random(shape) < 0.4] = 0.0
    x[rng.random(shape) < 0.2] = -0.0
    if kind == 2:
        x.flat[:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:x.size]
    if kind == 3:
        return x.astype(np.float32)
    return x


def _leaf(rng):
    kind = rng.integers(10)
    if kind == 0:
        return STRINGS[rng.integers(len(STRINGS))]
    if kind == 1:
        return int(rng.integers(-10**6, 10**6)) * 10 ** int(rng.integers(0, 25))
    if kind == 2:
        return [np.int8(-7), np.int64(2**62), np.uint64(2**64 - 1), np.intp(3)][rng.integers(4)]
    if kind == 3:
        return [True, False, np.bool_(True), np.bool_(False)][rng.integers(4)]
    if kind == 4:
        return None
    if kind == 5:
        return np.float64(_float(rng))
    if kind == 6:
        return _array(rng)
    return _float(rng)


def _tree(rng, depth):
    kind = rng.integers(6) if depth else 5
    size = rng.integers(0, 5)
    if kind == 0:
        keys = [STRINGS[i] for i in rng.integers(len(STRINGS), size=size)]
        return {k: _tree(rng, depth - 1) for k in keys}
    if kind == 1:
        return [_tree(rng, depth - 1) for _ in range(size)]
    if kind == 2:
        return tuple(_tree(rng, depth - 1) for _ in range(size))
    if kind == 3:  # a list of plain floats takes the encoder's one-join path
        return [_float(rng) for _ in range(size)]
    return _leaf(rng)


@pytest.mark.parametrize("seed", range(4))
def test_encoder_matches_json_dumps_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    for _ in range(250):
        tree = _tree(rng, int(rng.integers(1, 5)))
        assert cli._encode(tree) == oracle(tree)


def test_encoder_writes_zeros_and_signs_of_arrays_and_lists():
    x = np.array([[0.0, -0.0, 1e16], [1e-7, -5e-324, 0.0]])
    tree = {"array": x, "list": x.ravel().tolist(), "scalars": list(map(np.float64, x.ravel()))}
    assert cli._encode(tree) == oracle(tree)
    assert '"array": [\n    [\n      0.0,\n      -0.0,\n      1e+16\n    ],' in cli._encode(tree)


def test_encoder_writes_resolve_tables():
    a = np.random.default_rng(3).normal(size=(3, 3, 8))
    a[0, 1] = 0.0
    a[2, 2, 3] = -0.0
    table = cli._float_table(a)
    tree = {"a": table, "term": {"coeff": table[2][2], "k": 3, "kind": "E"}}
    assert cli._encode(tree) == oracle({"a": a, "term": {"coeff": a[2, 2], "k": 3, "kind": "E"}})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["scalar", "numpy", "list", "array", "nested array"])
def test_encoder_refuses_nonfinite_floats_as_json_does(bad, where):
    if where == "scalar":
        tree = {"a": 1.0, "b": bad}
    elif where == "numpy":
        tree = {"b": [np.float64(bad)]}
    elif where == "list":
        tree = [1.0, 0.0, bad, 2.0]
    else:
        x = np.array([[1.0, 0.0, -0.0], [2.0, bad, -bad]])
        tree = {"z": x, "a": "first"} if where == "array" else [{"x": [x]}]
    with pytest.raises(ValueError) as expected:
        oracle(tree)
    with pytest.raises(ValueError) as got:
        cli._encode(tree)
    assert str(got.value) == str(expected.value)


def test_encoder_refuses_objects_json_cannot_write():
    with pytest.raises(TypeError):
        cli._encode({"x": object()})
