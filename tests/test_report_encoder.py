"""The CLI writes what json.dumps writes, byte for byte: its report writer,
resolve's chunked text and the float texts that text is built from."""

import json

import numpy as np
import pytest

from cliffstring import cli, floattext

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1e308, 0.1, -2.5, 1.0]
STRINGS = ["", "a", "kind", "é", "日本", "tab\there", "nul\x00", "\x1f\x7f", " ", "😀", '"\\/']


def oracle(tree):
    return json.dumps(tree, indent=2, sort_keys=True, allow_nan=False)


def refusal(tree):
    """json's message refusing a tree that holds a NaN or inf."""
    with pytest.raises(ValueError) as expected:
        oracle(tree)
    return str(expected.value)


def _float(rng):
    if rng.random() < 0.4:
        return SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))]
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320, 308))


def _leaf(rng):
    kind = rng.integers(6)
    if kind == 0:
        return STRINGS[rng.integers(len(STRINGS))]
    if kind == 1:
        return int(rng.integers(-10**6, 10**6)) * 10 ** int(rng.integers(0, 25))
    if kind == 2:
        return bool(rng.integers(2))
    if kind == 3:
        return None
    return _float(rng)


def _tree(rng, depth):
    kind = rng.integers(4) if depth else 3
    size = rng.integers(0, 5)
    if kind == 0:
        keys = [STRINGS[i] for i in rng.integers(len(STRINGS), size=size)]
        return {k: _tree(rng, depth - 1) for k in keys}
    if kind == 1:
        return [_tree(rng, depth - 1) for _ in range(size)]
    if kind == 2:
        return [_float(rng) for _ in range(size)]
    return _leaf(rng)


@pytest.mark.parametrize("seed", range(4))
def test_encoder_matches_json_dumps_on_random_trees(seed, tmp_path, capsys):
    """_dump_json writes json's text and a newline, to a file or to stdout; the
    last tree holds 10,000 floats."""
    rng = np.random.default_rng(seed)
    path = tmp_path / "report.json"
    trees = [_tree(rng, int(rng.integers(1, 5))) for _ in range(250)]
    trees.append({"x": [_float(rng) for _ in range(10_000)]})
    for tree in trees:
        assert cli._dump_json(tree, path) == 0
        assert cli._dump_json(tree, None) == 0
        assert path.read_text() == capsys.readouterr().out == oracle(tree) + "\n"


def test_encoder_writes_zeros_and_signs_of_arrays_and_lists():
    x = np.array([[0.0, -0.0, 1e16], [1e-7, -5e-324, 0.0]])
    texts = floattext.json_texts(x).tolist()
    assert texts == [json.dumps(v) for v in x.ravel().tolist()]
    assert texts[:3] == ["0.0", "-0.0", "1e+16"]
    assert json.dumps(x.ravel().tolist()) == "[" + ", ".join(texts) + "]"


@pytest.mark.parametrize("shape", [(2, 0), (0, 3), (1,), (), (0,), (2, 1, 3)])
@pytest.mark.parametrize("where", ["top", "nested"])
def test_encoder_writes_float_arrays_of_every_shape(shape, where):
    """json_texts gives json's text of each entry in C order, for an array or for a
    strided view of it nested in a larger one."""
    x = np.random.default_rng(len(shape)).normal(size=shape)
    x[x < -0.5] = -0.0
    for y in (x, -x, np.zeros(shape), -np.zeros(shape)):
        view = y if where == "top" else np.stack([-y, y], axis=-1)[..., 1]
        assert floattext.json_texts(view).tolist() == [json.dumps(v) for v in y.ravel().tolist()]


def _resolve_tree(out, a, b):
    """The resolve report as a tree: out with a, b and each row's nonzero terms."""
    terms = [[{"coeff": x[i, k].tolist(), "k": k + 1, "kind": kind}
              for kind, x in (("E", a), ("F", b)) for k in range(len(a)) if np.any(x[i, k])]
             for i in range(len(a))]
    return dict(out, a=a.tolist(), b=b.tolist(), vectors=[{"n": len(a), "terms": t} for t in terms])


def test_encoder_writes_resolve_tables():
    for n in (1, 3, 4):
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(2, n, n, 8)) * 10.0 ** rng.integers(-8, 17, size=(2, n, n, 1))
        a[0, -1] = 0.0
        a[-1, -1, 3] = -0.0
        b[:, 0] = -0.0
        b[-1, 0, 5] = 5e-324
        a[n // 2], b[n // 2] = 0.0, -0.0  # a row without terms
        out = {"command": "resolve", "n": n, "growth": None, "perm": list(range(n)), "pass": True}
        assert "".join(cli._resolve_text(out, np.stack([a, b]))) == oracle(_resolve_tree(out, a, b))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["scalar", "numpy", "list", "array", "nested array"])
def test_encoder_refuses_nonfinite_floats_as_json_does(tmp_path, capsys, bad, where):
    """A report tree is refused whole with json's message; an array's texts raise it."""
    if where in ("array", "nested array"):
        x = np.array([[1.0, 0.0, -0.0], [2.0, bad, -bad]])
        x = x if where == "array" else x[None, None]
        with pytest.raises(ValueError) as got:
            floattext.json_texts(x)
        assert str(got.value) == refusal(x.tolist())
        return
    tree = {"scalar": {"a": 1.0, "b": bad}, "numpy": {"b": [np.float64(bad)]},
            "list": [1.0, 0.0, bad, 2.0]}[where]
    path = tmp_path / "report.json"
    assert cli._dump_json(tree, path) == 3
    assert not path.exists()
    assert capsys.readouterr() == ("", f"cliffstring: report not written: {refusal(tree)}\n")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("at", [0, 3, 7])
def test_encoder_names_the_first_nonfinite_entry_of_an_array(bad, at):
    x = np.array([1.0, 0.0, -0.0, 2.5, 1e300, 5e-324, -1.0, 3.0])
    x[at] = bad
    x[at + 1:] = {"nan": np.inf, "inf": -np.inf, "-inf": np.nan}[repr(bad)]  # a later, other one
    for y in (x.reshape(2, 4), x[None]):
        with pytest.raises(ValueError) as got:
            floattext.json_texts(y)
        assert str(got.value) == refusal(y.tolist())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_resolve_text_refuses_nonfinite_coefficients_as_json_does(bad):
    coeffs = np.zeros((2, 2, 2, 8))
    coeffs[1, 0, 1, 2] = bad
    out = {"command": "resolve", "n": 2}
    with pytest.raises(ValueError) as got:
        cli._resolve_text(out, coeffs)
    assert str(got.value) == refusal(_resolve_tree(out, *coeffs))


def test_encoder_refuses_objects_json_cannot_write(capsys):
    """A value json cannot write, a numpy integer or array among them, is a fault
    in the report's builder: TypeError, not a refused report, and nothing is written."""
    for value in (object(), np.int64(1), np.zeros(1)):
        with pytest.raises(TypeError):
            cli._dump_json({"x": value}, None)
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 8), (2, 2, 8), (3, 3, 8), (2, 3, 8),
                                   (3, 2, 8), (4, 1, 3), (1, 4, 2)])
def test_table_pieces_are_json_text_with_shared_separators(shape):
    """json_table's pieces join to json's text of the table as a top-level key's value,
    entries at the odd places in C order, between them at most five distinct strs."""
    x = np.random.default_rng(len(shape)).normal(size=shape)
    texts = floattext.json_texts(x).reshape(shape)
    pieces = floattext.json_table(texts)
    head, tail = oracle({"t": "%s"}).split('"%s"')
    assert head + "".join(pieces) + tail == oracle({"t": x.tolist()})
    assert pieces[1::2] == texts.ravel().tolist()
    seps = pieces[::2]
    assert len({id(s) for s in seps}) <= 5
    # a row is shape[1] lines of shape[2] entries, and one str ends each but the last
    rows = seps[shape[1] * shape[2]:-1:shape[1] * shape[2]]
    assert len(rows) == shape[0] - 1 and len({id(s) for s in rows}) <= 1
    assert all(s == "\n      ]\n    ],\n    [\n      [\n        " for s in rows)


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 3, 8), (4, 1, 3), (5, 2, 2)])
def test_table_pieces_of_consecutive_row_ranges_join_to_the_table(shape):
    """The gen-fixture writer joins json_table's pieces one row block at a time."""
    texts = floattext.json_texts(np.random.default_rng(1).normal(size=shape)).reshape(shape)
    whole = "".join(floattext.json_table(texts))
    n = shape[0]
    for cuts in ([0, n], list(range(n + 1)), [0, 0, n // 2, n, n]):
        ranges = zip(cuts, cuts[1:])
        blocks = ("".join(floattext.json_table(texts[a:b], a == 0, b == n)) for a, b in ranges)
        assert "".join(blocks) == whole
