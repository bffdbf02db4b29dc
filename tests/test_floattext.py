"""The float writers give Python's own bytes: repr's for the JSON tables and
"%.17g"'s for the CSV grid, on random bit patterns, the core's edges and the
layout table's borders, with the exponent estimate off by one, and in bounded
blocks."""

import sys
import tracemalloc

import numpy as np
import pytest

from cliffstring import floattext
from cliffstring.fixtures import random_hermitian


def _percent_17g_text(rows):
    """rows as Python's "%.17g" values, "," between them and CRLF after each row."""
    return b"".join(b",".join(b"%.17g" % v for v in row) + b"\r\n" for row in rows.tolist())


def _csv_edge_values():
    """Values at the formatter's borders, positive ones only."""
    values = [0.0, 5e-324, 2.0**-1022, sys.float_info.max, 1e16, 1e17, 99999999999999999.0,
              1e-5, 1e-4, 1e-270, 1e290, 1.0, 0.5, 0.1]
    # ties at the 17th digit: 18 significant digits ending in 5
    values += [1234567890123456.25, 1000000000000000.25, 1099511627776000.75]
    values += [j * 2.0**-18 for j in (26215, 100001, 131073, 262143)]
    # 6.3e-16 below a tie at the 17th digit, closer than the double-double's
    # error: M 2^E = (5^22 - 1) / 2 (mod 5^22) 2^E with 2^52 <= M < 2^53
    values.append(float.fromhex("0x1.58dcc86009e22p+129"))
    for k in range(-323, 309):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0), np.nextafter(p, np.inf)]
    for v in (1e-270, 1e290):
        values += [np.nextafter(v, 0), np.nextafter(v, np.inf)]
    return np.array(values)


def test_csv_formatter_matches_percent_17g_on_random_bits_and_edges():
    rng = np.random.default_rng(35)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(float)
    edges = _csv_edge_values()
    values = np.concatenate([bits[np.isfinite(bits)], edges, -edges])
    values = np.concatenate([values, np.zeros(-len(values) % 26)]).reshape(-1, 26)
    assert floattext.csv_rows(values) == _percent_17g_text(values)
    one_column = np.concatenate([edges, -edges])[:, None]
    assert floattext.csv_rows(one_column) == _percent_17g_text(one_column)
    assert floattext.csv_rows(np.array([[1234567890123456.25, -0.0]])) == b"1234567890123456.2,-0\r\n"


@pytest.mark.parametrize("shift", [-1, 1])
def test_csv_formatter_checks_its_exponent_estimate(monkeypatch, shift):
    # an estimate one too low or too high sends every value to "%.17g" itself
    estimate = floattext._exponent_estimate
    monkeypatch.setattr(floattext, "_exponent_estimate", lambda a: estimate(a) + shift)
    values = np.random.default_rng(36).normal(size=(40, 26)) * 10.0 ** np.arange(-260, 260, 20)
    edges = _csv_edge_values()
    values = np.concatenate([values.ravel(), edges[(edges > 1e-269) & (edges < 1e289)]])
    values = np.concatenate([values, np.zeros(-len(values) % 13)]).reshape(-1, 13)
    assert floattext.csv_rows(values) == _percent_17g_text(values)


def _reprs(values):
    return [repr(v) for v in values.tolist()]


def test_json_formatter_matches_repr_on_random_bits_and_edges():
    rng = np.random.default_rng(45)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(float)
    edges = _csv_edge_values()
    values = np.concatenate([bits[np.isfinite(bits)], edges, -edges])
    assert floattext.json_texts(values).tolist() == _reprs(values)


def _layout_border_values():
    """Values at every row of the layout table that the two writers share:
    integral values, every power of two, decades and a few ulps each way, and
    15-17-digit draws at and next to the fixed notation's exponents."""
    rng = np.random.default_rng(46)
    integral = np.concatenate([rng.integers(1, 10**16, 20_000, dtype=np.int64).astype(float),
                               np.arange(1.0, 5001.0), 10.0 ** np.arange(17) - 1, 2.0 ** np.arange(54)])
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [np.nextafter(decades, 0), np.nextafter(decades, np.inf)]
    for _ in range(5):  # a few ulps each way
        near += [np.nextafter(near[-2], 0), np.nextafter(near[-1], np.inf)]
    # 15, 16 and 17 significant digits at every exponent of the fixed notation and next to it
    digits = rng.integers(10**16, 10**17, (3, 2000), dtype=np.int64) // np.array([[100], [10], [1]])
    exponents = rng.integers(-22, 2, (3, 2000))
    drawn = (digits * 10.0 ** exponents).ravel()
    values = np.concatenate([integral, powers, decades, *near, drawn])
    return np.concatenate([values, -values])


def test_json_formatter_matches_repr_at_its_layout_borders():
    # fixed notation for 1e-4 <= |v| < 1e16, ".0" on integral values, and
    # shorter decimals that carry into the next decade: the double nearest 1e23
    # is 9.999999999999999161e22, and repr writes it 1e+23
    values = np.array([1e16, 9999999999999998.0, 1e15, 1e-4, 9.999999999999999e-5, 1e-5, 1.0,
                       0.5, 1e23, 1e22, 5e-324, -2.5, 123456789012345.67, 0.1 + 0.2])
    assert floattext.json_texts(values).tolist() == [
        "1e+16", "9999999999999998.0", "1000000000000000.0", "0.0001", "9.999999999999999e-05",
        "1e-05", "1.0", "0.5", "1e+23", "1e+22", "5e-324", "-2.5", "123456789012345.67",
        "0.30000000000000004"]
    values = _layout_border_values()
    assert floattext.json_texts(values).tolist() == _reprs(values)


def test_csv_formatter_matches_percent_17g_at_the_layout_borders():
    # %.17g keeps no ".0" and writes 1e16 in fixed notation; integral values and
    # short dyadic fractions reach the low digit counts that repr's search never gives
    values = np.array([1e16, 9999999999999998.0, 1e15, 1e-4, 9.999999999999999e-5, 1e-5, 1.0,
                       0.5, 1e17, 1e23, 5e-324, -2.5, 123456789012345.67, 0.1 + 0.2])
    assert floattext.csv_rows(values[None]).decode().split(",") == [
        "10000000000000000", "9999999999999998", "1000000000000000", "0.0001",
        "9.9999999999999991e-05", "1.0000000000000001e-05", "1", "0.5", "1e+17",
        "9.9999999999999992e+22", "4.9406564584124654e-324", "-2.5", "123456789012345.67",
        "0.30000000000000004\r\n"]
    values = _layout_border_values()
    values = np.concatenate([values, np.zeros(-len(values) % 26)]).reshape(-1, 26)
    assert floattext.csv_rows(values) == _percent_17g_text(values)


@pytest.mark.parametrize("shift", [-1, 1])
def test_json_formatter_checks_its_exponent_estimate(monkeypatch, shift):
    # an estimate one too low or too high sends every value to repr itself
    estimate = floattext._exponent_estimate
    monkeypatch.setattr(floattext, "_exponent_estimate", lambda a: estimate(a) + shift)
    values = np.random.default_rng(47).normal(size=(40, 26)) * 10.0 ** np.arange(-260, 260, 20)
    edges = _csv_edge_values()
    values = np.concatenate([values.ravel(), edges[(edges > 1e-269) & (edges < 1e289)]])
    assert floattext.json_texts(values).tolist() == _reprs(values)


def test_json_formatter_prints_most_values_without_repr(monkeypatch):
    # repr is the formatter's fallback; about 1 % of uniform draws need it
    calls = []
    monkeypatch.setattr(floattext, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    rng = np.random.default_rng(48)
    values = np.concatenate([rng.uniform(-1, 1, 20_000), rng.uniform(-1, 1, 20_000) * 1e-7])
    assert floattext.json_texts(values).tolist() == _reprs(values)
    assert 0 < len(calls) <= 0.02 * values.size


def test_json_formatter_keeps_its_blocks_small():
    # formatted whole, the 524,288 entries of an n = 256 fixture peak near
    # 200 MiB; in TEXT_BLOCK blocks they peak near 44 MiB, most of it the
    # texts themselves
    data = random_hermitian(np.random.default_rng(0), 256).data
    floattext.json_texts(data[:1])  # builds the digit and layout tables
    tracemalloc.start()
    try:
        floattext.json_texts(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
