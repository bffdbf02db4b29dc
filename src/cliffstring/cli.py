"""Batch front end: seeded property sweeps and JSON/CSV reports.

Exit codes: 0 all checks pass, 2 bad input (unreadable file, malformed
flags or data), 3 at least one check failed.  Reports are plain JSON with
sorted keys and no timestamps, so identical configuration and seed give
byte-identical output.
"""

import argparse
import errno
import functools
import json
import os
import sys

import numpy as np

from .fixtures import random_hermitian, random_spectrum, random_spinor
from .lorentz import MAX_NEST_DEPTH, lorentz_checks
from .matrices import OctHermitian
from .octonion import octonion_checks
from .quantum_rep import quantum_checks
from .resolve import reconstruction_errors, resolve_hermitian
from .string_modes import (
    coordinates,
    current_density,
    emission_bound,
    redshift,
    spectrum_from_json,
    spectrum_to_json,
    string_mode_checks,
)

SEED_ENV = "CLIFFSTRING_SEED"

# Largest string-modes --grid: quadrature and CSV hold O(grid) arrays.
MAX_GRID = 65536

# string-modes CSV rows formatted and written per block, so the text buffers
# stay bounded whatever --grid is.
CSV_BLOCK = 128

# Nonzero floats of a resolve report or hermitian fixture formatted per block,
# for the same reason.
TEXT_BLOCK = 4096

# Largest quantum-check --degree: only the dimension and the J^z spectrum
# depend on it, and the cap bounds the spectrum list the report carries
# (C(N + 2, 2) values, 231 at degree 20).
MAX_DEGREE = 20

# Largest gen-fixture --n: the hermitian fixture is one draw into an
# (n, n, 8) array (13 ms at n = 256); writing it dominates (the entries'
# texts and one join of the table's pieces, 0.24 s at n = 256 in process),
# and n = 256 takes 0.59-0.67 s, 111 MB and a 16 MB file in a fresh process
# (one BLAS thread, 2-core Xeon VM).
MAX_FIXTURE_N = 256

# Default tolerance per named check; each is its command's --tol.<name> flag's default.
DEFAULT_TOLS = {
    "octonion-check": {
        "norm_composition": 1e-12,
        "alternativity": 1e-12,
        "conj_antiautomorphism": 1e-12,
        "nonassociativity_witness": 1e-12,
    },
    "lorentz-check": {
        "det": 1e-10,
        "compatibility": 1e-10,
        "contraction": 1e-10,
        "mixed_control": 0.1,  # pass when the residual EXCEEDS this
    },
    "string-modes": {
        "divergence": 1e-6,
        "divergence_ratio": 0.5,
        "endpoint_flux": 1e-12,
        "charge_quadrature": 1e-8,
        "eom": 1e-4,
        "eom_ratio": 0.5,
        "hermiticity": 1e-10,
        "evenness": 1e-8,
    },
    "quantum-check": {
        "canonical": 1e-10,
        "mixed": 1e-10,
        "closure": 1e-10,
        "su2": 1e-10,
        "tensor": 1e-10,
        "roundtrip": 1e-10,
        "jz_integrality": 1e-9,
    },
}


class InputError(Exception):
    """Unreadable or malformed input; maps to exit code 2."""


# -- plumbing ------------------------------------------------------------------


def _resolve_seed(flag_value) -> int:
    """--seed, else CLIFFSTRING_SEED, else 0; numpy takes no negative seed."""
    source, seed = "--seed", flag_value
    if seed is None:
        env = os.environ.get(SEED_ENV)
        if env is None:
            return 0
        source = SEED_ENV
        try:
            seed = int(env)
        except ValueError:
            raise InputError(f"{SEED_ENV} must be an integer, got {env!r}")
    if seed < 0:
        raise InputError(f"{source} must be non-negative, got {seed}")
    return seed


def _tols(args) -> dict:
    return {name: getattr(args, "tol." + name) for name in DEFAULT_TOLS[args.command]}


# -- decimal text of floats --
#
# Both float writers, the CSV grid's "%.17g" and the JSON tables' repr, start
# from one 17-digit core.  A value v with 1e-270 <= |v| <= 1e290 and decimal
# exponent X = floor(log10|v|) has the 17 digits D = round-half-even(|v|
# 10^(16 - X)), 1e16 <= D < 1e17.  With 10^s held as hi + lo (lo the rounded
# remainder), |v| hi is split exactly into p + e (Dekker's two-product), and
# y = p + t with t = e + |v| lo is within 2^-47 of |v| 10^s.  p >= 1e16 > 2^53
# is an integer, so D = p + rint(t) unless t is within 2^-30 of a rounding tie,
# y is below 1e16 or D reaches 1e17 (X was estimated one too high or too low,
# or the rounding carries into an 18th digit).  y is tested as (p - 1e16) + t:
# p alone can round up to 1e16 + 2 while y is below 1e16.  Those values, and
# values outside the range, are printed by Python's correctly rounded "%.17g"
# or repr (the scheme of Loitsch's Grisu3, PLDI 2010).

_SPLIT = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves
_FAST_MIN, _FAST_MAX = 1e-270, 1e290
# X over the fast range is -270..290; one more each way for an estimate one off
_X_MIN, _X_MAX = -271, 291


def _split(a):
    """a as hi + lo halves whose products with another split double are exact."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _pow10_pairs():
    """10^(16 - X) for X = -271..291 as (hi, hi's two halves, lo), each indexed by X + 271."""
    hi, lo = [], []
    for s in range(16 - _X_MIN, 15 - _X_MAX, -1):
        if s >= 0:
            hi.append(float(10**s))  # int to float rounds correctly
            lo.append(float(10**s - int(hi[-1])))
        else:
            den = 10**-s
            hi.append(1 / den)  # int / int rounds correctly
            num, two = hi[-1].as_integer_ratio()
            lo.append((two - num * den) / (two * den))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


@functools.cache
def _quads():
    """The four ASCII digits of 0..9999, one little-endian uint32 each.

    Built from arrays: ten thousand small bytes objects would leave about
    1.5 MB of the interpreter's object arenas resident.
    """
    i = np.arange(10000, dtype=np.uint16)[:, None]
    digits = i // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")
    return digits.astype(np.uint8).view("<u4")[:, 0]


def _exponent_estimate(a):
    """floor(log10 a), which may be one off next to a power of ten; _decimal17 checks it."""
    return np.floor(np.log10(a)).astype(np.intp)


def _decimal17(v):
    """The 17-digit core above, on each entry of a finite float array v.

    Returns |v| (2.0 outside the fast range), X's estimate x, 10^(16 - x) as
    (hi, lo), y as (p, t), D as int64 and the mask of the nonzero entries that
    the core cannot print.
    """
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 2.0)  # any value in range; the callers print the others
    x = _exponent_estimate(a)
    hi, hi1, hi2, lo = (np.take(c, x - _X_MIN) for c in _pow10_pairs())
    a1, a2 = _split(a)
    p = a * hi
    t = ((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2 + a * lo
    d = p.astype(np.int64) + np.rint(t).astype(np.int64)
    slow = (v != 0) & (~fast | ((p - 1e16) + t < 2.0**-30) | (d >= 10**17)
                       | (np.abs(t - np.floor(t) - 0.5) < 2.0**-30))
    return a, x, (hi, lo), (p, t), d, slow


def _ascii17(d):
    """The 17 ASCII digits of each entry of an int64 array below 1e17, as an (n, 17) uint8 array:
    one leading digit, then four groups of four from the table."""
    high, low = (part.astype(np.uint32) for part in np.divmod(d, 10**8))
    lead = high // np.uint32(10**8)
    high -= lead * np.uint32(10**8)
    quads = np.empty((d.size, 4), np.uint32)
    quads[:, 0] = high // np.uint32(10**4)
    quads[:, 1] = high - quads[:, 0] * np.uint32(10**4)
    quads[:, 2] = low // np.uint32(10**4)
    quads[:, 3] = low - quads[:, 2] * np.uint32(10**4)
    digits = np.empty((d.size, 17), np.uint8)
    digits[:, 0] = lead + ord("0")
    digits[:, 1:] = np.take(_quads(), quads).view(np.uint8)
    return digits


# -- repr's text --
#
# repr writes the fewest digits that read back as v, and of two such the
# nearer to v (the search of Adams's Ryu, PLDI 2018).  A decimal reads back as
# v when it lies in v's rounding interval.  In y's scale the interval reaches
# h = u hi + u lo above y and l below it: u = ulp(v) / 2 is a power of two, so
# both products are exact, and l is h, or h / 2 when v's significand is a
# power of two.  h is 0.55 to 11.1, so D (at most 1/2 from y) is inside, and
# at most one multiple of 100 is.  With r = p mod 1000 and m = 10, 100, 1000,
# the multiple of m under y is at distance b = (r + t) mod m and the one over
# it at m - b; one is inside when b < l, the other when m - b < h.  The nearer
# inside multiple of 100, else of 10, else D itself, is repr's 15, 16 or 17
# digits.  repr itself prints what the core cannot, a value whose b is within
# 2^-30 of l, m - h or m / 2 (an end of the interval, which the parity of v's
# significand closes or opens, or a tie between two multiples), and a value
# with a multiple of 1000 inside (14 digits or fewer; a rounding that carries
# to 10^17 is one of these).  About 1 % of uniform draws take that path.

# Characters of repr's texts besides the 17 digits, NUL padding first.  A
# value's pool holds them and then its digits: index i < 15 is _LITERALS[i]
# and 15 + i is digit i.
_LITERALS = "\0-.e+0123456789"
_POOL = len(_LITERALS) + 17
# Characters of the widest text: a sign, 17 digits, the point and "e-271".
_REPR_WIDTH = 24


@functools.cache
def _repr_layouts():
    """repr's text of a 17 - j digit value as indices into its digits and _LITERALS,
    per (sign bit, X + 271, j) for X = -271..291 and j = 0, 1, 2, flattened in that order.

    Fixed notation for -4 <= X < 16, with the integral digits padded by zeros
    and ".0" when no digit is left after the point; otherwise scientific, with
    a two-digit exponent at least.
    """
    lit = _LITERALS.index
    exponents = np.zeros((_X_MAX + 1 - _X_MIN, 5), np.uint8)
    for x in range(_X_MIN, _X_MAX + 1):
        text = "e%+03d" % x
        exponents[x - _X_MIN, :len(text)] = [lit(c) for c in text]
    table = np.zeros((2, _X_MAX + 1 - _X_MIN, 3, _REPR_WIDTH), np.uint8)
    for j in range(3):
        digits = [len(_LITERALS) + i for i in range(17 - j)]
        table[0, :, j, :18 - j] = [digits[0], lit("."), *digits[1:]]
        table[0, :, j, 18 - j:23 - j] = exponents
        for x in range(-4, 16):
            if x < 0:
                text = [lit("0"), lit(".")] + [lit("0")] * (-1 - x) + digits
            else:
                whole = digits[:x + 1] + [lit("0")] * (x + 1 - len(digits))
                text = whole + [lit(".")] + (digits[x + 1:] or [lit("0")])
            table[0, x - _X_MIN, j] = text + [0] * (_REPR_WIDTH - len(text))
    table[1, ..., 0] = lit("-")
    table[1, ..., 1:] = table[0, ..., :-1]
    return table.reshape(-1, _REPR_WIDTH)


def _shortest_digits(v):
    """The search above on each entry of a nonzero finite float array v.

    Returns X's estimate x, repr's digits as D (17 - j digits and j zeros,
    j = 0, 1, 2) and the mask of the entries that repr itself prints.
    """
    a, x, (hi, lo), (p, t), d, slow = _decimal17(v)
    u = 0.5 * np.spacing(a)
    h = u * hi + u * lo
    l = np.where(np.frexp(a)[0] == 0.5, 0.5 * h, h)
    whole = p.astype(np.int64)
    r = whole % 1000
    rt = r + t
    j = np.zeros(v.size, np.intp)
    for m in 10, 100:
        step = np.floor(rt / m)
        b = rt - step * m
        under, over = b < l, b > m - h
        slow |= ((np.abs(b - l) < 2.0**-30) | (np.abs(b - (m - h)) < 2.0**-30)
                 | (np.abs(b - 0.5 * m) < 2.0**-30))
        hit = under | over
        nearer = step + (over & ~(under & (b < 0.5 * m)))
        d = np.where(hit, whole - r + (nearer * m).astype(np.int64), d)
        j += hit
    # a multiple of 1000 inside is a multiple of 100 inside
    at = np.flatnonzero(hit)
    b = rt[at] % 1000
    slow[at] |= (b < l[at] + 2.0**-30) | (b > 1000 - h[at] - 2.0**-30)
    return x, d, j, slow


def _shortest(v):
    """repr's text of each entry of a nonzero finite float array v, as an object array of str."""
    x, d, j, slow = _shortest_digits(v)
    d[slow] = 0
    chars = np.empty((v.size, _POOL), np.uint8)
    chars[:, :len(_LITERALS)] = np.frombuffer(_LITERALS.encode(), np.uint8)
    chars[:, len(_LITERALS):] = _ascii17(d)
    key = (np.signbit(v) * (_X_MAX + 1 - _X_MIN) + x - _X_MIN) * 3 + j
    rows = np.arange(0, chars.size, _POOL)[:, None]
    text = np.take(chars, np.take(_repr_layouts(), key, axis=0) + rows).astype(np.uint32)
    text = text.view(f"<U{_REPR_WIDTH}")[:, 0].astype(object)
    for i in np.flatnonzero(slow):
        text[i] = repr(float(v[i]))
    return text


# the texts of a zero and a negative zero, indexed by the sign bit
_ZEROS = np.array(["0.0", "-0.0"], dtype=object)


def _texts(x: np.ndarray) -> np.ndarray:
    """The JSON texts of a float array's entries, flat in C order, as str objects.

    A nonzero entry gets float repr's text, as json writes it, from
    _shortest, TEXT_BLOCK entries at a time; a zero takes the literal "0.0"
    or "-0.0".  A NaN or inf raises json's ValueError, naming the first one.
    """
    flat = x.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        bad = flat[np.argmin(finite)].item()
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    text = _ZEROS[np.signbit(flat).view(np.uint8)]
    nonzero = np.flatnonzero(flat)
    for start in range(0, nonzero.size, TEXT_BLOCK):
        at = nonzero[start:start + TEXT_BLOCK]
        text[at] = _shortest(flat[at])
    return text


def _json(obj) -> str:
    """obj as strict JSON, keys sorted and indented by 2."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


# Characters per write: a report is encoded a slice at a time, never copied whole.
_WRITE_CHUNK = 1 << 16


def _write_text(fh, text: str) -> None:
    """Write text and a newline to fh, in slices of at most _WRITE_CHUNK characters."""
    for start in range(0, len(text), _WRITE_CHUNK):
        fh.write(text[start:start + _WRITE_CHUNK])
    fh.write("\n")


def _write_stdout(text: str) -> None:
    """_write_text to stdout, flushed.  A failed write points fd 1 at os.devnull,
    so the interpreter's exit flush of what is left in the buffer cannot fail again."""
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise OSError(errno.EBADF, "stdout is closed")
    try:
        _write_text(sys.stdout, text)
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _dump_json(obj, path) -> int:
    """Write obj as strict JSON and return 0, or write nothing and return 3 on NaN or inf.

    obj is a tree of plain Python values for _json, or a function that returns
    the tree's JSON text.  The whole text is formed before any file opens.
    """
    try:
        text = obj() if callable(obj) else _json(obj)
    except ValueError as exc:
        print(f"cliffstring: report not written: {exc}", file=sys.stderr)
        return 3
    try:
        if path:
            with open(path, "w") as fh:
                _write_text(fh, text)
        else:
            _write_stdout(text)
    except OSError as exc:
        raise InputError(f"cannot write {path or 'stdout'}: {exc}")
    return 0


def _load_json(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, RecursionError) as exc:  # RecursionError: nesting too deep to decode
        raise InputError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
        raise InputError(f"{path} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise InputError(f"{path} must hold a JSON object, not {type(obj).__name__}")
    return obj


def _check(results: dict, tols: dict) -> dict:
    """Report entries of {name: (max_residual, trials)}; a residual that is not
    finite fails and reads null, and mixed_control passes when it EXCEEDS tol."""
    checks = {}
    for name, (max_residual, trials) in results.items():
        tol, above = tols[name], name == "mixed_control"
        finite = bool(np.isfinite(max_residual))
        ok = finite and (max_residual > tol if above else max_residual <= tol)
        checks[name] = {
            "max_residual": float(max_residual) if finite else None,
            "tolerance": float(tol),
            "trials": int(trials),
            "pass": bool(ok),
        }
        if above:
            checks[name]["pass_when"] = "above"
    return checks


def _report(command: str, config: dict, checks: dict, extra: dict = None) -> dict:
    rep = {
        "command": command,
        "config": config,
        "checks": checks,
        "overall_pass": all(c["pass"] for c in checks.values()),
    }
    if extra:
        rep.update(extra)
    return rep


def _finish(report: dict, path) -> int:
    return _dump_json(report, path) or (0 if report["overall_pass"] else 3)


# -- octonion-check ------------------------------------------------------------


def cmd_octonion_check(args) -> int:
    seed = _resolve_seed(args.seed)
    tols = _tols(args)
    checks = _check(octonion_checks(np.random.default_rng(seed), args.trials), tols)
    config = {"seed": seed, "trials": args.trials, "tolerances": tols}
    return _finish(_report("octonion-check", config, checks), args.report)


# -- resolve ---------------------------------------------------------------


def _max_norm(x: np.ndarray) -> float:
    """Largest norm along x's last axis.

    Taken on x scaled by a power of two, which is exact, so that no square
    overflows and no ordinary input's result moves.
    """
    e = np.frexp(np.max(np.abs(x)))[1]
    return float(np.ldexp(np.max(np.linalg.norm(np.ldexp(x, -e), axis=-1)), e))


def _table(texts: np.ndarray) -> list:
    """The pieces of json's text of an (n, m, k) table, from its entries' texts,
    where the table is a top-level key's value.

    The entries alternate with json's five separators: before the first
    entry, between two entries of a line, between two lines, between two rows
    and after the last entry.  Each is one shared str, so the join of the
    pieces is the table's text.
    """
    pieces = np.empty(texts.shape + (2,), dtype=object)
    pieces[..., 0] = texts
    pieces[..., 1] = ",\n        "
    pieces[:, :, -1, 1] = "\n      ],\n      [\n        "
    pieces[:, -1, -1, 1] = "\n      ]\n    ],\n    [\n      [\n        "
    pieces[-1, -1, -1, 1] = "\n      ]\n    ]\n  ]"
    return ["[\n    [\n      [\n        ", *pieces.ravel().tolist()]


def _resolve_text(out: dict, coeffs: np.ndarray) -> str:
    """_json(out) with a, b (coeffs[0], coeffs[1]) and their vectors added.

    One join of separators and coefficient texts, every coefficient formatted
    once.  a and b are tables; vector i's terms v_i = sum_k a_ik (x) e_k +
    b_ik (x) f_k, in (kind, k) order with zero terms left out (the nonzero E
    and F slots of resolve.vectors), repeat the same texts.
    """
    n = coeffs.shape[1]
    texts = _texts(coeffs).reshape(coeffs.shape)
    # out's own values are numbers and fixed names, so they hold no "%s"
    head, a_to_b, b_to_vectors, tail = _json(dict(out, a="%s", b="%s", vectors="%s")).split('"%s"')
    # per nonzero term, in (vector i, kind, k) order: its coefficients, each
    # followed by the text after it, the last by the term's "k", "kind" and end
    live = np.any(coeffs, axis=3).swapaxes(0, 1)
    _, kind, k = np.nonzero(live)
    ends = np.array([[f'\n          ],\n          "k": {m},\n          "kind": "{name}"\n        }}'
                      for m in range(1, n + 1)] for name in "EF"], dtype=object)
    terms = np.empty((kind.size, 16), dtype=object)
    terms[:, ::2] = texts.swapaxes(0, 1)[live]
    terms[:, 1:15:2] = ",\n            "
    terms[:, 15] = ends[kind, k]
    rows = iter(terms.tolist())
    vector = f'{{\n      "n": {n},\n      "terms": ['
    term = '\n        {\n          "coeff": [\n            '
    next_term = "," + term
    pieces = [head, *_table(texts[0]), a_to_b, *_table(texts[1]), b_to_vectors, "["]
    for i, count in enumerate(live.sum(axis=(1, 2)).tolist()):
        pieces.append((",\n    " if i else "\n    ") + vector)
        for j in range(count):
            pieces.append(next_term if j else term)
            pieces += next(rows)
        pieces.append("\n      ]\n    }" if count else "]\n    }")
    pieces += ["\n  ]", tail]
    return "".join(pieces)


def cmd_resolve(args) -> int:
    obj = _load_json(args.input)
    try:
        h = OctHermitian.from_json(obj, tol=max(args.tol, 1e-12))
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise InputError(f"bad Hermitian matrix in {args.input}: {exc}")
    res = resolve_hermitian(h, tol=args.tol)
    errors = reconstruction_errors(res, h)
    residual = float(np.max(errors))
    ok = residual <= args.tol
    coeffs = np.stack([res.a, res.b])
    hmax, cmax = _max_norm(h.data), _max_norm(coeffs)
    out = {
        "command": "resolve",
        "n": res.n,
        "max_residual": residual,
        "tolerance": float(args.tol),
        "pass": bool(ok),
        "perm": res.perm.tolist(),
        "pivots": res.pivots,
        # max|a, b| / max|H|; undefined (null) for the zero matrix
        "growth": cmax / hmax if hmax > 0 else None,
        "worst_entry": [int(i) for i in np.unravel_index(np.argmax(errors), errors.shape)],
    }
    text = functools.partial(_resolve_text, out, coeffs)
    return _dump_json(text, args.output) or (0 if ok else 3)


# -- lorentz-check -----------------------------------------------------------


def cmd_lorentz_check(args) -> int:
    seed = _resolve_seed(args.seed)
    tols = _tols(args)
    rng = np.random.default_rng(seed)
    checks = _check(lorentz_checks(rng, args.trials, args.nest_depth), tols)
    config = {
        "seed": seed,
        "trials": args.trials,
        "nest_depth": args.nest_depth,
        "tolerances": tols,
    }
    extra = {
        "max_det_residual": checks["det"]["max_residual"],
        "max_compat_residual": checks["compatibility"]["max_residual"],
        "max_contraction_residual": checks["contraction"]["max_residual"],
    }
    return _finish(_report("lorentz-check", config, checks, extra), args.report)


# -- string-modes ----------------------------------------------------------


# -- %.17g text of the CSV grid --


@functools.cache
def _affixes():
    """Per exponent X = -271..291, the 5 bytes before the digits and the 5 after.

    "0." and up to three zeros before them for -4 <= X < 0, "e+dd" or "e-ddd"
    after them outside -4 <= X < 17, NUL bytes otherwise.
    """
    table = np.zeros((_X_MAX + 1 - _X_MIN, 10), np.uint8)
    for x in range(_X_MIN, _X_MAX + 1):
        if -4 <= x < 0:
            table[x - _X_MIN, :1 - x] = list(b"0." + b"0" * (-1 - x))
        elif not 0 <= x < 17:
            table[x - _X_MIN, 5:5 + len(b"e%+03d" % x)] = list(b"e%+03d" % x)
    return table


# Byte slots of one value: sign, the five leading affix bytes, the 17 digits
# with a slot for the decimal point after each of the first 16, the five
# exponent bytes and a separator (",\0" or "\r\n").  Unused slots hold NUL,
# and deleting every NUL leaves the text.
_DIGIT, _EXP, _SEP, _WIDTH = 6, 39, 44, 46


def _format_rows(rows):
    """Each row of a finite float array as "%.17g" values joined by "," and ended by CRLF."""
    n_rows, n_cols = rows.shape
    v = rows.ravel()
    n = v.size
    zero = v == 0
    _, x, _, _, d, slow = _decimal17(v)
    d[zero | slow] = 0
    x[zero] = 0
    digits = _ascii17(d)

    # fixed notation for -4 <= X < 17; its integer digits are never stripped
    fixed = (x >= -4) & (x < 17)
    point = np.where(fixed & (x >= 0), x, 0)  # the last digit before the point
    text = np.zeros((n, _WIDTH), np.uint8)
    text[:, _DIGIT:_EXP + 1:2] = digits
    # trailing zeros go; only values whose last digit is 0 can have them
    ends = np.flatnonzero(digits[:, 16] == ord("0"))
    tail = digits[ends]
    last = np.where(d[ends] == 0, 0, 16 - np.argmax(tail[:, ::-1] != ord("0"), axis=1))
    kept = np.arange(17) <= np.maximum(last, point[ends])[:, None]
    text[ends, _DIGIT:_EXP + 1:2] = np.where(kept, tail, 0)
    # the point, where a digit follows it (below 1, the affix holds it)
    starts = np.arange(n) * _WIDTH + _DIGIT + 1 + 2 * point
    dotted = ~(fixed & (x < 0)) & (point < 16)
    dotted &= text.ravel()[starts + 1] != 0
    text.ravel()[starts[dotted]] = ord(".")
    affixes = np.take(_affixes(), x - _X_MIN, axis=0)
    text[:, 1:_DIGIT] = affixes[:, :5]
    text[:, _EXP:_SEP] = affixes[:, 5:]
    text[:, 0] = np.signbit(v) * np.uint8(ord("-"))
    text = text.reshape(n_rows, n_cols, _WIDTH)
    text[:, :, _SEP] = ord(",")
    text[:, -1, _SEP:] = list(b"\r\n")
    text = text.reshape(n, _WIDTH)
    for i in np.flatnonzero(slow):
        exact = b"%.17g" % v[i]
        text[i, :_SEP] = 0
        text[i, :len(exact)] = list(exact)
    return text.tobytes().translate(None, b"\0")


def _write_grid_csv(ms, path, n_sigma: int) -> int:
    """Write the grid scan and return 0, or write nothing and return 3 on NaN or inf."""
    tau, sigma = np.meshgrid(
        [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi], np.linspace(0.0, np.pi, n_sigma + 1),
        indexing="ij", sparse=True,
    )
    header = ["tau", "sigma"] + [f"{name}_{a}{b}_{part}" for name in ("X", "Jtau", "Jsigma")
                                 for a in range(2) for b in range(2) for part in ("re", "im")]
    mats = np.stack([coordinates(ms, tau, sigma), *current_density(ms, tau, sigma)], axis=-3)
    points = mats.shape[:2]
    rows = np.column_stack([*(np.broadcast_to(c, points).ravel() for c in (tau, sigma)),
                            mats.view(float).reshape(tau.size * sigma.size, -1)])
    finite = np.isfinite(rows)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        print(f"cliffstring: grid not written: {header[col]} is {rows[row, col]} at "
              f"tau={rows[row, 0]:g}, sigma={rows[row, 1]:g}", file=sys.stderr)
        return 3
    try:
        with open(path, "wb") as fh:
            fh.write(",".join(header).encode() + b"\r\n")
            for start in range(0, len(rows), CSV_BLOCK):
                fh.write(_format_rows(rows[start:start + CSV_BLOCK]))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")
    return 0


def cmd_string_modes(args) -> int:
    tols = _tols(args)
    obj = _load_json(args.spectrum)
    try:
        ms = spectrum_from_json(obj)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise InputError(f"bad spectrum in {args.spectrum}: {exc}")

    checks = _check(string_mode_checks(ms, args.grid), tols)
    config = {
        "spectrum": args.spectrum,
        "grid": args.grid,
        "tolerances": tols,
        "modes": sorted(ms.modes),
    }
    grid = _write_grid_csv(ms, args.output, args.grid) if args.output else 0
    return _finish(_report("string-modes", config, checks), args.report) or grid


# -- quantum-check -----------------------------------------------------------


def cmd_quantum_check(args) -> int:
    tols = _tols(args)
    results, dimension, vals = quantum_checks(args.degree, args.hbar)
    checks = _check(results, tols)
    config = {"degree": args.degree, "hbar": args.hbar, "tolerances": tols}
    extra = {
        "dimension": dimension,
        "jz_spectrum": [float(v) if np.isfinite(v) else None for v in vals],
    }
    return _finish(_report("quantum-check", config, checks, extra), args.report)


# -- redshift ----------------------------------------------------------------


def cmd_redshift(args) -> int:
    try:
        z = redshift(args.t_emit, args.t_obsv)
        out = {"z": float(z)}
        if args.dt is not None or args.p is not None:
            if args.dt is None or args.p is None:
                raise InputError("emission bound needs both --dt and --p")
            out["emission_bound"] = float(emission_bound(args.dt, args.p, z))
    except ValueError as exc:
        raise InputError(str(exc))
    return _dump_json(out, args.report)


# -- gen-fixture -------------------------------------------------------------


def cmd_gen_fixture(args) -> int:
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    if args.kind == "hermitian":
        entries = _texts(random_hermitian(rng, args.n).data).reshape(args.n, args.n, 8)
        head, tail = _json({"entries": "%s", "n": args.n}).split('"%s"')
        obj = functools.partial("".join, [head, *_table(entries), tail])
    elif args.kind == "spectrum":
        obj = spectrum_to_json(random_spectrum(rng))
    else:
        obj = {"components": random_spinor(rng).tolist()}
    return _dump_json(obj, args.output)


# -- argument parsing ---------------------------------------------------------


def _int_in(low: int = 1, high: int = None):
    """An argparse type: an int of at least low, and at most high unless it is None."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low or high is not None and value > high:
            bounds = f"at least {low}" if high is None else f"from {low} to {high}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" names the type by it
    return parse


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


_positive_float.__name__ = "float"  # argparse's "invalid float value" names the type by it


class _Parser(argparse.ArgumentParser):
    """An argument parser whose every error is an InputError, so main returns 2."""

    def error(self, message):
        raise InputError(message)

    def print_help(self):
        """--help's text to stdout through _write_stdout, so a failed write exits 2."""
        try:
            _write_stdout(self.format_help().removesuffix("\n"))
        except OSError as exc:
            raise InputError(f"cannot write stdout: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cliffstring",
        description="Property sweeps and reports for the cliffstring library.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("octonion-check", help="octonion algebra identities")
    p.set_defaults(run=cmd_octonion_check)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=_int_in(), default=10000)
    p.add_argument("--report", default=None, help="report path (default stdout)")

    p = sub.add_parser("resolve", help="factor a Hermitian matrix into vectors")
    p.set_defaults(run=cmd_resolve)
    p.add_argument("--input", required=True, help="Hermitian matrix JSON")
    p.add_argument("--tol", type=_positive_float, default=1e-12)
    p.add_argument("--output", default=None, help="result path (default stdout)")

    p = sub.add_parser("lorentz-check", help="nested transform invariants")
    p.set_defaults(run=cmd_lorentz_check)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=_int_in(), default=100)
    p.add_argument("--nest-depth", type=_int_in(1, MAX_NEST_DEPTH), default=5)
    p.add_argument("--report", default=None)

    p = sub.add_parser("string-modes", help="mode-spectrum diagnostics")
    p.set_defaults(run=cmd_string_modes)
    p.add_argument("--spectrum", "--input", dest="spectrum", required=True)
    p.add_argument("--grid", type=_int_in(1, MAX_GRID), default=512)
    p.add_argument("--output", default=None, help="CSV grid scan of X and J")
    p.add_argument("--report", default=None)

    p = sub.add_parser("quantum-check", help="polynomial-space operator algebra")
    p.set_defaults(run=cmd_quantum_check)
    p.add_argument("--degree", type=_int_in(2, MAX_DEGREE), default=6,
                   help="sets only the dimension and the J^z spectrum")
    p.add_argument("--hbar", type=_positive_float, default=1.0)
    p.add_argument("--report", default=None)

    p = sub.add_parser("redshift", help="evaluate the redshift formula")
    p.set_defaults(run=cmd_redshift)
    p.add_argument("--t-emit", type=float, required=True)
    p.add_argument("--t-obsv", type=float, required=True)
    p.add_argument("--dt", type=float, default=None, help="observed period")
    p.add_argument("--p", type=float, default=None, help="momentum component")
    p.add_argument("--report", default=None)

    p = sub.add_parser("gen-fixture", help="write a reproducible random input file")
    p.set_defaults(run=cmd_gen_fixture)
    p.add_argument("--kind", required=True, choices=("hermitian", "spectrum", "spinor"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=_int_in(1, MAX_FIXTURE_N), default=2, help="matrix size (hermitian)")
    p.add_argument("--output", default=None, help="fixture path (default stdout)")

    for command, tols in DEFAULT_TOLS.items():
        for name, tol in tols.items():
            sub.choices[command].add_argument(f"--tol.{name}", type=_positive_float, default=tol,
                                              metavar="TOL", help="default %(default)g")
    return parser


# Built once, at import, so the caps it holds are the module's at import.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # Input near the float range overflows (a huge --hbar, a spectrum whose
        # X grows like K^3, a matrix near 1e308).  A non-finite residual fails
        # its check and a non-finite report is not written, with exit 3 either
        # way, so numpy's floating-point warnings would only repeat that.
        with np.errstate(all="ignore"):
            return args.run(args)
    except InputError as exc:
        print(f"cliffstring: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
