"""Batch front end: seeded property sweeps and JSON/CSV reports.

Exit codes: 0 all checks pass, 2 bad input (unreadable file, malformed
flags or data), 3 at least one check failed.  Reports are plain JSON with
sorted keys and no timestamps, so identical configuration and seed give
byte-identical output.
"""

import argparse
import ctypes
import errno
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from .fixtures import random_hermitian, random_spectrum
from . import floattext
from .floattext import csv_rows, json_table, json_texts
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

# Largest quantum-check --degree: only the dimension and the J^z spectrum
# depend on it, and the cap bounds the spectrum list the report carries
# (C(N + 2, 2) values, 231 at degree 20).
MAX_DEGREE = 20

# Largest gen-fixture --n: the hermitian fixture is one draw into an
# (n, n, 8) array (13 ms at n = 256); writing it dominates (each row block's
# entry texts and one join of its pieces, formed as the block is written),
# and n = 256 takes 0.2 s in cli.main, 48 MB peak RSS and a 16 MB file in a
# fresh process (one BLAS thread, 2-core Xeon VM).
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


def _json(obj) -> str:
    """obj as strict JSON, keys sorted and indented by 2."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _table_chunks(table):
    """json's text of an (n, m, k) table as a top-level key's value, one chunk per block
    of rows of at most floattext.TEXT_BLOCK entries (one row at least), from the
    entries' texts, or from their floats, whose texts are formed a block at a time."""
    n, rows = len(table), max(1, floattext.TEXT_BLOCK // table[0].size)
    for start in range(0, n, rows):
        texts = table[start:start + rows]
        if texts.dtype != object:
            texts = json_texts(texts).reshape(texts.shape)
        yield "".join(json_table(texts, start == 0, start + rows >= n))


def _write_text(fh, chunks) -> None:
    """Write an iterable of str chunks to fh, one at a time, and a newline."""
    for chunk in chunks:
        fh.write(chunk)
    fh.write("\n")


def _write_stdout(chunks) -> None:
    """_write_text to stdout, flushed.  A failed write points fd 1 at os.devnull,
    so the interpreter's exit flush of what is left in the buffer cannot fail again."""
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise OSError(errno.EBADF, "stdout is closed")
    try:
        _write_text(sys.stdout, chunks)
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _dump_json(obj, path) -> int:
    """Write obj as strict JSON and return 0, or write nothing and return 3 on NaN or inf.

    obj is a tree of plain Python values for _json, or a function that returns
    the tree's JSON text as an iterable of str chunks.  Every value's text is
    formed, or checked to be finite, before any file opens.
    """
    try:
        text = obj() if callable(obj) else [_json(obj)]
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


def _resolve_text(out: dict, coeffs: np.ndarray):
    """_json(out) with a, b (coeffs[0], coeffs[1]) and their vectors added, as chunks:
    the head, a and b in row blocks, one chunk per vector and the tail.

    Every coefficient is formatted once, here, so a NaN or inf raises before any
    chunk is formed.  a and b are tables; vector i's terms v_i = sum_k a_ik (x) e_k
    + b_ik (x) f_k, in (kind, k) order with zero terms left out (the nonzero E and
    F slots of resolve.vectors), repeat the same texts.
    """
    n = coeffs.shape[1]
    texts = json_texts(coeffs).reshape(coeffs.shape)
    # out's own values are numbers and fixed names, so they hold no "%s"
    head, a_to_b, b_to_vectors, tail = _json(dict(out, a="%s", b="%s", vectors="%s")).split('"%s"')
    # per nonzero term, in (vector i, kind, k) order: its opening, then its coefficients,
    # each followed by the text after it, the last by the term's "k", "kind" and end
    live = np.any(coeffs, axis=3).swapaxes(0, 1)
    vec, kind, k = np.nonzero(live)
    ends = np.array([[f'\n          ],\n          "k": {m},\n          "kind": "{name}"\n        }}'
                      for m in range(1, n + 1)] for name in "EF"], dtype=object)
    term = '\n        {\n          "coeff": [\n            '
    terms = np.empty((kind.size, 17), dtype=object)
    terms[:, 0] = "," + term
    terms[np.unique(vec, return_index=True)[1], 0] = term  # a vector's first term
    terms[:, 1::2] = texts.swapaxes(0, 1)[live]
    terms[:, 2:16:2] = ",\n            "
    terms[:, 16] = ends[kind, k]
    stops = np.cumsum(live.sum(axis=(1, 2))).tolist()
    opening = f'{{\n      "n": {n},\n      "terms": ['

    def vector(i, start, stop):
        pieces = terms[start:stop].ravel().tolist()
        return "".join([",\n    " if i else "\n    ", opening, *pieces,
                        "\n      ]\n    }" if pieces else "]\n    }"])

    vectors = map(vector, range(n), [0] + stops, stops)
    return itertools.chain([head], _table_chunks(texts[0]), [a_to_b], _table_chunks(texts[1]),
                           [b_to_vectors + "["], vectors, ["\n  ]" + tail])


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
    # max|a, b| / max|H|; null for the zero matrix, and where the ratio passes
    # the float range (a degenerate pivot's unit pair over a subnormal max|H|)
    growth = cmax / hmax if hmax > 0 else np.inf
    out = {
        "command": "resolve",
        "n": res.n,
        "max_residual": residual,
        "tolerance": float(args.tol),
        "pass": bool(ok),
        "perm": res.perm.tolist(),
        "pivots": res.pivots,
        "growth": growth if np.isfinite(growth) else None,
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
            block = floattext.TEXT_BLOCK // len(header)  # rows per formatted block
            for start in range(0, len(rows), block):
                fh.write(csv_rows(rows[start:start + block]))
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
        "jz_spectrum": [v if math.isfinite(v) else None for v in vals.tolist()],
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


def _hermitian_text(data: np.ndarray):
    """The hermitian fixture's JSON text as chunks: its head, table row blocks and tail.

    A NaN or inf anywhere raises json's error before any chunk is formed, so
    a bad value writes nothing; a block's entry texts are formed only as that
    block is written, never the whole table's.
    """
    json_texts(data[~np.isfinite(data)])  # raises, naming the first NaN or inf
    head, tail = _json({"entries": "%s", "n": len(data)}).split('"%s"')
    return itertools.chain([head], _table_chunks(data), [tail])


def cmd_gen_fixture(args) -> int:
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    if args.kind == "hermitian":
        obj = functools.partial(_hermitian_text, random_hermitian(rng, args.n).data)
    else:
        obj = spectrum_to_json(random_spectrum(rng))
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
            _write_stdout([self.format_help().removesuffix("\n")])
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

    p = sub.add_parser("quantum-check", help="operator-algebra identities in symmetric Weyl forms")
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
    p.add_argument("--kind", required=True, choices=("hermitian", "spectrum"))
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

# glibc's mallopt parameter numbers, and the values main fixes them at.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20


@functools.cache
def _keep_heap_resident() -> None:
    """Fix glibc's mmap and trim thresholds far above any job's working set,
    once per process.

    By default glibc maps large blocks directly and hands a freed heap top
    back to the kernel, raising both thresholds only as it goes, so in a run
    of many jobs each job could fault its temporaries in again.  Setting one
    alone turns that scheme off and leaves the other at 128 KiB, which faults
    more, so both are set or neither: mallopt refuses only a too-high mmap
    threshold, and that one is set first.  Without mallopt (no glibc) this
    does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # TypeError: Windows loads no library from None
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_heap_resident()
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
