"""Batch front end: seeded property sweeps and JSON/CSV reports.

Exit codes: 0 all checks pass, 2 bad input (unreadable file, malformed
flags or data), 3 at least one check failed.  Reports are plain JSON with
sorted keys and no timestamps, so identical configuration and seed give
byte-identical output.
"""

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .fixtures import random_hermitian, random_spectrum, random_spinor
from .lorentz import (
    act_vector,
    boost_generator,
    compatibility_residual,
    contraction_residual,
    make_factor,
    phase_generator,
    reflection_factor,
    rotation_generator,
)
from .matrices import OctHermitian, omat_mul
from .minkowski import det2
from .octonion import alternativity_check, conj_arrays, mul_arrays, norm_arrays
from .quantum_rep import (
    build_canonical,
    canonical_residual,
    integrality_residual,
    jz_residual,
    jz_spectrum,
    lorentz_closure_residual,
    m0_matrices,
    mixed_algebra_residual,
    quaternion_pairs,
    spinor_tensor_roundtrip_residual,
    su2_closure_residual,
    tensor_algebra_residual,
    tensor_form,
    three_vector_form,
)
from .resolve import reconstruction_errors, resolve_hermitian
from .string_modes import (
    charge_density_coefficients,
    charge_quadrature,
    coordinates,
    current_density,
    divergence_residual,
    emission_bound,
    endpoint_flux,
    eom_residual,
    redshift,
    spectrum_from_json,
    spectrum_to_json,
)

SEED_ENV = "CLIFFSTRING_SEED"

# octonion-check trials per vectorised block, so memory stays bounded.
OCTONION_BLOCK = 1024

# lorentz-check factor slots (trials x nesting depth) per vectorised block,
# so memory stays bounded whatever --trials is.
LORENTZ_BLOCK = 1024

# Largest lorentz-check --nest-depth: one block then still holds a whole
# trial, and 100 trials at this depth take about 2 s.
MAX_NEST_DEPTH = LORENTZ_BLOCK

# Random factors' generators by index: boost, rotation(0..7), phase(1..7), and
# two zeros whose identity factor (t = 0) pads shallow trials or marks a reflection.
_GENERATORS = np.stack([boost_generator(), *map(rotation_generator, range(8)),
                        *map(phase_generator, range(1, 8)), *np.zeros((2, 2, 2, 8))])
_PAD, _REFLECT = 16, 17

# Largest string-modes --grid: quadrature and CSV hold O(grid) arrays.
MAX_GRID = 65536

# Largest quantum-check --degree: the checks hold (live words x safe columns)
# weights, and degree 20 (8855 columns) takes 0.6-0.8 s and 79 MB in a fresh
# process (one BLAS thread, 2-core Xeon VM).
MAX_DEGREE = 20

# Largest gen-fixture --n: the hermitian fixture is one draw into an
# (n, n, 8) array (13 ms at n = 256); writing it dominates, and n = 256
# takes about 1 s, 121 MB and a 15 MB file.
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


# the texts of a zero and a negative zero, indexed by the sign bit
_ZEROS = np.array(["0.0", "-0.0"], dtype=object)


def _texts(x: np.ndarray) -> np.ndarray:
    """The JSON texts of a float array's entries, flat in C order, as str objects.

    A nonzero entry goes through float repr once, as json writes it; a zero
    takes the literal "0.0" or "-0.0".  A NaN or inf raises json's
    ValueError, naming the first one.
    """
    flat = x.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        bad = flat[np.argmin(finite)].item()
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    text = _ZEROS[np.signbit(flat).view(np.uint8)]
    nonzero = flat != 0
    text[nonzero] = list(map(repr, flat[nonzero].tolist()))
    return text


def _layout(shape: tuple, pad: str) -> str:
    """The text _encode writes for a nested list of this shape, each entry a %s slot."""
    text = "%s"
    for depth in reversed(range(len(shape))):
        size, close = shape[depth], pad + "  " * depth
        inner = close + "  "
        text = "[" + inner + ("," + inner).join([text] * size) + close + "]" if size else "[]"
    return text


def _checked(text: str) -> str:
    """text, or json's ValueError when it holds a NaN or inf float's repr."""
    if "n" in text:  # no finite float's repr holds an "n"; nan and inf do
        bad = next(t for t in text.split(",") if "n" in t).strip()
        raise ValueError(f"Out of range float values are not JSON compliant: {bad}")
    return text


def _encode(x, pad: str = "\n") -> str:
    """x as json.dumps(x, indent=2, sort_keys=True, allow_nan=False) writes it.

    Takes str-keyed dicts, lists, tuples, str, int, float, bool and None,
    numpy scalars as their item() and arrays as their tolist().  pad is the
    newline and indentation that close x.  A NaN or inf raises json's
    ValueError.
    """
    kind = type(x)
    if kind is dict:
        if not x:
            return "{}"
        inner = pad + "  "
        items = [f"{encode_basestring_ascii(k)}: {_encode(x[k], inner)}" for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list or kind is tuple:
        if not x:
            return "[]"
        inner = pad + "  "
        if all(type(v) is float for v in x):
            return "[" + inner + _checked(("," + inner).join(map(repr, x))) + pad + "]"
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in x]) + pad + "]"
    if kind is str:
        return encode_basestring_ascii(x)
    if kind is int:
        return int.__repr__(x)
    if kind is float:
        return _checked(repr(x))
    if x is None:
        return "null"
    if kind is bool:
        return "true" if x else "false"
    if isinstance(x, np.ndarray):
        if x.dtype.kind == "f":
            return _layout(x.shape, pad) % tuple(_texts(x).tolist())
        return _encode(x.tolist(), pad)
    if isinstance(x, np.generic):
        return _encode(x.item(), pad)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# Characters per write: a report is encoded a slice at a time, never copied whole.
_WRITE_CHUNK = 1 << 16


def _write_text(fh, text: str) -> None:
    """Write text and a newline to fh, in slices of at most _WRITE_CHUNK characters."""
    for start in range(0, len(text), _WRITE_CHUNK):
        fh.write(text[start:start + _WRITE_CHUNK])
    fh.write("\n")


def _dump_json(obj, path) -> int:
    """Write obj as strict JSON and return 0, or write nothing and return 3 on NaN or inf.

    obj is a tree for _encode, or a function that returns the tree's JSON text.
    The whole text is formed before any file opens.
    """
    try:
        text = obj() if callable(obj) else _encode(obj)
    except ValueError as exc:
        print(f"cliffstring: report not written: {exc}", file=sys.stderr)
        return 3
    if not path:
        _write_text(sys.stdout, text)
        return 0
    try:
        with open(path, "w") as fh:
            _write_text(fh, text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")
    return 0


def _load_json(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
        raise InputError(f"{path} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise InputError(f"{path} must hold a JSON object, not {type(obj).__name__}")
    return obj


def _check(max_residual: float, tol: float, trials: int, above: bool = False) -> dict:
    """One named check; a residual that is not finite fails and reads null."""
    finite = bool(np.isfinite(max_residual))
    ok = finite and (max_residual > tol if above else max_residual <= tol)
    entry = {
        "max_residual": float(max_residual) if finite else None,
        "tolerance": float(tol),
        "trials": int(trials),
        "pass": bool(ok),
    }
    if above:
        entry["pass_when"] = "above"
    return entry


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
    rng = np.random.default_rng(seed)
    worst = {"norm_composition": 0.0, "alternativity": 0.0, "conj_antiautomorphism": 0.0}
    for start in range(0, args.trials, OCTONION_BLOCK):
        # row t holds trial t's a then b: the stream of two 8-coefficient draws
        pairs = rng.uniform(-1.0, 1.0, (min(OCTONION_BLOCK, args.trials - start), 2, 8))
        a, b = pairs[:, 0], pairs[:, 1]
        ab = mul_arrays(a, b)
        conj_gap = conj_arrays(ab) - mul_arrays(conj_arrays(b), conj_arrays(a))
        x = np.stack([a, b, ab, conj_gap])
        na, nb, nab, ngap = norm_arrays(x)
        # float_power calls pow() like a Python float ** 2, which x * x can miss by an ulp
        alt_scale = np.float_power(np.maximum(na, nb), 2) * np.minimum(na, nb)
        block = {
            "norm_composition": abs(nab - na * nb) / (na * nb),
            "alternativity": alternativity_check(a, b) / alt_scale,
            "conj_antiautomorphism": ngap / (na * nb),
        }
        for name, r in block.items():
            worst[name] = np.maximum(worst[name], np.max(r))
    e1, e2, e4 = np.eye(8)[[1, 2, 4]]
    witness = mul_arrays(mul_arrays(e1, e2), e4) - mul_arrays(e1, mul_arrays(e2, e4))
    witness_gap = np.sqrt(witness @ witness)
    checks = {name: _check(worst[name], tols[name], args.trials) for name in worst}
    checks["nonassociativity_witness"] = _check(
        abs(witness_gap - 2.0), tols["nonassociativity_witness"], 1
    )
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


def _separators(shape: tuple, pad: str) -> np.ndarray:
    """The texts before, between and after the entries of _layout(shape, pad).

    prod(shape) + 1 references to len(shape) + 2 str objects: the text
    between two entries depends only on how many trailing axes wrap there.
    """
    parts = _layout((2,) * len(shape), pad).split("%s")
    size = math.prod(shape)
    seps = np.empty(size + 1, dtype=object)
    seps[:] = parts[1]  # one shared str; np.full would store a copy per slot
    for depth in range(1, len(shape)):
        stride = math.prod(shape[-depth:])
        seps[stride:size:stride] = parts[2 ** depth]
    seps[0], seps[-1] = parts[0], parts[-1]
    return seps


def _resolve_text(out: dict, coeffs: np.ndarray) -> str:
    """_encode(out) with a, b (coeffs[0], coeffs[1]) and their vectors added.

    One join of separator texts with coefficient texts, every coefficient
    formatted once and every repeated separator one shared str.  a and b are
    tables; vector i's terms v_i = sum_k a_ik (x) e_k + b_ik (x) f_k, in
    (kind, k) order with zero terms left out (the nonzero E and F slots of
    resolve.vectors), repeat the same texts.
    """
    n = coeffs.shape[1]
    texts = _texts(coeffs)
    tables = np.empty((2, texts.size + 1), dtype=object)  # a's and b's n * n * 8 slots
    tables[:, ::2] = _separators(coeffs.shape[1:], "\n  ")
    tables[:, 1::2] = texts.reshape(2, -1)
    # a term sits four levels into the report: vectors, vector, terms, term;
    # its ten slots are the coefficients, k and kind, in key order
    pad = "\n" + "  " * 4
    term = _encode({"coeff": ["%s"] * 8, "k": "%s", "kind": "%s"}, pad).replace('"%s"', "%s")
    first, *inner, last = term.split("%s")
    # per (vector i, kind, k) with a nonzero coefficient: ten separators and ten texts in turn
    vector, kind, k = np.nonzero(np.any(coeffs, axis=3).swapaxes(0, 1))
    terms = np.empty((vector.size, 20), dtype=object)
    terms[:, ::2] = [last + "," + pad + first, *inner]
    terms[:, 1:17:2] = texts.reshape(coeffs.shape)[kind, vector, k]
    terms[:, 17] = np.array([str(m) for m in range(1, n + 1)], dtype=object)[k]
    terms[:, 19] = np.array(['"E"', '"F"'], dtype=object)[kind]
    # out's own values are numbers and fixed names, so they hold no "%s"
    counts = np.bincount(vector, minlength=n).tolist()
    skeleton = dict(out, a="%s", b="%s",
                    vectors=[{"n": n, "terms": ["%s"] if c else []} for c in counts])
    head, between, *rest = _encode(skeleton).replace('"%s"', "%s").split("%s")
    if vector.size:
        # the text before each vector's first term, and after the last term
        starts = np.flatnonzero(np.diff(vector, prepend=-1))
        terms[starts, 0] = [rest[0] + first, *[last + r + first for r in rest[1:-1]]]
        rest = [last + rest[-1]]
    return "".join([head, *tables[0].tolist(), between, *tables[1].tolist(),
                    *terms.ravel().tolist(), *rest])


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
        "perm": res.perm,
        "pivots": res.pivots,
        # max|a, b| / max|H|; undefined (null) for the zero matrix
        "growth": cmax / hmax if hmax > 0 else None,
        "worst_entry": list(np.unravel_index(np.argmax(errors), errors.shape)),
    }
    text = functools.partial(_resolve_text, out, coeffs)
    return _dump_json(text, args.output) or (0 if ok else 3)


# -- lorentz-check -----------------------------------------------------------


def _draw_trials(rng: np.random.Generator, trials: int, nest_depth: int):
    """Draw a block of trials in five whole-block calls, in this order:

    1. each trial's depth, 1 + integers(nest_depth), shape (trials,);
    2. each factor slot's kind, integers(4): 0 boost, 1 rotation, 2 phase,
       3 reflection, shape (nest_depth, trials);
    3. each slot's t, uniform(-1, 1), same shape;
    4. each slot's direction, integers(8) where the kind is a rotation and
       integers(7) elsewhere (phases 1..7), same shape;
    5. each trial's point and spinors, uniform(-1, 1), shape (trials, 58).

    Every slot draws all four values, used or not.  Factors come back as
    _GENERATORS indices and t, (depth, trials): _PAD (t = 0) at or past a
    trial's depth, _REFLECT (t = 0) for kind 3.  A trial's 58 values are
    laid out as random_hermitian(rng, 2) and three random_spinor(rng) calls
    draw them: x's diagonal entry a, its off-diagonal octonion c, its entry
    b, then v, chi and psi as (2, 8) each; spinors come as (3, trials)."""
    depth = 1 + rng.integers(nest_depth, size=trials)
    kind = rng.integers(4, size=(nest_depth, trials))
    t = rng.uniform(-1.0, 1.0, (nest_depth, trials))
    direction = rng.integers(np.where(kind == 1, 8, 7))
    draws = rng.uniform(-1.0, 1.0, (trials, 58))
    # kind k starts at _GENERATORS index (0, 1, 9, _REFLECT)[k]; rotations
    # and phases add their direction
    index = np.array([0, 1, 9, _REFLECT])[kind] + direction * ((kind == 1) | (kind == 2))
    pad = np.arange(nest_depth)[:, None] >= depth
    index[pad] = _PAD
    t[pad | (kind == 3)] = 0.0
    points = np.zeros((trials, 2, 2, 8))
    points[:, 0, 0, 0], points[:, 1, 1, 0] = draws[:, 0], draws[:, 9]
    points[:, 0, 1] = draws[:, 1:9]
    points[:, 1, 0] = conj_arrays(draws[:, 1:9])
    spinors = draws[:, 10:].reshape(trials, 3, 2, 8).swapaxes(0, 1)
    deepest = depth.max()
    return index[:deepest], t[:deepest], points, spinors


@functools.cache
def _mixed_control() -> np.ndarray:
    """An invalid two-subspace 'factor', built once per process, read-only.

    The octonionic product of an e_1 rotation and an e_2 phase is not a
    single-subspace matrix; applying it in one sandwich must fail visibly.
    """
    f1 = make_factor(rotation_generator(1), 0.8)
    f2 = make_factor(phase_generator(2), 0.9)
    mixed = omat_mul(f1, f2)
    mixed.setflags(write=False)
    return mixed


def cmd_lorentz_check(args) -> int:
    seed = _resolve_seed(args.seed)
    tols = _tols(args)
    rng = np.random.default_rng(seed)
    reflection = reflection_factor()
    worst = {"det": 0.0, "compatibility": 0.0, "contraction": 0.0}
    # nest_depth <= MAX_NEST_DEPTH == LORENTZ_BLOCK, so a block of per_block
    # trials never exceeds LORENTZ_BLOCK factor slots
    per_block = max(1, LORENTZ_BLOCK // args.nest_depth)
    for start in range(0, args.trials, per_block):
        index, t, x, (v, chi, psi) = _draw_trials(
            rng, min(per_block, args.trials - start), args.nest_depth)
        s = make_factor(_GENERATORS[index], t)
        s[index == _REFLECT] = reflection
        moved = act_vector(s, x)
        # the spinor checks skip the padding, whose identity factors change no residual
        level, trial = np.nonzero(index != _PAD)
        used = s[level, trial]
        # |det S| = 1, so the sandwich keeps the det form a'b' - |c'|^2 whatever
        # the signs; its round-off grows with |a'b'| + |c'|^2, not with |det|
        a, b, c = moved[..., 0, 0, 0], moved[..., 1, 1, 0], moved[..., 0, 1, :]
        scale = np.maximum(1.0, np.abs(a * b) + np.sum(c * c, axis=-1))
        block = {
            "det": np.abs(det2(moved) - det2(x)) / scale,
            "compatibility": compatibility_residual(used, v[trial]),
            "contraction": contraction_residual(used, chi[trial], psi[trial]),
        }
        for name, r in block.items():
            # np.maximum keeps a NaN residual, which Python's max would drop
            worst[name] = np.maximum(worst[name], np.max(r))
    mixed = compatibility_residual(_mixed_control(), random_spinor(rng))
    checks = {name: _check(worst[name], tols[name], args.trials) for name in worst}
    checks["mixed_control"] = _check(mixed, tols["mixed_control"], 1, above=True)
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


_TAUS = (0.3, 0.9, 1.7)
_SIGMAS = (0.35, 1.1, 2.2, 2.9)


def _write_grid_csv(ms, path, n_sigma: int) -> int:
    """Write the grid scan and return 0, or write nothing and return 3 on NaN or inf."""
    tau, sigma = np.meshgrid(
        [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi], np.linspace(0.0, np.pi, n_sigma + 1),
        indexing="ij",
    )
    header = ["tau", "sigma"] + [f"{name}_{a}{b}_{part}" for name in ("X", "Jtau", "Jsigma")
                                 for a in range(2) for b in range(2) for part in ("re", "im")]
    mats = np.stack([coordinates(ms, tau, sigma), *current_density(ms, tau, sigma)], axis=-3)
    rows = np.column_stack([tau.ravel(), sigma.ravel(), mats.view(float).reshape(tau.size, -1)])
    finite = np.isfinite(rows)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        print(f"cliffstring: grid not written: {header[col]} is {rows[row, col]} at "
              f"tau={rows[row, 0]:g}, sigma={rows[row, 1]:g}", file=sys.stderr)
        return 3
    try:
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")
    return 0


# A finite spectrum can still overflow (X grows like K^3); _check fails the
# non-finite residuals, so numpy's floating-point warnings would only repeat that.
@np.errstate(all="ignore")
def cmd_string_modes(args) -> int:
    tols = _tols(args)
    obj = _load_json(args.spectrum)
    try:
        ms = spectrum_from_json(obj)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise InputError(f"bad spectrum in {args.spectrum}: {exc}")

    points = [(t, s) for t in _TAUS for s in _SIGMAS]
    tau, sigma = np.array(points).T
    jt, js = current_density(ms, tau, sigma)
    jscale = max(1.0, float(np.max(np.abs([jt, js]))))
    coords = coordinates(ms, tau, sigma)
    xscale = max(1.0, float(np.max(np.abs(coords))))
    # the wave equation does not see the translation C0
    wscale = max(1.0, float(np.max(np.abs(coords - ms.C0))))

    div_h = divergence_residual(ms, points, h=1e-3)
    div_2h = divergence_residual(ms, points, h=2e-3)
    div_ratio = 4.0 if div_h <= 0 else div_2h / div_h  # a NaN residual stays NaN
    flux = endpoint_flux(ms, _TAUS)
    coeffs = charge_density_coefficients(ms)
    m0 = coeffs[0]
    mscale = max(1.0, float(np.max(np.abs(m0))))
    quad_gap = float(np.max(np.abs(charge_quadrature(ms, _TAUS, args.grid) - m0)))  # keeps a NaN
    eom_h = eom_residual(ms, points, h=1e-3)
    eom_2h = eom_residual(ms, points, h=2e-3)
    # Below about 45 eps / h^2 times the tau^2 zero-mode term (l/m^3)|K|^3 tau^2,
    # eom_h is rounding of that term and carries no h^2 order to check.
    # float64 scalars, so a huge K or m overflows to inf rather than raising
    c = ms.constants
    eom_floor = (1e-8 * np.float64(c.ell) / np.float64(c.m) ** 3
                 * np.max(np.abs(ms.K)) ** 3 * max(_TAUS) ** 2)
    eom_ratio = 4.0 if eom_h <= eom_floor else eom_2h / eom_h
    herm = float(np.max(np.abs(coords - coords.mT.conj())))
    even = float(np.max(np.abs(coords - coordinates(ms, tau, -sigma))))

    n_pts = len(points)
    checks = {
        "divergence": _check(div_h / jscale, tols["divergence"], n_pts),
        "divergence_ratio": _check(abs(div_ratio - 4.0), tols["divergence_ratio"], n_pts),
        "endpoint_flux": _check(flux / jscale, tols["endpoint_flux"], len(_TAUS)),
        "charge_quadrature": _check(quad_gap / mscale, tols["charge_quadrature"], len(_TAUS)),
        "eom": _check(eom_h / wscale, tols["eom"], n_pts),
        "eom_ratio": _check(abs(eom_ratio - 4.0), tols["eom_ratio"], n_pts),
        "hermiticity": _check(herm / xscale, tols["hermiticity"], n_pts),
        "evenness": _check(even / xscale, tols["evenness"], n_pts),
    }
    config = {
        "spectrum": args.spectrum,
        "grid": args.grid,
        "tolerances": tols,
        "modes": sorted(ms.modes),
    }
    grid = _write_grid_csv(ms, args.output, args.grid) if args.output else 0
    return _finish(_report("string-modes", config, checks), args.report) or grid


# -- quantum-check -----------------------------------------------------------


# A huge --hbar overflows the operators; _check fails the non-finite
# residuals, so numpy's floating-point warnings would only repeat that.
@np.errstate(all="ignore")
def cmd_quantum_check(args) -> int:
    tols = _tols(args)
    pairs = build_canonical(args.degree, args.hbar)
    space = pairs.space
    a_ops, k_ops = quaternion_pairs(pairs)
    m0, m0d = m0_matrices(a_ops, k_ops)
    n, nd = three_vector_form(m0, m0d)
    mt = tensor_form(m0, m0d)
    vals = jz_spectrum(args.degree, args.hbar)

    residuals = {
        "canonical": canonical_residual(pairs),
        "mixed": mixed_algebra_residual(a_ops, k_ops, space, args.hbar),
        "closure": lorentz_closure_residual(m0, m0d, space, args.hbar),
        "su2": su2_closure_residual(n, nd, space, args.hbar),
        "tensor": tensor_algebra_residual(mt, space, args.hbar),
        "roundtrip": spinor_tensor_roundtrip_residual(m0, mt, space),
        "jz_integrality": np.max([jz_residual(pairs, m0, m0d),  # np.max keeps a NaN
                                  integrality_residual(vals, args.hbar)]),
    }
    checks = {name: _check(residuals[name], tols[name], 1) for name in residuals}
    config = {"degree": args.degree, "hbar": args.hbar, "tolerances": tols}
    extra = {
        "dimension": space.dim,
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
        obj = random_hermitian(rng, args.n).to_json()
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
    p.add_argument("--degree", type=_int_in(2, MAX_DEGREE), default=6)
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
        return args.run(args)
    except InputError as exc:
        print(f"cliffstring: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
