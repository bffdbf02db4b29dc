"""Octonionic Lorentz transformations on 2x2 Hermitian matrices.

A factor is a 2x2 octonionic matrix S whose entries all lie in one complex
subspace span(1, e_k) and whose determinant is real with |det| = 1.  It acts
on a packed point X by the explicitly parenthesized sandwich

    X  ->  (S X) S+

which preserves Hermiticity and the determinant form.  General
transformations are finite nestings of such factors (applied innermost
first); the group multiplication is the nesting itself, never the matrix
product of the factors, because the factors need not share a subspace.

A factor, or a stack of them, is the plain (..., 2, 2, 8) coefficient array
that make_factor, factor_from_matrix and reflection_factor return valid.
The real-determinant test of factor_from_matrix is load-bearing: the
spinor compatibility (Sv)(Sv)+ = (S (v v+)) S+ is no identity on all of
M_2(span(1, e_k)), and [[e_1, 0], [0, 1]], single-subspace with det e_1,
breaks it by order one.

Spinors are (..., 2, 8) arrays, spinor index first.  They ride along as
v^A -> S^A_B v^B (spinor_map) and co-spinors as w*_A -> -w*_B S_A^B
(cospinor_map) with S_A^B = eps^{BE} S^F_E eps_{FA}; the real part of
the contraction chi^A psi_A picks up exactly the factor det(S).

The Hermitian generators (boost_generator, rotation_generator(k >= 1))
give boosts, the anti-Hermitian ones (rotation_generator(0), the phases)
rotations.  Factors are closed-form exponentials, and the factor, action
and residual functions take stacks along leading axes.  A nesting is a
(depth, ..., 2, 2, 8) stack of factor matrices for act_vector, levels[0]
acting first.
"""

from __future__ import annotations

import functools

import numpy as np

from .fixtures import random_spinor
from .octonion import mul_arrays, conj_arrays
from .matrices import omat_mul, omat_adjoint
from .minkowski import det2

__all__ = [
    "MixedSubspaceError",
    "factor_from_matrix",
    "make_factor",
    "reflection_factor",
    "boost_generator",
    "rotation_generator",
    "phase_generator",
    "act_vector",
    "spinor_map",
    "cospinor_map",
    "lower_factor_indices",
    "compatibility_residual",
    "contraction_residual",
    "MAX_NEST_DEPTH",
    "lorentz_checks",
]


# Tolerance of the factor and generator tests: single subspace, traceless, det.
_TOL = 1e-10


class MixedSubspaceError(ValueError):
    """Factor entries spread over more than one complex subspace."""


def _entry_subspace(s: np.ndarray):
    """Common imaginary direction of each stack's entries, 0 for real, or raise."""
    live = np.max(np.abs(s[..., 1:]), axis=(-3, -2)) > _TOL
    mixed = live[np.sum(live, axis=-1) > 1]
    if len(mixed):
        raise MixedSubspaceError(f"entries use directions {np.flatnonzero(mixed[0]) + 1}")
    return np.where(np.any(live, axis=-1), np.argmax(live, axis=-1) + 1, 0)[()]


def _det(s: np.ndarray) -> np.ndarray:
    """Octonionic determinant s_00 s_11 - s_01 s_10 of each (..., 2, 2, 8) stack."""
    return mul_arrays(s[..., 0, 0, :], s[..., 1, 1, :]) - mul_arrays(s[..., 0, 1, :], s[..., 1, 0, :])


def factor_from_matrix(s) -> np.ndarray:
    """A validated copy of a (..., 2, 2, 8) stack of factors, one reduction per test."""
    s = np.array(s, dtype=float)
    if s.shape[-3:] != (2, 2, 8):
        raise ValueError("factor needs a (..., 2, 2, 8) coefficient stack")
    _entry_subspace(s)  # raises MixedSubspaceError
    d = _det(s)
    off_real = np.max(np.abs(d[..., 1:]))
    if off_real > _TOL:
        raise ValueError(f"determinant not real: imaginary part up to {off_real:.3e}")
    off_unit = np.max(np.abs(np.abs(d[..., 0]) - 1.0))
    if off_unit > _TOL:
        raise ValueError(f"|det| differs from 1 by up to {off_unit:.3e}")
    return s


def make_factor(generator, t) -> np.ndarray:
    """exp(t G) for a (..., 2, 2, 8) stack of traceless single-subspace G.

    t broadcasts against the leading axes.  Over span(1, e_k) = C a traceless
    G has G^2 = -det(G) I, so exp(tG) = cosh(lam) I + (sinh(lam) / lam) tG
    with lam^2 = -det(tG), and I + tG where lam = 0.
    """
    g = np.asarray(generator, dtype=float)
    if g.shape[-3:] != (2, 2, 8):
        raise ValueError("generator needs a (..., 2, 2, 8) coefficient stack")
    k = np.asarray(_entry_subspace(g))
    if np.max(np.abs(g[..., 0, 0, :] + g[..., 1, 1, :])) > _TOL:
        raise ValueError("generator must be traceless")
    e_k = np.arange(1, 8) == k[..., None, None, None]  # e_1..e_7 against each k; none for k = 0
    tg = np.asarray(t, dtype=float)[..., None, None] * (g[..., 0] + 1j * (g[..., 1:] * e_k).sum(-1))
    lam = np.sqrt(tg[..., 0, 1] * tg[..., 1, 0] - tg[..., 0, 0] * tg[..., 1, 1])
    ratio = np.divide(np.sinh(lam), lam, out=np.ones_like(lam), where=lam != 0)
    c = ratio[..., None, None] * tg + np.cosh(lam)[..., None, None] * np.eye(2)
    out = np.zeros(c.shape + (8,))
    out[..., 0] = c.real
    out[..., 1:] = c.imag[..., None] * e_k
    return factor_from_matrix(out)


def reflection_factor() -> np.ndarray:
    """diag(1, -1), the real factor of det -1."""
    s = np.zeros((2, 2, 8))
    s[0, 0, 0], s[1, 1, 0] = 1.0, -1.0
    return s


def boost_generator() -> np.ndarray:
    """diag(1, -1)/2: a boost along x^1 of sigma_set(10), whose sigma^1 is diag(1, -1)."""
    g = np.zeros((2, 2, 8))
    g[0, 0, 0], g[1, 1, 0] = 0.5, -0.5
    return g


def rotation_generator(k: int = 0) -> np.ndarray:
    """[[0, e_k], [-e_k, 0]]/2: the real rotation for k = 0, a boost for k >= 1.

    For k >= 1 it is Hermitian, so its factor boosts along x^(k+2) of
    sigma_set(10): lam^2 = t^2/4 > 0, the cosh branch of make_factor.
    """
    g = np.zeros((2, 2, 8))
    g[0, 1, k], g[1, 0, k] = 0.5, -0.5
    return g


def phase_generator(k: int) -> np.ndarray:
    """diag(e_k, -e_k)/2, a rotation inside span(1, e_k); k >= 1."""
    if not 1 <= k <= 7:
        raise ValueError("phase generator needs an imaginary direction")
    g = np.zeros((2, 2, 8))
    g[0, 0, k], g[1, 1, k] = 0.5, -0.5
    return g


# -- actions ---------------------------------------------------------------


def act_vector(levels, x):
    """Nested sandwich action X -> (S X) S+ of a (depth, ..., 2, 2, 8) stack
    of factor matrices, levels[0] innermost, on (..., 2, 2, 8) points."""
    for s in levels:
        x = omat_mul(omat_mul(s, x), omat_adjoint(s))
    return x


def lower_factor_indices(s: np.ndarray) -> np.ndarray:
    """S_A^B = eps^{BE} S^F_E eps_{FA} = [[-S^2_2, S^2_1], [S^1_2, -S^1_1]]."""
    signs = np.array([[-1.0, 1.0], [1.0, -1.0]])[..., None]
    return signs * s[..., [[1, 1], [0, 0]], [[1, 0], [1, 0]], :]


def spinor_map(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v^A -> S^A_B v^B on (..., 2, 8) spinor arrays."""
    p = mul_arrays(s, np.expand_dims(v, -3))
    return p[..., 0, :] + p[..., 1, :]


def cospinor_map(s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w*_A -> -w*_B S_A^B on (..., 2, 8) spinor arrays."""
    p = mul_arrays(np.expand_dims(w, -3), lower_factor_indices(s))
    return -(p[..., 0, :] + p[..., 1, :])


# -- consistency checks ------------------------------------------------------


def compatibility_residual(s: np.ndarray, v: np.ndarray):
    """Max entry norm of (Sv)(Sv)+ - (S (v v+)) S+ for octonion spinors v.

    s need not be a valid factor, so the residual is also defined for
    invalid mixed-subspace matrices.  v is a (..., 2, 8) stack broadcasting
    against s; one residual per leading index.
    """
    sv = spinor_map(s, v)
    lhs = mul_arrays(sv[..., :, None, :], conj_arrays(sv)[..., None, :, :])
    outer = mul_arrays(v[..., :, None, :], conj_arrays(v)[..., None, :, :])
    rhs = omat_mul(omat_mul(s, outer), omat_adjoint(s))
    return np.max(np.linalg.norm(lhs - rhs, axis=-1), axis=(-2, -1))


def _contraction_real(chi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """2 Re(chi^A psi_A) of (..., 2, 8) spinor arrays, one value per leading index."""
    p = mul_arrays(chi, psi)
    return 2.0 * (p[..., 0, :] + p[..., 1, :])[..., 0]


def contraction_residual(s: np.ndarray, chi, psi):
    """|Re contraction after transform - sign(det S) * Re contraction before|,
    one per leading index of the (..., 2, 2, 8) factors s and the (..., 2, 8)
    spinors chi, psi; the sign is that of S's real determinant."""
    after = _contraction_real(spinor_map(s, chi), cospinor_map(s, psi))
    return np.abs(after - np.sign(_det(s)[..., 0]) * _contraction_real(chi, psi))


# Largest lorentz_checks nest_depth, and its factor slots (trials x depth) per
# vectorised block, so memory stays bounded: one block then still holds a whole
# trial, and 100 trials at this depth take about 2 s.
MAX_NEST_DEPTH = 1024

# Random factors' generators by index: boost, rotation(0..7), phase(1..7), and
# two zeros whose identity factor (t = 0) pads shallow trials or marks a reflection.
_GENERATORS = np.stack([boost_generator(), *map(rotation_generator, range(8)),
                        *map(phase_generator, range(1, 8)), *np.zeros((2, 2, 2, 8))])
_PAD, _REFLECT = 16, 17


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


def lorentz_checks(rng: np.random.Generator, trials: int, nest_depth: int) -> dict:
    """{name: (max residual, trials)} of the sandwich invariants on trials random
    nestings of 1 to nest_depth <= MAX_NEST_DEPTH factors, drawn as _draw_trials
    lays them out, and of mixed_control, which must exceed its tolerance."""
    reflection = reflection_factor()
    worst = {"det": 0.0, "compatibility": 0.0, "contraction": 0.0}
    # nest_depth <= MAX_NEST_DEPTH, so a block of per_block trials never
    # exceeds MAX_NEST_DEPTH factor slots
    per_block = max(1, MAX_NEST_DEPTH // nest_depth)
    for start in range(0, trials, per_block):
        index, t, x, (v, chi, psi) = _draw_trials(rng, min(per_block, trials - start), nest_depth)
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
    out = {name: (worst[name], trials) for name in worst}
    out["mixed_control"] = (compatibility_residual(_mixed_control(), random_spinor(rng)), 1)
    return out
