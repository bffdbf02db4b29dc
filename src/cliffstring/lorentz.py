"""Octonionic Lorentz transformations on 2x2 Hermitian matrices.

A factor is a 2x2 octonionic matrix S whose entries all lie in one complex
subspace span(1, e_k) and whose determinant is real with |det| = 1.  It acts
on a packed point X by the explicitly parenthesized sandwich

    X  ->  (S X) S+

which preserves Hermiticity and the determinant form.  General
transformations are finite nestings of such factors (applied innermost
first); the group multiplication is the nesting itself, never the matrix
product of the factors, because the factors need not share a subspace.

Spinors ride along as v^A -> S^A_B v^B and co-spinors as
w*_A -> -w*_B S_A^B with S_A^B = eps^{BE} S^F_E eps_{FA}; the real part of
the contraction chi^A psi_A picks up exactly the factor det(S).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .octonion import Octonion, mul_arrays, conj_arrays
from .matrices import OctHermitian, omat_mul, omat_adjoint
from .minkowski import EPS

__all__ = [
    "MixedSubspaceError",
    "LorentzFactor",
    "NestedTransform",
    "factor_from_matrix",
    "make_factor",
    "reflection_factor",
    "boost_generator",
    "rotation_generator",
    "phase_generator",
    "act_vector",
    "act_spinor",
    "spinor_map",
    "cospinor_map",
    "lower_factor_indices",
    "compatibility_residual",
    "contraction_residual",
    "kinetic_density",
    "kinetic_invariance_residual",
]


class MixedSubspaceError(ValueError):
    """Factor entries spread over more than one complex subspace."""


def _entry_subspace(s: np.ndarray, tol: float) -> int:
    """Common imaginary direction of all entries, 0 for real, or raise."""
    live = [m for m in range(1, 8) if np.max(np.abs(s[:, :, m])) > tol]
    if len(live) > 1:
        raise MixedSubspaceError(f"entries use directions {live}")
    return live[0] if live else 0


def _oct_det(s: np.ndarray) -> np.ndarray:
    return mul_arrays(s[0, 0], s[1, 1]) - mul_arrays(s[0, 1], s[1, 0])


@dataclass
class LorentzFactor:
    """Validated single-subspace factor; s is the (2, 2, 8) coefficient stack."""

    s: np.ndarray
    subspace: int
    det: float


@dataclass
class NestedTransform:
    """Factors in application order: factors[0] acts first (innermost)."""

    factors: list


def factor_from_matrix(s, tol: float = 1e-10) -> LorentzFactor:
    s = np.asarray(s, dtype=float)
    if s.shape != (2, 2, 8):
        raise ValueError("factor needs a (2, 2, 8) coefficient stack")
    k = _entry_subspace(s, tol)
    d = _oct_det(s)
    if np.max(np.abs(d[1:])) > tol:
        raise ValueError(f"determinant not real: {d}")
    if abs(abs(d[0]) - 1.0) > tol:
        raise ValueError(f"|det| = {abs(d[0]):.12f}, expected 1")
    return LorentzFactor(s.copy(), k, float(np.sign(d[0])))


def _to_complex(s: np.ndarray, k: int) -> np.ndarray:
    imag = s[:, :, k] if k != 0 else np.zeros_like(s[:, :, 0])
    return s[:, :, 0] + 1j * imag


def _from_complex(c: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros(c.shape + (8,))
    out[..., 0] = c.real
    if k != 0:
        out[..., k] = c.imag
    elif np.max(np.abs(c.imag)) > 0:
        raise ValueError("real subspace cannot hold an imaginary part")
    return out


def make_factor(generator, t: float, tol: float = 1e-10) -> LorentzFactor:
    """exp(t * generator) for a traceless single-subspace generator."""
    g = np.asarray(generator, dtype=float)
    if g.shape != (2, 2, 8):
        raise ValueError("generator needs a (2, 2, 8) coefficient stack")
    k = _entry_subspace(g, tol)
    if np.max(np.abs(g[0, 0] + g[1, 1])) > tol:
        raise ValueError("generator must be traceless")
    sc = scipy.linalg.expm(t * _to_complex(g, k))
    return factor_from_matrix(_from_complex(sc, k), tol=tol)


def reflection_factor() -> LorentzFactor:
    s = np.zeros((2, 2, 8))
    s[0, 0, 0], s[1, 1, 0] = 1.0, -1.0
    return LorentzFactor(s, 0, -1.0)


def boost_generator() -> np.ndarray:
    g = np.zeros((2, 2, 8))
    g[0, 0, 0], g[1, 1, 0] = 0.5, -0.5
    return g


def rotation_generator(k: int = 0) -> np.ndarray:
    """Off-diagonal rotation generator; k = 0 is the real rotation."""
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


def act_vector(transform, x_mat: OctHermitian) -> OctHermitian:
    """Nested sandwich action X -> (S X) S+, innermost factor first."""
    factors = transform.factors if isinstance(transform, NestedTransform) else [transform]
    data = x_mat.data
    for f in factors:
        data = omat_mul(omat_mul(f.s, data), omat_adjoint(f.s))
    return OctHermitian(data, validate=False)


def lower_factor_indices(s: np.ndarray) -> np.ndarray:
    """S_A^B = eps^{BE} S^F_E eps_{FA}."""
    return np.einsum("be,feX,fa->abX", EPS, s, EPS)


def spinor_map(s: np.ndarray, v) -> tuple:
    """v^A -> S^A_B v^B on a pair of octonions."""
    return tuple(
        Octonion(mul_arrays(s[a, 0], v[0].c) + mul_arrays(s[a, 1], v[1].c))
        for a in range(2)
    )


def cospinor_map(s: np.ndarray, w) -> tuple:
    """w*_A -> -w*_B S_A^B on a pair of octonions."""
    sl = lower_factor_indices(s)
    return tuple(
        Octonion(-(mul_arrays(w[0].c, sl[a, 0]) + mul_arrays(w[1].c, sl[a, 1])))
        for a in range(2)
    )


def act_spinor(factor: LorentzFactor, c) -> tuple:
    """Spinor action on a pair of TensorVectors (coefficients scale on the left)."""
    s = factor.s
    return tuple(
        c[0].scale_left(Octonion(s[a, 0])) + c[1].scale_left(Octonion(s[a, 1]))
        for a in range(2)
    )


# -- consistency checks ------------------------------------------------------


def compatibility_residual(s: np.ndarray, v) -> float:
    """Max entry norm of (Sv)(Sv)+ - (S (v v+)) S+ for an octonion spinor v.

    s is a bare (2, 2, 8) stack rather than a LorentzFactor, so the
    residual is also defined for invalid mixed-subspace matrices.
    """
    sv = spinor_map(s, v)
    lhs = np.zeros((2, 2, 8))
    outer = np.zeros((2, 2, 8))
    for a in range(2):
        for b in range(2):
            lhs[a, b] = mul_arrays(sv[a].c, conj_arrays(sv[b].c))
            outer[a, b] = mul_arrays(v[a].c, conj_arrays(v[b].c))
    rhs = omat_mul(omat_mul(s, outer), omat_adjoint(s))
    return float(np.max(np.linalg.norm(lhs - rhs, axis=2)))


def _contraction_real(chi, psi) -> float:
    t = mul_arrays(chi[0].c, psi[0].c) + mul_arrays(chi[1].c, psi[1].c)
    return 2.0 * float(t[0])


def contraction_residual(factor: LorentzFactor, chi, psi) -> float:
    """|Re contraction after transform - det * Re contraction before|."""
    chi2 = spinor_map(factor.s, chi)
    psi2 = cospinor_map(factor.s, psi)
    return abs(_contraction_real(chi2, psi2) - factor.det * _contraction_real(chi, psi))


def kinetic_density(dc, dstar) -> float:
    """Real kinetic density sum_alpha Re(d_alpha c^A dstar_A^alpha) doubled.

    dc and dstar are length-2 sequences (worldsheet index) of octonion
    spinor pairs; dc carries the caller's finite-difference derivative.
    """
    return sum(_contraction_real(dc[alpha], dstar[alpha]) for alpha in range(2))


def kinetic_invariance_residual(factor: LorentzFactor, dc, dstar) -> float:
    before = kinetic_density(dc, dstar)
    dc2 = [spinor_map(factor.s, dc[alpha]) for alpha in range(2)]
    dstar2 = [cospinor_map(factor.s, dstar[alpha]) for alpha in range(2)]
    after = kinetic_density(dc2, dstar2)
    return abs(after - factor.det * before)
