"""Open-string Fourier-mode dynamics at the inner-product level.

All mode content enters through 2x2 complex matrices of inner products
between coefficient vectors: K_{A Bdot} for the zero mode, A_n (Hermitian)
for equal-mode pairs and A_{n,-n} for opposite-mode pairs, with the input
constraint A_{-n,n} = (A_{n,-n})+.  Left- and right-moving null wave
vectors k^L_alpha = (1, 1) and k^R_alpha = (1, -1) are raised with the
worldsheet metric eta = diag(1, -1); open-string boundary conditions set
the left and right matrices equal, so a ModeSpectrum holds one set of modes
for both movers.

With those inner products, the conserved angular-momentum current density is

  J^alpha_AB = (2 i l / m) K_A^Edot sum_{n != 0} (1/n) [
        k^{L alpha} (A_n + A_{n,-n} e^{-i n (tau + sigma)})
      + k^{R alpha} (A_n + A_{n,-n} e^{-i n (tau - sigma)}) ]_{B Edot}
      + (A <-> B)

whose tau component is the standing wave (1/pi) sum_n M^n_(AB) e^{-i n tau}
cos(n sigma), and the coordinate matrix is

  X^{A Bdot} = C0 + (l/m^3) K^{A Fdot} ( K_{E Fdot} tau^2
      + 8 sum_{n != 0} (1/n^2) (A_n - A_{n,-n} e^{-i n tau} cos(n sigma)) )
      K^{E Bdot}.

Every mode term of X is a standing wave, so X obeys the sourced wave
equation (d_tau^2 - d_sigma^2) X = 2 (l/m^3) K^{A Fdot} K_{E Fdot} K^{E Bdot}.

The zero-mode average motion is quadratic in tau, which yields the
gravitational-redshift relation z = sqrt(t_obsv / t_emit) - 1 and the
emission-time bound implemented at the end of the module.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import dataclass, field

import numpy as np

from .matrices import real_array
from .minkowski import EPS

__all__ = [
    "NonpositiveTimeError",
    "PhysicalConstants",
    "ModeSpectrum",
    "current_density",
    "charge_density_coefficients",
    "charge_quadrature",
    "coordinates",
    "divergence_residual",
    "endpoint_flux",
    "eom_residual",
    "string_mode_checks",
    "redshift",
    "emission_bound",
    "cmat_to_json",
    "cmat_from_json",
    "spectrum_to_json",
    "spectrum_from_json",
]

class NonpositiveTimeError(ValueError):
    """Cosmological times must be positive."""


@dataclass(frozen=True)
class PhysicalConstants:
    ell: float = 1.0
    m: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not all(np.isfinite(v) and v > 0 for v in (self.ell, self.m, self.hbar)):
            raise ValueError("constants must be positive and finite")


# Tolerance of a spectrum's Hermiticity and pairing tests.
_TOL = 1e-12


def _checked_matrix(m, name, hermitian=True):
    """m as a finite complex matrix, Hermitian within _TOL unless hermitian is False."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    if hermitian and np.max(np.abs(m - m.conj().T)) > _TOL:
        raise ValueError(f"{name} must be Hermitian within {_TOL:.1e}")
    return m


@dataclass
class ModeSpectrum:
    """Inner-product data: zero mode K, offset C0, and mode matrices.

    modes maps n != 0 to the pair (A_n, A_{n,-n}); missing entries are zero.
    Validation enforces finite entries, Hermitian K, C0 and A_n, and the
    opposite-mode pairing A_{-n,n} = (A_{n,-n})+, each within _TOL.
    """

    K: np.ndarray
    C0: np.ndarray
    modes: dict = field(default_factory=dict)
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self):
        self.K = _checked_matrix(self.K, "K")
        self.C0 = _checked_matrix(self.C0, "C0")
        clean = {}
        for n, (a, anm) in self.modes.items():
            n = int(n)
            if n == 0:
                raise ValueError("mode index 0 belongs to the zero mode K")
            # the evaluators divide by n^2, which must be a float
            if n * n > sys.float_info.max:
                raise ValueError("mode index too large: its square is beyond the float range")
            a = _checked_matrix(a, f"A_{n}")
            anm = _checked_matrix(anm, f"A_({n},{-n})", hermitian=False)
            clean[n] = (a, anm)
        for n, (_, anm) in clean.items():
            anm_neg = clean.get(-n, (None, np.zeros((2, 2), complex)))[1]
            if np.max(np.abs(anm_neg - anm.conj().T)) > _TOL:
                raise ValueError(
                    f"pairing violated: A_({-n},{n}) must equal the adjoint of A_({n},{-n})"
                )
        self.modes = clean


# -- index helpers ------------------------------------------------------------


def _raise_dotted(k: np.ndarray) -> np.ndarray:
    """K_A^Edot = eps^{Edot Fdot} K_{A Fdot}."""
    return k @ EPS.T


def _raise_both(k: np.ndarray) -> np.ndarray:
    """K^{A Fdot} = eps^{AE} eps^{Fdot Gdot} K_{E Gdot}."""
    return EPS @ k @ EPS.T


# -- observables --------------------------------------------------------------


# Points per block of a mode sum: a block's phase table holds _BLOCK x modes
# complex values, and a spectrum has no mode cap.
_BLOCK = 256


def _modes(ms):
    """The mode numbers as floats, and A_n and A_{n,-n} stacked as (modes, 2, 2) arrays."""
    pairs = np.array(list(ms.modes.values()), dtype=complex).reshape(-1, 2, 2, 2)
    return np.array(list(ms.modes), dtype=float), pairs[:, 0], pairs[:, 1]


def _movers(tau, sigma, n, coef):
    """Left and right movers sum_n coef[n] e^{-i n tau} e^{-+ i n sigma}, shape (2, ..., 2, 2).

    Phases are taken once per element of tau and of sigma.  Each block of _BLOCK
    points is one (points x modes) @ (modes x 4) einsum, which sums the modes in
    the same order at every point; a BLAS product's order can change with its
    row or thread count.
    """
    tau, sigma = np.asarray(tau, dtype=float), np.asarray(sigma, dtype=float)
    shape = np.broadcast_shapes(tau.shape, sigma.shape)
    ti, si = (np.broadcast_to(np.arange(x.size).reshape(x.shape), shape).ravel()
              for x in (tau, sigma))
    tau_phase, sigma_phase = (np.exp(np.multiply.outer(x.ravel(), -1j * n)) for x in (tau, sigma))
    coef = np.ascontiguousarray(coef.reshape(-1, 4).T)
    out = np.empty((2, len(ti), 4), complex)
    for start in range(0, len(ti), _BLOCK):
        block = slice(start, start + _BLOCK)
        waves, sigma_waves = tau_phase[ti[block]], sigma_phase[si[block]]
        phase = np.empty_like(waves)
        for k, mover in enumerate((np.positive, np.conjugate)):
            np.multiply(mover(sigma_waves, out=phase), waves, out=phase)
            np.einsum("pn,kn->pk", phase, coef, out=out[k, block])
        del waves, sigma_waves, phase  # before the next block makes its own
    return out.reshape((2,) + shape + (2, 2))


def current_density(ms: ModeSpectrum, tau, sigma):
    """(J^tau, J^sigma) as symmetric complex 2x2 matrices, for any real sigma.

    tau and sigma broadcast against each other; each result has shape
    (..., 2, 2), a plain 2x2 matrix for scalar arguments.  Phase tables are
    taken per element of tau and of sigma, so pass a large mesh sparse.
    """
    c = ms.constants
    n, a, anm = _modes(ms)
    kr = _raise_dotted(ms.K)
    left, right = _movers(tau, sigma, n, kr @ (anm / n[:, None, None]).mT)
    # raised null wave vectors: k^L = (1, -1), k^R = (1, 1) in (tau, sigma);
    # the movers share their A_n part, which J^sigma = R - L cancels
    g_tau = (left + right) + 2.0 * (kr @ (a / n[:, None, None]).sum(axis=0).T)
    g_sigma = right - left
    pref = 2j * c.ell / c.m
    return pref * (g_tau + g_tau.mT), pref * (g_sigma + g_sigma.mT)


def charge_density_coefficients(ms: ModeSpectrum) -> dict:
    """Symmetrized standing-wave coefficients M^n_(AB), n = 0 included."""
    c = ms.constants
    kr = _raise_dotted(ms.K)
    pref = 8j * np.pi * c.ell / c.m
    abar = np.zeros((2, 2), complex)
    out = {}
    for n, (a, anm) in ms.modes.items():
        abar += a / n
        mn = pref / n * (kr @ anm.T)
        out[n] = 0.5 * (mn + mn.T)
    m0 = pref * (kr @ abar.T)
    out[0] = 0.5 * (m0 + m0.T)
    return out


def charge_quadrature(ms: ModeSpectrum, tau, n_sigma: int = 512) -> np.ndarray:
    """Trapezoid integral of J^tau over sigma in [0, pi], at each tau.

    tau is a float or an array of them; the result has shape
    tau.shape + (2, 2), a plain 2x2 matrix for a scalar tau, and each
    tau's integral has the bits of a call with that tau alone.
    """
    sig = np.linspace(0.0, np.pi, n_sigma + 1)
    tau = np.asarray(tau, dtype=float)[..., None]  # a sigma axis to broadcast against
    return np.trapezoid(current_density(ms, tau, sig)[0], sig, axis=-3)


def coordinates(ms: ModeSpectrum, tau, sigma) -> np.ndarray:
    """X^{A Bdot} as Hermitian complex 2x2 matrices, for any real sigma.

    tau and sigma broadcast against each other; the result has shape
    (..., 2, 2), a plain 2x2 matrix for scalar arguments.  Phase tables are
    taken per element of tau and of sigma, so pass a large mesh sparse.
    """
    c = ms.constants
    n, a, anm = _modes(ms)
    kup = _raise_both(ms.K)
    weight = 8.0 / n**2
    # each standing wave e^{-i n tau} cos(n sigma) is half the sum of its movers
    left, right = _movers(tau, sigma, n, kup @ (-0.5 * weight[:, None, None] * anm).mT @ kup)
    motion = (np.asarray(tau, dtype=float)[..., None, None] ** 2 * (kup @ ms.K.T @ kup)
              + (kup @ (weight[:, None, None] * a).sum(axis=0).T @ kup + (left + right)))
    # float64, so a cube of m past the float range gives inf or 0, not an exception
    return ms.C0 + (np.float64(c.ell) / np.float64(c.m) ** 3) * motion


# -- residual diagnostics ------------------------------------------------------


def _stencil(points, h, d_tau, d_sigma):
    """Per point (rows), tau and sigma shifted by the step multiples d_tau, d_sigma."""
    tau, sigma = np.asarray(points, dtype=float).reshape(-1, 2).T
    return tau[:, None] + h * np.array(d_tau), sigma[:, None] + h * np.array(d_sigma)


def divergence_residual(ms: ModeSpectrum, points, h: float = 1e-3) -> float:
    """Max |d_tau J^tau + d_sigma J^sigma| by finite differences.

    The current is a superposition of left- and right-movers, so any
    difference scheme applied with the same stencil in tau and sigma
    annihilates each mover identically: a matched scheme returns pure
    round-off and carries no measurable convergence order.  The sigma
    derivative therefore uses a fourth-order stencil while tau stays
    second-order, leaving a single dominant truncation term
    (h^2/6) d_tau^3 J^tau.  The residual then converges at a genuine
    second order, while a violation of conservation would still show up
    as an h-independent floor.
    """
    jt, js = current_density(ms, *_stencil(points, h, (1, -1, 0, 0, 0, 0), (0, 0, -2, -1, 1, 2)))
    d_tau = (jt[:, 0] - jt[:, 1]) / (2 * h)
    d_sigma = 1.0 / (12 * h) * (js[:, 2] - 8 * js[:, 3] + 8 * js[:, 4] - js[:, 5])
    return float(np.max(np.abs(d_tau + d_sigma), initial=0.0))


def endpoint_flux(ms: ModeSpectrum, taus) -> float:
    """Max |J^sigma| over both string endpoints."""
    js = current_density(ms, np.asarray(taus, dtype=float)[:, None], (0.0, np.pi))[1]
    return float(np.max(np.abs(js), initial=0.0))


def eom_residual(ms: ModeSpectrum, points, h: float = 1e-3) -> float:
    """Max |(d_tau^2 - d_sigma^2) X - 2 (l/m^3) K^{..} K^T K^{..}| by finite differences.

    Every mode term of X is a standing wave that the wave operator
    annihilates, so only the tau^2 zero-mode motion is left as the source.
    As in divergence_residual, matched stencils would cancel the movers
    exactly; tau is therefore differenced to second order and sigma to
    fourth order, leaving the single truncation term (h^2/12) d_tau^4 X, so
    the residual (in units of X) converges at a genuine second order.  The
    translation C0, which the wave operator annihilates, is left out of the
    differenced X: its rounding, divided by h^2, would swamp that term.
    """
    c = ms.constants
    moving = copy.copy(ms)  # dataclasses.replace would validate it again
    moving.C0 = np.zeros((2, 2))
    x = coordinates(moving, *_stencil(points, h, (1, 0, -1, 0, 0, 0, 0), (0, 0, 0, -2, -1, 1, 2)))
    d_tau = (x[:, 0] - 2 * x[:, 1] + x[:, 2]) / h**2
    d_sigma = (-x[:, 3] + 16 * x[:, 4] - 30 * x[:, 1] + 16 * x[:, 5] - x[:, 6]) / (12 * h**2)
    kup = _raise_both(ms.K)
    source = (2 * np.float64(c.ell) / np.float64(c.m) ** 3) * (kup @ ms.K.T @ kup)
    return float(np.max(np.abs(d_tau - d_sigma - source), initial=0.0))


_TAUS = (0.3, 0.9, 1.7)
_SIGMAS = (0.35, 1.1, 2.2, 2.9)


def string_mode_checks(ms: ModeSpectrum, grid: int) -> dict:
    """{name: (max residual, points)} of the string's diagnostics at _TAUS x _SIGMAS
    (flux and charge at _TAUS, the charge integrated over grid sigma steps), each
    residual in units of the J, X or M^0 it tests."""
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
    m0 = charge_density_coefficients(ms)[0]
    mscale = max(1.0, float(np.max(np.abs(m0))))
    quad_gap = float(np.max(np.abs(charge_quadrature(ms, _TAUS, grid) - m0)))  # keeps a NaN
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
    return {
        "divergence": (div_h / jscale, n_pts),
        "divergence_ratio": (abs(div_ratio - 4.0), n_pts),
        "endpoint_flux": (flux / jscale, len(_TAUS)),
        "charge_quadrature": (quad_gap / mscale, len(_TAUS)),
        "eom": (eom_h / wscale, n_pts),
        "eom_ratio": (abs(eom_ratio - 4.0), n_pts),
        "hermiticity": (herm / xscale, n_pts),
        "evenness": (even / xscale, n_pts),
    }


# -- redshift ------------------------------------------------------------------


def redshift(t_emit: float, t_obsv: float) -> float:
    """z = sqrt(t_obsv / t_emit) - 1 for the tau^2 average motion."""
    if not (np.isfinite(t_emit) and np.isfinite(t_obsv)):
        raise ValueError("times must be finite")
    if t_emit <= 0 or t_obsv <= 0:
        raise NonpositiveTimeError("times must be positive")
    if t_obsv < t_emit:
        raise ValueError("observation cannot precede emission")
    z = float(np.sqrt(t_obsv / t_emit) - 1.0)
    if not np.isfinite(z):
        raise ValueError("t_obsv / t_emit overflows")
    return z


def emission_bound(dt: float, p: float, z_obsv: float) -> float:
    """Lower bound on the emission time given travel time dt and observed z.

    t_emit > dt / ((1 + p z_obsv)^2 - 1); p scales how much of the observed
    redshift is attributed to the quadratic motion.
    """
    if not (np.isfinite(dt) and np.isfinite(p) and np.isfinite(z_obsv)):
        raise ValueError("dt, p and z_obsv must be finite")
    if dt <= 0:
        raise NonpositiveTimeError("travel time must be positive")
    if p <= 0 or z_obsv <= 0:
        raise ValueError("p and z_obsv must be positive")
    with np.errstate(all="ignore"):
        bound = np.float64(dt) / ((1.0 + np.float64(p) * z_obsv) ** 2 - 1.0)
    if not (np.isfinite(bound) and bound > 0):
        raise ValueError("p * z_obsv is out of range for a finite emission bound")
    return float(bound)


# -- JSON ----------------------------------------------------------------------


def cmat_to_json(m: np.ndarray) -> list:
    return [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(2)] for i in range(2)]


def cmat_from_json(obj, name: str) -> np.ndarray:
    a = real_array(obj, name)
    if a.shape != (2, 2, 2):
        raise ValueError(f"{name}: complex 2x2 matrices encode as [[[re, im] x2] x2]")
    return a[..., 0] + 1j * a[..., 1]


def spectrum_to_json(ms: ModeSpectrum) -> dict:
    return {
        "K": cmat_to_json(ms.K),
        "C0": cmat_to_json(ms.C0),
        "modes": [
            {"n": n, "A": cmat_to_json(a), "Anm": cmat_to_json(anm)}
            for n, (a, anm) in sorted(ms.modes.items())
        ],
        "ell": ms.constants.ell,
        "m": ms.constants.m,
        "hbar": ms.constants.hbar,
    }


def _required(obj: dict, key: str, where: str):
    """obj[key], or a ValueError that names the missing key and where it is missing."""
    if key not in obj:
        raise ValueError(f"{where} has no {key!r}")
    return obj[key]


def spectrum_from_json(obj: dict) -> ModeSpectrum:
    values = [obj.get(name, 1.0) for name in ("ell", "m", "hbar")]
    for name, v in zip(("ell", "m", "hbar"), values):
        # float() would read true as 1 and "2" as 2
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{name} must be a number, got {v!r}")
    consts = PhysicalConstants(*map(float, values))
    entries = obj.get("modes", [])
    if not isinstance(entries, list):
        raise ValueError(f"modes must be a list of objects, not {type(entries).__name__}")
    modes = {}
    for i, t in enumerate(entries):
        if not isinstance(t, dict):
            raise ValueError(f"modes[{i}] must be an object, not {type(t).__name__}")
        n = _required(t, "n", f"modes[{i}]")
        # int() would truncate 3.7 and read "3" or true as a mode number
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"mode index must be an integer, got {n!r}")
        if n in modes:
            raise ValueError(f"mode index {n} is listed twice")
        modes[n] = tuple(cmat_from_json(_required(t, name, f"mode {n}"), f"{name} of mode {n}")
                         for name in ("A", "Anm"))
    k, c0 = (cmat_from_json(_required(obj, name, "spectrum"), name) for name in ("K", "C0"))
    return ModeSpectrum(k, c0, modes, consts)


