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

import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .matrices import real_array
from .minkowski import EPS, sigma4_complex

__all__ = [
    "NonpositiveTimeError",
    "PhysicalConstants",
    "ModeSpectrum",
    "momentum_vector",
    "mass_shell_residual",
    "current_density",
    "charge_density_coefficients",
    "charge_quadrature",
    "coordinates",
    "divergence_residual",
    "endpoint_flux",
    "eom_residual",
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


def momentum_vector(ms: ModeSpectrum) -> np.ndarray:
    """p^mu = 1/2 tr(sigma^mu K), real for Hermitian K."""
    sig = sigma4_complex()
    return np.array([0.5 * np.trace(sig[mu] @ ms.K).real for mu in range(4)])


def mass_shell_residual(ms: ModeSpectrum) -> float:
    p = momentum_vector(ms)
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    return abs(float(p @ eta @ p) - float(np.linalg.det(ms.K).real))


def _matrix_axes(tau, sigma):
    """tau and sigma broadcast to one float shape, plus two unit matrix axes."""
    tau, sigma = np.broadcast_arrays(np.asarray(tau, dtype=float), np.asarray(sigma, dtype=float))
    return tau[..., None, None], sigma[..., None, None]


def current_density(ms: ModeSpectrum, tau, sigma):
    """(J^tau, J^sigma) as symmetric complex 2x2 matrices, for any real sigma.

    tau and sigma broadcast against each other; each result has shape
    (..., 2, 2), a plain 2x2 matrix for scalar arguments.
    """
    c = ms.constants
    tau, sigma = _matrix_axes(tau, sigma)
    # raised null wave vectors: k^L = (1, -1), k^R = (1, 1) in (tau, sigma)
    t_tau = t_sigma = np.zeros(tau.shape[:-2] + (2, 2), complex)
    plus, minus = tau + sigma, tau - sigma
    for n, (a, anm) in ms.modes.items():
        left = a + anm * np.exp(-1j * n * plus)
        right = a + anm * np.exp(-1j * n * minus)
        t_tau = t_tau + (left + right) / n
        t_sigma = t_sigma + (right - left) / n
    kr = _raise_dotted(ms.K)
    g_tau, g_sigma = kr @ t_tau.mT, kr @ t_sigma.mT
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
    (..., 2, 2), a plain 2x2 matrix for scalar arguments.
    """
    c = ms.constants
    tau, sigma = _matrix_axes(tau, sigma)
    kup = _raise_both(ms.K)
    mid = ms.K * tau**2
    for n, (a, anm) in ms.modes.items():
        mid = mid + 8.0 / n**2 * (a - anm * np.exp(-1j * n * tau) * np.cos(n * sigma))
    # float64, so a cube of m past the float range gives inf or 0, not an exception
    return ms.C0 + (np.float64(c.ell) / np.float64(c.m) ** 3) * (kup @ mid.mT @ kup)


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
    moving = replace(ms, C0=np.zeros((2, 2)))
    x = coordinates(moving, *_stencil(points, h, (1, 0, -1, 0, 0, 0, 0), (0, 0, 0, -2, -1, 1, 2)))
    d_tau = (x[:, 0] - 2 * x[:, 1] + x[:, 2]) / h**2
    d_sigma = (-x[:, 3] + 16 * x[:, 4] - 30 * x[:, 1] + 16 * x[:, 5] - x[:, 6]) / (12 * h**2)
    kup = _raise_both(ms.K)
    source = (2 * np.float64(c.ell) / np.float64(c.m) ** 3) * (kup @ ms.K.T @ kup)
    return float(np.max(np.abs(d_tau - d_sigma - source), initial=0.0))


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


def spectrum_from_json(obj: dict) -> ModeSpectrum:
    values = [obj.get(name, 1.0) for name in ("ell", "m", "hbar")]
    for name, v in zip(("ell", "m", "hbar"), values):
        # float() would read true as 1 and "2" as 2
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{name} must be a number, got {v!r}")
    consts = PhysicalConstants(*map(float, values))
    modes = {}
    for t in obj.get("modes", []):
        n = t["n"]
        # int() would truncate 3.7 and read "3" or true as a mode number
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"mode index must be an integer, got {n!r}")
        if n in modes:
            raise ValueError(f"mode index {n} is listed twice")
        modes[n] = (cmat_from_json(t["A"], f"A of mode {n}"),
                    cmat_from_json(t["Anm"], f"Anm of mode {n}"))
    k, c0 = (cmat_from_json(obj[name], name) for name in ("K", "C0"))
    return ModeSpectrum(k, c0, modes, consts)

