"""Open-string Fourier-mode dynamics at the inner-product level.

All mode content enters through 2x2 complex matrices of inner products
between coefficient vectors: K_{A Bdot} for the zero mode, A_n (Hermitian)
for equal-mode pairs and A_{n,-n} for opposite-mode pairs, with the input
constraint A_{-n,n} = (A_{n,-n})+.  Left- and right-moving null wave
vectors k^L_alpha = (1, 1) and k^R_alpha = (1, -1) are raised with the
worldsheet metric eta = diag(1, -1); open-string boundary conditions set
the left and right matrices equal.

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

The zero-mode average motion is quadratic in tau, which yields the
gravitational-redshift relation z = sqrt(t_obsv / t_emit) - 1 and the
emission-time bound implemented at the end of the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .minkowski import EPS, sigma4_complex

__all__ = [
    "BoundaryViolationError",
    "NonpositiveTimeError",
    "PhysicalConstants",
    "ModeSpectrum",
    "enforce_boundary",
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

# raised worldsheet wave vectors (tau, sigma), eta = diag(1, -1)
K_LEFT_UP = (1.0, -1.0)
K_RIGHT_UP = (1.0, 1.0)


class BoundaryViolationError(ValueError):
    """Left and right mover data disagree at the string endpoints."""


class NonpositiveTimeError(ValueError):
    """Cosmological times must be positive."""


@dataclass(frozen=True)
class PhysicalConstants:
    ell: float = 1.0
    m: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.ell <= 0 or self.m <= 0 or self.hbar <= 0:
            raise ValueError("constants must be positive")


def _check_hermitian(m, name, tol):
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise ValueError(f"{name} must be Hermitian within {tol:.1e}")


@dataclass
class ModeSpectrum:
    """Inner-product data: zero mode K, offset C0, and mode matrices.

    modes maps n != 0 to the pair (A_n, A_{n,-n}); missing entries are zero.
    Validation enforces Hermitian K, C0 and A_n, and the opposite-mode
    pairing A_{-n,n} = (A_{n,-n})+.
    """

    K: np.ndarray
    C0: np.ndarray
    modes: dict = field(default_factory=dict)
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    tol: float = 1e-12

    def __post_init__(self):
        self.K = np.asarray(self.K, dtype=complex)
        self.C0 = np.asarray(self.C0, dtype=complex)
        _check_hermitian(self.K, "K", self.tol)
        _check_hermitian(self.C0, "C0", self.tol)
        clean = {}
        for n, (a, anm) in self.modes.items():
            n = int(n)
            if n == 0:
                raise ValueError("mode index 0 belongs to the zero mode K")
            a = np.asarray(a, dtype=complex)
            anm = np.asarray(anm, dtype=complex)
            _check_hermitian(a, f"A_{n}", self.tol)
            clean[n] = (a, anm)
        for n, (_, anm) in clean.items():
            other = clean.get(-n)
            anm_neg = other[1] if other is not None else np.zeros((2, 2), complex)
            if np.max(np.abs(anm_neg - anm.conj().T)) > self.tol:
                raise ValueError(
                    f"pairing violated: A_({-n},{n}) must equal the adjoint of A_({n},{-n})"
                )
        self.modes = clean


def enforce_boundary(K, C0, left_modes, right_modes, constants=None, tol=1e-12) -> ModeSpectrum:
    """Open-string endpoints force left and right mover data to coincide."""
    keys = set(left_modes) | set(right_modes)
    zero = (np.zeros((2, 2), complex), np.zeros((2, 2), complex))
    merged = {}
    for n in keys:
        al, anml = left_modes.get(n, zero)
        ar, anmr = right_modes.get(n, zero)
        gap = max(np.max(np.abs(np.asarray(al) - np.asarray(ar))),
                  np.max(np.abs(np.asarray(anml) - np.asarray(anmr))))
        if gap > tol:
            raise BoundaryViolationError(
                f"left/right mode {n} differ by {gap:.3e} (> {tol:.1e})"
            )
        merged[n] = (np.asarray(al, dtype=complex), np.asarray(anml, dtype=complex))
    return ModeSpectrum(K, C0, merged, constants or PhysicalConstants(), tol)


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


def current_density(ms: ModeSpectrum, tau: float, sigma: float):
    """(J^tau, J^sigma) as symmetric complex 2x2 matrices, for any real sigma."""
    c = ms.constants
    kr = _raise_dotted(ms.K)
    out = []
    for alpha in range(2):
        t = np.zeros((2, 2), complex)
        for n, (a, anm) in ms.modes.items():
            left = a + anm * np.exp(-1j * n * (tau + sigma))
            right = a + anm * np.exp(-1j * n * (tau - sigma))
            t += (K_LEFT_UP[alpha] * left + K_RIGHT_UP[alpha] * right) / n
        g = kr @ t.T
        out.append((2j * c.ell / c.m) * (g + g.T))
    return out[0], out[1]


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


def charge_quadrature(ms: ModeSpectrum, tau: float, n_sigma: int = 512) -> np.ndarray:
    """Trapezoid integral of J^tau over sigma in [0, pi]."""
    sig = np.linspace(0.0, np.pi, n_sigma + 1)
    vals = np.array([current_density(ms, tau, s)[0] for s in sig])
    return np.trapezoid(vals, sig, axis=0)


def coordinates(ms: ModeSpectrum, tau: float, sigma: float) -> np.ndarray:
    """X^{A Bdot} as a Hermitian complex 2x2 matrix, for any real sigma."""
    c = ms.constants
    kup = _raise_both(ms.K)
    mid = ms.K * tau**2
    for n, (a, anm) in ms.modes.items():
        mid = mid + 8.0 / n**2 * (a - anm * np.exp(-1j * n * tau) * np.cos(n * sigma))
    return ms.C0 + (c.ell / c.m**3) * (kup @ mid.T @ kup)


# -- residual diagnostics ------------------------------------------------------


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
    worst = 0.0
    c = 1.0 / (12 * h)
    for tau, sigma in points:
        jt_p = current_density(ms, tau + h, sigma)[0]
        jt_m = current_density(ms, tau - h, sigma)[0]
        d_tau = (jt_p - jt_m) / (2 * h)
        js = [current_density(ms, tau, sigma + k * h)[1] for k in (-2, -1, 1, 2)]
        d_sigma = c * (js[0] - 8 * js[1] + 8 * js[2] - js[3])
        worst = max(worst, float(np.max(np.abs(d_tau + d_sigma))))
    return worst


def endpoint_flux(ms: ModeSpectrum, taus) -> float:
    """Max |J^sigma| over both string endpoints."""
    worst = 0.0
    for tau in taus:
        for sigma in (0.0, np.pi):
            worst = max(worst, float(np.max(np.abs(current_density(ms, tau, sigma)[1]))))
    return worst


def _mode_functions(ms: ModeSpectrum):
    """Self-consistent (phi, psi) coefficient functions per mode symbol.

    phi multiplies the raised zero-mode matrix inside the integrated
    solution; psi is the corresponding pair of wave-equation coefficients.
    Returned as (phi(tau, sigma), (psi_tau, psi_sigma)(tau, sigma), weight).
    """
    syms = [(lambda tau, sigma: tau,
             lambda tau, sigma: (1.0 + 0j, 0.0 + 0j),
             float(np.max(np.abs(ms.K))))]
    for n, (a, anm) in ms.modes.items():
        w = float(max(np.max(np.abs(a)), np.max(np.abs(anm)), 1e-30))
        for kvec, s in ((K_LEFT_UP, +1.0), (K_RIGHT_UP, -1.0)):
            def phi(tau, sigma, n=n, s=s):
                return -2j / n * np.exp(1j * n * (tau + s * sigma) / 2)

            def psi(tau, sigma, n=n, s=s, kvec=kvec):
                e = np.exp(1j * n * (tau + s * sigma) / 2)
                return (kvec[0] * e, kvec[1] * e)

            syms.append((phi, psi, w))
    return syms


def eom_residual(ms: ModeSpectrum, points, h: float = 1e-3) -> float:
    """Finite-difference residual of both matrix equations of motion.

    First equation: d_alpha C^A = (sqrt(l m)/m^2) eta_{alpha beta} P^{A Bdot}
    D^beta_Bdot with P = K, checked per mode symbol against the integrated
    solution.  Second: d_alpha D^alpha = 0.  Centered differences of step h,
    so the residual shrinks as O(h^2).
    """
    c = ms.constants
    kup = _raise_both(ms.K)
    kn = float(np.max(np.abs(kup)))
    pref = np.sqrt(c.ell * c.m) / c.m**2
    eta = (1.0, -1.0)
    worst = 0.0
    for phi, psi, w in _mode_functions(ms):
        for tau, sigma in points:
            dphi = ((phi(tau + h, sigma) - phi(tau - h, sigma)) / (2 * h),
                    (phi(tau, sigma + h) - phi(tau, sigma - h)) / (2 * h))
            ps = psi(tau, sigma)
            for alpha in range(2):
                r1 = abs(dphi[alpha] - eta[alpha] * ps[alpha]) * pref * kn
                worst = max(worst, r1)
            div = ((psi(tau + h, sigma)[0] - psi(tau - h, sigma)[0]) / (2 * h)
                   + (psi(tau, sigma + h)[1] - psi(tau, sigma - h)[1]) / (2 * h))
            worst = max(worst, abs(div) * w)
    return worst


# -- redshift ------------------------------------------------------------------


def redshift(t_emit: float, t_obsv: float) -> float:
    """z = sqrt(t_obsv / t_emit) - 1 for the tau^2 average motion."""
    if t_emit <= 0 or t_obsv <= 0:
        raise NonpositiveTimeError("times must be positive")
    if t_obsv < t_emit:
        raise ValueError("observation cannot precede emission")
    return float(np.sqrt(t_obsv / t_emit) - 1.0)


def emission_bound(dt: float, p: float, z_obsv: float) -> float:
    """Lower bound on the emission time given travel time dt and observed z.

    t_emit > dt / ((1 + p z_obsv)^2 - 1); p scales how much of the observed
    redshift is attributed to the quadratic motion.
    """
    if dt <= 0:
        raise NonpositiveTimeError("travel time must be positive")
    if p <= 0 or z_obsv <= 0:
        raise ValueError("p and z_obsv must be positive")
    return float(dt / ((1.0 + p * z_obsv) ** 2 - 1.0))


# -- JSON ----------------------------------------------------------------------


def cmat_to_json(m: np.ndarray) -> list:
    return [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(2)] for i in range(2)]


def cmat_from_json(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    if a.shape != (2, 2, 2):
        raise ValueError("complex 2x2 matrices encode as [[[re, im] x2] x2]")
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


def spectrum_from_json(obj: dict, tol: float = 1e-12) -> ModeSpectrum:
    consts = PhysicalConstants(
        float(obj.get("ell", 1.0)), float(obj.get("m", 1.0)), float(obj.get("hbar", 1.0))
    )
    modes = {
        int(t["n"]): (cmat_from_json(t["A"]), cmat_from_json(t["Anm"]))
        for t in obj.get("modes", [])
    }
    return ModeSpectrum(
        cmat_from_json(obj["K"]), cmat_from_json(obj["C0"]), modes, consts, tol
    )

