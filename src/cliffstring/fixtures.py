"""Seeded random fixtures shared by the CLI and the test suite.

Every generator takes a numpy Generator so callers control the stream;
identical seeds reproduce identical objects.
"""

import numpy as np

from .matrices import OctHermitian
from .octonion import conj_arrays
from .string_modes import ModeSpectrum, PhysicalConstants, enforce_boundary


def random_spinor(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Octonionic two-spinor as a (2, 8) coefficient array."""
    return rng.uniform(-scale, scale, (2, 8))


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> OctHermitian:
    """n x n octonionic Hermitian matrix, entries uniform in [-scale, scale]^8."""
    data = np.zeros((n, n, 8))
    for i in range(n):
        data[i, i, 0] = rng.uniform(-scale, scale)
        for j in range(i + 1, n):
            data[i, j] = rng.uniform(-scale, scale, 8)
            data[j, i] = conj_arrays(data[i, j])
    return OctHermitian(data, validate=False)  # Hermitian by construction


def random_degenerate_hermitian(
    rng: np.random.Generator, n: int, scale: float = 1.0
) -> OctHermitian:
    """Hermitian matrix whose leading pivot vanishes after one elimination step.

    Row/column 1 is a real multiple of row/column 0, so the Schur complement
    starts with an exact zero diagonal and exercises the degenerate branch of
    the resolution.
    """
    if n < 2:
        raise ValueError("degenerate construction needs n >= 2")
    h = random_hermitian(rng, n, scale).data.copy()
    lam = rng.uniform(0.5, 1.5)
    h[1] = lam * h[0]
    h[:, 1] = lam * h[:, 0]
    h[1, 1] = lam * lam * h[0, 0]
    return OctHermitian(h)


def _complex_entries(rng: np.random.Generator, scale: float) -> np.ndarray:
    return rng.uniform(-scale, scale, (2, 2)) + 1j * rng.uniform(-scale, scale, (2, 2))


def random_complex_hermitian(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    m = _complex_entries(rng, scale)
    return 0.5 * (m + m.conj().T)


def random_spectrum(
    rng: np.random.Generator,
    max_mode: int = 3,
    constants: PhysicalConstants = None,
    scale: float = 1.0,
) -> ModeSpectrum:
    """Boundary-valid open-string mode data with +-n pairing built in.

    A_n amplitudes decay like 1/n^2 so derived grid scans stay tame.
    """
    k = random_complex_hermitian(rng, scale)
    c0 = random_complex_hermitian(rng, scale)
    modes = {}
    for n in range(1, max_mode + 1):
        damp = scale / n**2
        a_pos = random_complex_hermitian(rng, damp)
        a_neg = random_complex_hermitian(rng, damp)
        anm_pos = _complex_entries(rng, damp)
        modes[n] = (a_pos, anm_pos)
        modes[-n] = (a_neg, anm_pos.conj().T)
    return enforce_boundary(k, c0, modes, modes, constants or PhysicalConstants())
