"""Seeded random fixtures shared by the CLI and the test suite.

Every generator takes a numpy Generator so callers control the stream;
identical seeds reproduce identical objects.
"""

import numpy as np

from .matrices import OctHermitian
from .octonion import conj_arrays
from .string_modes import ModeSpectrum


def random_spinor(rng: np.random.Generator) -> np.ndarray:
    """Octonionic two-spinor as a (2, 8) coefficient array, uniform in [-1, 1]."""
    return rng.uniform(-1.0, 1.0, (2, 8))


def random_hermitian(rng: np.random.Generator, n: int) -> OctHermitian:
    """n x n octonionic Hermitian matrix, entries uniform in [-1, 1]^8.

    One draw of n + 8 n (n - 1) / 2 values fills the upper triangle row by
    row: each row's real diagonal entry, then the 8 coefficients of each
    entry right of it.  These are the slots of `upper` in C order.
    """
    i, j = np.triu_indices(n, 1)
    upper = np.zeros((n, n, 8), dtype=bool)
    upper[i, j] = True
    upper[np.arange(n), np.arange(n), 0] = True
    data = np.zeros((n, n, 8))
    data[upper] = rng.uniform(-1.0, 1.0, n + 4 * n * (n - 1))
    data[j, i] = conj_arrays(data[i, j])
    return OctHermitian(data, validate=False)  # Hermitian by construction


def random_degenerate_hermitian(rng: np.random.Generator, n: int) -> OctHermitian:
    """Hermitian matrix whose leading pivot vanishes after one elimination step.

    Row/column 1 is a real multiple of row/column 0, so the Schur complement
    starts with an exact zero diagonal and exercises the degenerate branch of
    the resolution.
    """
    if n < 2:
        raise ValueError("degenerate construction needs n >= 2")
    h = random_hermitian(rng, n).data.copy()
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


def random_spectrum(rng: np.random.Generator, max_mode: int = 3) -> ModeSpectrum:
    """Open-string mode data with +-n pairing built in, unit constants.

    A_n amplitudes decay like 1/n^2 so derived grid scans stay tame.  Modes
    are held in sorted-n order, as spectrum_from_json reads them back, so
    the spectrum and its JSON round trip evaluate bit for bit alike.
    """
    k = random_complex_hermitian(rng)
    c0 = random_complex_hermitian(rng)
    modes = {}
    for n in range(1, max_mode + 1):
        damp = 1.0 / n**2
        a_pos = random_complex_hermitian(rng, damp)
        a_neg = random_complex_hermitian(rng, damp)
        anm_pos = _complex_entries(rng, damp)
        modes[n] = (a_pos, anm_pos)
        modes[-n] = (a_neg, anm_pos.conj().T)
    return ModeSpectrum(k, c0, dict(sorted(modes.items())))
