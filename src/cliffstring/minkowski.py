"""Spacetime-to-matrix dictionary: sigma sets, epsilon metric, det form.

A point x is packed into a 2x2 octonionic Hermitian matrix X = sigma_mu x^mu.
A sigma set is a plain (dim, 2, 2, 8) coefficient array, and two are provided:

* dim 4: identity plus the three standard Pauli matrices, with the complex
  unit realized as the imaginary octonion e_1.
* dim 10: sigma^0 = I, sigma^1 = diag(1, -1), and sigma^(k+2) =
  [[0, e_k*], [e_k, 0]] for k = 0..7, covering the full octonion algebra.

For Hermitian X = [[a, c], [c*, b]] the determinant form a b - c c* is real
and equals the Minkowski length x_mu x^mu of the packed point.

Spinor indices are raised and lowered with the antisymmetric epsilon EPS,
eps_12 = eps^12 = 1, V^A = eps^{AB} V_B and V_B = V^A eps_{AB}; dotted
indices mirror the undotted convention.
"""

from __future__ import annotations

import numpy as np

from .octonion import mul_arrays, conj_arrays
from .matrices import OctHermitian, NotHermitianError, hermiticity_residual

__all__ = [
    "EPS",
    "sigma_set",
    "sigma4_complex",
    "vector_to_matrix",
    "matrix_to_vector",
    "det2",
    "eta4",
]

# One numeric matrix serves for eps_{AB} and eps^{AB} (and their dotted twins).
EPS = np.array([[0.0, 1.0], [-1.0, 0.0]])


def eta4() -> np.ndarray:
    return np.diag([1.0, -1.0, -1.0, -1.0])


def sigma_set(dim: int) -> np.ndarray:
    """The dim 4 or dim 10 sigma matrices as a (dim, 2, 2, 8) coefficient array."""
    if dim not in (4, 10):
        raise ValueError("dim must be 4 or 10")
    mats = np.zeros((dim, 2, 2, 8))
    mats[0, 0, 0, 0] = mats[0, 1, 1, 0] = 1.0  # identity
    if dim == 4:
        mats[1, 0, 1, 0] = mats[1, 1, 0, 0] = 1.0  # sigma_x
        mats[2, 0, 1], mats[2, 1, 0] = -np.eye(8)[1], np.eye(8)[1]  # sigma_y with i -> e_1
        mats[3, 0, 0, 0], mats[3, 1, 1, 0] = 1.0, -1.0  # sigma_z
    else:
        mats[1, 0, 0, 0], mats[1, 1, 1, 0] = 1.0, -1.0
        mats[2:, 0, 1] = conj_arrays(np.eye(8))  # [[0, e_k*], [e_k, 0]]
        mats[2:, 1, 0] = np.eye(8)
    return mats


def sigma4_complex() -> np.ndarray:
    """The 4D set as plain complex (4, 2, 2) matrices."""
    mats = sigma_set(4)
    return mats[..., 0] + 1j * mats[..., 1]


def vector_to_matrix(x, s: np.ndarray) -> OctHermitian:
    x = np.asarray(x, dtype=float)
    if x.shape != (len(s),):
        raise ValueError(f"expected {len(s)} components, got {x.shape}")
    data = np.einsum("m,mabk->abk", x, s)
    return OctHermitian(data, validate=False)


def matrix_to_vector(x_mat: OctHermitian, s: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Inverse packing, x^mu = 1/2 Re tr(sigma^mu X); raises off finite Hermitian input."""
    if x_mat.n != 2:
        raise ValueError("expected a 2x2 matrix")
    if not hermiticity_residual(x_mat.data) <= tol:  # a NaN or inf entry fails too
        raise NotHermitianError("matrix_to_vector needs a finite Hermitian matrix")
    # prod[mu, a, b] = sigma^mu_ab X_ba, so the trace sums its real parts
    prod = mul_arrays(s, x_mat.data.transpose(1, 0, 2))
    return 0.5 * prod[..., 0].sum(axis=(1, 2))


def det2(data: np.ndarray) -> np.ndarray:
    """Determinant form a b - c c* of each (..., 2, 2, 8) stack [[a, c], [., b]].

    It reads a, b and c only, so it is the real det of a Hermitian stack,
    which it does not check.
    """
    c = data[..., 0, 1, :]  # c @ c per row below rounds as a single (8,) dot does
    return data[..., 0, 0, 0] * data[..., 1, 1, 0] - (c[..., None, :] @ c[..., :, None])[..., 0, 0]
