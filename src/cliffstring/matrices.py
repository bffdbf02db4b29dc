"""Matrices with octonion entries.

Entries are stored as a stacked coefficient array of shape (n, n, 8); the
last axis is the octonion coefficient vector.  Only the operations the rest
of the package needs are provided: products, adjoints, Hermiticity checks,
and JSON round-trips.  Matrix products keep the left-to-right order of the
octonion factors, which matters everywhere here.
"""

from __future__ import annotations

import numpy as np

from .octonion import conj_arrays, STRUCTURE

__all__ = [
    "NotHermitianError",
    "OctHermitian",
    "omat_mul",
    "omat_adjoint",
    "omat_identity",
    "hermiticity_residual",
]


class NotHermitianError(ValueError):
    """Raised when a matrix required to be Hermitian is not."""


def omat_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Octonionic matrix product of (n, m, 8) by (m, p, 8) stacks."""
    return np.einsum("pqi,qrj,ijk->prk", x, y, STRUCTURE)


def omat_adjoint(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return conj_arrays(x.transpose(1, 0, 2))


def omat_identity(n: int) -> np.ndarray:
    out = np.zeros((n, n, 8))
    out[np.arange(n), np.arange(n), 0] = 1.0
    return out


def hermiticity_residual(data: np.ndarray) -> float:
    return float(np.max(np.abs(data - omat_adjoint(data))))


class OctHermitian:
    """n x n octonionic Hermitian matrix: H_ji = conj(H_ij), real diagonal."""

    __slots__ = ("data",)

    def __init__(self, data, tol: float = 1e-12, validate: bool = True):
        d = np.asarray(data, dtype=float)
        if d.ndim != 3 or d.shape[0] != d.shape[1] or d.shape[2] != 8:
            raise ValueError(f"expected (n, n, 8) coefficient array, got {d.shape}")
        if validate and hermiticity_residual(d) > tol:
            raise NotHermitianError(
                f"hermiticity residual {hermiticity_residual(d):.3e} exceeds {tol:.1e}"
            )
        self.data = d.copy()

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        return f"OctHermitian(n={self.n})"

    # -- JSON ------------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "entries": self.data.tolist()}

    @classmethod
    def from_json(cls, obj: dict, tol: float = 1e-12) -> "OctHermitian":
        """Accepts {"n", "entries"} or the compact 2x2 {"a", "b", "c"} form."""
        if "entries" in obj:
            return cls(np.asarray(obj["entries"], dtype=float), tol=tol)
        if {"a", "b", "c"} <= obj.keys():
            c = np.asarray(obj["c"], dtype=float)
            if c.shape != (8,):
                raise ValueError("off-diagonal entry needs 8 coefficients")
            data = np.zeros((2, 2, 8))
            data[0, 0, 0] = float(obj["a"])
            data[1, 1, 0] = float(obj["b"])
            data[0, 1] = c
            data[1, 0] = conj_arrays(c)
            return cls(data, tol=tol)
        raise ValueError("unrecognized Hermitian matrix encoding")

