"""Matrices with octonion entries.

Entries are stored as a stacked coefficient array of shape (n, n, 8); the
last axis is the octonion coefficient vector.  Only the operations the rest
of the package needs are provided: products, adjoints, Hermiticity checks,
and JSON round-trips.  Matrix products keep the left-to-right order of the
octonion factors, which matters everywhere here.
"""

from __future__ import annotations

import numbers

import numpy as np

from .octonion import conj_arrays, STRUCTURE

__all__ = [
    "NotHermitianError",
    "OctHermitian",
    "omat_mul",
    "omat_adjoint",
    "hermiticity_residual",
    "real_array",
]


# b @ _RIGHT_TABLE is the right-multiplication matrix R_b of an octonion b,
# flattened over (i, k): a @ R_b = a b.  Built once from STRUCTURE.
_RIGHT_TABLE = STRUCTURE.transpose(1, 0, 2).reshape(8, 64)
_RIGHT_TABLE.setflags(write=False)


class NotHermitianError(ValueError):
    """Raised when a matrix required to be Hermitian is not."""


def real_array(x, name: str) -> np.ndarray:
    """Nested lists of real numbers as a float array, in one scan of their types.

    np.asarray(x, dtype=float) would read true, "0.5" and null (as NaN) as
    numbers; here the first such entry, or a ragged list, raises ValueError.
    """
    values = np.asarray(x, dtype=object)
    flat = values.ravel().tolist()
    kinds = {k for k in set(map(type, flat)) if k is bool or not issubclass(k, numbers.Real)}
    if kinds:
        bad = next(v for v in flat if type(v) in kinds)
        raise ValueError(f"{name} must hold real numbers, got {bad!r}")
    return values.astype(float)


def omat_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Octonionic matrix product of (..., n, m, 8) by (..., m, p, 8) stacks.

    One real GEMM per leading index: y's entries become their (8, 8)
    right-multiplication matrices, laid out as an (8 m, 8 p) block matrix
    that x, read as an (n, 8 m) real matrix, multiplies.  Leading axes
    broadcast.
    """
    n, m, _ = x.shape[-3:]
    p = y.shape[-2]
    right = (y.reshape(-1, 8) @ _RIGHT_TABLE).reshape(y.shape[:-3] + (m, p, 8, 8))
    right = right.swapaxes(-3, -2).reshape(y.shape[:-3] + (8 * m, 8 * p))
    prod = x.reshape(x.shape[:-3] + (n, 8 * m)) @ right
    return prod.reshape(prod.shape[:-1] + (p, 8))


def omat_adjoint(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each (..., n, m, 8) stack."""
    return conj_arrays(x.swapaxes(-3, -2))


def hermiticity_residual(data: np.ndarray) -> float:
    return float(np.max(np.abs(data - omat_adjoint(data))))


class OctHermitian:
    """n x n octonionic Hermitian matrix: H_ji = conj(H_ij), real diagonal."""

    __slots__ = ("data",)

    def __init__(self, data, tol: float = 1e-12, validate: bool = True):
        d = np.asarray(data, dtype=float)
        if d.ndim != 3 or d.shape[0] != d.shape[1] or d.shape[2] != 8:
            raise ValueError(f"expected (n, n, 8) coefficient array, got {d.shape}")
        if validate and not np.all(np.isfinite(d)):
            raise ValueError("matrix entries must be finite")
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
            h = cls(real_array(obj["entries"], "entries"), tol=tol)
            n = obj.get("n", h.n)
            # 1.0 == 1 and true == 1, so only an int can declare the size
            if isinstance(n, bool) or not isinstance(n, int):
                raise ValueError(f"declared n must be an integer, got {n!r}")
            if n != h.n:
                raise ValueError(f"declared n = {n!r}, but the entries are {h.n} x {h.n}")
            return h
        if {"a", "b", "c"} <= obj.keys():
            c = real_array(obj["c"], "c")
            if c.shape != (8,):
                raise ValueError("off-diagonal entry needs 8 coefficients")
            data = np.zeros((2, 2, 8))
            for i, key in enumerate("ab"):
                value = real_array(obj[key], key)
                if value.ndim:
                    raise ValueError(f"{key} must be a real number, got {obj[key]!r}")
                data[i, i, 0] = value
            data[0, 1] = c
            data[1, 0] = conj_arrays(c)
            return cls(data, tol=tol)
        raise ValueError("unrecognized Hermitian matrix encoding")

