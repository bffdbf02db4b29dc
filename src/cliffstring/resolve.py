"""Resolution of octonionic Hermitian matrices into generating vectors.

An n x n octonionic Hermitian H is written as a Gram matrix
H_ij = cliff_inner(v_i, cliff_conj(v_j)) of n vectors

    v_i = sum_k a_ik (x) e_k + b_ik (x) f_k

with lower-triangular octonion coefficient matrices a, b.  The elimination
runs column by column like an indefinite Cholesky: the pivot residual

    r_j = H_jj - sum_{k<j} (|a_jk|^2 - |b_jk|^2)

is real; a positive pivot goes to the e-sector (a_jj = sqrt(r_j)), a
negative one to the f-sector (b_jj = sqrt(-r_j)), and a pivot inside the
degeneracy tolerance puts a cancelling unit pair on both sectors
(a_jj = b_jj = 1), which contributes zero to the diagonal while keeping
the off-diagonal solve well defined.  A pivot that is small but not
degenerate relative to its column is split across both sectors with
a_jj^2 - b_jj^2 = r_j and a_jj b_jj = 1; this removes the 1/r_j element
growth of an unpivoted indefinite factorization while staying
column-ordered and triangular.  Every divisor is a real O(1) scalar, so
no octonion division is needed and coefficients stay inside any complex
subspace the input occupies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .octonion import Octonion, mul_arrays, conj_arrays
from .matrices import OctHermitian
from .clifford import TensorVector, gram_matrix
from .minkowski import sigma_set, vector_to_matrix

__all__ = [
    "Resolution",
    "resolve_hermitian",
    "vectors",
    "reconstruction_residual",
    "resolve_spacetime",
]


@dataclass
class Resolution:
    """Lower-triangular octonion coefficient stacks a, b of shape (n, n, 8)."""

    a: np.ndarray
    b: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]


def resolve_hermitian(h: OctHermitian, tol: float = 1e-12) -> Resolution:
    n = h.n
    a = np.zeros((n, n, 8))
    b = np.zeros((n, n, 8))
    for j in range(n):
        r = h.data[j, j, 0]
        for k in range(j):
            r -= a[j, k] @ a[j, k] - b[j, k] @ b[j, k]
        # residuals of H[i][j] after the already-fixed columns k < j
        cs = []
        for i in range(j + 1, n):
            c = h.data[i, j].copy()
            for k in range(j):
                c -= mul_arrays(a[i, k], conj_arrays(a[j, k]))
                c += mul_arrays(b[i, k], conj_arrays(b[j, k]))
            cs.append(c)
        cmax = max((float(np.linalg.norm(c)) for c in cs), default=0.0)
        if abs(r) <= tol:
            # cancelling unit pair: zero diagonal, division-free solve
            a[j, j, 0] = 1.0
            b[j, j, 0] = 1.0
            for c, i in zip(cs, range(j + 1, n)):
                a[i, j] = c
        elif abs(r) < 0.5 * cmax:
            # A small pivot under a large column would amplify the Schur
            # updates by |c|^2 / r and wreck later columns, so split the
            # pivot over both sectors: a_jj^2 - b_jj^2 = r with a_jj b_jj = 1,
            # keeping every divisor O(1).  The update contribution becomes
            # c_i conj(c_k) r / (r^2 + 4), bounded regardless of r.
            q = float(np.hypot(r, 2.0))
            a[j, j, 0] = np.sqrt(0.5 * (q + r))
            b[j, j, 0] = np.sqrt(0.5 * (q - r))
            for c, i in zip(cs, range(j + 1, n)):
                a[i, j] = c * (a[j, j, 0] / q)
                b[i, j] = -c * (b[j, j, 0] / q)
        else:
            if r > 0:
                a[j, j, 0] = np.sqrt(r)
            else:
                b[j, j, 0] = np.sqrt(-r)
            for c, i in zip(cs, range(j + 1, n)):
                if a[j, j, 0] != 0.0:
                    a[i, j] = c / a[j, j, 0]
                else:
                    b[i, j] = -c / b[j, j, 0]
    return Resolution(a, b)


def vectors(res: Resolution) -> list:
    """Generating vectors v_i = sum_k a_ik (x) e_k + b_ik (x) f_k."""
    n = res.n
    out = []
    for i in range(n):
        terms = {}
        for k in range(i + 1):
            if np.any(res.a[i, k]):
                terms[("E", k + 1)] = Octonion(res.a[i, k])
            if np.any(res.b[i, k]):
                terms[("F", k + 1)] = Octonion(res.b[i, k])
        out.append(TensorVector(n, terms))
    return out


def reconstruction_residual(res: Resolution, h: OctHermitian) -> float:
    """Max entry norm of gram(vectors(res)) - H."""
    g = gram_matrix(vectors(res))
    diff = g.data - h.data
    return float(np.max(np.linalg.norm(diff, axis=2)))


def resolve_spacetime(x, subspace: int = 1, tol: float = 1e-12):
    """Resolve a 4-vector's Hermitian matrix into two generating vectors.

    Returns (c1, c2, X) where X = sigma_mu x^mu and gram([c1, c2]) == X.
    The coefficients land in span(1, e_subspace), so the pair realizes the
    point with complex coefficients; c^A inner c^B (unconjugated) vanishes
    identically because only unstarred generators appear.
    """
    s = sigma_set(4, subspace)
    x_mat = vector_to_matrix(np.asarray(x, dtype=float), s)
    res = resolve_hermitian(x_mat, tol=tol)
    c1, c2 = vectors(res)
    return c1, c2, x_mat
