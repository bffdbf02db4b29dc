"""Resolution of octonionic Hermitian matrices into generating vectors.

An n x n octonionic Hermitian H is written as a Gram matrix
H_ij = cliff_inner(v_i, cliff_conj(v_j)) of n vectors

    v_i = sum_k a_ik (x) e_k + b_ik (x) f_k,

that is H = a a^+ - b b^+ for octonion coefficient matrices a, b.  The
elimination is a right-looking indefinite Cholesky with diagonal
pivoting: the Schur complement S starts as H, and step j swaps the
remaining row and column with the largest |S_ii| into place j.  Its pivot
r = S_jj is real.  A positive pivot goes to the e-sector (a_jj = sqrt(r)),
a negative one to the f-sector (b_jj = sqrt(-r)); a pivot that is small
but not degenerate relative to its column is split across both sectors
with a_jj^2 - b_jj^2 = r and a_jj b_jj = 1; a pivot inside the degeneracy
tolerance puts a cancelling unit pair on both sectors (a_jj = b_jj = 1),
which adds zero to the diagonal and keeps the off-diagonal solve well
defined.  The trailing block then takes the rank-2 update
S_il -= a_ij conj(a_lj) - b_ij conj(b_lj), one octonion matrix product.
Every divisor is a real scalar, so no octonion division is needed and
coefficients stay inside any complex subspace the input occupies.
Pivoting bounds the element growth that drove an in-order elimination's
residual to 1e-3 at n = 64 (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 11, covers growth under diagonal pivoting).

The factors are triangular in pivot order: perm[j] is the row of H
eliminated at step j, and a[perm], b[perm] are lower triangular.  a and b
keep H's own row order, so a a^+ - b b^+ is H itself; column k (the
generators e_{k+1}, f_{k+1}) belongs to step k.  vectors() lays a and b out
as an (n, 4, n, 8) stack of generating vectors in clifford's layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .octonion import conj_arrays
from .matrices import OctHermitian, omat_adjoint, omat_mul
from .minkowski import sigma_set, vector_to_matrix

__all__ = [
    "Resolution",
    "resolve_hermitian",
    "vectors",
    "reconstruction_errors",
    "reconstruction_residual",
    "resolve_spacetime",
]


@dataclass
class Resolution:
    """Coefficient stacks a, b of shape (n, n, 8) in H's row order.

    perm[j] is the row eliminated at step j (a[perm] and b[perm] are lower
    triangular); pivots counts the steps per branch.
    """

    a: np.ndarray
    b: np.ndarray
    perm: np.ndarray
    pivots: dict

    @property
    def n(self) -> int:
        return self.a.shape[0]


def resolve_hermitian(h: OctHermitian, tol: float = 1e-12) -> Resolution:
    n = h.n
    s = h.data.copy()
    a = np.zeros((n, n, 8))
    b = np.zeros((n, n, 8))
    perm = np.arange(n)
    pivots = dict.fromkeys(("regular", "split", "degenerate"), 0)
    for j in range(n):
        p = j + int(np.argmax(np.abs(s[j:, j:, 0].diagonal())))
        if p != j:
            for rows in (s, a, b, perm):
                rows[[j, p]] = rows[[p, j]]
            s[:, [j, p]] = s[:, [p, j]]
        r = s[j, j, 0]
        c = s[j + 1:, j]
        cmax = float(np.max(np.linalg.norm(c, axis=1), initial=0.0))
        if abs(r) <= tol:
            # cancelling unit pair: zero diagonal, division-free solve
            kind = "degenerate"
            a[j, j, 0] = 1.0
            b[j, j, 0] = 1.0
            a[j + 1:, j] = c
        elif abs(r) < 0.5 * cmax:
            # A small pivot under a large column would amplify the Schur
            # updates by |c|^2 / r and wreck later columns, so split the
            # pivot over both sectors: a_jj^2 - b_jj^2 = r with a_jj b_jj = 1,
            # keeping every divisor O(1).  The update contribution becomes
            # c_i conj(c_k) r / (r^2 + 4), bounded regardless of r.
            kind = "split"
            q = float(np.hypot(r, 2.0))
            a[j, j, 0] = np.sqrt(0.5 * (q + r))
            b[j, j, 0] = np.sqrt(0.5 * (q - r))
            a[j + 1:, j] = c * (a[j, j, 0] / q)
            b[j + 1:, j] = -c * (b[j, j, 0] / q)
        else:
            kind = "regular"
            if r > 0:
                a[j, j, 0] = np.sqrt(r)
                a[j + 1:, j] = c / a[j, j, 0]
            else:
                b[j, j, 0] = np.sqrt(-r)
                b[j + 1:, j] = -c / b[j, j, 0]
        pivots[kind] += 1
        # S_il -= a_i conj(a_l) - b_i conj(b_l): an (m, 2) by (2, m) octonion product
        x = np.stack([a[j + 1:, j], b[j + 1:, j]], axis=1)
        y = conj_arrays(np.stack([a[j + 1:, j], -b[j + 1:, j]]))
        s[j + 1:, j + 1:] -= omat_mul(x, y)
    order = np.argsort(perm)
    return Resolution(a[order], b[order], perm, pivots)


def vectors(res: Resolution) -> np.ndarray:
    """Generating vectors v_i = sum_k a_ik (x) e_k + b_ik (x) f_k as an
    (n, 4, n, 8) stack in clifford's layout (a in the E slot, b in the F slot)."""
    out = np.zeros((res.n, 4, res.n, 8))
    out[:, 0], out[:, 2] = res.a, res.b
    return out


def reconstruction_errors(res: Resolution, h: OctHermitian) -> np.ndarray:
    """(n, n) entry norms of a a^+ - b b^+ - H."""
    a, b = res.a, res.b
    g = omat_mul(a, omat_adjoint(a)) - omat_mul(b, omat_adjoint(b))
    return np.linalg.norm(g - h.data, axis=2)


def reconstruction_residual(res: Resolution, h: OctHermitian) -> float:
    """Max entry norm of a a^+ - b b^+ - H."""
    return float(np.max(reconstruction_errors(res, h)))


def resolve_spacetime(x):
    """Resolve a 4-vector's Hermitian matrix into two generating vectors.

    Returns (c1, c2, X), with c1, c2 (4, 2, 8) vector arrays, X = sigma_mu x^mu
    and gram_matrix([c1, c2]) == X.  The coefficients land in span(1, e_1),
    so the pair realizes the point with complex coefficients; c^A inner c^B
    (unconjugated) vanishes identically because only unstarred generators
    appear.
    """
    x_mat = vector_to_matrix(np.asarray(x, dtype=float), sigma_set(4))
    res = resolve_hermitian(x_mat)
    c1, c2 = vectors(res)
    return c1, c2, x_mat
