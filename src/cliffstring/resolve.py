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
generators e_{k+1}, f_{k+1}) belongs to step k.  Step j writes its
diagonal entry and column straight into H's rows perm[j] and perm[j+1:],
so the factors are never swapped: only S's rows and columns, and perm, are.  vectors() lays a and b out
as an (n, 4, n, 8) stack of generating vectors in clifford's layout.
"""

from __future__ import annotations

import math
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


# x.swapaxes(0, 1) * _UPDATE_SIGNS is conj_arrays of the stacked (a column, -b column)
_UPDATE_SIGNS = np.stack([conj_arrays(np.ones(8)), -conj_arrays(np.ones(8))])[:, None]
_UPDATE_SIGNS.setflags(write=False)


def resolve_hermitian(h: OctHermitian, tol: float = 1e-12) -> Resolution:
    n = h.n
    s = h.data.copy()
    # factors[i, k] = (a_ik, b_ik) in H's row order: step j writes row perm[j]
    # and rows perm[j + 1:] of column j, so a and b are never swapped
    factors = np.zeros((n, n, 2, 8))
    perm = np.arange(n)
    pivots = dict.fromkeys(("regular", "split", "degenerate"), 0)
    for j in range(n):
        p = j + int(np.argmax(np.abs(s[j:, j:, 0].diagonal())))
        if p != j:
            pair = slice(j, p + 1, p - j)  # rows (columns) j and p, reversed in place
            s[pair] = s[pair][::-1]
            s[:, pair] = s[:, pair][:, ::-1]
            perm[pair] = perm[pair][::-1]
        r = s[j, j, 0]
        c = s[j + 1:, j]
        # max of the column's norms: sqrt is monotone and correctly rounded
        cmax = math.sqrt(np.maximum.reduce(np.add.reduce(c * c, axis=1), initial=0.0))
        diagonal = factors[perm[j], j, :, 0]
        x = np.zeros((n - j - 1, 2, 8))
        if abs(r) <= tol:
            # cancelling unit pair: zero diagonal, division-free solve
            kind = "degenerate"
            diagonal[:] = 1.0
            x[:, 0] = c
        elif abs(r) < 0.5 * cmax:
            # A small pivot under a large column would amplify the Schur
            # updates by |c|^2 / r and wreck later columns, so split the
            # pivot over both sectors: a_jj^2 - b_jj^2 = r with a_jj b_jj = 1,
            # keeping every divisor O(1).  The update contribution becomes
            # c_i conj(c_k) r / (r^2 + 4), bounded regardless of r.
            kind = "split"
            q = float(np.hypot(r, 2.0))
            diagonal[:] = np.sqrt(0.5 * (q + r)), np.sqrt(0.5 * (q - r))
            x[:, 0] = c * (diagonal[0] / q)
            x[:, 1] = -c * (diagonal[1] / q)
        else:
            kind = "regular"
            if r > 0:
                diagonal[0] = np.sqrt(r)
                x[:, 0] = c / diagonal[0]
            else:
                diagonal[1] = np.sqrt(-r)
                x[:, 1] = -c / diagonal[1]
        pivots[kind] += 1
        factors[perm[j + 1:], j] = x
        # S_il -= a_i conj(a_l) - b_i conj(b_l): an (m, 2) by (2, m) octonion product
        s[j + 1:, j + 1:] -= omat_mul(x, x.swapaxes(0, 1) * _UPDATE_SIGNS)
    a, b = factors.transpose(2, 0, 1, 3)
    return Resolution(a, b, perm, pivots)


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
