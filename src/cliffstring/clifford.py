"""Octonion-coefficient vectors in a split Clifford generating space.

The generating space of Cl(2n, 2n, R) is spanned by e_1..e_n, f_1..f_n and
their conjugates e_i*, f_i*.  The symmetric bracket fixes the inner product
on basis vectors:

    {e_i, e_j*} = delta_ij      {f_i, f_j*} = -delta_ij

with every other pair (e-e, f-f, e-f, e-f*, and the conjugated mirrors)
vanishing.  The basis form is the bracket value itself, B(e_i, e_j*) =
delta_ij, so Gram matrices of resolved vectors expand as
sum_k a_ik conj(a_jk) - b_ik conj(b_jk) with unit coefficient.

A vector v = sum_k v_Ek (x) e_k + v_E*k (x) e_k* + v_Fk (x) f_k + v_F*k (x) f_k*
is a (..., 4, n, 8) coefficient array: axis -3 is the generator kind in the
order (E, E*, F, F*), axis -2 is k - 1, and the last axis holds the octonion
coefficients.  This module is the one place that knows the layout.  Inner
products multiply octonion coefficients in left-to-right order and weight
each pair by the basis form.
"""

from __future__ import annotations

import numpy as np

from .octonion import mul_arrays, conj_arrays
from .matrices import OctHermitian, omat_mul

__all__ = [
    "cliff_inner",
    "cliff_conj",
    "gram_matrix",
]

# Kind i of one vector pairs with kind _PARTNER[i] of the other, weighted
# by _FORM[i]: B(e, e*) = B(e*, e) = 1 and B(f, f*) = B(f*, f) = -1.
_PARTNER = [1, 0, 3, 2]
_FORM = np.array([1.0, 1.0, -1.0, -1.0])


def cliff_inner(u, v) -> np.ndarray:
    """Inner product of (..., 4, n, 8) vectors as a (..., 8) octonion array.

    Octonion coefficients multiply in the order (u, v); leading axes broadcast.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.shape[-2] != v.shape[-2]:
        raise ValueError(f"rank mismatch: {u.shape[-2]} against {v.shape[-2]}")
    return np.einsum("i,...ikc->...c", _FORM, mul_arrays(u, v[..., _PARTNER, :, :]))


def cliff_conj(v) -> np.ndarray:
    """Starred and unstarred generators swap; coefficients are conjugated."""
    return conj_arrays(np.asarray(v, dtype=float)[..., _PARTNER, :, :])


def gram_matrix(vs) -> OctHermitian:
    """H_ij = cliff_inner(v_i, cliff_conj(v_j)) of an (m, 4, n, 8) stack.

    One octonion matrix product per generator kind, weighted by the form.
    The strict upper triangle is mirrored and the diagonal imaginary parts
    (exact cancellations up to round-off) are dropped, so the result carries
    zero Hermiticity residual.
    """
    vs = np.asarray(vs, dtype=float)
    # as in cliff_inner, kind i of v_i meets kind _PARTNER[i] of cliff_conj(v_j)
    x = vs.swapaxes(0, 1)  # (4, m, n, 8)
    y = cliff_conj(vs)[:, _PARTNER].transpose(1, 2, 0, 3)  # (4, n, m, 8)
    g = np.einsum("i,ijlc->jlc", _FORM, omat_mul(x, y))
    m = len(vs)
    upper = np.triu(np.ones((m, m), bool), 1)[..., None]
    data = np.where(upper, g, conj_arrays(g.swapaxes(0, 1)))
    data[np.arange(m), np.arange(m), 1:] = 0.0
    return OctHermitian(data, validate=False)
