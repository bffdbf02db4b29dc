"""Shared test helpers."""

from itertools import combinations_with_replacement

import numpy as np
import pytest


class PolySpace:
    """Monomial basis for polynomials in `n_vars` variables, degree <= cap.

    Ordered by degree, then by exponent tuple; `exponents` is the
    (dim, n_vars) int array of the basis monomials.  The basis of the dense
    oracle `dense_family`.
    """

    def __init__(self, n_vars: int, degree: int):
        if n_vars < 1 or degree < 1:
            raise ValueError("need at least one variable and degree >= 1")
        self.degree = degree
        blocks = []
        for d in range(degree + 1):
            # variable multisets in lex order are exponent tuples in reverse order
            picks = np.array(list(combinations_with_replacement(range(n_vars), d)), int)
            exps = np.zeros((len(picks), n_vars), int)
            np.add.at(exps, (np.arange(len(picks))[:, None], picks), 1)
            blocks.append(exps[::-1])
        self.exponents = np.concatenate(blocks)
        self.degrees = self.exponents.sum(axis=1)

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def safe_columns(self) -> np.ndarray:
        """Mask of basis monomials with degree <= cap - 1, where no truncated product lands."""
        return self.degrees <= self.degree - 1


def dense_family(forms, space):
    """A family of quantum_rep's symmetric 9x9 forms, (K, 81), as dense (K, dim, dim) matrices.

    An independent oracle for quantum_rep: the letters x_mu (multiply,
    dropped past the degree cap) and d_nu are built as matrices from
    `space.exponents` alone.  With zeta = (1, x_0..x_3, d_0..d_3), zeta_0 the
    identity, form H is the operator sum_ij H_ij zeta_i zeta_j, zeta_i to the
    left; a form need not be symmetric.
    """
    exps = space.exponents.tolist()
    index = {tuple(e): i for i, e in enumerate(exps)}
    n = space.dim
    zeta = np.zeros((9, n, n))
    zeta[0] = np.eye(n)
    for j, e in enumerate(exps):
        for mu in range(4):
            up = tuple(e[:mu] + [e[mu] + 1] + e[mu + 1:])
            if up in index:
                zeta[1 + mu, index[up], j] = 1.0
            if e[mu]:
                zeta[5 + mu, index[tuple(e[:mu] + [e[mu] - 1] + e[mu + 1:])], j] = e[mu]
    # each zeta_j has at most one entry per column, all of them >= 0, so
    # zeta_i zeta_j is zeta_i's columns at zeta_j's rows, times its entries
    rows = zeta.argmax(axis=1)
    weights = np.take_along_axis(zeta, rows[:, None], axis=1)[:, 0]
    pairs = (zeta[:, :, rows].transpose(0, 2, 1, 3) * weights[:, None]).reshape(81, n * n)
    forms = np.asarray(forms).reshape(-1, 81)
    return (forms.real @ pairs + 1j * (forms.imag @ pairs)).reshape(-1, n, n)


@pytest.fixture(scope="session")
def dense():
    return dense_family
