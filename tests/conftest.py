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


def dense_family(rows, space):
    """A family of normal-form rows over quantum_rep's 45 monomials as dense (K, dim, dim) matrices.

    An independent oracle for quantum_rep: the letters x_mu (multiply,
    dropped past the degree cap) and d_nu are built as matrices from
    `space.exponents` alone.  The monomials are 1, x_0..x_3, d_0..d_3, then
    each product of letters a <= b in that order, letter a to the left, so
    every x stands left of every d; each is the product of its letter matrices.
    """
    exps = space.exponents.tolist()
    index = {tuple(e): i for i, e in enumerate(exps)}
    n = space.dim
    letters = np.zeros((8, n, n))
    for j, e in enumerate(exps):
        for mu in range(4):
            up = tuple(e[:mu] + [e[mu] + 1] + e[mu + 1:])
            if up in index:
                letters[mu, index[up], j] = 1.0
            if e[mu]:
                letters[4 + mu, index[tuple(e[:mu] + [e[mu] - 1] + e[mu + 1:])], j] = e[mu]
    monomials = [np.eye(n), *letters]
    monomials += [letters[a] @ letters[b] for a in range(8) for b in range(a, 8)]
    return np.einsum("kw,wij->kij", rows, np.array(monomials))


@pytest.fixture(scope="session")
def dense():
    return dense_family
