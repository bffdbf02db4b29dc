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


def dense_family(family, space):
    """A word-form operator family as dense (K, dim, dim) matrices.

    An independent oracle for quantum_rep: the letters Q_mu (multiply by
    x_mu, dropped past the degree cap) and D_nu (d/dx_nu) are built as
    matrices from `space.exponents` alone, and each word is the product of
    its letter matrices, its first letter (lowest base-9 digit) rightmost.
    """
    exps = space.exponents.tolist()
    index = {tuple(e): i for i, e in enumerate(exps)}
    n = space.dim
    letters = np.zeros((9, n, n))
    for j, e in enumerate(exps):
        for mu in range(4):
            up = tuple(e[:mu] + [e[mu] + 1] + e[mu + 1:])
            if up in index:
                letters[1 + mu, index[up], j] = 1.0
            if e[mu]:
                letters[5 + mu, index[tuple(e[:mu] + [e[mu] - 1] + e[mu + 1:])], j] = e[mu]
    words = []
    for code in family.codes.tolist():
        word = np.eye(n)
        while code:
            code, letter = divmod(code, 9)
            word = letters[letter] @ word
        words.append(word)
    return np.einsum("kw,wij->kij", family.coeffs, np.array(words))


@pytest.fixture(scope="session")
def dense():
    return dense_family
