"""Shared test helpers."""

import numpy as np
import pytest


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
