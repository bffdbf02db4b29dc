import numpy as np
import pytest

from cliffstring.clifford import cliff_conj, cliff_inner, gram_matrix
from cliffstring.fixtures import random_degenerate_hermitian, random_hermitian
from cliffstring.matrices import OctHermitian, omat_adjoint, omat_mul
from cliffstring.minkowski import det2, matrix_to_vector, sigma_set
from cliffstring.resolve import (
    reconstruction_residual,
    resolve_hermitian,
    resolve_spacetime,
    vectors,
)

rng = np.random.default_rng(4242)


def test_identity_resolves_exactly():
    data = np.zeros((2, 2, 8))
    data[0, 0, 0] = data[1, 1, 0] = 1.0
    h = OctHermitian(data)
    res = resolve_hermitian(h)
    assert reconstruction_residual(res, h) == 0.0
    assert np.array_equal(res.a[0, 0], np.eye(8)[0])


def test_reconstruction_sweep():
    for trial in range(60):
        n = 1 + trial % 6
        h = random_hermitian(rng, n)
        res = resolve_hermitian(h)
        assert reconstruction_residual(res, h) <= 1e-10


def test_coefficients_are_lower_triangular():
    """Triangular in pivot order: row perm[i] of a and b is step i's row."""
    h = random_hermitian(rng, 5)
    res = resolve_hermitian(h)
    assert sorted(res.perm) == list(range(5))
    a, b = res.a[res.perm], res.b[res.perm]
    for i in range(5):
        for j in range(i + 1, 5):
            assert not np.any(a[i, j]) and not np.any(b[i, j])


@pytest.mark.parametrize("n", [64, 96])
def test_residual_stays_small_at_large_n(n):
    """Pivoting bounds the element growth that an in-order elimination suffers."""
    for seed in range(5):
        h = random_hermitian(np.random.default_rng(seed), n)
        assert reconstruction_residual(resolve_hermitian(h, tol=1e-10), h) <= 1e-10


def test_gram_matrix_oracle_agrees_with_reconstruction():
    """The vector Gram matrix and the two-product reconstruction are one matrix."""
    h = random_hermitian(np.random.default_rng(12), 12)
    res = resolve_hermitian(h)
    g = gram_matrix(vectors(res)).data
    recon = omat_mul(res.a, omat_adjoint(res.a)) - omat_mul(res.b, omat_adjoint(res.b))
    assert np.max(np.abs(g - recon)) <= 1e-13


def test_pivots_count_every_step():
    for n in (1, 4, 16):
        res = resolve_hermitian(random_hermitian(rng, n))
        assert sum(res.pivots.values()) == n


def test_degenerate_pivot_handled():
    """A vanishing Schur diagonal takes the unit e/f branch and still reconstructs."""
    for _ in range(20):
        n = int(rng.integers(2, 7))
        h = random_degenerate_hermitian(rng, n)
        res = resolve_hermitian(h)
        assert reconstruction_residual(res, h) <= 1e-10


def test_zero_matrix_resolves():
    h = OctHermitian(np.zeros((3, 3, 8)))
    res = resolve_hermitian(h)
    assert reconstruction_residual(res, h) <= 1e-12


def test_vectors_match_gram_entries():
    h = random_hermitian(rng, 4)
    vs = vectors(resolve_hermitian(h))
    got = cliff_inner(vs[2], cliff_conj(vs[1]))
    assert np.max(np.abs(got - h.data[2, 1])) <= 1e-10


def test_spacetime_roundtrip():
    s = sigma_set(4)
    for _ in range(200):
        x = rng.uniform(-1, 1, 4)
        c1, c2, x_mat = resolve_spacetime(x)
        back = matrix_to_vector(x_mat, s)
        assert np.max(np.abs(back - x)) <= 1e-12
        assert abs(det2(x_mat.data) - (x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - x[3] ** 2)) <= 1e-12


def test_spacetime_isotropy():
    """The unconjugated inner product of the resolved pair vanishes."""
    for _ in range(200):
        x = rng.uniform(-1, 1, 4)
        c1, c2, _ = resolve_spacetime(x)
        for u in (c1, c2):
            for v in (c1, c2):
                assert np.linalg.norm(cliff_inner(u, v)) <= 1e-12


def test_spacetime_reconstruction():
    x = np.array([0.7, -0.2, 0.4, 0.1])
    c1, c2, x_mat = resolve_spacetime(x)
    g = gram_matrix([c1, c2])
    assert np.max(np.abs(g.data - x_mat.data)) <= 1e-12


def test_non_square_input_rejected():
    with pytest.raises(ValueError):
        OctHermitian(np.zeros((2, 3, 8)))
