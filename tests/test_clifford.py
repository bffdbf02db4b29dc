import numpy as np
import pytest

from cliffstring.clifford import cliff_conj, cliff_inner, gram_matrix
from cliffstring.fixtures import random_hermitian
from cliffstring.matrices import hermiticity_residual
from cliffstring.octonion import conj_arrays, mul_arrays
from cliffstring.resolve import resolve_hermitian, vectors

rng = np.random.default_rng(2718)

E, ESTAR, F, FSTAR = range(4)


def basis_vector(kind, k, n):
    v = np.zeros((4, n, 8))
    v[kind, k - 1, 0] = 1.0
    return v


def rand_vector(n):
    return rng.uniform(-1, 1, (4, n, 8))


def test_basis_inner_products():
    """B(e_i, e_j*) = delta_ij and B(f_i, f_j*) = -delta_ij; same-kind pairs vanish."""
    n = 4
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            delta = 1.0 if i == j else 0.0
            ee = cliff_inner(basis_vector(E, i, n), basis_vector(ESTAR, j, n))
            ff = cliff_inner(basis_vector(F, i, n), basis_vector(FSTAR, j, n))
            assert ee[0] == delta and np.all(ee[1:] == 0)
            assert ff[0] == -delta and np.all(ff[1:] == 0)
            for kind in (E, F):
                same = cliff_inner(basis_vector(kind, i, n), basis_vector(kind, j, n))
                assert not np.any(same)


def test_inner_is_real_bilinear():
    n = 3
    for _ in range(100):
        u, v, w = rand_vector(n), rand_vector(n), rand_vector(n)
        alpha = float(rng.uniform(-2, 2))
        lhs = cliff_inner(alpha * u + w, v)
        rhs = alpha * cliff_inner(u, v) + cliff_inner(w, v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)


def test_conjugation_swaps_star_and_conjugates_coefficients():
    n = 2
    z, y = rng.uniform(-1, 1, (2, 8))
    v = np.zeros((4, n, 8))
    v[E, 0], v[FSTAR, 1] = z, y
    expected = np.zeros((4, n, 8))
    expected[ESTAR, 0], expected[F, 1] = conj_arrays(z), conj_arrays(y)
    assert np.array_equal(cliff_conj(v), expected)


def test_inner_hermitian_symmetry():
    # inner(u, conj v) is the octonion conjugate of inner(v, conj u)
    n = 3
    for _ in range(100):
        u, v = rand_vector(n), rand_vector(n)
        a = cliff_inner(u, cliff_conj(v))
        b = cliff_inner(v, cliff_conj(u))
        assert np.linalg.norm(a - conj_arrays(b)) <= 1e-12


def test_gram_matrix_is_exactly_hermitian():
    n = 4
    g = gram_matrix(rng.uniform(-1, 1, (n, 4, n, 8)))
    assert g.n == n
    assert hermiticity_residual(g.data) == 0.0


def _inner_loop(u, v):
    """cliff_inner one coefficient pair at a time, with the form written out."""
    form = {(E, ESTAR): 1.0, (ESTAR, E): 1.0, (F, FSTAR): -1.0, (FSTAR, F): -1.0}
    acc = np.zeros(8)
    for (ku, kv), w in form.items():
        for k in range(u.shape[1]):
            acc += w * mul_arrays(u[ku, k], v[kv, k])
    return acc


def test_gram_entries_match_inner_products():
    n = 3
    vs = rng.uniform(-1, 1, (n, 4, n, 8))
    g = gram_matrix(vs)
    for i in range(n):
        for j in range(n):
            direct = _inner_loop(vs[i], cliff_conj(vs[j]))
            assert np.max(np.abs(cliff_inner(vs[i], cliff_conj(vs[j])) - direct)) <= 1e-12
            assert np.max(np.abs(g.data[i, j] - direct)) <= 1e-12


def test_gram_of_resolved_vectors_reproduces_h_at_n_64():
    h = random_hermitian(np.random.default_rng(64), 64)
    g = gram_matrix(vectors(resolve_hermitian(h, tol=1e-10)))
    assert np.max(np.abs(g.data - h.data)) <= 1e-10


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        cliff_inner(rand_vector(2), rand_vector(3))
