import numpy as np
import pytest

from cliffstring.clifford import cliff_conj, cliff_inner, gram_matrix
from cliffstring.fixtures import random_degenerate_hermitian, random_hermitian
from cliffstring.matrices import OctHermitian, omat_adjoint, omat_mul
from cliffstring.minkowski import det2, matrix_to_vector, sigma_set
from cliffstring.octonion import conj_arrays
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


def _reference_resolve(h: OctHermitian, tol: float):
    """The elimination as it was written with row swaps of a and b: the bit-level reference."""
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
            kind = "degenerate"
            a[j, j, 0] = 1.0
            b[j, j, 0] = 1.0
            a[j + 1:, j] = c
        elif abs(r) < 0.5 * cmax:
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
        x = np.stack([a[j + 1:, j], b[j + 1:, j]], axis=1)
        y = conj_arrays(np.stack([a[j + 1:, j], -b[j + 1:, j]]))
        s[j + 1:, j + 1:] -= omat_mul(x, y)
    order = np.argsort(perm)
    return a[order], b[order], perm, pivots


def _sweep_input(kind, n, seed):
    gen = np.random.default_rng(seed)
    if kind == "degenerate":
        return random_degenerate_hermitian(gen, n).data
    data = random_hermitian(gen, n).data
    data[..., {"random": 8, "real": 1, "complex": 2}[kind]:] = 0.0
    return data


def _bits(x):
    """x's float64 bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 33, 64])
def test_resolution_is_bit_equal_to_row_swapping_reference(n):
    """a, b, perm and pivots match the reference bit for bit, negative zeros included."""
    kinds = ("random", "real", "complex") + (("degenerate",) if n > 1 else ())
    for seed, kind in enumerate(kinds):
        data = _sweep_input(kind, n, 100 * n + seed)
        for scale in (1.0, 1e-150, 1e150):
            h = OctHermitian(data * scale)
            for tol in (1e-12, 1e-10):
                # at 1e150 the column norms overflow from n = 33 on, on both sides
                with np.errstate(over="ignore", invalid="ignore"):
                    res = resolve_hermitian(h, tol=tol)
                    a, b, perm, pivots = _reference_resolve(h, tol)
                case = (kind, scale, tol)
                assert np.array_equal(_bits(res.a), _bits(a)), case
                assert np.array_equal(_bits(res.b), _bits(b)), case
                assert res.perm.dtype == perm.dtype and np.array_equal(res.perm, perm), case
                assert res.pivots == pivots, case


def test_non_square_input_rejected():
    with pytest.raises(ValueError):
        OctHermitian(np.zeros((2, 3, 8)))
