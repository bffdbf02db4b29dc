import numpy as np
import pytest

from cliffstring.matrices import hermiticity_residual
from cliffstring.minkowski import (
    EPS,
    det2,
    eta4,
    matrix_to_vector,
    sigma4_complex,
    sigma_set,
    vector_to_matrix,
)
from cliffstring.octonion import mul_arrays

rng = np.random.default_rng(607)


def minkowski_norm(x):
    x = np.asarray(x, dtype=float)
    return float(x[0] ** 2 - x[1:] @ x[1:])


def test_epsilon_squares_to_minus_identity():
    assert np.array_equal(EPS @ EPS, -np.eye(2))


@pytest.mark.parametrize("dim", [4, 10])
def test_matrices_are_hermitian(dim):
    s = sigma_set(dim)
    for mu in range(dim):
        assert hermiticity_residual(s[mu]) == 0.0


@pytest.mark.parametrize("dim", [4, 10])
def test_det_is_minkowski_norm(dim):
    s = sigma_set(dim)
    for _ in range(300):
        x = rng.uniform(-1, 1, dim)
        x_mat = vector_to_matrix(x, s)
        assert abs(det2(x_mat.data) - minkowski_norm(x)) <= 1e-12


@pytest.mark.parametrize("dim", [4, 10])
def test_vector_matrix_roundtrip(dim):
    s = sigma_set(dim)
    for _ in range(100):
        x = rng.uniform(-1, 1, dim)
        back = matrix_to_vector(vector_to_matrix(x, s), s)
        assert np.max(np.abs(back - x)) <= 1e-12


def test_sigma_completeness_identity_4d():
    """eta_{mu nu} sigma^mu_{AB'} sigma^nu_{CD'} = 2 eps_AC eps_B'D' entrywise."""
    s = sigma_set(4)
    eta_diag = np.array([1.0, -1.0, -1.0, -1.0])
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    acc = np.zeros(8)
                    for mu in range(4):
                        acc += eta_diag[mu] * mul_arrays(
                            s[mu][a, b], s[mu][c, d]
                        )
                    want = np.zeros(8)
                    want[0] = 2.0 * EPS[a, c] * EPS[b, d]
                    assert np.max(np.abs(acc - want)) <= 1e-12


def _adjugate(m):
    out = np.zeros((2, 2, 8))
    out[0, 0], out[1, 1] = m[1, 1], m[0, 0]
    out[0, 1], out[1, 0] = -m[0, 1], -m[1, 0]
    return out


def test_sigma_clifford_identity_10d():
    """sigma^mu adj(sigma^nu) + sigma^nu adj(sigma^mu) = 2 eta^{mu nu} I."""
    from cliffstring.matrices import omat_mul

    s = sigma_set(10)
    for mu in range(10):
        for nu in range(10):
            anti = omat_mul(s[mu], _adjugate(s[nu])) + omat_mul(
                s[nu], _adjugate(s[mu])
            )
            eta = 0.0 if mu != nu else (1.0 if mu == 0 else -1.0)
            want = np.zeros((2, 2, 8))
            want[0, 0, 0] = want[1, 1, 0] = 2.0 * eta
            assert np.max(np.abs(anti - want)) <= 1e-12


def test_det_polarization_10d():
    # det2(x + y) - det2(x) - det2(y) = 2 x.eta.y, the bilinear form behind det2
    s = sigma_set(10)
    eta_diag = np.ones(10)
    eta_diag[1:] = -1.0
    for _ in range(100):
        x = rng.uniform(-1, 1, 10)
        y = rng.uniform(-1, 1, 10)
        lhs = (
            det2(vector_to_matrix(x + y, s).data)
            - det2(vector_to_matrix(x, s).data)
            - det2(vector_to_matrix(y, s).data)
        )
        assert abs(lhs - 2.0 * float(x @ (eta_diag * y))) <= 1e-12


def test_sigma4_complex_matches_octonionic_set():
    s = sigma_set(4)
    sc = sigma4_complex()
    for mu in range(4):
        real = s[mu][:, :, 0]
        imag = s[mu][:, :, 1]
        assert np.allclose(sc[mu].real, real) and np.allclose(sc[mu].imag, imag)


def test_sigma4_trace_orthogonality():
    sc = sigma4_complex()
    eta = eta4()
    for mu in range(4):
        for nu in range(4):
            # sigma_mu with lowered spinor indices contracts against sigma_nu
            low = EPS @ sc[mu].conj() @ EPS.T
            val = 0.5 * np.sum(sc[nu] * low.conj())
            assert abs(val - eta[mu, nu]) <= 1e-12


def test_spinor_metric_concrete_example():
    low = np.array([0.0, 1.0])
    assert np.array_equal(EPS @ low, np.array([1.0, 0.0]))  # V^A = eps^{AB} V_B
    assert np.array_equal(EPS.T, -EPS)


def test_matrix_to_vector_rejects_non_hermitian():
    from cliffstring.matrices import NotHermitianError, OctHermitian

    data = np.zeros((2, 2, 8))
    data[0, 1, 3] = 1.0  # adjoint entry left at zero
    bad = OctHermitian(data, validate=False)
    with pytest.raises(NotHermitianError):
        matrix_to_vector(bad, sigma_set(4))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_matrix_to_vector_rejects_non_finite_entries(value):
    s = sigma_set(4)
    with pytest.raises(ValueError, match="finite"):
        matrix_to_vector(vector_to_matrix(np.full(4, value), s), s)


def test_det2_needs_two_by_two():
    s = sigma_set(4)
    x_mat = vector_to_matrix(np.zeros(4), s)
    assert det2(x_mat.data) == 0.0


def test_det2_of_a_stack_is_det2_of_each_point():
    s = sigma_set(10)
    stack = np.stack([vector_to_matrix(x, s).data for x in rng.uniform(-1, 1, (6, 10))])
    assert np.array_equal(det2(stack.reshape(2, 3, 2, 2, 8)).ravel(), [det2(m) for m in stack])
