import numpy as np
import pytest

from cliffstring import lorentz
from cliffstring.fixtures import random_hermitian, random_spinor
from cliffstring.lorentz import (
    MixedSubspaceError,
    act_vector,
    boost_generator,
    compatibility_residual,
    contraction_residual,
    cospinor_map,
    factor_from_matrix,
    make_factor,
    phase_generator,
    reflection_factor,
    rotation_generator,
    spinor_map,
)
from cliffstring.matrices import OctHermitian, hermiticity_residual, omat_mul
from cliffstring.minkowski import det2, matrix_to_vector, sigma_set, vector_to_matrix
from cliffstring.octonion import mul_arrays

rng = np.random.default_rng(777)


def act(factors, x_mat):
    """act_vector of the factors, factors[0] innermost, on one OctHermitian point."""
    return OctHermitian(act_vector(np.stack(factors), x_mat.data), validate=False)


def real_det(s):
    """Re(s_00 s_11 - s_01 s_10) of a (..., 2, 2, 8) stack."""
    d = mul_arrays(s[..., 0, 0, :], s[..., 1, 1, :]) - mul_arrays(s[..., 0, 1, :], s[..., 1, 0, :])
    return d[..., 0]


def contraction_value(chi, psi):
    t = mul_arrays(chi[0], psi[0]) + mul_arrays(chi[1], psi[1])
    return 2.0 * float(t[0])


def test_boost_changes_vector_but_keeps_det():
    s = sigma_set(10)
    f = make_factor(boost_generator(), 0.6)
    for _ in range(50):
        x = rng.uniform(-1, 1, 10)
        x_mat = vector_to_matrix(x, s)
        moved = act([f], x_mat)
        back = matrix_to_vector(moved, s, tol=1e-9)
        assert abs(det2(moved.data) - det2(x_mat.data)) <= 1e-12
        assert np.max(np.abs(back - x)) > 1e-3  # it actually moved


def test_boost_is_standard_rapidity_map():
    f = make_factor(boost_generator(), 0.6)
    s = sigma_set(10)
    x = np.zeros(10)
    x[0] = 1.0
    moved = matrix_to_vector(act([f], vector_to_matrix(x, s)), s)
    assert abs(moved[0] - np.cosh(0.6)) <= 1e-12
    assert abs(moved[1] - np.sinh(0.6)) <= 1e-12


def test_det_preserved_per_subspace_factors():
    """Phase and rotation factors in every imaginary direction preserve det2."""
    s = sigma_set(10)
    for k in range(1, 8):
        for gen in (phase_generator(k), rotation_generator(k)):
            f = make_factor(gen, float(rng.uniform(0.2, 1.0)))
            for _ in range(20):
                x_mat = vector_to_matrix(rng.uniform(-1, 1, 10), s)
                assert abs(det2(act([f], x_mat).data) - det2(x_mat.data)) <= 1e-10


def test_nested_transform_det_preserved():
    for _ in range(30):
        depth = 1 + int(rng.integers(5))
        factors = []
        for _ in range(depth):
            g = (boost_generator(), rotation_generator(int(rng.integers(8))),
                 phase_generator(1 + int(rng.integers(7))))[int(rng.integers(3))]
            factors.append(make_factor(g, float(rng.uniform(-1, 1))))
        x = random_hermitian(rng, 2)
        moved = act(factors, x)
        assert abs(det2(moved.data) - det2(x.data)) <= 1e-10


def test_nesting_is_sequential_application():
    f1 = make_factor(phase_generator(3), 0.4)
    f2 = make_factor(rotation_generator(5), -0.7)
    x = random_hermitian(rng, 2)
    nested = act([f1, f2], x)
    stepwise = act([f2], act([f1], x))
    assert np.max(np.abs(nested.data - stepwise.data)) == 0.0


def test_reflection_factor_flips_space_direction():
    s = sigma_set(10)
    f = reflection_factor()
    assert real_det(f) == -1.0
    x = rng.uniform(-1, 1, 10)
    moved = act([f], vector_to_matrix(x, s))
    assert abs(matrix_to_vector(moved, s)[0] - x[0]) <= 1e-12
    assert abs(det2(moved.data) - det2(vector_to_matrix(x, s).data)) <= 1e-12


def test_compatibility_valid_factors():
    """(Sv)(Sv)+ equals (S v v+) S+ for single-subspace factors."""
    for k in range(1, 8):
        f = make_factor(phase_generator(k), float(rng.uniform(-1, 1)))
        for _ in range(10):
            assert compatibility_residual(f, random_spinor(rng)) <= 1e-10
    f = make_factor(boost_generator(), 0.9)
    assert compatibility_residual(f, random_spinor(rng)) <= 1e-10


def test_compatibility_mixed_subspace_control():
    """A two-subspace product matrix used as one factor visibly fails."""
    f1 = make_factor(rotation_generator(1), 0.8)
    f2 = make_factor(phase_generator(2), 0.9)
    mixed = omat_mul(f1, f2)
    residuals = [compatibility_residual(mixed, random_spinor(rng)) for _ in range(10)]
    assert max(residuals) > 0.1


def test_factor_from_matrix_rejects_mixed_subspace():
    f1 = make_factor(rotation_generator(1), 0.8)
    f2 = make_factor(phase_generator(2), 0.9)
    with pytest.raises(MixedSubspaceError):
        factor_from_matrix(omat_mul(f1, f2))


def test_contraction_scales_by_det():
    for _ in range(40):
        g = (boost_generator(), rotation_generator(int(rng.integers(8))),
             phase_generator(1 + int(rng.integers(7))))[int(rng.integers(3))]
        f = make_factor(g, float(rng.uniform(-1, 1)))
        chi, psi = random_spinor(rng), random_spinor(rng)
        assert abs(real_det(f) - 1.0) <= 1e-12
        assert contraction_residual(f, chi, psi) <= 1e-10


def test_contraction_sign_flip_under_reflection():
    f = reflection_factor()
    for _ in range(40):
        chi, psi = random_spinor(rng), random_spinor(rng)
        before = contraction_value(chi, psi)
        after = contraction_value(spinor_map(f, chi), cospinor_map(f, psi))
        assert abs(after + before) <= 1e-12  # det = -1 flips the sign
        assert contraction_residual(f, chi, psi) <= 1e-12


def test_contraction_residual_reads_the_det_sign_from_the_matrix(monkeypatch):
    """The reflection and the reflection times a boost, both of det -1, pass;
    with the sign of their determinant forced to +1 both fail."""
    flip = reflection_factor()
    pair = np.stack([flip, factor_from_matrix(omat_mul(flip, make_factor(boost_generator(), 0.7)))])
    assert np.max(np.abs(real_det(pair) + 1.0)) <= 1e-15
    chi, psi = np.random.default_rng(1).uniform(-1.0, 1.0, (2, 2, 2, 8))
    assert np.max(contraction_residual(pair, chi, psi)) <= 1e-12
    signed_det = lorentz._det

    def unsigned_det(s):
        d = signed_det(s)
        d[..., 0] = np.abs(d[..., 0])
        return d

    monkeypatch.setattr(lorentz, "_det", unsigned_det)
    assert np.min(contraction_residual(pair, chi, psi)) > 0.1


def test_real_determinant_test_is_load_bearing():
    """Compatibility needs det S real: a det-e_1 factor in span(1, e_1) breaks it."""
    v = np.random.default_rng(0).uniform(-1.0, 1.0, (50, 2, 8))
    complex_det = np.zeros((2, 2, 8))
    complex_det[0, 0, 1] = complex_det[1, 1, 0] = 1.0  # [[e_1, 0], [0, 1]]
    with pytest.raises(ValueError, match="determinant not real"):
        factor_from_matrix(complex_det)
    assert np.max(compatibility_residual(complex_det, v)) > 1.0  # 6.34 here
    shear = np.zeros((2, 2, 8))
    shear[0, 0, 0] = shear[1, 1, 0] = shear[0, 1, 1] = 1.0  # [[1, e_1], [0, 1]], det 1
    assert np.array_equal(factor_from_matrix(shear), shear) and real_det(shear) == 1.0
    assert np.max(compatibility_residual(shear, v)) < 1e-13  # 2.1e-15 here


def test_make_factor_requires_traceless_single_subspace():
    g = np.zeros((2, 2, 8))
    g[0, 0, 0] = 1.0  # trace 2, not traceless
    g[1, 1, 0] = 1.0
    with pytest.raises(ValueError):
        make_factor(g, 0.5)
    g2 = rotation_generator(1) + phase_generator(2)
    with pytest.raises(MixedSubspaceError):
        make_factor(g2, 0.5)

GENERATORS = (
    [("boost", boost_generator())]
    + [(f"rotation({k})", rotation_generator(k)) for k in range(8)]
    + [(f"phase({k})", phase_generator(k)) for k in range(1, 8)]
)


@pytest.mark.parametrize("name, g", GENERATORS, ids=[name for name, _ in GENERATORS])
def test_make_factor_matches_expm(name, g):
    """The closed form against scipy's expm, over a stack of t in one call."""
    import scipy.linalg

    k = max([m for m in range(1, 8) if np.any(g[..., m])], default=0)
    ts = np.concatenate([[-1.0, -0.5, 0.0, 1e-12, 0.5, 1.0],
                         np.random.default_rng(k).uniform(-1, 1, 1000)])
    made = make_factor(np.broadcast_to(g, ts.shape + g.shape), ts)
    ref = np.zeros(made.shape)
    for i, t in enumerate(ts):
        e = scipy.linalg.expm(t * (g[..., 0] + 1j * g[..., k] * (k > 0)))
        ref[i, ..., 0] = e.real
        if k:
            ref[i, ..., k] = e.imag
    assert np.max(np.abs(made - ref)) <= 1e-15
    assert np.max(np.abs(real_det(made) - 1.0)) <= 1e-15
    # a stacked call gives each factor bit for bit as its own call does
    for i in (0, 3, 6, 500):
        assert np.array_equal(make_factor(g, ts[i]), made[i])


@pytest.mark.parametrize("k", range(1, 8))
def test_rotation_generator_off_the_real_line_is_a_boost(k):
    """rotation_generator(k >= 1) is Hermitian, so its factor takes the cosh branch."""
    g = rotation_generator(k)
    assert hermiticity_residual(g) == 0.0
    t = 0.6
    f = make_factor(g, t)
    boost = np.zeros((2, 2, 8))
    boost[0, 0, 0] = boost[1, 1, 0] = np.cosh(t / 2)
    boost[0, 1, k], boost[1, 0, k] = np.sinh(t / 2), -np.sinh(t / 2)
    assert np.max(np.abs(f - boost)) <= 1e-15
    # it moves the time axis into x^(k+2) of the 10D sigma set
    s10 = sigma_set(10)
    x = np.zeros(10)
    x[0] = 1.0
    moved = matrix_to_vector(act([f], vector_to_matrix(x, s10)), s10)
    assert abs(moved[0] - np.cosh(t)) <= 1e-15 and abs(moved[k + 2] + np.sinh(t)) <= 1e-15
    # the real rotation and the phases are anti-Hermitian and take the cos branch
    for rot in (rotation_generator(0), phase_generator(k)):
        assert hermiticity_residual(rot) > 0.0
        assert abs(make_factor(rot, t)[0, 0, 0] - np.cos(t / 2)) <= 1e-15


def test_stacked_residuals_match_per_factor_calls():
    gens = np.stack([g for _, g in GENERATORS])
    f = make_factor(gens, np.linspace(-1, 1, len(gens)))
    v, chi, psi = (random_spinor(rng) for _ in range(3))
    compat = compatibility_residual(f, v)
    contr = contraction_residual(f, chi, psi)
    assert compat.shape == contr.shape == (len(gens),)
    for i in range(len(gens)):
        one = make_factor(gens[i], np.linspace(-1, 1, len(gens))[i])
        assert np.isscalar(compatibility_residual(one, v))
        assert np.isscalar(contraction_residual(one, chi, psi))
        assert abs(compat[i] - compatibility_residual(one, v)) <= 1e-15
        assert abs(contr[i] - contraction_residual(one, chi, psi)) <= 1e-15
    # a stack of points moves one per leading index, as each point alone does
    x = np.stack([random_hermitian(rng, 2).data for _ in gens])
    moved = act_vector(f[None], x)
    for i in range(len(gens)):
        assert np.array_equal(moved[i], act_vector(f[i][None], x[i]))


def test_factor_from_matrix_validates_a_stack():
    good = make_factor(np.stack([phase_generator(3), boost_generator()]), np.array([0.4, 0.2]))
    assert np.array_equal(factor_from_matrix(good), good)
    bad = good.copy()
    bad[1] *= 1.01  # |det| = 1.0201
    with pytest.raises(ValueError, match="det"):
        factor_from_matrix(bad)
    mixed = np.stack([good[0], omat_mul(make_factor(rotation_generator(1), 0.8),
                                        make_factor(phase_generator(2), 0.9))])
    with pytest.raises(MixedSubspaceError):
        factor_from_matrix(mixed)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing determinant warns
def test_factor_from_matrix_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        factor_from_matrix(np.full((2, 2, 8), np.nan))
    # finite entries whose determinant reads inf - inf = NaN
    huge = np.zeros((2, 2, 8))
    huge[..., 0] = 1e200
    with pytest.raises(ValueError, match="det"):
        factor_from_matrix(huge)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_make_factor_rejects_a_non_finite_parameter(t):
    with pytest.raises(ValueError, match="t must be finite"):
        make_factor(boost_generator(), t)
    with pytest.raises(ValueError, match="t must be finite"):
        make_factor(np.stack([boost_generator(), phase_generator(3)]), np.array([0.2, t]))


def test_make_factor_rejects_a_nan_generator_entry():
    # a NaN on the e_1 entry must not read as zero, which would make the generator real
    g = rotation_generator(1)
    g[0, 1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        make_factor(g, 0.5)
