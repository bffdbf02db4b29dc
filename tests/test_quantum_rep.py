from collections import Counter

import numpy as np
import pytest
from scipy import sparse

from cliffstring import quantum_rep
from cliffstring.quantum_rep import (
    PolySpace,
    build_canonical,
    canonical_residual,
    integrality_residual,
    jz_spectrum,
    lorentz_closure_residual,
    m0_matrices,
    mixed_algebra_residual,
    quaternion_pairs,
    spinor_tensor_roundtrip_residual,
    su2_closure_residual,
    tensor_algebra_residual,
    tensor_form,
    three_vector_form,
)

DEGREE = 6


def dense(stack, *shape):
    """The blocks of a stacked operator family as a dense (*shape, dim, dim) array."""
    n = stack.shape[1]
    return stack.toarray().reshape(*shape, n, n)


@pytest.fixture(scope="module")
def rep():
    pairs = build_canonical(degree=DEGREE, hbar=1.0)
    a_ops, k_ops = quaternion_pairs(pairs)
    m0, m0d = m0_matrices(a_ops, k_ops)
    return pairs, a_ops, k_ops, m0, m0d


def test_space_dimensions(rep):
    pairs = rep[0]
    # polynomials in 4 variables of degree <= 6, minus the sacrificial top layer
    assert pairs.space.dim == 210
    assert int(np.sum(pairs.space.safe_columns())) == 126


def test_canonical_relations_exact(rep):
    # integer-structured operator matrices at hbar = 1: the commutators
    # cancel in exact float arithmetic, not merely to round-off
    assert canonical_residual(rep[0]) == 0.0


def test_canonical_relations_generic_hbar():
    pairs = build_canonical(degree=4, hbar=0.7)
    assert canonical_residual(pairs) <= 1e-12


def test_mixed_algebra_exact(rep):
    pairs, a_ops, k_ops = rep[0], rep[1], rep[2]
    assert mixed_algebra_residual(a_ops, k_ops, pairs.space, pairs.hbar) == 0.0


def test_m0_blocks_are_symmetric(rep):
    m0, m0d = dense(rep[3], 2, 2), dense(rep[4], 2, 2)
    assert np.array_equal(m0[0, 1], m0[1, 0])
    assert np.array_equal(m0d[0, 1], m0d[1, 0])


def test_lorentz_closure_exact(rep):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    safe = pairs.space.safe_columns()
    assert lorentz_closure_residual(m0, m0d, safe, pairs.hbar) == 0.0


def test_su2_closure_and_reordered_convention(rep):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    safe = pairs.space.safe_columns()
    n, nd = three_vector_form(m0, m0d)
    assert su2_closure_residual(n, nd, safe, pairs.hbar) == 0.0
    # swapping the first two components flips the handedness, so the same
    # triple closes with the opposite sign of i*hbar
    n = dense(n, 3)
    ns = np.array([n[1], n[0], n[2]])
    eps3 = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps3[i, j, k] = 1.0
        eps3[j, i, k] = -1.0
    worst = 0.0
    for i in range(3):
        for j in range(3):
            comm = ns[i] @ ns[j] - ns[j] @ ns[i]
            rhs = sum(1j * pairs.hbar * eps3[i, j, k] * ns[k] for k in range(3))
            worst = max(worst, float(np.max(np.abs((comm - rhs)[:, safe]))))
    assert worst == 0.0


def test_tensor_algebra_exact(rep):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    safe = pairs.space.safe_columns()
    assert tensor_algebra_residual(tensor_form(m0, m0d), safe, pairs.hbar) == 0.0


def test_tensor_assembles_from_three_vector(rep):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    safe = pairs.space.safe_columns()
    mt = dense(tensor_form(m0, m0d), 4, 4)
    n, nd = (dense(v, 3) for v in three_vector_form(m0, m0d))
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        gap = mt[i, j][:, safe] - (n[k - 1] + nd[k - 1])[:, safe]
        assert np.max(np.abs(gap)) == 0.0
    for i in (1, 2, 3):
        gap = mt[0, i][:, safe] - (-1j * (n[i - 1] - nd[i - 1]))[:, safe]
        assert np.max(np.abs(gap)) == 0.0


def test_spinor_tensor_roundtrip_exact(rep):
    m0, m0d = rep[3], rep[4]
    assert spinor_tensor_roundtrip_residual(m0, tensor_form(m0, m0d)) == 0.0


def test_jz_spectrum_is_integral_with_exact_multiplicities():
    vals = jz_spectrum(4, hbar=1.0)
    assert integrality_residual(vals) <= 1e-9
    assert np.max(np.abs(vals.imag)) <= 1e-9
    counts = Counter(int(round(v)) for v in vals.real)
    # homogeneous degree d contributes m in {-d, -d+2, ..., d}; summing the
    # layers d = 0..4 gives these multiplicities on the 15-dimensional space
    assert counts == {0: 3, 1: 2, -1: 2, 2: 2, -2: 2, 3: 1, -3: 1, 4: 1, -4: 1}


def test_jz_spectrum_scales_with_hbar():
    vals = jz_spectrum(3, hbar=0.5)
    assert integrality_residual(vals, hbar=0.5) <= 1e-9
    assert abs(float(np.max(vals.real)) - 1.5) <= 1e-9


def test_degree_bound_validation():
    with pytest.raises(ValueError):
        build_canonical(degree=1)


# -- every check can fail --------------------------------------------------------


def _block_nonzeros(stack, count):
    return np.count_nonzero(dense(stack, count).reshape(count, -1), axis=1)


def test_built_families_have_no_empty_block(rep):
    # an empty block would make every residual built on it an exact 0.0
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    n, nd = three_vector_form(m0, m0d)
    for stack, count in ((pairs.q, 4), (pairs.r, 4), (m0, 4), (m0d, 4), (n, 3), (nd, 3)):
        assert stack.nnz > 0
        assert np.all(_block_nonzeros(stack, count) > 0)
    per_block = _block_nonzeros(tensor_form(m0, m0d), 16).reshape(4, 4)
    assert np.all(np.diag(per_block) == 0)  # M_{mu mu} = 0 by antisymmetry
    assert np.all(per_block[~np.eye(4, dtype=bool)] > 0)


def test_m0_gives_jz_from_the_canonical_pairs(rep):
    # J^z = i/2 (M0_(12) - M0dag_(12)) = Q_1 R_2 - Q_2 R_1 ties M0 to Q and R
    pairs, m0, m0d = rep[0], dense(rep[3], 2, 2), dense(rep[4], 2, 2)
    safe = pairs.space.safe_columns()
    q, r = dense(pairs.q, 4), dense(pairs.r, 4)
    gap = 0.5j * (m0[0, 1] - m0d[0, 1]) - (q[1] @ r[2] - q[2] @ r[1])
    assert np.max(np.abs(gap[:, safe])) == 0.0
    assert np.max(np.abs(q[1] @ r[2] - q[2] @ r[1])) > 0.0


def test_canonical_and_mixed_trip_on_a_wrong_derivative_weight(monkeypatch):
    exact = PolySpace.deriv_op

    def skewed(self, mu):
        op = exact(self, mu)
        op.data[0] = 2.0  # row 0 holds d/dx_mu x_mu, which must be 1
        return op

    monkeypatch.setattr(PolySpace, "deriv_op", skewed)
    pairs = build_canonical(degree=3, hbar=1.0)
    a_ops, k_ops = quaternion_pairs(pairs)
    assert canonical_residual(pairs) == 1.0
    assert mixed_algebra_residual(a_ops, k_ops, pairs.space, pairs.hbar) == 1.0


def test_closure_trips_on_a_flipped_eps(rep, monkeypatch):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    monkeypatch.setattr(quantum_rep, "EPS", -quantum_rep.EPS)
    safe = pairs.space.safe_columns()
    assert lorentz_closure_residual(m0, m0d, safe, pairs.hbar) > 1e-10


def test_su2_trips_on_a_flipped_eps3(rep, monkeypatch):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    n, nd = three_vector_form(m0, m0d)
    monkeypatch.setattr(quantum_rep, "_EPS3", -quantum_rep._EPS3)
    safe = pairs.space.safe_columns()
    assert su2_closure_residual(n, nd, safe, pairs.hbar) > 1e-10


def test_tensor_trips_on_a_flipped_eta(rep, monkeypatch):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    mt = tensor_form(m0, m0d)
    eta = quantum_rep.eta4()
    monkeypatch.setattr(quantum_rep, "eta4", lambda: -eta)
    safe = pairs.space.safe_columns()
    assert tensor_algebra_residual(mt, safe, pairs.hbar) > 1e-10


def test_tensor_trips_on_a_symmetric_part(rep):
    # M_{00} = I leaves the commutators of the six M_{mu<nu} alone but
    # breaks M_{mu nu} = -M_{nu mu}
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    mt = tensor_form(m0, m0d)
    diag = np.arange(pairs.space.dim)
    bump = sparse.csr_matrix((np.ones(diag.size), (diag, diag)), shape=mt.shape)
    safe = pairs.space.safe_columns()
    assert tensor_algebra_residual(mt + bump, safe, pairs.hbar) == 2.0


def test_roundtrip_trips_on_a_perturbed_m0_block(rep):
    m0, m0d = rep[3], rep[4]
    mt = tensor_form(m0, m0d)
    perturbed = m0.copy()
    perturbed.data[0] += 0.5  # first stored entry, in block M0_(11)
    assert spinor_tensor_roundtrip_residual(perturbed, mt) == 0.5


def _with_nan(stack, safe):
    """Copy of a stacked family with its first entry on a safe column set to NaN."""
    out = stack.copy()
    out.data[np.flatnonzero(safe[out.indices])[0]] = np.nan
    return out


@pytest.mark.parametrize("check", ["canonical", "mixed", "closure", "su2", "tensor", "roundtrip"])
def test_nan_on_a_safe_column_gives_a_nan_residual(rep, check):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    space, hbar = pairs.space, pairs.hbar
    safe = space.safe_columns()
    bad = _with_nan(m0, safe)
    if check == "canonical":
        residual = canonical_residual(
            quantum_rep.CanonicalPairs(space, _with_nan(pairs.q, safe), pairs.r, hbar))
    elif check == "mixed":
        a_ops, k_ops = quaternion_pairs(pairs)
        a_ops = quantum_rep.QuatOperator(a_ops.tag, _with_nan(a_ops.mat, safe))
        residual = mixed_algebra_residual(a_ops, k_ops, space, hbar)
    elif check == "closure":
        residual = lorentz_closure_residual(bad, m0d, safe, hbar)
    elif check == "su2":
        n, nd = three_vector_form(m0, m0d)
        residual = su2_closure_residual(_with_nan(n, safe), nd, safe, hbar)
    elif check == "tensor":
        residual = tensor_algebra_residual(_with_nan(tensor_form(m0, m0d), safe), safe, hbar)
    else:
        residual = spinor_tensor_roundtrip_residual(bad, tensor_form(m0, m0d))
    assert np.isnan(residual)
