import numpy as np
import pytest

from cliffstring.octonion import (
    Octonion,
    STRUCTURE,
    alternativity_check,
    conj_arrays,
    mul_arrays,
)

rng = np.random.default_rng(1815)


def rand_oct(scale=1.0):
    return Octonion(rng.uniform(-scale, scale, 8))


def test_unit_element():
    one = Octonion.unit(0)
    for _ in range(50):
        a = rand_oct()
        assert np.allclose((one * a).c, a.c)
        assert np.allclose((a * one).c, a.c)


def test_structure_tensor_is_signed_permutation():
    # each (i, j) slot multiplies to exactly one signed basis unit
    for i in range(8):
        for j in range(8):
            col = STRUCTURE[i, j]
            assert np.count_nonzero(col) == 1
            assert abs(col[np.nonzero(col)][0]) == 1.0


def test_imaginary_units_square_to_minus_one():
    for k in range(1, 8):
        e = Octonion.unit(k)
        assert np.allclose((e * e).c, -Octonion.unit(0).c)


def test_norm_composition_sweep():
    for _ in range(500):
        a, b = rand_oct(), rand_oct()
        lhs = (a * b).norm()
        rhs = a.norm() * b.norm()
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)


def test_alternativity_sweep():
    for _ in range(500):
        a, b = rand_oct(), rand_oct()
        scale = max(a.norm(), b.norm()) ** 3
        assert alternativity_check(a.c, b.c) <= 1e-12 * max(scale, 1.0)


def test_conjugation_antiautomorphism_sweep():
    for _ in range(500):
        a, b = rand_oct(), rand_oct()
        gap = ((a * b).conj() - b.conj() * a.conj()).norm()
        assert gap <= 1e-12 * max(a.norm() * b.norm(), 1.0)


def test_conjugation_fixes_real_negates_imaginary():
    a = rand_oct()
    ac = conj_arrays(a.c)
    assert ac[0] == a.c[0]
    assert np.array_equal(ac[1:], -a.c[1:])


def test_norm_is_multiplicative_with_conjugate():
    # x x* = |x|^2 as a real octonion
    for _ in range(100):
        a = rand_oct()
        prod = mul_arrays(a.c, conj_arrays(a.c))
        assert abs(prod[0] - a.norm_sq()) <= 1e-12 * max(a.norm_sq(), 1.0)
        assert np.max(np.abs(prod[1:])) <= 1e-12 * max(a.norm_sq(), 1.0)


def test_nonassociativity_witness():
    """A concrete associator: the triple (e1, e2, e4) does not associate."""
    e1, e2, e4 = Octonion.unit(1), Octonion.unit(2), Octonion.unit(4)
    left = (e1 * e2) * e4
    right = e1 * (e2 * e4)
    assert (left - right).norm() == 2.0
    assert np.allclose(left.c, -right.c)


def test_two_generators_associate():
    # alternative law: the subalgebra generated by two elements associates
    for _ in range(200):
        a, b = rand_oct(), rand_oct()
        lhs = (a * b) * b
        rhs = a * (b * b)
        assert (lhs - rhs).norm() <= 1e-12 * max(a.norm() * b.norm_sq(), 1.0)


def test_inverse_via_conjugate():
    for _ in range(100):
        a = rand_oct()
        if a.norm_sq() < 1e-6:
            continue
        inv = a.conj() / a.norm_sq()
        assert np.allclose((a * inv).c, Octonion.unit(0).c, atol=1e-12)


def test_complex_embedding_roundtrip():
    z = complex(0.3, -1.7)
    for k in range(1, 8):
        a = Octonion.from_complex(z, k)
        assert a.in_subspace(k)
        assert a.to_complex(k) == z


def test_subspace_membership_rejects_other_directions():
    a = Octonion.unit(3) + Octonion.unit(5)
    assert not a.in_subspace(3)
    with pytest.raises(ValueError):
        a.to_complex(3)


def test_coefficient_shape_validated():
    with pytest.raises(ValueError):
        Octonion(np.zeros(7))


def _einsum_product(a, b):
    """The three-operand einsum mul_arrays used to be: the bit-level reference."""
    return np.einsum("...i,...j,ijk->...k", a, b, STRUCTURE)


_PRODUCT_SHAPES = [
    ((8,), (8,)), ((2, 2, 8), (2, 2, 8)), ((2, 2, 2, 8), (2, 2, 2, 8)),
    ((1024, 8), (1024, 8)), ((2, 2, 1, 8), (2, 8)), ((3, 8), (8,)),
    # lorentz-check's factor-by-spinor and outer products, octonion-check's ragged block
    ((5, 100, 2, 2, 8), (100, 1, 2, 8)), ((100, 1, 2, 8), (5, 100, 2, 2, 8)),
    ((5, 100, 2, 1, 8), (5, 100, 1, 2, 8)), ((976, 8), (976, 8)),
    # no products, four blocks' worth, and broadcasting on both sides
    ((0, 8), (0, 8)), ((4096, 8), (4096, 8)), ((7, 1, 3, 8), (5, 1, 8)),
]


@pytest.mark.parametrize("shape_a, shape_b", _PRODUCT_SHAPES)
def test_mul_arrays_is_bit_equal_to_einsum_reference(shape_a, shape_b):
    gen = np.random.default_rng(len(shape_a) * 100 + shape_a[0])
    for scale in (1.0, 1e-150, 1e150):
        a = gen.uniform(-1, 1, shape_a) * scale
        b = gen.uniform(-1, 1, shape_b) * scale
        product = mul_arrays(a, b)
        assert product.flags.c_contiguous
        assert np.array_equal(product, _einsum_product(a, b)), scale


@pytest.mark.parametrize("shape_a, shape_b", [((8,), (8,)), ((3, 8), (8,)), ((7, 1, 3, 8), (5, 1, 8))])
def test_mul_arrays_of_integers_is_float64_and_bit_equal(shape_a, shape_b):
    gen = np.random.default_rng(8)
    a, b = gen.integers(-9, 10, shape_a), gen.integers(-9, 10, shape_b)
    product = mul_arrays(a, b)
    assert product.dtype == np.float64
    assert np.array_equal(product, _einsum_product(a, b))


def test_mul_arrays_rejects_a_last_axis_other_than_8():
    with pytest.raises(ValueError):
        mul_arrays(np.ones((3, 1)), np.ones((3, 8)))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_omat_mul_matches_entry_loop(n):
    from cliffstring.matrices import omat_mul

    gen = np.random.default_rng(n)
    x = gen.uniform(-1, 1, (n, n + 1, 8))
    y = gen.uniform(-1, 1, (n + 1, n, 8))
    ref = np.zeros((n, n, 8))
    for p in range(n):
        for r in range(n):
            for q in range(n + 1):
                ref[p, r] += mul_arrays(x[p, q], y[q, r])
    gap = np.max(np.abs(omat_mul(x, y) - ref))
    assert gap <= 1e-15 * np.max(np.abs(ref))


def test_batched_omat_mul_is_bit_equal_to_per_item_calls():
    from cliffstring.matrices import omat_adjoint, omat_mul

    gen = np.random.default_rng(300)
    x = gen.uniform(-1, 1, (300, 2, 2, 8))
    y = gen.uniform(-1, 1, (300, 2, 2, 8))
    assert np.array_equal(omat_mul(x, y), np.stack([omat_mul(a, b) for a, b in zip(x, y)]))
    assert np.array_equal(omat_adjoint(x), np.stack([omat_adjoint(a) for a in x]))
    # leading axes broadcast: one matrix against a stack, and stacks of stacks
    z = gen.uniform(-1, 1, (4, 3, 2, 5, 8))
    w = gen.uniform(-1, 1, (5, 2, 8))
    assert np.array_equal(omat_mul(z, w), np.stack([[omat_mul(a, w) for a in row] for row in z]))
