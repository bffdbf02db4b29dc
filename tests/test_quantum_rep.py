import inspect
import math
import sys
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest

from cliffstring import cli, quantum_rep
from cliffstring.minkowski import EPS, eta4, sigma4_complex
from cliffstring.quantum_rep import (
    build_canonical,
    canonical_residual,
    integrality_residual,
    jz_residual,
    jz_spectrum,
    lorentz_closure_residual,
    m0_matrices,
    mixed_algebra_residual,
    quantum_checks,
    spinor_tensor_roundtrip_residual,
    su2_closure_residual,
    tensor_algebra_residual,
    tensor_form,
    three_vector_form,
)
from conftest import PolySpace

DEGREE = 6
SPACE = PolySpace(4, DEGREE)  # the dense oracle's basis


def _rep(hbar):
    q, r = build_canonical(hbar)
    m0, m0d = m0_matrices(q, r)
    return hbar, q, r, m0, m0d


@pytest.fixture(scope="module")
def rep():
    return _rep(1.0)


def _eps3():
    eps3 = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps3[i, j, k] = 1.0
        eps3[j, i, k] = -1.0
    return eps3


def test_space_dimensions():
    # polynomials in 4 variables of degree <= 6, minus the sacrificial top layer
    assert SPACE.dim == 210 == quantum_rep.quantum_checks(DEGREE, 1.0)[1]
    assert int(np.sum(SPACE.safe_columns())) == 126


def _tuple_walk(n_vars, degree):
    """The basis order of a walk over all (degree + 1)^n_vars exponent tuples."""
    exps = [()]
    for _ in range(n_vars):
        exps = [e + (k,) for e in exps for k in range(degree + 1)]
    exps = [e for e in exps if sum(e) <= degree]
    exps.sort(key=lambda e: (sum(e), e))
    return exps


@pytest.mark.parametrize("n_vars", [2, 4])
@pytest.mark.parametrize("degree", range(1, 7))
def test_enumeration_matches_the_tuple_walk(n_vars, degree):
    space = PolySpace(n_vars, degree)
    walk = _tuple_walk(n_vars, degree)
    assert space.exponents.tolist() == [list(e) for e in walk]
    assert space.degrees.tolist() == [sum(e) for e in walk]


def test_canonical_relations_exact(rep):
    # integer-structured operators at hbar = 1: the commutators cancel in
    # exact float arithmetic, not merely to round-off
    hbar, q, r = rep[0], rep[1], rep[2]
    assert canonical_residual(q, r, hbar) == 0.0


def test_canonical_relations_generic_hbar():
    q, r = build_canonical(hbar=0.7)
    assert canonical_residual(q, r, 0.7) <= 1e-12


def test_canonical_residual_reads_its_hbar_argument():
    # the families carry hbar = 0.7 in R; read against 1.4 the gap is i 0.7 eta
    q, r = build_canonical(hbar=0.7)
    assert canonical_residual(q, r, 1.4) == 0.7
    assert canonical_residual(q, r, 0.7) == 0.0


def test_mixed_algebra_exact(rep):
    hbar, a_ops, k_ops = rep[0], rep[1], rep[2]
    assert mixed_algebra_residual(a_ops, k_ops, hbar) == 0.0


def test_m0_blocks_are_symmetric(rep):
    m0, m0d = rep[3], rep[4]
    assert np.array_equal(m0[1], m0[2])
    assert np.array_equal(m0d[1], m0d[2])


def test_lorentz_closure_exact(rep):
    hbar, m0, m0d = rep[0], rep[3], rep[4]
    assert lorentz_closure_residual(m0, m0d, hbar) == 0.0


def test_su2_closure_and_reordered_convention(rep, dense):
    hbar, m0, m0d = rep[0], rep[3], rep[4]
    safe = SPACE.safe_columns()
    n, nd = three_vector_form(m0, m0d)
    assert su2_closure_residual(n, nd, hbar) == 0.0
    # swapping the first two components flips the handedness, so the same
    # triple closes with the opposite sign of i*hbar
    n = dense(n, SPACE)
    ns = np.array([n[1], n[0], n[2]])
    eps3 = _eps3()
    worst = 0.0
    for i in range(3):
        for j in range(3):
            comm = ns[i] @ ns[j] - ns[j] @ ns[i]
            rhs = sum(1j * hbar * eps3[i, j, k] * ns[k] for k in range(3))
            worst = max(worst, float(np.max(np.abs((comm - rhs)[:, safe]))))
    assert worst == 0.0


def test_tensor_algebra_exact(rep):
    hbar, m0, m0d = rep[0], rep[3], rep[4]
    assert tensor_algebra_residual(tensor_form(m0, m0d), hbar) == 0.0


def test_tensor_assembles_from_three_vector(rep, dense):
    m0, m0d = rep[3], rep[4]
    space = SPACE
    safe = space.safe_columns()
    mt = dense(tensor_form(m0, m0d), space).reshape(4, 4, space.dim, space.dim)
    n, nd = (dense(v, space) for v in three_vector_form(m0, m0d))
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


def test_jz_spectrum_is_the_eigenvalues_of_jz():
    # J^z = Q_1 R_2 - Q_2 R_1 = i hbar (x_1 d_2 - x_2 d_1), dense on two-variable polynomials
    degree, hbar = 7, 0.7
    exps = PolySpace(2, degree).exponents.tolist()
    index = {tuple(e): i for i, e in enumerate(exps)}
    lz = np.zeros((len(exps), len(exps)))
    for j, (p, q) in enumerate(exps):
        if q:
            lz[index[p + 1, q - 1], j] = q
        if p:
            lz[index[p - 1, q + 1], j] = -p
    vals = np.linalg.eigvals(1j * hbar * lz)
    assert np.max(np.abs(vals.imag)) <= 1e-12
    assert np.max(np.abs(np.sort(vals.real) - jz_spectrum(degree, hbar))) <= 1e-12


def test_integrality_residual_at_a_subnormal_hbar():
    hbar = 1e-310
    vals = jz_spectrum(3, hbar)
    assert integrality_residual(vals, hbar) == 0.0
    assert np.isnan(integrality_residual(np.array([np.nan, 1.0]), 1.0))


def test_degree_bound_validation():
    with pytest.raises(ValueError):
        quantum_rep.quantum_checks(1, 1.0)


# -- against plain matrix commutators ----------------------------------------------


def _form_residuals(q, r, m0, m0d, hbar):
    n, nd = three_vector_form(m0, m0d)
    mt = tensor_form(m0, m0d)
    return {
        "canonical": canonical_residual(q, r, hbar),
        "mixed": mixed_algebra_residual(q, r, hbar),
        "closure": lorentz_closure_residual(m0, m0d, hbar),
        "su2": su2_closure_residual(n, nd, hbar),
        "tensor": tensor_algebra_residual(mt, hbar),
        "roundtrip": spinor_tensor_roundtrip_residual(m0, mt),
    }


def _normal_coefficients(gaps, space):
    """The normal coefficients of dense operators, read off their safe columns.

    An operator sum c_ab x^a d^b sends x^g to sum_b C_b(x) g!/(g-b)! x^(g-b),
    with C_b = sum_a c_ab x^a, so the inverse binomial transform
    C_b = sum_{g <= b} (-x)^(b-g)/(b-g)! G(x^g)/g! recovers C_b from the
    images of the monomials x^g, g <= b.  Returns c[k, a, b] over the
    space's monomials a and its safe monomials b.
    """
    exps = space.exponents
    index = {tuple(e): i for i, e in enumerate(exps.tolist())}
    safe = np.flatnonzero(space.safe_columns())
    c = np.zeros((len(gaps), len(exps), len(safe)), complex)
    for j, b in enumerate(safe):
        for g in safe:
            delta = exps[b] - exps[g]
            if np.any(delta < 0):
                continue
            weight = (-1.0) ** delta.sum() / math.prod(map(math.factorial, [*delta, *exps[g]]))
            rows = [index.get(tuple(e)) for e in (exps - delta).tolist()]  # x^(a - delta)
            have = [a for a, row in enumerate(rows) if row is not None]
            c[:, have, j] += weight * gaps[:, [rows[a] for a in have], g]
    return c


def _weyl_largest(gaps, space):
    """The largest |Weyl-ordered coefficient| of dense operators of degree <= 2.

    Only x_nu d_nu reorders: it is (x_nu d_nu + d_nu x_nu) / 2 - 1/2, so the
    Weyl-ordered constant is the normal one minus half the coefficients of
    the x_nu d_nu, and every other coefficient is the same in both orders.
    """
    c = _normal_coefficients(np.asarray(gaps), space)
    exps, safe = space.exponents.tolist(), np.flatnonzero(space.safe_columns()).tolist()
    for x_nu in np.eye(4, dtype=int).tolist():
        a = exps.index(x_nu)
        c[:, 0, 0] -= 0.5 * c[:, a, safe.index(a)]
    return float(np.max(np.abs(c)))


def _dense_residuals(q, r, m0, m0d, hbar, dense, space):
    """The same residuals from dense matrices, written out index by index, as Weyl coefficients."""
    dim, eta = space.dim, eta4()
    eye = np.eye(dim)

    def comm(x, y):
        return x @ y - y @ x

    def worst(gaps):
        return _weyl_largest(gaps, space)

    q, r = dense(q, space), dense(r, space)
    ops = np.concatenate([q, r])
    canonical = [comm(ops[i], ops[j]) for i in range(8) for j in range(8)
                 if (i < 4) == (j < 4)]
    canonical += [comm(q[mu], r[nu]) - 1j * hbar * eta[mu, nu] * eye
                  for mu in range(4) for nu in range(4)]
    canonical += [comm(r[nu], q[mu]) + 1j * hbar * eta[mu, nu] * eye
                  for mu in range(4) for nu in range(4)]
    # A = j (x) Q and K = k (x) R: jj = kk = -1, jk = i, kj = -i
    mixed = [-comm(q[mu], q[nu]) for mu in range(4) for nu in range(4)]
    mixed += [-comm(r[mu], r[nu]) for mu in range(4) for nu in range(4)]
    mixed += [1j * q[mu] @ r[nu] - 1j * r[nu] @ q[mu] + hbar * eta[mu, nu] * eye
              for mu in range(4) for nu in range(4)]

    n, nd = (dense(v, space) for v in three_vector_form(m0, m0d))
    mt = dense(tensor_form(m0, m0d), space).reshape(4, 4, dim, dim)
    m0, m0d = (dense(m, space).reshape(2, 2, dim, dim) for m in (m0, m0d))
    low = -EPS  # eps_{AB}
    closure = []
    for a, b, e, f in np.ndindex(2, 2, 2, 2):
        rhs = 1j * hbar * (m0[a, e] * low[f, b] + m0[b, e] * low[f, a]
                           + m0[a, f] * low[e, b] + m0[b, f] * low[e, a])
        closure += [comm(m0[a, b], m0[e, f]) - rhs, comm(m0[a, b], m0d[e, f])]
    eps3 = _eps3()
    su2 = []
    for i, j in np.ndindex(3, 3):
        for v in (n, nd):
            su2.append(comm(v[i], v[j]) + 1j * hbar * np.einsum("k,kxy->xy", eps3[i, j], v))
        su2.append(comm(n[i], nd[j]))
    tensor = [mt[mu, nu] + mt[nu, mu] for mu, nu in np.ndindex(4, 4)]
    upper = [(mu, nu) for mu in range(4) for nu in range(mu + 1, 4)]
    for mu, nu in upper:
        for rho, sig in upper:
            rhs = (eta[nu, rho] * mt[mu, sig] - eta[mu, rho] * mt[nu, sig]
                   - eta[nu, sig] * mt[mu, rho] + eta[mu, sig] * mt[nu, rho])
            tensor.append(comm(mt[mu, nu], mt[rho, sig]) + 1j * hbar * rhs)
    s4 = sigma4_complex()
    roundtrip = [
        m0[a, b] - 0.5 * sum(EPS[e, f] * s4[mu, a, e] * s4[nu, b, f] * mt[mu, nu]
                             for e, f, mu, nu in np.ndindex(2, 2, 4, 4))
        for a, b in np.ndindex(2, 2)
    ]
    return {
        "canonical": worst(canonical),
        "mixed": worst(mixed),
        "closure": worst(closure),
        "su2": worst(su2),
        "tensor": worst(tensor),
        "roundtrip": worst(roundtrip),
    }


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_residuals_match_dense_commutators(dense, degree, hbar):
    q, r = build_canonical(hbar)
    m0, m0d = m0_matrices(q, r)
    forms = _form_residuals(q, r, m0, m0d, hbar)
    oracle = _dense_residuals(q, r, m0, m0d, hbar, dense, PolySpace(4, degree))
    if hbar == 1.0:
        assert forms == oracle == dict.fromkeys(forms, 0.0)
    else:
        assert max(forms.values()) <= 1e-12
        assert max(oracle.values()) <= 1e-12


def _perturbed(family, rng):
    """The family plus random symmetric terms on the form entries it uses, so that it keeps its degree."""
    noise = 0.1 * (rng.standard_normal(family.shape) + 1j * rng.standard_normal(family.shape))
    noise = noise.reshape(-1, 9, 9)
    noise = (noise + noise.swapaxes(1, 2)).reshape(family.shape)
    return family + noise * np.any(family != 0, axis=0)


@pytest.mark.parametrize("degree", [3, 4])
def test_perturbed_residuals_match_dense_commutators(dense, degree):
    # random coefficients make every residual O(0.1-1), so the two sides
    # must agree on the value, not only on a zero
    rng = np.random.default_rng(degree)
    q, r = build_canonical(0.7)
    m0, m0d = m0_matrices(q, r)
    q, r = _perturbed(q, rng), _perturbed(r, rng)
    m0, m0d = _perturbed(m0, rng), _perturbed(m0d, rng)
    forms = _form_residuals(q, r, m0, m0d, 0.7)
    oracle = _dense_residuals(q, r, m0, m0d, 0.7, dense, PolySpace(4, degree))
    assert min(oracle.values()) > 0.05
    for name in forms:
        assert forms[name] == pytest.approx(oracle[name], rel=1e-12), name


# -- forms, against letters composed on untruncated polynomials --------------------


def _letters(code):
    """The letters of a word code, the first acting first.

    A word is an int code whose base-9 digits are its letters, the least
    significant acting first: 0 is no letter, 1 + mu is Q_mu and 5 + nu is D_nu.
    """
    letters = []
    while code:
        code, letter = divmod(code, 9)
        letters.append(letter)
    return letters


def _then(a, b):
    """The code of word a after word b (b acting first)."""
    return a * 9 ** len(_letters(b)) + b


# zeta_i's letter is i (zeta = (1, x_0..x_3, d_0..d_3)), so form entry H_ij,
# column 9 i + j of a family, stands on the word zeta_i zeta_j
FORM_WORDS = [_then(i, j) for i in range(9) for j in range(9)]
_SPAN = 10 ** 4 * 64 ** 4  # above every key: fewer than 10^4 gammas, exponents in 0..63


def _compose(codes, gammas):
    """Each word applied to each monomial x^gamma, its letters composed on untruncated polynomials.

    A letter sends a monomial to one monomial, so a word does too.  Returns
    the (W, G) keys g 64^4 + image of every (word, gamma g), the image's
    exponents as base-64 digits, and their integer weights, 0 where a D met x^0.
    """
    images = np.repeat(gammas[None], len(codes), axis=0)
    weights = np.ones(images.shape[:2], np.int64)
    for w, code in enumerate(codes):
        for letter in _letters(int(code)):
            var = (letter - 1) % 4
            if letter >= 5:
                weights[w] *= images[w, :, var]
                images[w, :, var] -= 1
            else:
                images[w, :, var] += 1
    return np.arange(len(gammas)) * 64 ** 4 + images @ 64 ** np.arange(4), weights


def _terms(x, y, gammas, reverse=False):
    """X_i Y_j, or Y_j X_i if reverse, applied to each x^gamma: the terms' (op, key) codes and values, op i L + j.

    Every pair of nonzero entries, one of X_i and one of Y_j, gives the
    product of their words; each product is composed once, letter by letter.
    """
    i, a = np.nonzero(x)
    j, b = np.nonzero(y)
    i, a, j, b = np.repeat(i, len(j)), np.repeat(a, len(j)), np.tile(j, len(i)), np.tile(b, len(i))
    words, which = np.unique(np.stack([b, a] if reverse else [a, b], axis=1), axis=0, return_inverse=True)
    keys, weights = _compose([_then(FORM_WORDS[p], FORM_WORDS[q]) for p, q in words], gammas)
    codes = (i * len(y) + j)[:, None] * _SPAN + keys[which.ravel()]
    return codes.ravel(), ((x[i, a] * y[j, b])[:, None] * weights[which.ravel()]).ravel()


def _applied(forms, gammas):
    """Forms applied to each x^gamma, as the terms of their products with the form of 1."""
    return _terms(forms, np.eye(81)[:1], gammas)


def _polynomials(*terms):
    """The codes and sums of term lists, sorted by code, zeros dropped."""
    codes, values = (np.concatenate(t) for t in zip(*terms))
    keep = values != 0
    keys, inverse = np.unique(codes[keep], return_inverse=True)
    values = values[keep].astype(complex)
    sums = np.bincount(inverse, values.real) + 1j * np.bincount(inverse, values.imag)
    return keys[sums != 0], sums[sums != 0]


def _bracket_by_letters(x, y, sign, gammas):
    """X_i Y_j + sign Y_j X_i applied to each x^gamma, every product of entry words composed letter by letter."""
    codes, values = _terms(x, y, gammas, reverse=True)
    return _polynomials(_terms(x, y, gammas), (codes, sign * values))


def _assert_same_polynomials(got, want):
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _basis_forms():
    """The 45 symmetric basis forms, E_ii and E_ij + E_ji for i < j, row-major; the first nine are of degree <= 1.

    Real, as a caller may pass them.
    """
    forms = np.zeros((45, 9, 9))
    i, j = np.triu_indices(9)
    forms[np.arange(45), i, j] = forms[np.arange(45), j, i] = 1.0
    return forms.reshape(45, 81)


def test_products_and_commutators_match_the_composed_letters():
    # `_commutators` on every pair of the 45 symmetric basis forms and
    # `_products` on every pair of the nine of degree <= 1, applied to each
    # monomial of degree <= 6, against their entries' words composed on
    # untruncated polynomials, as exact integers
    basis, gammas = _basis_forms(), PolySpace(4, 6).exponents
    low = basis[:9]
    _assert_same_polynomials(_polynomials(_applied(quantum_rep._products(low, low), gammas)),
                             _polynomials(_terms(low, low, gammas)))
    _assert_same_polynomials(_polynomials(_applied(quantum_rep._commutators(basis, basis), gammas)),
                             _bracket_by_letters(basis, basis, -1.0, gammas))


def test_families_are_symmetric_forms(rep):
    # every family a job builds, and each bracket and product of them, is a
    # symmetric form, the one operator zeta^T H zeta that a check reads
    _, a_ops, k_ops, m0, m0d = rep
    families = [a_ops, k_ops, m0, m0d, *three_vector_form(m0, m0d), tensor_form(m0, m0d),
                quantum_rep._commutators(m0, m0d), quantum_rep._products(k_ops, a_ops)]
    for family in families:
        forms = family.reshape(-1, 9, 9)
        assert np.array_equal(forms, forms.swapaxes(1, 2))
    for fixed in (quantum_rep._OMEGA, quantum_rep._WEYL):
        with pytest.raises(ValueError, match="read-only"):
            fixed[...] = 0


def test_module_level_arrays_stay_small():
    # the brackets need no fixed map: the module's arrays, which every
    # subcommand imports, hold the Pauli matrices, eps_ijk, Omega and the
    # Weyl weights only
    arrays = [v for v in vars(quantum_rep).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= 4096


def test_r_q_commutator_is_exact_at_hbar_1e308():
    q, r = build_canonical(1e308)
    got = quantum_rep._commutators(r, q).reshape(4, 4, -1)
    want = np.zeros_like(got)
    want[:, :, 0] = -1j * 1e308 * eta4()
    assert np.array_equal(got, want)


def _on_union(got, want):
    """Two (keys, values) polynomials as value rows over the union of their keys."""
    keys = np.union1d(got[0], want[0])
    on_keys = np.zeros((2, len(keys)), complex)
    on_keys[0, np.searchsorted(keys, got[0])] = got[1]
    on_keys[1, np.searchsorted(keys, want[0])] = want[1]
    return on_keys


def test_products_refuse_rows_of_degree_two():
    forms = np.zeros((1, 81), complex)
    forms[0, 9 * 1 + 1] = 1.0  # x_0^2
    with pytest.raises(ValueError, match="degree <= 1"):
        quantum_rep._products(forms, forms)


def _random_forms(rng, k, degree):
    """k random symmetric complex forms on every entry, or for degree 1 on row and column 0."""
    forms = rng.standard_normal((k, 9, 9)) + 1j * rng.standard_normal((k, 9, 9))
    forms = forms + forms.swapaxes(1, 2)
    if degree == 1:
        forms[:, 1:, 1:] = 0.0
    return forms.reshape(k, 81)


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_bracket_matches_dense_products(degree, sign):
    # X_i Y_j + sign Y_j X_i on every monomial of degree <= degree, every
    # product of entry words composed letter by letter, against its form:
    # from `_commutators` (sign -1) on random forms of degree <= 2, from
    # `_products` (sign +1, as {A, K} is) on random forms of degree <= 1
    rng = np.random.default_rng(degree)
    form_degree = 2 if sign == -1.0 else 1
    x, y = _random_forms(rng, 2, form_degree), _random_forms(rng, 3, form_degree)
    if sign == -1.0:
        rows = quantum_rep._commutators(x, y)
    else:
        yx = quantum_rep._products(y, x).reshape(3, 2, -1).swapaxes(0, 1).reshape(6, -1)
        rows = quantum_rep._products(x, y) + yx
    assert rows.shape == (2 * 3, 81)
    gammas = PolySpace(4, degree).exponents
    got = _polynomials(_applied(rows, gammas))
    want = _bracket_by_letters(x, y, sign, gammas)
    assert np.max(np.abs(want[1])) > 1.0
    # the letters' top-degree terms cancel only up to round-off, so the two
    # are compared on the union of their keys
    on_keys = _on_union(got, want)
    assert np.max(np.abs(on_keys[0] - on_keys[1])) <= 1e-13 * np.max(np.abs(want[1]))


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would fail the run
@pytest.mark.parametrize("hbar", [1e308, 1e200, 1e-310, 5e-324, 0.7])
def test_m0_at_any_hbar_is_the_mantissa_build_scaled(hbar):
    # M0 forms K A at K's mantissa: at 1e308 its ordering constants would
    # overflow before they cancel, and at a subnormal hbar its halvings round
    e = math.frexp(hbar)[1] - 1
    unit = m0_matrices(*build_canonical(math.ldexp(hbar, -e)))
    for got, want in zip(m0_matrices(*build_canonical(hbar)), unit, strict=True):
        assert np.all(np.isfinite(got))
        assert np.array_equal(got.view(float), np.ldexp(want.view(float), e))


def _x_d():
    """The (9, 9) mask of the form entries of the x_mu d_nu, H_(1+mu),(5+nu) and its mirror."""
    mask = np.zeros((9, 9), bool)
    mask[1:5, 5:] = True
    return mask | mask.T


def test_m0_and_m0dag_share_one_alphabet(rep):
    # both live on the 12 monomials x_mu d_nu, mu != nu, every form on some of
    # them: M0's ordering constants, from its products D_nu Q_mu, cancel
    m0, m0d = rep[3], rep[4]
    distinct = _x_d() & ~(np.eye(9, k=4, dtype=bool) | np.eye(9, k=-4, dtype=bool))
    for family in (m0, m0d):
        assert np.array_equal(np.any(family != 0, axis=0), distinct.reshape(81))
        assert np.all(np.any(family != 0, axis=1))
    # J^z's Q R lives on all 16 x_mu d_nu, and in Weyl order on the constant
    # too: x_nu d_nu = (x_nu d_nu + d_nu x_nu) / 2 - 1/2
    qr = quantum_rep._products(rep[1], rep[2])
    with_one = _x_d()
    with_one[0, 0] = True
    assert np.array_equal(np.any(qr != 0, axis=0), with_one.reshape(81))


def _recorded_commutators(rep, monkeypatch):
    """The (x, y) and the forms of each `_commutators` call one job's checks make."""
    calls = []
    commutators = quantum_rep._commutators

    def recorded(x, y):
        rows = commutators(x, y)
        calls.append(((x, y), rows.copy()))  # canonical's gap is formed in place
        return rows

    monkeypatch.setattr(quantum_rep, "_commutators", recorded)
    _form_residuals(rep[1], rep[2], rep[3], rep[4], rep[0])
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("hbar", [0.7, 1.0, 3.0, 1e100])
def test_bilinear_gaps_equal_the_whole_family(monkeypatch, hbar):
    # each commutator a job's checks take, applied to every monomial of degree
    # <= 3, against its whole grid of entry words composed letter by letter:
    # the same values up to the round-off of the two summation orders, and
    # the same bits at hbar = 1
    calls = _recorded_commutators(_rep(hbar), monkeypatch)
    assert len(calls) == 6  # canonical, [A, A], [K, K], closure, su2, tensor
    gammas = PolySpace(4, 3).exponents
    for (x, y), rows in calls:
        got = _polynomials(_applied(rows, gammas))
        want = _bracket_by_letters(x, y, -1.0, gammas)
        if hbar == 1.0:
            _assert_same_polynomials(got, want)
        else:
            on_keys = _on_union(got, want)
            assert np.max(np.abs(on_keys[0] - on_keys[1]), initial=0.0) <= 1e-13 * max(hbar, hbar ** 2)


# -- J^z in Weyl form --------------------------------------------------------------


@pytest.mark.parametrize("hbar", [0.3, 0.7, 1e-300, 1e100, 1e200, math.pi])
def test_jz_gap_is_exact_at_any_hbar(hbar):
    # both sides have the same forms bit for bit, so the gap
    # is an exact 0, not round-off (a truncated space's entries read up to
    # 6.8e-16 here)
    _, q, r, m0, m0d = _rep(hbar)
    assert jz_residual(q, r, m0, m0d, hbar) == 0.0


@pytest.mark.parametrize("columns", ["m0-alphabet", "off-support"])
def test_jz_gap_matches_the_dense_normal_coefficients(dense, columns):
    # random symmetric terms on the entries M0 and M0dag use make the gap
    # O(0.1-1); off their support, on 1, the x and the d as well, which J^z
    # reads too.  The oracle turns the dense gap's normal coefficients into
    # Weyl-ordered ones
    rng = np.random.default_rng(7)
    hbar, q_forms, r_forms, m0, m0d = _rep(0.7)
    support = np.any(np.vstack([m0, m0d]) != 0, axis=0).reshape(9, 9)
    if columns == "off-support":
        support[0] = support[:, 0] = True

    def noisy(family):
        noise = 0.1 * rng.standard_normal(family.shape).reshape(-1, 9, 9)
        return family + ((noise + noise.swapaxes(1, 2)) * support).reshape(family.shape)

    m0, m0d = noisy(m0), noisy(m0d)
    space = PolySpace(4, 3)
    d0, dd = dense(m0, space), dense(m0d, space)
    q, r = dense(q_forms, space), dense(r_forms, space)
    gap = 0.5j * (d0[1] - dd[1]) - (q[1] @ r[2] - q[2] @ r[1])
    want = _weyl_largest(gap[None], space) / hbar
    assert want > 0.05
    assert jz_residual(q_forms, r_forms, m0, m0d, hbar) == pytest.approx(want, rel=1e-12)


def test_a_warm_job_keeps_a_small_working_set(tmp_path):
    # every check multiplies 9x9 forms and builds no space, so a warm job
    # peaks well under 1 MiB at any degree (J^z on a truncated space took
    # degree 20 to 3.2 MiB)
    for degree in ("5", "20"):
        argv = ["quantum-check", "--degree", degree, "--report", str(tmp_path / "r.json")]
        assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2 ** 20, degree


def test_checks_build_no_weights_per_call(monkeypatch):
    # every weight that does not depend on hbar is a module constant, built
    # at import: a job's checks apply hbar and the quaternion units only
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: calls.append(args[0]) or einsum(*args, **kwargs))
    for hbar in (0.7, 1e100):
        quantum_checks(5, hbar)
    assert calls == []


def test_warm_checks_peak_small():
    # each bracket's 2 (A + A^T) is summed into one contiguous copy of A:
    # summing the strided views into a new array took the peak to 406 KiB
    quantum_checks(5, 0.7)
    tracemalloc.start()
    try:
        quantum_checks(5, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.36 * 2 ** 20


# -- every check can fail --------------------------------------------------------


def test_built_families_have_no_empty_block(rep, dense):
    # an empty block would make every residual built on it an exact 0.0
    m0, m0d = rep[3], rep[4]
    space = SPACE
    n, nd = three_vector_form(m0, m0d)
    for family in (*rep[1:3], m0, m0d, n, nd):
        assert np.all(np.count_nonzero(dense(family, space), axis=(1, 2)) > 0)
    per_block = np.count_nonzero(dense(tensor_form(m0, m0d), space), axis=(1, 2)).reshape(4, 4)
    assert np.all(np.diag(per_block) == 0)  # M_{mu mu} = 0 by antisymmetry
    assert np.all(per_block[~np.eye(4, dtype=bool)] > 0)


def test_m0_gives_jz_from_the_canonical_pairs(rep, dense):
    # J^z = i/2 (M0_(12) - M0dag_(12)) = Q_1 R_2 - Q_2 R_1 ties M0 to Q and R
    space = SPACE
    m0, m0d = (dense(m, space).reshape(2, 2, space.dim, space.dim) for m in rep[3:5])
    safe = space.safe_columns()
    q, r = (dense(f, space) for f in rep[1:3])
    gap = 0.5j * (m0[0, 1] - m0d[0, 1]) - (q[1] @ r[2] - q[2] @ r[1])
    assert np.max(np.abs(gap[:, safe])) == 0.0
    assert np.max(np.abs(q[1] @ r[2] - q[2] @ r[1])) > 0.0
    assert jz_residual(*rep[1:5], rep[0]) == 0.0


def _mutant(monkeypatch, old, new):
    """A copy of quantum_rep whose source has one fragment replaced."""
    source = inspect.getsource(quantum_rep)
    assert source.count(old) == 1
    mod = types.ModuleType("cliffstring._quantum_rep_mutant")
    mod.__package__ = "cliffstring"
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    exec(compile(source.replace(old, new), quantum_rep.__file__, "exec"), vars(mod))
    return mod


def _nonzero_residuals(mod, hbar=1.0):
    return {name: r for name, (r, _) in mod.quantum_checks(3, hbar)[0].items() if r != 0.0}


def test_canonical_and_mixed_trip_on_a_wrong_derivative_weight(monkeypatch):
    # Omega's d-x entry with D_nu Q_mu = Q_mu D_nu + 2 delta_{mu nu}: the
    # brackets and the products' constant both read it
    mutant = _mutant(monkeypatch, "_OMEGA[_D, _X] = np.eye(4)", "_OMEGA[_D, _X] = 2 * np.eye(4)")
    q, r = mutant.build_canonical(hbar=1.0)
    assert mutant.canonical_residual(q, r, 1.0) == 1.0
    assert mutant.mixed_algebra_residual(q, r, 1.0) == 1.0
    assert _nonzero_residuals(mutant) == {"canonical": 1.0, "mixed": 1.0, "closure": 4.0, "su2": 0.5,
                                          "tensor": 1.0}


def test_mixed_trips_on_a_wrong_ordering_constant(monkeypatch):
    # the products' constant 1/2 u^T Omega v doubled, as if d_nu x_nu were
    # x_nu d_nu + 2 there alone: M0's ordering constants cancel at any
    # weight, and J^z's Q R meets no constant on the M0 side, so {A, K} alone moves
    product_constant = "+= p.reshape(len(x), len(y), _FORM) @ _OMEGA.reshape(_FORM)"
    mutant = _mutant(monkeypatch, product_constant, product_constant.replace("+= ", "+= 2 * "))
    assert _nonzero_residuals(mutant) == {"mixed": 1.0}


def test_brackets_trip_on_a_wrong_bracket_factor(monkeypatch):
    # [zeta^T H zeta, zeta^T G zeta] with 1 for its factor 2 halves every
    # commutator; the products do not use it, so J^z holds
    mutant = _mutant(monkeypatch, "s *= 2", "s *= 1")
    assert _nonzero_residuals(mutant) == {"canonical": 0.5, "closure": 2.0, "su2": 0.25, "tensor": 0.5}


def test_checks_trip_on_unsymmetrized_products(monkeypatch):
    # u v^T stored as it stands is no symmetric form: the brackets of M0 and
    # the readings of {A, K} and J^z go wrong with it
    mutant = _mutant(monkeypatch, "s = p + p.swapaxes(2, 3)", "s = 2 * p")
    assert _nonzero_residuals(mutant) == {"mixed": 2.0, "closure": 8.0, "su2": 1.0, "tensor": 2.0,
                                          "jz_integrality": 1.0}


def test_mixed_trips_on_a_commuting_fold(monkeypatch):
    # kj = jk = i turns {A, K} into i {Q, R}; Q and R are untouched
    monkeypatch.setattr(quantum_rep, "_KJ", 1j)
    q, r = build_canonical(hbar=1.0)
    assert canonical_residual(q, r, 1.0) == 0.0
    assert mixed_algebra_residual(q, r, 1.0) > 1e-10


def _flipped(monkeypatch, name, factor):
    """A mutant whose constant `name` is built with `factor` negated on its first definition line."""
    line = next(line for line in inspect.getsource(quantum_rep).splitlines() if line.startswith(f"{name} = "))
    return _mutant(monkeypatch, line, line.replace(factor, f"(-{factor})"))


def test_closure_trips_on_a_flipped_eps(rep, monkeypatch):
    # eps flipped in the closure's coefficients alone; M0 is built as before
    hbar, m0, m0d = rep[0], rep[3], rep[4]
    mutant = _flipped(monkeypatch, "_CLOSURE", "EPS")
    assert mutant.lorentz_closure_residual(m0, m0d, hbar) > 1e-10


def _flip_sigma_y(monkeypatch):
    s4 = quantum_rep._S4.copy()
    s4[2] = -s4[2]
    monkeypatch.setattr(quantum_rep, "_S4", s4)
    return quantum_rep


def _commuting_fold(monkeypatch):
    monkeypatch.setattr(quantum_rep, "_KJ", 1j)
    return quantum_rep


@pytest.mark.parametrize("mutate, want, entry", [
    (lambda mp: _flipped(mp, "_M0_WEIGHTS", "EPS"), 2.0, 8.0),  # eps^{E L} in M0's weights
    (_flip_sigma_y, 2.0, 8.0),
    (_commuting_fold, 1.0, 4.0),
], ids=["flipped-eps", "flipped-sigma-y", "commuting-fold"])
def test_jz_trips_on_a_broken_m0(monkeypatch, dense, mutate, want, entry):
    # a flipped eta is no such mutant: it moves R, so both sides of the identity
    mod = mutate(monkeypatch)
    q_forms, r_forms = mod.build_canonical(1.0)
    m0, m0d = mod.m0_matrices(q_forms, r_forms)
    assert mod.jz_residual(q_forms, r_forms, m0, m0d, 1.0) == want
    # the dense oracle reads the same gap: its largest Weyl coefficient, and
    # its largest matrix entry on the safe columns of degree <= 4
    space = PolySpace(4, 5)
    m0, m0d = (dense(m, space) for m in (m0, m0d))
    q, r = dense(q_forms, space), dense(r_forms, space)
    gap = 0.5j * (m0[1] - m0d[1]) - (q[1] @ r[2] - q[2] @ r[1])
    assert _weyl_largest(gap[None], space) == want
    assert np.max(np.abs(gap[:, space.safe_columns()])) == entry


def test_su2_trips_on_a_flipped_eps3(rep, monkeypatch):
    hbar, m0, m0d = rep[0], rep[3], rep[4]
    n, nd = three_vector_form(m0, m0d)
    monkeypatch.setattr(quantum_rep, "_EPS3", -quantum_rep._EPS3)
    assert su2_closure_residual(n, nd, hbar) > 1e-10


def test_tensor_trips_on_a_flipped_eta(rep, monkeypatch):
    # eta flipped in the tensor algebra's coefficients alone
    hbar, m0, m0d = rep[0], rep[3], rep[4]
    mt = tensor_form(m0, m0d)
    mutant = _flipped(monkeypatch, "_TENSOR", "_ETA")
    assert mutant.tensor_algebra_residual(mt, hbar) > 1e-10


def test_tensor_trips_on_a_symmetric_part(rep):
    # M_{00} = I leaves the commutators of the six M_{mu<nu} alone but
    # breaks M_{mu nu} = -M_{nu mu}
    hbar, m0, m0d = rep[0], rep[3], rep[4]
    mt = tensor_form(m0, m0d)
    bumped = mt.copy()
    bumped[0, 0] += 1.0  # the monomial 1, on M_00 only
    assert tensor_algebra_residual(bumped, hbar) == 2.0


def test_roundtrip_trips_on_a_perturbed_m0_block(rep):
    m0, m0d = rep[3], rep[4]
    mt = tensor_form(m0, m0d)
    perturbed = m0.copy().reshape(4, 9, 9)
    i, j = np.argwhere(perturbed[0])[0]  # a monomial of M0_(11), off the diagonal
    perturbed[0, i, j] += 0.25
    perturbed[0, j, i] += 0.25
    assert spinor_tensor_roundtrip_residual(perturbed.reshape(4, 81), mt) == 0.5


def _with_nan(family, row=0):
    """Copy of a family with one operator's constant H_00 set to NaN."""
    family = family.copy()
    family[row, 0] = np.nan
    return family


@pytest.mark.parametrize("check", ["canonical", "mixed", "closure", "su2", "tensor", "roundtrip", "jz"])
def test_nan_on_a_safe_column_gives_a_nan_residual(rep, check):
    hbar, q, r, m0, m0d = rep
    if check == "canonical":
        residual = canonical_residual(_with_nan(q), r, hbar)
    elif check == "mixed":
        residual = mixed_algebra_residual(_with_nan(q), r, hbar)
    elif check == "closure":
        residual = lorentz_closure_residual(_with_nan(m0), m0d, hbar)
    elif check == "su2":
        n, nd = three_vector_form(m0, m0d)
        residual = su2_closure_residual(_with_nan(n), nd, hbar)
    elif check == "tensor":
        residual = tensor_algebra_residual(_with_nan(tensor_form(m0, m0d)), hbar)
    elif check == "jz":
        residual = jz_residual(q, r, _with_nan(m0, row=1), m0d, hbar)  # in M0_(12)
    else:
        residual = spinor_tensor_roundtrip_residual(_with_nan(m0), tensor_form(m0, m0d))
    assert np.isnan(residual)
