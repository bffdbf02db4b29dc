import dataclasses
import functools
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
    CanonicalPairs,
    Family,
    PolySpace,
    build_canonical,
    canonical_residual,
    integrality_residual,
    jz_residual,
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


def _rep(degree, hbar):
    pairs = build_canonical(degree, hbar)
    a_ops, k_ops = quaternion_pairs(pairs)
    m0, m0d = m0_matrices(a_ops, k_ops)
    return pairs, a_ops, k_ops, m0, m0d


@pytest.fixture(scope="module")
def rep():
    return _rep(DEGREE, 1.0)


def _eps3():
    eps3 = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps3[i, j, k] = 1.0
        eps3[j, i, k] = -1.0
    return eps3


def test_space_dimensions(rep):
    pairs = rep[0]
    # polynomials in 4 variables of degree <= 6, minus the sacrificial top layer
    assert pairs.space.dim == 210
    assert int(np.sum(pairs.space.safe_columns())) == 126


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
    assert canonical_residual(rep[0]) == 0.0


def test_canonical_relations_generic_hbar():
    pairs = build_canonical(degree=4, hbar=0.7)
    assert canonical_residual(pairs) <= 1e-12


def test_mixed_algebra_exact(rep):
    pairs, a_ops, k_ops = rep[0], rep[1], rep[2]
    assert mixed_algebra_residual(a_ops, k_ops, pairs.space, pairs.hbar) == 0.0


def test_m0_blocks_are_symmetric(rep):
    m0, m0d = rep[3], rep[4]
    assert np.array_equal(m0.coeffs[1], m0.coeffs[2])
    assert np.array_equal(m0d.coeffs[1], m0d.coeffs[2])


def test_lorentz_closure_exact(rep):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    assert lorentz_closure_residual(m0, m0d, pairs.space, pairs.hbar) == 0.0


def test_su2_closure_and_reordered_convention(rep, dense):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    safe = pairs.space.safe_columns()
    n, nd = three_vector_form(m0, m0d)
    assert su2_closure_residual(n, nd, pairs.space, pairs.hbar) == 0.0
    # swapping the first two components flips the handedness, so the same
    # triple closes with the opposite sign of i*hbar
    n = dense(n, pairs.space)
    ns = np.array([n[1], n[0], n[2]])
    eps3 = _eps3()
    worst = 0.0
    for i in range(3):
        for j in range(3):
            comm = ns[i] @ ns[j] - ns[j] @ ns[i]
            rhs = sum(1j * pairs.hbar * eps3[i, j, k] * ns[k] for k in range(3))
            worst = max(worst, float(np.max(np.abs((comm - rhs)[:, safe]))))
    assert worst == 0.0


def test_tensor_algebra_exact(rep):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    assert tensor_algebra_residual(tensor_form(m0, m0d), pairs.space, pairs.hbar) == 0.0


def test_tensor_assembles_from_three_vector(rep, dense):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    space = pairs.space
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
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    assert spinor_tensor_roundtrip_residual(m0, tensor_form(m0, m0d), pairs.space) == 0.0


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
        build_canonical(degree=1)


# -- against plain matrix commutators ----------------------------------------------


def _word_residuals(pairs, m0, m0d):
    space, hbar = pairs.space, pairs.hbar
    a_ops, k_ops = quaternion_pairs(pairs)
    n, nd = three_vector_form(m0, m0d)
    mt = tensor_form(m0, m0d)
    return {
        "canonical": canonical_residual(pairs),
        "mixed": mixed_algebra_residual(a_ops, k_ops, space, hbar),
        "closure": lorentz_closure_residual(m0, m0d, space, hbar),
        "su2": su2_closure_residual(n, nd, space, hbar),
        "tensor": tensor_algebra_residual(mt, space, hbar),
        "roundtrip": spinor_tensor_roundtrip_residual(m0, mt, space),
    }


def _dense_residuals(pairs, m0, m0d, dense):
    """The same residuals from dense matrices, written out index by index."""
    space, hbar = pairs.space, pairs.hbar
    safe, dim, eta = space.safe_columns(), space.dim, eta4()
    eye = np.eye(dim)

    def comm(x, y):
        return x @ y - y @ x

    def worst(gaps, columns=safe):
        return float(np.max([np.max(np.abs(g[:, columns])) for g in gaps]))

    q, r = dense(pairs.q, space), dense(pairs.r, space)
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
        "roundtrip": worst(roundtrip, slice(None)),
    }


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_residuals_match_dense_commutators(dense, degree, hbar):
    pairs = build_canonical(degree, hbar)
    m0, m0d = m0_matrices(*quaternion_pairs(pairs))
    words = _word_residuals(pairs, m0, m0d)
    oracle = _dense_residuals(pairs, m0, m0d, dense)
    if hbar == 1.0:
        assert words == oracle == dict.fromkeys(words, 0.0)
    else:
        assert max(words.values()) <= 1e-12
        assert max(oracle.values()) <= 1e-12


def _perturbed(family, rng):
    """The family plus random terms on its words in reverse order (so equal words merge)."""
    noise = 0.1 * (rng.standard_normal(family.coeffs.shape)
                   + 1j * rng.standard_normal(family.coeffs.shape))
    return Family(np.hstack([family.coeffs, noise]),
                  np.concatenate([family.codes, family.codes[::-1]]))


@pytest.mark.parametrize("degree", [3, 4])
def test_perturbed_residuals_match_dense_commutators(dense, degree):
    # random coefficients make every residual O(0.1-1), so the two sides
    # must agree on the value, not only on a zero
    rng = np.random.default_rng(degree)
    pairs = build_canonical(degree, 0.7)
    m0, m0d = m0_matrices(*quaternion_pairs(pairs))
    pairs = CanonicalPairs(pairs.space, _perturbed(pairs.q, rng), _perturbed(pairs.r, rng), 0.7)
    m0, m0d = _perturbed(m0, rng), _perturbed(m0d, rng)
    words = _word_residuals(pairs, m0, m0d)
    oracle = _dense_residuals(pairs, m0, m0d, dense)
    assert min(oracle.values()) > 0.05
    for name in words:
        assert words[name] == pytest.approx(oracle[name], rel=1e-12), name


# -- brackets on one word alphabet -------------------------------------------------

# Q_0, D_2, D_1 Q_3, Q_2 D_0, Q_1 Q_1, D_3 D_0 (the lowest base-9 digit acts first)
_ALPHABET = np.array([1, 7, 6 * 9 + 4, 3 * 9 + 5, 2 * 9 + 2, 8 * 9 + 5])



def _random_family(rng, k, codes):
    shape = (k, len(codes))
    return Family(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), codes)


def _dense_bracket(x, y, sign, space, dense):
    """X_i Y_j + sign Y_j X_i from dense matrices, as operator i L + j."""
    xs, ys = dense(x, space), dense(y, space)
    return np.array([xs[i] @ ys[j] + sign * ys[j] @ xs[i]
                     for i in range(len(xs)) for j in range(len(ys))])


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_bracket_matches_dense_products(dense, degree, sign):
    rng = np.random.default_rng(degree)
    space = PolySpace(4, degree)
    x = _random_family(rng, 2, _ALPHABET)
    y = _random_family(rng, 3, _ALPHABET)
    bracket = quantum_rep._brackets(x, y, sign)
    assert len(bracket.codes) == len(_ALPHABET) ** 2  # one grid of words a b, listed once
    want = _dense_bracket(x, y, sign, space, dense)
    assert np.max(np.abs(want)) > 1.0
    assert np.max(np.abs(dense(bracket, space) - want)) <= 1e-13 * np.max(np.abs(want))


def test_bracket_on_two_alphabets_is_the_bracket_on_their_stack(dense):
    # the two alphabets share the word D_1 Q_3
    rng = np.random.default_rng(11)
    space = PolySpace(4, 4)
    a, b = _ALPHABET[:3], _ALPHABET[2:]
    x = _random_family(rng, 2, a)
    y = _random_family(rng, 3, b)
    codes = np.concatenate([a, b])
    x_on_stack = Family(np.hstack([x.coeffs, np.zeros((2, len(b)))]), codes)
    y_on_stack = Family(np.hstack([np.zeros((3, len(a))), y.coeffs]), codes)
    for sign in (-1.0, 1.0):
        got = dense(quantum_rep._brackets(x, y, sign), space)
        on_stack = dense(quantum_rep._brackets(x_on_stack, y_on_stack, sign), space)
        assert np.array_equal(got, on_stack)
        want = _dense_bracket(x, y, sign, space, dense)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_m0_and_m0dag_share_one_alphabet(rep):
    m0, m0d = rep[3], rep[4]
    assert np.array_equal(m0.codes, m0d.codes)
    assert len(np.unique(m0.codes)) == len(m0.codes) == 32
    # M0 lives on the 16 words D_nu Q_mu, M0dag on the 16 words Q_mu D_nu after them
    assert np.all(m0.codes[:16] // 9 >= 5) and np.all(m0.codes[:16] % 9 < 5)
    assert np.all(m0.codes[16:] // 9 < 5) and np.all(m0.codes[16:] % 9 >= 5)
    assert not np.any(m0.coeffs[:, 16:]) and not np.any(m0d.coeffs[:, :16])
    assert np.all(np.any(m0.coeffs[:, :16], axis=1)) and np.all(np.any(m0d.coeffs[:, 16:], axis=1))


def _streams(rep, monkeypatch):
    """Per check, the (codes, blocks, space, safe) of its `_max_abs` call, and the residuals.

    The blocks are listed as the check streamed them, in check order.
    """
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    streams = []
    evaluate = quantum_rep._max_abs

    def recorded(codes, blocks, space, safe=True):
        blocks = list(blocks)
        streams.append((codes, blocks, space, safe))
        return evaluate(codes, iter(blocks), space, safe)

    monkeypatch.setattr(quantum_rep, "_max_abs", recorded)
    residuals = _word_residuals(pairs, m0, m0d)
    monkeypatch.undo()
    return dict(zip(residuals, streams)), residuals


def _gap_calls(rep, monkeypatch):
    """The (family, space, safe) of each `_max_abs` call one job's checks make, in check order.

    Each family is the concatenation of the row blocks its check streamed.
    """
    return [(Family(np.concatenate(blocks), codes), space, safe)
            for codes, blocks, space, safe in _streams(rep, monkeypatch)[0].values()]


def _max_abs(f, space, safe):
    """`quantum_rep._max_abs` of a whole family, as one block."""
    return quantum_rep._max_abs(f.codes, [f.coeffs], space, safe)


def _gap_families(rep, monkeypatch):
    """The families one job's checks evaluate, in check order."""
    return [f for f, _, _ in _gap_calls(rep, monkeypatch)]


def test_gap_families_list_each_word_of_the_grid_once(rep, monkeypatch):
    # canonical: 8 x 8 + the identity; mixed: 4 x 4 (A A), 4 x 4 (K K), 8 x 8
    # (A K on their stack) + the identity; closure, su2: 32 x 32 + M0 or N;
    # tensor: M_{mu nu} + 32 x 32 + M; roundtrip: the 32 words of M0
    sizes = [len(f.codes) for f in _gap_families(rep, monkeypatch)]
    assert sizes == [65, 97, 1056, 1056, 1088, 32]


# -- one decode per alphabet -----------------------------------------------------


def _key(f):
    return f.codes.astype(np.int64).tobytes()


def test_cached_word_classes_match_a_fresh_decode(rep, monkeypatch):
    for f in _gap_families(rep, monkeypatch):
        cached = quantum_rep._word_classes(_key(f))
        fresh = quantum_rep._word_classes.__wrapped__(_key(f))
        assert cached is quantum_rep._word_classes(_key(f))
        assert len(cached) == len(fresh)
        for got, want in zip(cached, fresh):
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want)
            else:
                assert got == want


def test_cached_word_classes_are_read_only(rep, monkeypatch):
    for f in _gap_families(rep, monkeypatch):
        arrays = [a for a in quantum_rep._word_classes(_key(f)) if isinstance(a, np.ndarray)]
        assert len(arrays) == 6  # perm, first, starts, sizes, rise, reads
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


def test_a_job_decodes_each_alphabet_once(monkeypatch, tmp_path):
    report = str(tmp_path / "r.json")
    cache = quantum_rep._word_classes
    cache.cache_clear()
    assert cli.main(["quantum-check", "--degree", "5", "--report", report]) == 0
    assert (cache.cache_info().misses, cache.cache_info().hits) == (6, 1)  # closure and su2 share
    assert cli.main(["quantum-check", "--degree", "6", "--report", report]) == 0
    assert (cache.cache_info().misses, cache.cache_info().hits) == (6, 8)
    # the words of each decoded alphabet, through a fresh cache of the same size
    decoded = []

    def decode(codes):
        decoded.append(len(codes) // 8)
        return cache.__wrapped__(codes)

    maxsize = cache.cache_parameters()["maxsize"]
    monkeypatch.setattr(quantum_rep, "_word_classes", functools.lru_cache(maxsize)(decode))
    for degree in ("5", "6"):
        assert cli.main(["quantum-check", "--degree", degree, "--report", report]) == 0
    assert decoded == [65, 97, 1056, 1088, 32, 48]


def test_word_class_cache_is_bounded():
    maxsize = quantum_rep._word_classes.cache_parameters()["maxsize"]
    assert maxsize is not None and maxsize >= 6  # one job's alphabets stay cached


# -- shift classes that cancel exactly are skipped --------------------------------


def _every_class_max_abs(f, space, safe):
    """`_max_abs` as a loop over every shift class, none skipped."""
    columns = space.safe_columns() if safe else slice(None)
    exps, degrees = space.exponents[columns].T, space.degrees[columns]
    letters, perm, first, starts, sizes, rise, reads = quantum_rep._word_classes(_key(f))
    coeffs = np.add.reduceat(f.coeffs.T[perm], first).T
    span = 2 * letters + 1
    factors = np.concatenate([
        (exps[:, None] + np.arange(-letters, letters + 1)[:, None]).reshape(4 * span, -1),
        np.ones((1, exps.shape[1])),
    ])
    weights = (degrees + rise[:, None] <= space.degree).astype(float)
    for read in reads:
        weights *= factors[read]
    stacked = np.concatenate([coeffs.real, coeffs.imag])
    k = coeffs.shape[0]
    tops = []
    for lo, hi in zip(starts.tolist(), (starts + sizes).tolist()):
        entries = stacked[:, lo:hi] @ weights[lo:hi]
        top = np.abs(entries).max(initial=0.0)
        if 0.0 < top < np.inf:
            scale = 2.0 ** min(-int(np.frexp(top)[1]), 1023)
            np.square(entries * scale, out=entries)
            top = math.sqrt(np.max(entries[:k] + entries[k:])) / scale
        tops.append(top)
    return float(np.max(tops))


def _live(f):
    """Per shift class of a family, whether any of its merged coefficients is nonzero."""
    _, perm, first, starts, _, _, _ = quantum_rep._word_classes(_key(f))
    merged = np.add.reduceat(f.coeffs.T[perm], first)
    return np.logical_or.reduceat(np.any(merged != 0, axis=1), starts)


@pytest.mark.parametrize("hbar", [0.7, 1.0, 1e100, 1e-300, 1e308])
@pytest.mark.parametrize("degree", [3, 6, 9])
def test_skipping_cancelled_classes_is_exact(monkeypatch, degree, hbar):
    # only whole classes may go: dropping the zero words inside a live class
    # changes the product's blocking, which moves round-off from degree 9 on
    with np.errstate(all="ignore"):  # a huge hbar overflows the operators
        for f, space, safe in _gap_calls(_rep(degree, hbar), monkeypatch):
            want = _every_class_max_abs(f, space, safe)
            assert _max_abs(f, space, safe).hex() == want.hex()


@pytest.mark.parametrize("degree", [3, DEGREE])
def test_most_classes_cancel_exactly(monkeypatch, degree):
    # the identities cancel exactly once equal-acting words merge, which is
    # what the skip saves; (live, all) classes per family in check order
    live = [_live(f) for f in _gap_families(_rep(degree, 1.0), monkeypatch)]
    counts = [(int(np.sum(x)), len(x)) for x in live]
    assert counts == [(13, 33), (13, 33), (12, 55), (12, 55), (12, 55), (0, 13)]


def _planted(f, word, value):
    """Copy of a family with `value` on one word of its first operator."""
    coeffs = f.coeffs.copy()
    coeffs[0, word] = value
    return dataclasses.replace(f, coeffs=coeffs)


@pytest.mark.parametrize("check", range(6))
def test_skipping_hides_no_planted_value(rep, monkeypatch, check):
    f, space, safe = _gap_calls(rep, monkeypatch)[check]
    _, perm, first, starts, _, _, _ = quantum_rep._word_classes(_key(f))
    merged = starts[np.flatnonzero(~_live(f))[0]]  # first merged word of a cancelled class
    words = perm[first[merged]:np.append(first, len(perm))[merged + 1]]
    assert not np.any(f.coeffs[:, words])  # so the planted value is the merged coefficient
    tiny = _planted(f, words[0], 2.0 ** -1074)
    assert _max_abs(tiny, space, safe) == _every_class_max_abs(tiny, space, safe) > 0.0
    assert np.isnan(_max_abs(_planted(f, words[0], np.nan), space, safe))


def test_a_family_with_no_live_class_reads_zero(rep, monkeypatch):
    f, space, safe = _gap_calls(rep, monkeypatch)[-1]  # the round-trip, at hbar = 1
    zero = dataclasses.replace(f, coeffs=np.zeros_like(f.coeffs))
    for family in (f, zero):
        assert not np.any(_live(family))
        assert _max_abs(family, space, safe).hex() == (0.0).hex()


# -- closure, su2 and tensor gaps streamed in row blocks --------------------------


_STREAMED = ("closure", "su2", "tensor")


@pytest.mark.parametrize("hbar", [0.7, 1.0, 1e100, 1e-300, 1e308])
@pytest.mark.parametrize("degree", [3, 6, 9])
def test_streamed_gaps_equal_the_whole_family(monkeypatch, degree, hbar):
    with np.errstate(all="ignore"):  # a huge hbar overflows the operators
        streams, residuals = _streams(_rep(degree, hbar), monkeypatch)
        for name in _STREAMED:
            codes, blocks, space, safe = streams[name]
            assert len(blocks) > 1
            assert max(b.nbytes for b in blocks) <= quantum_rep._BLOCK_BYTES
            whole = quantum_rep._max_abs(codes, [np.concatenate(blocks)], space, safe)
            assert residuals[name].hex() == whole.hex()


@pytest.mark.parametrize("name", _STREAMED)
def test_a_value_planted_in_a_later_block_is_seen(rep, monkeypatch, name):
    codes, blocks, space, safe = _streams(rep, monkeypatch)[0][name]
    whole = Family(np.concatenate(blocks), codes)
    _, perm, first, starts, _, _, _ = quantum_rep._word_classes(_key(whole))
    merged = starts[np.flatnonzero(~_live(whole))[0]]  # first merged word of a cancelled class
    words = perm[first[merged]:np.append(first, len(perm))[merged + 1]]
    assert not np.any(whole.coeffs[:, words])  # so the planted value is the merged coefficient
    word = words[0]
    for value in (2.0 ** -1074, np.nan):
        planted = [b.copy() for b in blocks]
        planted[-1][-1, word] = value  # the last row of the last block
        residual = quantum_rep._max_abs(codes, iter(planted), space, safe)
        if np.isnan(value):
            assert np.isnan(residual)
        else:
            assert residual == _every_class_max_abs(Family(np.concatenate(planted), codes), space, safe)
            assert residual > 0.0


def _scaled_gap_blocks(x, y, combine, tail, head, width):
    """The row blocks of `quantum_rep._gap`, the swapped grid added as +-1 times itself.

    The reference for `quantum_rep._gap_blocks`: the same blocks, with each
    grid formed in place and its swap scaled by +1 for np.add, -1 for
    np.subtract, rather than added or subtracted as it is.
    """
    turn = 1.0 if combine is np.add else -1.0
    step = max(1, quantum_rep._BLOCK_BYTES // (16 * width))
    lead = 0
    if head is not None:
        lead = head.coeffs.shape[1]
        for lo in range(0, len(head.coeffs), step):
            rows = head.coeffs[lo:lo + step]
            block = np.zeros((len(rows), width), complex)
            block[:, :lead] = rows
            yield block
    v, n = len(x.codes), len(y.coeffs)
    pair = np.arange(len(x.coeffs) * n)
    xs, ys = x.coeffs[pair // n, :, None], y.coeffs[pair % n, None, :]
    end = lead + v * v
    for lo in range(0, len(pair), step):
        hi = min(lo + step, len(pair))
        block = np.empty((hi - lo, width), complex)
        block[:, :lead] = 0
        grid = block[:, lead:end].reshape(-1, v, v)
        np.multiply(xs[lo:hi], ys[lo:hi], out=grid)
        grid += turn * grid.swapaxes(1, 2)
        if tail is not None:
            block[:, end:] = tail.coeffs[lo:hi]
        yield block


def _merged_stacks(rep, monkeypatch):
    """Per check, the merged (Re; Im) stack of the family its `_max_abs` call
    evaluates, and the residuals."""
    streams, residuals = _streams(rep, monkeypatch)
    stacks = {}
    for name, (codes, blocks, _, _) in streams.items():
        _, perm, first, _, _, _, _ = quantum_rep._word_classes(codes.astype(np.int64).tobytes())
        stacks[name] = quantum_rep._merge(blocks, perm, first)
    return stacks, residuals


@pytest.mark.parametrize("hbar", [0.7, 1.0, 1e100, 1e308])
def test_gap_blocks_merge_as_the_scaled_reference(monkeypatch, hbar):
    # every gap family of one job, the anticommutators of mixed included,
    # merges to the same bits as with each swapped grid scaled by +-1.  At
    # hbar = 1e308 the products overflow, and the scaling turns an inf's
    # other part to NaN, so there both sides need only read non-finite
    rep = _rep(DEGREE, hbar)
    with np.errstate(all="ignore"):  # a huge hbar overflows the operators
        got, got_residuals = _merged_stacks(rep, monkeypatch)
        monkeypatch.setattr(quantum_rep, "_gap_blocks", _scaled_gap_blocks)
        want, want_residuals = _merged_stacks(rep, monkeypatch)
    assert list(got) == ["canonical", "mixed", "closure", "su2", "tensor", "roundtrip"]
    for name in got:
        if hbar == 1e308 and name != "roundtrip":  # roundtrip forms no grid
            assert not np.isfinite(got_residuals[name]), name
            assert not np.isfinite(want_residuals[name]), name
            continue
        assert got[name].shape == want[name].shape
        assert np.array_equal(got[name], want[name], equal_nan=True), name


def test_polynomial_spaces_are_built_once_and_read_only():
    assert build_canonical(5, 1.0).space is build_canonical(5, 0.7).space
    assert build_canonical(6).space is not build_canonical(5).space
    space = build_canonical(5).space
    for a in (space.exponents, space.degrees):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_a_warm_job_keeps_a_small_working_set(tmp_path):
    # the closure, su2 and tensor word grids are 0.5-0.9 MB each when held
    # whole; streamed in row blocks, a degree-5 job peaks near 0.8 MiB
    argv = ["quantum-check", "--degree", "5", "--report", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0  # decodes the alphabets and builds the spaces
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2 ** 20


# -- every check can fail --------------------------------------------------------


def test_built_families_have_no_empty_block(rep, dense):
    # an empty block would make every residual built on it an exact 0.0
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    space = pairs.space
    n, nd = three_vector_form(m0, m0d)
    for family in (pairs.q, pairs.r, m0, m0d, n, nd):
        assert np.all(np.count_nonzero(dense(family, space), axis=(1, 2)) > 0)
    per_block = np.count_nonzero(dense(tensor_form(m0, m0d), space), axis=(1, 2)).reshape(4, 4)
    assert np.all(np.diag(per_block) == 0)  # M_{mu mu} = 0 by antisymmetry
    assert np.all(per_block[~np.eye(4, dtype=bool)] > 0)


def test_m0_gives_jz_from_the_canonical_pairs(rep, dense):
    # J^z = i/2 (M0_(12) - M0dag_(12)) = Q_1 R_2 - Q_2 R_1 ties M0 to Q and R
    pairs = rep[0]
    space = pairs.space
    m0, m0d = (dense(m, space).reshape(2, 2, space.dim, space.dim) for m in rep[3:5])
    safe = space.safe_columns()
    q, r = dense(pairs.q, space), dense(pairs.r, space)
    gap = 0.5j * (m0[0, 1] - m0d[0, 1]) - (q[1] @ r[2] - q[2] @ r[1])
    assert np.max(np.abs(gap[:, safe])) == 0.0
    assert np.max(np.abs(q[1] @ r[2] - q[2] @ r[1])) > 0.0
    assert jz_residual(pairs, *rep[3:5]) == 0.0


def _mutant(monkeypatch, old, new):
    """A copy of quantum_rep whose source has one fragment replaced."""
    source = inspect.getsource(quantum_rep)
    assert source.count(old) == 1
    mod = types.ModuleType("cliffstring._quantum_rep_mutant")
    mod.__package__ = "cliffstring"
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    exec(compile(source.replace(old, new), quantum_rep.__file__, "exec"), vars(mod))
    return mod


def test_canonical_and_mixed_trip_on_a_wrong_derivative_weight(monkeypatch):
    # d/dx_mu meeting x_mu^1 weighs 2 instead of 1
    met = "exps[:, None] + np.arange(-letters, letters + 1)[:, None]"
    mutant = _mutant(monkeypatch, met, f"np.where(({met}) == 1, 2, {met})")
    pairs = mutant.build_canonical(degree=3, hbar=1.0)
    a_ops, k_ops = mutant.quaternion_pairs(pairs)
    assert mutant.canonical_residual(pairs) == 1.0
    assert mutant.mixed_algebra_residual(a_ops, k_ops, pairs.space, pairs.hbar) == 1.0


def test_mixed_trips_on_a_commuting_fold(monkeypatch):
    # kj = jk = i turns {A, K} into i {Q, R}; Q and R are untouched
    monkeypatch.setattr(quantum_rep, "_KJ", 1j)
    pairs = build_canonical(degree=3, hbar=1.0)
    a_ops, k_ops = quaternion_pairs(pairs)
    assert canonical_residual(pairs) == 0.0
    assert mixed_algebra_residual(a_ops, k_ops, pairs.space, pairs.hbar) > 1e-10


def test_closure_trips_on_a_flipped_eps(rep, monkeypatch):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    monkeypatch.setattr(quantum_rep, "EPS", -quantum_rep.EPS)
    assert lorentz_closure_residual(m0, m0d, pairs.space, pairs.hbar) > 1e-10


def _flip_sigma_y(monkeypatch):
    s4 = quantum_rep._S4.copy()
    s4[2] = -s4[2]
    monkeypatch.setattr(quantum_rep, "_S4", s4)


@pytest.mark.parametrize("mutate, want", [
    (lambda mp: mp.setattr(quantum_rep, "EPS", -quantum_rep.EPS), 8.0),
    (_flip_sigma_y, 8.0),
    (lambda mp: mp.setattr(quantum_rep, "_KJ", 1j), 4.0),
], ids=["flipped-eps", "flipped-sigma-y", "commuting-fold"])
def test_jz_trips_on_a_broken_m0(monkeypatch, dense, mutate, want):
    # a flipped eta4 is no such mutant: it moves R, so both sides of the identity
    mutate(monkeypatch)
    pairs, _, _, m0, m0d = _rep(5, 1.0)
    assert jz_residual(pairs, m0, m0d) == want
    # the dense oracle reads the same gap
    space = pairs.space
    m0, m0d = (dense(m, space) for m in (m0, m0d))
    q, r = dense(pairs.q, space), dense(pairs.r, space)
    gap = 0.5j * (m0[1] - m0d[1]) - (q[1] @ r[2] - q[2] @ r[1])
    assert np.max(np.abs(gap[:, space.safe_columns()])) == want


def test_su2_trips_on_a_flipped_eps3(rep, monkeypatch):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    n, nd = three_vector_form(m0, m0d)
    monkeypatch.setattr(quantum_rep, "_EPS3", -quantum_rep._EPS3)
    assert su2_closure_residual(n, nd, pairs.space, pairs.hbar) > 1e-10


def test_tensor_trips_on_a_flipped_eta(rep, monkeypatch):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    mt = tensor_form(m0, m0d)
    eta = quantum_rep.eta4()
    monkeypatch.setattr(quantum_rep, "eta4", lambda: -eta)
    assert tensor_algebra_residual(mt, pairs.space, pairs.hbar) > 1e-10


def test_tensor_trips_on_a_symmetric_part(rep):
    # M_{00} = I leaves the commutators of the six M_{mu<nu} alone but
    # breaks M_{mu nu} = -M_{nu mu}
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    mt = tensor_form(m0, m0d)
    bump = np.eye(16, 1)  # the empty word, on M_00 only
    bumped = Family(np.hstack([mt.coeffs, bump]), np.append(mt.codes, 0))
    assert tensor_algebra_residual(bumped, pairs.space, pairs.hbar) == 2.0


def test_roundtrip_trips_on_a_perturbed_m0_block(rep):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    mt = tensor_form(m0, m0d)
    assert m0.codes[0] == 5 * 9 + 1  # the word D_0 Q_0, x_0^5 -> 6 x_0^5 at the top
    coeffs = m0.coeffs.copy()
    coeffs[0, 0] += 0.5  # in M0_(11)
    perturbed = dataclasses.replace(m0, coeffs=coeffs)
    assert spinor_tensor_roundtrip_residual(perturbed, mt, pairs.space) == 3.0


def _with_nan(family):
    """Copy of a family with its first coefficient set to NaN."""
    coeffs = family.coeffs.copy()
    coeffs[0, 0] = np.nan
    return dataclasses.replace(family, coeffs=coeffs)


@pytest.mark.parametrize("check", ["canonical", "mixed", "closure", "su2", "tensor", "roundtrip"])
def test_nan_on_a_safe_column_gives_a_nan_residual(rep, check):
    pairs, m0, m0d = rep[0], rep[3], rep[4]
    space, hbar = pairs.space, pairs.hbar
    if check == "canonical":
        residual = canonical_residual(CanonicalPairs(space, _with_nan(pairs.q), pairs.r, hbar))
    elif check == "mixed":
        a_ops, k_ops = quaternion_pairs(pairs)
        residual = mixed_algebra_residual(_with_nan(a_ops), k_ops, space, hbar)
    elif check == "closure":
        residual = lorentz_closure_residual(_with_nan(m0), m0d, space, hbar)
    elif check == "su2":
        n, nd = three_vector_form(m0, m0d)
        residual = su2_closure_residual(_with_nan(n), nd, space, hbar)
    elif check == "tensor":
        residual = tensor_algebra_residual(_with_nan(tensor_form(m0, m0d)), space, hbar)
    else:
        residual = spinor_tensor_roundtrip_residual(_with_nan(m0), tensor_form(m0, m0d), space)
    assert np.isnan(residual)
