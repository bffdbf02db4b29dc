"""Finite-dimensional realization of the string's quantized Lorentz algebra.

Canonical pairs are Q_mu, multiplication by x_mu, and R_nu = -i hbar
eta_{nu nu} D_nu with D_nu = d/dx_nu.  A family of K operators is a
(K, 45) array of normal-form rows (below), index pairs row-major (M0_{AB}
is operator 2A+B, M_{mu nu} is 4 mu + nu); families stack with np.vstack
and combine as w @ rows.

The quaternion mapping A_mu = j (x) Q_mu, K_nu = k (x) R_nu turns the
canonical commutators into mixed relations: [A, A] = [K, K] = 0 and
{A_mu, K_nu} = -hbar eta_{mu nu}, because jk = -kj = i makes the
anticommutator collapse onto i (x) [Q, R].  A and K are the families of
Q and R, and jk and kj are applied where the two meet.  In M0, i kj = 1
makes it a real combination of R Q products.  `mixed` is canonical's
relations times the units, so it can fail only through jk or kj, or where
`canonical` fails.

From the spinor components A_{B Edot} = sigma^mu_{B Edot} A_mu and
K_{A Bdot} = sigma^mu_{A Bdot} K_mu the angular-momentum spinor is

  M0_{AB} = i K_A^Edot A_{B Edot},

whose symmetric part closes into the Lorentz algebra

  [M0_(AB), M0_(EF)] = i hbar (M0_(AE) eps_FB + M0_(BE) eps_FA
                               + M0_(AF) eps_EB + M0_(BF) eps_EA)

with [M0, M0dag] = 0.  Index gymnastics use eps^{AB} = [[0,1],[-1,0]]
for raising and eps_{AB} = -eps^{AB} for lowering (so raise-then-lower
is the identity); the closure above holds exactly with the lower-index
eps.  In this convention the derived three-vector triple (N_1, N_2, N_3)
and the antisymmetric tensor M_{mu nu} close with structure constants
-i hbar (a left-handed orientation): the reordered triple (N_2, N_1, N_3)
and the negated tensor satisfy the usual +i hbar forms.  All component
formulas, the spinor/vector and spinor/tensor round-trips, the
dotted-undotted commutation, and the identity
J^z = i/2 (M0_(12) - M0dag_(12)) = Q_1 R_2 - Q_2 R_1 hold exactly.

Every operator here is of degree <= 2 in the x and the d, and is stored
as its Weyl normal form: a complex row over the 45 normal monomials
x^alpha d^beta of degree <= 2 (`_BASIS`), every x to the left of every d.
Two operators are equal exactly when their rows are.  Two read-only
tables, built once per process from D_nu Q_mu = Q_mu D_nu + delta_{mu nu},
hold every product the checks need in normal form: the (81, 45) products
of the nine monomials of degree <= 1 (M0's K A, {A, K} and J^z's Q R) and
the (45, 45, 45) commutators of all 45, each of degree <= 2 again.  A
bracket of two families is the contraction sum_ab x_ia y_jb [m_a, m_b],
its gap a row difference, and a check reads the largest |normal
coefficient|.  No space is truncated, so no identity depends on the
degree, and at hbar = 1 the gaps cancel to exactly 0.

quantum_checks builds every family at hbar's mantissa u = hbar 2^-e in
[1, 2) and scales R, M0 and M0dag by 2^e exactly: M0's ordering
constants, sums of hbar terms that cancel, would overflow at hbar = 1e308
before they cancel, and its halvings would round at a subnormal hbar.
J^z's identity reads the unit families.

The degree N sets only the J^z spectrum, which is closed form (see
`jz_spectrum`), and the reported dimension C(N + 4, 4) of the
polynomials in four variables of degree <= N.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .minkowski import EPS, eta4, sigma4_complex

__all__ = [
    "CanonicalPairs",
    "build_canonical",
    "canonical_residual",
    "quaternion_pairs",
    "mixed_algebra_residual",
    "spinor_components",
    "m0_matrices",
    "lorentz_closure_residual",
    "three_vector_form",
    "su2_closure_residual",
    "tensor_form",
    "tensor_algebra_residual",
    "spinor_tensor_roundtrip_residual",
    "jz_residual",
    "jz_spectrum",
    "integrality_residual",
    "quantum_checks",
]

_S4 = sigma4_complex()                       # sigma^mu_{A Bdot}
_S4_UP = np.array([EPS @ (eta4()[mu, mu] * _S4[mu]) @ EPS.T for mu in range(4)])
# sigma_mu^{A Bdot}: vector index lowered, both spinor indices raised;
# works out to (I, sx, -sy, sz) and satisfies
# 1/2 sum_{A Bdot} sigma_mu^{A Bdot} sigma^nu_{A Bdot} = delta_mu^nu.

_EPS3 = np.cross(np.eye(3)[:, None], np.eye(3))  # eps_ijk = (e_i x e_j)_k

_JK, _KJ = 1j, -1j
# the quaternion unit products jk and kj, applied where A = j (x) Q and K = k (x) R meet

_POW9 = 9 ** np.arange(20)

_POW16 = 16 ** np.arange(8)  # a normal monomial x^alpha d^beta's digits: alpha_0..3, beta_0..3

# The 45 normal monomials of degree <= 2, each as the word that spells it.  A
# word is an int code whose base-9 digits are its letters, the least
# significant acting first: 0 is no letter, 1 + mu is Q_mu and 5 + nu is D_nu.
# Column 0 is 1, columns 1 + mu and 5 + nu are x_mu and d_nu, and the 36
# words a b (code 9 a + b) of two letters a <= b follow, every x left of every d.
_BASIS = np.concatenate([np.arange(9), [9 * a + b for a in range(1, 9) for b in range(a, 9)]])
_M = len(_BASIS)


@dataclass(frozen=True)
class CanonicalPairs:
    """Q_mu and R_nu, each a (4, 45) family of normal-form rows."""

    q: np.ndarray
    r: np.ndarray
    hbar: float


# -- normal order: the two tables ------------------------------------------------


def _product_codes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The codes of the products of words x[a] and y[b] (y's acting first) as entry a B + b."""
    shift = _POW9[np.searchsorted(_POW9, y, side="right")]  # 9^len(y)
    return (x[:, None] * shift + y).reshape(-1)


def _order(codes: np.ndarray) -> tuple:
    """The (word, monomial, weight) terms of the words' normal forms, zero weights dropped.

    Letter by letter, the first acting first, a term x^alpha d^beta meets
    Q_mu as x^(alpha + e_mu) d^beta and D_nu as x^alpha d^(beta + e_nu) plus
    alpha_nu x^(alpha - e_nu) d^beta, so each letter doubles a word's terms;
    a monomial is an int, its exponents (each below 16) as `_POW16` digits.
    """
    letters = int(np.searchsorted(_POW9, np.max(codes, initial=0), side="right"))
    rest = codes.astype(np.int64)[:, None]
    monomial, weight = np.zeros_like(rest), np.ones_like(rest)
    for _ in range(letters):
        rest, digit = np.divmod(rest, 9)
        place = _POW16[(digit - 1) % 4]                 # x_mu's digit, Q_mu or D_mu
        step = np.where(digit >= 5, place * _POW16[4], np.where(digit > 0, place, 0))
        met = np.where(digit >= 5, monomial // place % 16, 0)  # alpha_nu, where D_nu meets x_nu
        monomial = np.hstack([monomial + step, monomial - place])
        weight = np.hstack([weight, weight * met])
    word, term = np.nonzero(weight)
    return word, monomial[word, term], weight[word, term]


@functools.cache
def _tables() -> tuple:
    """(products, commutators), built once per process and shared read-only.

    Row 9 a + b of the (81, 45) `products` is the normal form of m_a m_b for
    the nine monomials of degree <= 1 (m_b acting first), and entry (a, b)
    of the (45, 45, 45) `commutators` that of [m_a, m_b].  Both stay in
    degree <= 2, so every term lands on `_BASIS`.  Their weights are
    integers of size at most 4, held as int8 (0.1 MB), so that a
    contraction reads an eighth of the bytes it would as floats.
    """
    monomials = _order(_BASIS)[1]  # each basis word is its own normal form
    sorter = np.argsort(monomials)

    def table(rows, word, monomial, weight):
        keys, term = np.unique(word << 32 | monomial, return_inverse=True)  # monomials < 16^8 = 2^32
        sums = np.bincount(term, weight)
        keys, sums = keys[sums != 0], sums[sums != 0]
        out = np.zeros((rows, _M), np.int8)
        out[keys >> 32, sorter[np.searchsorted(monomials, keys & 0xFFFFFFFF, sorter=sorter)]] = sums
        return out

    products = table(81, *_order(_product_codes(_BASIS[:9], _BASIS[:9])))
    word, monomial, weight = _order(_product_codes(_BASIS, _BASIS))  # m_a m_b is word a 45 + b ...
    a, b = np.divmod(word, _M)                                        # ... and -(m_b m_a)'s too
    commutators = table(_M * _M, np.concatenate([word, b * _M + a]), np.tile(monomial, 2),
                        np.concatenate([weight, -weight])).reshape(_M, _M, _M)
    products.flags.writeable = commutators.flags.writeable = False
    return products, commutators


def _products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The normal forms of X_i Y_j as row i L + j, for families of degree <= 1."""
    if np.any(x[:, 9:]) or np.any(y[:, 9:]):
        raise ValueError("products are tabled for operators of degree <= 1 only")
    outer = (x[:, None, :9, None] * y[None, :, None, :9]).reshape(len(x) * len(y), 81)
    products = _tables()[0].astype(float)
    return _complex(outer.real @ products, outer.imag @ products)


def _re_im(rows: np.ndarray) -> np.ndarray:
    """The (Re; Im) row stack of complex rows, whose product with a real table stays real."""
    return np.concatenate([rows.real, rows.imag])


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array re + i im, put together without arithmetic (so no inf meets a 0)."""
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, im
    return out


def _commutators(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The normal forms of [X_i, Y_j] as row i L + j.

    sum_ab x_ia y_jb [m_a, m_b] is contracted over a, then b, only over the
    columns x and y use: a weight-2 entry such as [d_nu, x_nu^2] = 2 x_nu
    times a huge coefficient overflows, and inf times a zero coefficient
    would be NaN.
    """
    sx, sy = np.flatnonzero(np.any(x, axis=0)), np.flatnonzero(np.any(y, axis=0))
    table = _tables()[1][sx[:, None], sy].reshape(len(sx), len(sy) * _M).astype(float)
    k, l = len(x), len(y)
    g = _re_im(y[:, sy]) @ (_re_im(x[:, sx]) @ table).reshape(2 * k, len(sy), _M)  # (2K, 2L, 45)
    return _complex(g[:k, :l] - g[k:, l:], g[:k, l:] + g[k:, :l]).reshape(k * l, _M)


def _largest(*gaps: np.ndarray) -> float:
    """Max |normal coefficient| over the gaps' rows; a NaN stays NaN."""
    return float(np.max([np.max(np.abs(g), initial=0.0) for g in gaps]))


# -- canonical and quaternion pairs ------------------------------------------------


def build_canonical(hbar: float = 1.0) -> CanonicalPairs:
    """Canonical pairs Q_mu = x_mu*, R_nu = -i hbar eta_{nu nu} d_nu."""
    q, r = np.zeros((2, 4, _M), complex)
    q[:, 1:5] = np.eye(4)
    r[:, 5:9] = -1j * hbar * eta4()
    return CanonicalPairs(q=q, r=r, hbar=hbar)


def canonical_residual(pairs: CanonicalPairs) -> float:
    """Max normal coefficient of the canonical relations' gaps over all 16 index pairs.

    One bracket of the family (Q_0..Q_3, R_0..R_3) with itself gives every
    commutator; [Q, R] = i hbar eta, [R, Q] = -i hbar eta, the rest vanish.
    """
    ops = np.vstack([pairs.q, pairs.r])
    gaps = _commutators(ops, ops).reshape(8, 8, _M)
    gaps[:4, 4:, 0] -= 1j * pairs.hbar * eta4()
    gaps[4:, :4, 0] += 1j * pairs.hbar * eta4()
    return _largest(gaps)


def quaternion_pairs(pairs: CanonicalPairs):
    """A = j(x)Q and K = k(x)R as the families of Q and R; the units apply where A and K meet."""
    return pairs.q, pairs.r


def mixed_algebra_residual(a_ops: np.ndarray, k_ops: np.ndarray, hbar: float) -> float:
    """Residual of [A,A] = [K,K] = 0 and {A_mu, K_nu} = -hbar eta_{mu nu}.

    {A_mu, K_nu} = jk Q_mu R_nu + kj R_nu Q_mu, read off the tabled products,
    is i [Q_mu, R_nu] only while kj = -jk.  [A, A] and
    [K, K] are the brackets of Q and of R times jj = kk = -1, which flips the
    sign of a whole gap block; no max |coefficient| can see that, so it is
    left out.
    """
    ka = _products(k_ops, a_ops).reshape(4, 4, _M).swapaxes(0, 1).reshape(16, _M)
    anti = _JK * _products(a_ops, k_ops) + _KJ * ka
    anti[:, 0] += hbar * eta4().reshape(16)
    return _largest(_commutators(a_ops, a_ops), _commutators(k_ops, k_ops), anti)


# -- angular momentum: spinor, three-vector and tensor forms -----------------------


def spinor_components(ops: np.ndarray) -> np.ndarray:
    """Spinor family O_{A Bdot} = sigma^mu_{A Bdot} O_mu (operator 2A+Bdot)."""
    return _S4.reshape(4, 4).T @ ops


def m0_matrices(a_ops: np.ndarray, k_ops: np.ndarray) -> tuple:
    """Symmetrized angular-momentum spinors as complex families.

    M0_{AB} = i K_A^Edot A_{B Edot} (K factor to the left) and its
    structural adjoint M0dag_{AdotBdot} = -i eps^{EF} A_{E Bdot} K_{F Adot},
    obtained by reversing products and conjugating scalar coefficients
    with A and K treated as formally self-adjoint.  Both are families of
    four operators with the spinor indices symmetrized, on the monomials
    x_mu d_nu: the ordering constants of M0's products D_nu Q_mu cancel.
    """
    a_sp, k_sp = spinor_components(a_ops), spinor_components(k_ops)
    d = np.eye(2)
    # weights of the products K_{P L} A_{Q E} and A_{E Q} K_{L P}, eps^{E L}, with
    # their units: i kj = -i jk = 1, so M0 is a real combination of R Q products
    w = 1j * _KJ * np.einsum("ap,bq,el->abplqe", d, d, EPS)
    wd = -1j * _JK * np.einsum("el,qb,pa->abeqlp", EPS, d, d)
    w, wd = ((0.5 * (c + c.swapaxes(0, 1))).reshape(4, 16) for c in (w, wd))  # (AB)
    return w @ _products(k_sp, a_sp), wd @ _products(a_sp, k_sp)


def lorentz_closure_residual(m0: np.ndarray, m0d: np.ndarray, hbar: float) -> float:
    """Residual of the spinor Lorentz algebra, in normal form.

    Checks [M0_(AB), M0_(EF)] against i hbar (M0_(AE) eps_FB + A<->B)
    + E<->F with the lower-index eps_{AB} = -eps^{AB}, and that dotted
    and undotted blocks commute.
    """
    d = np.eye(2)
    c = np.einsum("ag,eh,fb->abefgh", d, d, -EPS)   # M0_(AE) eps_FB
    c = c + c.transpose(1, 0, 2, 3, 4, 5)           # + A <-> B
    c = c + c.transpose(0, 1, 3, 2, 4, 5)           # + E <-> F
    coeffs = np.zeros((4, 8, 4), complex)           # zero on the [M0, M0dag] blocks
    coeffs[:, :4] = 1j * hbar * c.reshape(4, 4, 4)
    return _largest(_commutators(m0, np.vstack([m0, m0d])) - coeffs.reshape(32, 4) @ m0)


def three_vector_form(m0: np.ndarray, m0d: np.ndarray) -> tuple:
    """Rotation/boost three-vectors N_i and their adjoints, families of three.

    N_1 = i/4 (Md_11 - Md_22), N_2 = 1/4 (Md_11 + Md_22), N_3 = -i/2 Md_12
    built on the dotted block; the adjoints use the undotted block with
    conjugated coefficients.
    """
    w = np.array([[0.25j, 0, 0, -0.25j], [0.25, 0, 0, 0.25], [0, -0.5j, 0, 0]])
    return w @ m0d, w.conj() @ m0


def su2_closure_residual(n: np.ndarray, nd: np.ndarray, hbar: float) -> float:
    """Residual of [N_i, N_j] = -i hbar eps_ijk N_k (and the adjoint copy).

    The literal component triple closes left-handed in this eps
    convention; the reordered triple (N_2, N_1, N_3) satisfies the
    +i hbar form.  Mixed commutators [N_i, N_j^dag] must vanish.
    """
    ops = np.vstack([n, nd])
    coeffs = np.zeros((6, 6, 6), complex)
    coeffs[:3, :3, :3] = coeffs[3:, 3:, 3:] = -1j * hbar * _EPS3
    return _largest(_commutators(ops, ops) - coeffs.reshape(36, 6) @ ops)


def tensor_form(m0: np.ndarray, m0d: np.ndarray) -> np.ndarray:
    """Antisymmetric tensor M_{mu nu} equivalent to the spinor pair, a family of 16.

    M_{mu nu} = 1/4 sigma_mu^{A Edot} sigma_nu^{B Fdot}
                (M0_(AB) eps_EdotFdot + M0dag_(EdotFdot) eps_AB).
    """
    undotted = np.einsum("mae,nbf,ef->mnab", _S4_UP, _S4_UP, EPS).reshape(16, 4)
    dotted = np.einsum("mae,nbf,ab->mnef", _S4_UP, _S4_UP, EPS).reshape(16, 4)
    w = 0.25 * np.concatenate([undotted, dotted], axis=1)
    return w @ np.vstack([m0, m0d])


def tensor_algebra_residual(m_tensor: np.ndarray, hbar: float) -> float:
    """Residual of the tensor-form Lorentz algebra and antisymmetry.

    The literal tensor closes as [M_uv, M_rs] = -i hbar (eta M - ...);
    equivalently -M_{mu nu} satisfies the usual +i hbar forms.  It also
    agrees exactly with the assembly from the three-vector (eps_ijk
    (N_k + N_k^dag) on space-space, -i(N_i - N_i^dag) on time-space).
    """
    d = np.eye(4)
    c = np.einsum("nr,am,bs->mnrsab", eta4(), d, d)  # eta_{nu rho} M_{mu sigma}
    c = c - c.transpose(1, 0, 2, 3, 4, 5)             # - mu <-> nu
    c = c - c.transpose(0, 1, 3, 2, 4, 5)             # - rho <-> sigma
    pairs = [4 * mu + nu for mu in range(4) for nu in range(mu + 1, 4)]
    coeffs = -1j * hbar * c.reshape(16, 16, 16)[np.ix_(pairs, pairs)]
    ops = m_tensor[pairs]
    mt = m_tensor.reshape(4, 4, _M)
    return _largest(mt + mt.swapaxes(0, 1), _commutators(ops, ops) - coeffs.reshape(36, 16) @ m_tensor)


def spinor_tensor_roundtrip_residual(m0: np.ndarray, m_tensor: np.ndarray) -> float:
    """Max normal coefficient of M0_(AB) - 1/2 eps^EdotFdot sigma^mu sigma^nu M_{mu nu}."""
    w = 0.5 * np.einsum("ef,mae,nbf->abmn", EPS, _S4, _S4).reshape(4, 16)
    return _largest(w @ m_tensor - m0)


def jz_residual(pairs: CanonicalPairs, m0: np.ndarray, m0d: np.ndarray) -> float:
    """Max normal coefficient of J^z = i/2 (M0_(12) - M0dag_(12)) = Q_1 R_2 - Q_2 R_1, in units of hbar.

    Both sides are of degree 1 in hbar, so the gap divided by hbar does not
    scale with it: families built at hbar times a power of two give the
    same bits while nothing under- or overflows.  At a subnormal hbar M0's
    halvings round by whole units of hbar, so quantum_checks passes the
    families it built at hbar's mantissa.
    """
    w = 0.5j * (np.eye(8)[[1]] - np.eye(8)[[4 + 1]])       # i/2 (M0_(12) - M0dag_(12))
    qr = np.eye(16)[[4 * 2 + 1]] - np.eye(16)[[4 * 1 + 2]]  # -(Q_1 R_2 - Q_2 R_1)
    return _largest(w @ np.vstack([m0, m0d]) + qr @ _products(pairs.q, pairs.r)) / pairs.hbar


def jz_spectrum(degree: int, hbar: float = 1.0) -> np.ndarray:
    """Eigenvalues of J^z = Q_1 R_2 - Q_2 R_1 on two-variable polynomials, sorted.

    On the homogeneous polynomials of degree d, J^z is diagonal on
    z^p zbar^(d-p) with z = x_1 + i x_2, with eigenvalue hbar (d - 2p), so
    the spectrum is hbar * (d - 2p) for p = 0..d and every d <= cap.  All
    NaN when hbar * cap overflows.
    """
    m = np.concatenate([np.arange(-d, d + 1, 2) for d in range(degree + 1)])
    if not np.isfinite(np.float64(hbar) * degree):
        return np.full(len(m), np.nan)
    return np.sort(hbar * m)


def integrality_residual(values: np.ndarray, hbar: float = 1.0) -> float:
    """Max distance of the values from the lattice hbar * (integers); a NaN stays NaN."""
    scaled = np.asarray(values, float) / hbar
    return float(np.max(np.abs(scaled - np.round(scaled))))


def _scaled(rows: np.ndarray, e: int) -> np.ndarray:
    """Complex rows times 2^e, exactly wherever the result is normal."""
    return np.ldexp(rows.view(float), e).view(complex)


def quantum_checks(degree: int, hbar: float) -> tuple:
    """({name: (max residual, 1)}, dimension, J^z spectrum) of the quantum-check
    identities; only the dimension and the J^z spectrum depend on the degree."""
    if degree < 2:
        raise ValueError("degree bound must be at least 2")
    e = math.frexp(hbar)[1] - 1
    unit = build_canonical(math.ldexp(hbar, -e))  # exact, in [1, 2)
    unit_m0 = m0_matrices(*quaternion_pairs(unit))
    pairs = CanonicalPairs(unit.q, _scaled(unit.r, e), hbar)
    a_ops, k_ops = quaternion_pairs(pairs)
    m0, m0d = (_scaled(m, e) for m in unit_m0)
    n, nd = three_vector_form(m0, m0d)
    mt = tensor_form(m0, m0d)
    vals = jz_spectrum(degree, hbar)
    residuals = {
        "canonical": canonical_residual(pairs),
        "mixed": mixed_algebra_residual(a_ops, k_ops, hbar),
        "closure": lorentz_closure_residual(m0, m0d, hbar),
        "su2": su2_closure_residual(n, nd, hbar),
        "tensor": tensor_algebra_residual(mt, hbar),
        "roundtrip": spinor_tensor_roundtrip_residual(m0, mt),
        "jz_integrality": np.max([jz_residual(unit, *unit_m0),  # np.max keeps a NaN
                                  integrality_residual(vals, hbar)]),
    }
    return {name: (r, 1) for name, r in residuals.items()}, math.comb(degree + 4, 4), vals
