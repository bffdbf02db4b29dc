"""Finite-dimensional realization of the string's quantized Lorentz algebra.

Canonical pairs are Q_mu, multiplication by x_mu, and R_nu = -i hbar
eta_{nu nu} D_nu with D_nu = d/dx_nu.  Every operator is a complex
combination of words in the letters Q_mu and D_nu.  A word is an int code
whose base-9 digits are its letters, the least significant acting first:
0 is no letter, 1 + mu is Q_mu and 5 + nu is D_nu, so the code of a
product XY is x 9^len(y) + y.  A family of K operators is a (K, W)
coefficient array over W word codes, index pairs row-major (M0_{AB} is
operator 2A+B, M_{mu nu} is 4 mu + nu).  Families on one alphabet (the
same codes) stack by rows: M0 and M0dag share the 32 words D_nu Q_mu
(M0's) and Q_mu D_nu (M0dag's), and so do N, N^dag and M_{mu nu}.

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

Every operator identity is decided in the Weyl algebra.  D_nu Q_mu =
Q_mu D_nu + delta_{mu nu} writes each word as an integer combination of
normal monomials x^alpha d^beta, and two operators are equal exactly when
their normal coefficients are.  An alphabet's table holds the normal form
of a b -+ b a for each pair of its words and of each word, so a bracket
of two families is the contraction sum_ab x_ia y_jb (T[ab] -+ T[ba]) plus
the normal form of its right-hand side, and a check reads the largest
|normal coefficient|.  J^z's identity is one row on M0's alphabet, read
through the same table.  No space is truncated, so no identity depends on
the degree, and at hbar = 1 the gaps cancel to exactly 0.  A table
depends only on its alphabet, so each is built once per process.

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
    "Family",
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


@dataclass(frozen=True)
class Family:
    """K operators sum_w coeffs[k, w] (word codes[w])."""

    coeffs: np.ndarray
    codes: np.ndarray


@dataclass(frozen=True)
class CanonicalPairs:
    """Q_mu (real) and R_nu (complex), each a family of four operators."""

    q: Family
    r: Family
    hbar: float


# -- family algebra --------------------------------------------------------------


_IDENTITY = Family(np.ones((1, 1), complex), np.zeros(1, int))


def _combine(w: np.ndarray, f: Family) -> Family:
    """The operators sum_m w[k, m] Z_m of a family Z."""
    return Family(w @ f.coeffs, f.codes)


def _shared_codes(fams) -> bool:
    """Whether the families are on one alphabet: the same word codes in the same order."""
    return all(f.codes is fams[0].codes or np.array_equal(f.codes, fams[0].codes) for f in fams)


def _sum(*fams: Family) -> Family:
    """Operator-wise sum of families with the same number of operators."""
    if _shared_codes(fams):
        return Family(sum(f.coeffs for f in fams), fams[0].codes)
    return Family(np.hstack([f.coeffs for f in fams]), np.concatenate([f.codes for f in fams]))


def _stack(*fams: Family) -> Family:
    """The operators of each family in turn, as one family on their shared words or side by side."""
    if _shared_codes(fams):
        return Family(np.vstack([f.coeffs for f in fams]), fams[0].codes)
    rows = np.cumsum([0] + [f.coeffs.shape[0] for f in fams])
    cols = np.cumsum([0] + [f.coeffs.shape[1] for f in fams])
    coeffs = np.zeros((rows[-1], cols[-1]), complex)
    for f, r, c in zip(fams, rows, cols):
        coeffs[r:r + f.coeffs.shape[0], c:c + f.coeffs.shape[1]] = f.coeffs
    return Family(coeffs, np.concatenate([f.codes for f in fams]))


def _on_stack(*fams: Family) -> list:
    """The families on one alphabet: theirs if they share one, else their stack's."""
    if _shared_codes(fams):
        return list(fams)
    both, rows = _stack(*fams), np.cumsum([0] + [len(f.coeffs) for f in fams])
    return [Family(both.coeffs[lo:hi], both.codes) for lo, hi in zip(rows, rows[1:])]


def _product_codes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The codes of the products of words x[a] and y[b] (y's acting first) as entry a B + b."""
    shift = _POW9[np.searchsorted(_POW9, y, side="right")]  # 9^len(y)
    return (x[:, None] * shift + y).reshape(-1)


def _products(x: Family, y: Family) -> Family:
    """The products X_i Y_j as operator i L + j."""
    coeffs = x.coeffs[:, None, :, None] * y.coeffs[None, :, None, :]
    return Family(coeffs.reshape(coeffs.shape[0] * coeffs.shape[1], -1), _product_codes(x.codes, y.codes))


def _key(codes: np.ndarray) -> bytes:
    """The cache key of an alphabet: the int64 bytes of its word codes."""
    return codes.astype(np.int64, copy=False).tobytes()


# -- normal order: the bracket checks --------------------------------------------


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


@functools.lru_cache(maxsize=8)
def _bracket_table(codes: bytes, plus: bool) -> tuple:
    """An alphabet's normal-order table, from the int64 bytes of its word codes; shared read-only.

    (pairs, words, exponents): row a of the (V, V M) `pairs` holds, word b by
    word b, the weights of a b + b a if `plus`, else of a b - b a, `words`
    the words', over the M monomials some bracket or word meets (`exponents`).
    """
    alphabet = np.frombuffer(codes, np.int64)
    v = len(alphabet)
    word, monomial, weight = _order(np.concatenate([_product_codes(alphabet, alphabet), alphabet]))
    grid = word < v * v                                  # a term of a product a b ...
    a, b = np.divmod(word[grid], v)
    word = np.concatenate([word, b * v + a])             # ... is one of b a's bracket too
    monomial = np.concatenate([monomial, monomial[grid]])
    weight = np.concatenate([weight, weight[grid] if plus else -weight[grid]])
    keys, term = np.unique(word << 32 | monomial, return_inverse=True)  # monomials < 16^8 = 2^32
    sums = np.bincount(term, weight)
    keys, sums = keys[sums != 0], sums[sums != 0]
    columns, column = np.unique(keys & 0xFFFFFFFF, return_inverse=True)
    table = np.zeros((v * v + v, len(columns)))
    table[keys >> 32, column] = sums
    pairs, words = table[:v * v].reshape(v, -1), table[v * v:]
    exponents = columns[:, None] // _POW16 % 16
    pairs.flags.writeable = words.flags.writeable = exponents.flags.writeable = False
    return pairs, words, exponents


def _re_im(coeffs: np.ndarray) -> np.ndarray:
    """The (Re; Im) row stack of complex coefficients, whose product with a real table stays real."""
    return np.concatenate([coeffs.real, coeffs.imag])


def _normal(f: Family) -> np.ndarray:
    """The normal forms of a family's operators, as a (2, K, M) (Re, Im) pair."""
    return (_re_im(f.coeffs) @ _bracket_table(_key(f.codes), False)[1]).reshape(2, len(f.coeffs), -1)


def _brackets(x: Family, y: Family, sign: float = -1.0, tail: Family | None = None) -> np.ndarray:
    """Normal forms of X_i Y_j + sign Y_j X_i (sign +-1) plus the tail's operator i L + j.

    sum_ab x_ia y_jb (T[ab] + sign T[ba]) is contracted over a, then b, so
    no grid of product words is formed.  Returns a (2, K L, M) (Re, Im) pair.
    """
    x, y, *tail = _on_stack(x, y, *([] if tail is None else [tail]))
    pairs, words, _ = _bracket_table(_key(x.codes), sign == 1)
    k, l, (v, m) = len(x.coeffs), len(y.coeffs), words.shape
    g = _re_im(y.coeffs) @ (_re_im(x.coeffs) @ pairs).reshape(2 * k, v, m)  # (2K, 2L, M)
    gaps = np.stack([g[:k, :l] - g[k:, l:], g[:k, l:] + g[k:, :l]]).reshape(2, k * l, m)
    for t in tail:
        gaps += (_re_im(t.coeffs) @ words).reshape(2, k * l, m)
    return gaps


def _commutator_gap(x: Family, y: Family, coeffs: np.ndarray, z: Family) -> np.ndarray:
    """[X_i, Y_j] - sum_m coeffs[i, j, m] Z_m over all (i, j) in normal form; coeffs is (K, L, M)."""
    return _brackets(x, y, tail=_combine(-coeffs.reshape(-1, coeffs.shape[-1]), z))


def _largest(*gaps: np.ndarray) -> float:
    """Max |normal coefficient| over (Re, Im) pairs of gaps; a NaN stays NaN."""
    return float(np.max([np.max(np.hypot(*g), initial=0.0) for g in gaps]))


# -- canonical and quaternion pairs ------------------------------------------------


def build_canonical(hbar: float = 1.0) -> CanonicalPairs:
    """Canonical pairs Q_mu = x_mu*, R_nu = -i hbar eta_{nu nu} d_nu."""
    q = Family(np.eye(4, dtype=complex), np.arange(1, 5))
    r = Family(-1j * hbar * eta4().astype(complex), np.arange(5, 9))
    return CanonicalPairs(q=q, r=r, hbar=hbar)


def canonical_residual(pairs: CanonicalPairs) -> float:
    """Max normal coefficient of the canonical relations' gaps over all 16 index pairs.

    One bracket of the family (Q_0..Q_3, R_0..R_3) with itself gives every
    commutator; [Q, R] = i hbar eta, [R, Q] = -i hbar eta, the rest vanish.
    """
    ops = _stack(pairs.q, pairs.r)
    coeffs = np.zeros((8, 8, 1), complex)
    coeffs[:4, 4:, 0] = 1j * pairs.hbar * eta4()
    coeffs[4:, :4, 0] = -1j * pairs.hbar * eta4()
    return _largest(_commutator_gap(ops, ops, coeffs, _IDENTITY))


def quaternion_pairs(pairs: CanonicalPairs):
    """A = j(x)Q and K = k(x)R as the families of Q and R; the units apply where A and K meet."""
    return pairs.q, pairs.r


def mixed_algebra_residual(a_ops: Family, k_ops: Family, hbar: float) -> float:
    """Residual of [A,A] = [K,K] = 0 and {A_mu, K_nu} = -hbar eta_{mu nu}.

    {A_mu, K_nu} = jk Q_mu R_nu + kj R_nu Q_mu = i [Q_mu, R_nu].  [A, A] and
    [K, K] are the brackets of Q and of R times jj = kk = -1, which flips the
    sign of a whole gap block; no max |coefficient| can see that, so it is
    left out.
    """
    hbar_eta = _combine(hbar * eta4().reshape(16, 1), _IDENTITY)
    anti = _brackets(Family(_JK * a_ops.coeffs, a_ops.codes), k_ops, sign=_KJ / _JK, tail=hbar_eta)
    return _largest(_brackets(a_ops, a_ops), _brackets(k_ops, k_ops), anti)


# -- angular momentum: spinor, three-vector and tensor forms -----------------------


def spinor_components(ops: Family) -> Family:
    """Spinor family O_{A Bdot} = sigma^mu_{A Bdot} O_mu (operator 2A+Bdot)."""
    return _combine(_S4.reshape(4, 4).T, ops)


def m0_matrices(a_ops: Family, k_ops: Family) -> tuple:
    """Symmetrized angular-momentum spinors as complex families.

    M0_{AB} = i K_A^Edot A_{B Edot} (K factor to the left) and its
    structural adjoint M0dag_{AdotBdot} = -i eps^{EF} A_{E Bdot} K_{F Adot},
    obtained by reversing products and conjugating scalar coefficients
    with A and K treated as formally self-adjoint.  Both are families of
    four operators with the spinor indices symmetrized, on one alphabet of
    32 words: the 16 words D_nu Q_mu, where M0 lives, then the 16 words
    Q_mu D_nu, where M0dag lives.
    """
    a_sp, k_sp = spinor_components(a_ops), spinor_components(k_ops)
    d = np.eye(2)
    # weights of the products K_{P L} A_{Q E} and A_{E Q} K_{L P}, eps^{E L}, with
    # their units: i kj = -i jk = 1, so M0 is a real combination of R Q products
    w = 1j * _KJ * np.einsum("ap,bq,el->abplqe", d, d, EPS)
    wd = -1j * _JK * np.einsum("el,qb,pa->abeqlp", EPS, d, d)
    w, wd = ((0.5 * (c + c.swapaxes(0, 1))).reshape(4, 16) for c in (w, wd))  # (AB)
    return tuple(_on_stack(_combine(w, _products(k_sp, a_sp)), _combine(wd, _products(a_sp, k_sp))))


def lorentz_closure_residual(m0: Family, m0d: Family, hbar: float) -> float:
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
    return _largest(_commutator_gap(m0, _stack(m0, m0d), coeffs, m0))


def three_vector_form(m0: Family, m0d: Family) -> tuple:
    """Rotation/boost three-vectors N_i and their adjoints, families of three.

    N_1 = i/4 (Md_11 - Md_22), N_2 = 1/4 (Md_11 + Md_22), N_3 = -i/2 Md_12
    built on the dotted block; the adjoints use the undotted block with
    conjugated coefficients.
    """
    w = np.array([[0.25j, 0, 0, -0.25j], [0.25, 0, 0, 0.25], [0, -0.5j, 0, 0]])
    return _combine(w, m0d), _combine(w.conj(), m0)


def su2_closure_residual(n: Family, nd: Family, hbar: float) -> float:
    """Residual of [N_i, N_j] = -i hbar eps_ijk N_k (and the adjoint copy).

    The literal component triple closes left-handed in this eps
    convention; the reordered triple (N_2, N_1, N_3) satisfies the
    +i hbar form.  Mixed commutators [N_i, N_j^dag] must vanish.
    """
    ops = _stack(n, nd)
    coeffs = np.zeros((6, 6, 6), complex)
    coeffs[:3, :3, :3] = coeffs[3:, 3:, 3:] = -1j * hbar * _EPS3
    return _largest(_commutator_gap(ops, ops, coeffs, ops))


def tensor_form(m0: Family, m0d: Family) -> Family:
    """Antisymmetric tensor M_{mu nu} equivalent to the spinor pair, a family of 16.

    M_{mu nu} = 1/4 sigma_mu^{A Edot} sigma_nu^{B Fdot}
                (M0_(AB) eps_EdotFdot + M0dag_(EdotFdot) eps_AB).
    """
    undotted = np.einsum("mae,nbf,ef->mnab", _S4_UP, _S4_UP, EPS).reshape(16, 4)
    dotted = np.einsum("mae,nbf,ab->mnef", _S4_UP, _S4_UP, EPS).reshape(16, 4)
    w = 0.25 * np.concatenate([undotted, dotted], axis=1)
    return _combine(w, _stack(m0, m0d))


def tensor_algebra_residual(m_tensor: Family, hbar: float) -> float:
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
    ops = _combine(np.eye(16)[pairs], m_tensor)
    transpose = np.eye(16).reshape(4, 4, 16).transpose(1, 0, 2).reshape(16, 16)
    antisymmetry = _combine(np.eye(16) + transpose, m_tensor)
    return _largest(_normal(antisymmetry), _commutator_gap(ops, ops, coeffs, m_tensor))


def spinor_tensor_roundtrip_residual(m0: Family, m_tensor: Family) -> float:
    """Max normal coefficient of M0_(AB) - 1/2 eps^EdotFdot sigma^mu sigma^nu M_{mu nu}."""
    w = 0.5 * np.einsum("ef,mae,nbf->abmn", EPS, _S4, _S4).reshape(4, 16)
    return _largest(_normal(_sum(_combine(w, m_tensor), _combine(-np.eye(4), m0))))


def jz_residual(pairs: CanonicalPairs, m0: Family, m0d: Family) -> float:
    """Max normal coefficient of J^z = i/2 (M0_(12) - M0dag_(12)) = Q_1 R_2 - Q_2 R_1, in units of hbar.

    The 16 words Q_mu D_nu of Q R are M0dag's half of M0's alphabet, in the
    same order, so the gap is one row on that alphabet and reads M0's
    cached table.  Both sides are of degree 1 in hbar, so the gap divided
    by hbar does not scale with it: families built at hbar times a power of
    two give the same bits while nothing under- or overflows.  At a
    subnormal hbar M0's halvings round by whole units of hbar, so
    quantum_checks builds them at hbar scaled into [1, 2).
    """
    w = 0.5j * (np.eye(8)[[1]] - np.eye(8)[[4 + 1]])       # i/2 (M0_(12) - M0dag_(12))
    qr = np.eye(16)[[4 * 2 + 1]] - np.eye(16)[[4 * 1 + 2]]  # -(Q_1 R_2 - Q_2 R_1)
    rows, products = _combine(w, _stack(m0, m0d)), _products(pairs.q, pairs.r)
    if np.array_equal(rows.codes[16:], products.codes):  # else the gap is on both alphabets
        products = Family(np.hstack([np.zeros((16, 16)), products.coeffs]), rows.codes)
    return _largest(_normal(_sum(rows, _combine(qr, products)))) / pairs.hbar


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


def quantum_checks(degree: int, hbar: float) -> tuple:
    """({name: (max residual, 1)}, dimension, J^z spectrum) of the quantum-check
    identities; only the dimension and the J^z spectrum depend on the degree."""
    if degree < 2:
        raise ValueError("degree bound must be at least 2")
    pairs = build_canonical(hbar)
    a_ops, k_ops = quaternion_pairs(pairs)
    m0, m0d = m0_matrices(a_ops, k_ops)
    n, nd = three_vector_form(m0, m0d)
    mt = tensor_form(m0, m0d)
    vals = jz_spectrum(degree, hbar)
    jz_ops = (pairs, m0, m0d)
    unit = math.ldexp(hbar, 1 - math.frexp(hbar)[1])  # exact, in [1, 2)
    if unit != hbar:
        unit_pairs = build_canonical(unit)
        jz_ops = (unit_pairs, *m0_matrices(*quaternion_pairs(unit_pairs)))
    residuals = {
        "canonical": canonical_residual(pairs),
        "mixed": mixed_algebra_residual(a_ops, k_ops, hbar),
        "closure": lorentz_closure_residual(m0, m0d, hbar),
        "su2": su2_closure_residual(n, nd, hbar),
        "tensor": tensor_algebra_residual(mt, hbar),
        "roundtrip": spinor_tensor_roundtrip_residual(m0, mt),
        "jz_integrality": np.max([jz_residual(*jz_ops),  # np.max keeps a NaN
                                  integrality_residual(vals, hbar)]),
    }
    return {name: (r, 1) for name, r in residuals.items()}, math.comb(degree + 4, 4), vals
