"""Finite-dimensional realization of the string's quantized Lorentz algebra.

Canonical pairs are Q_mu, multiplication by x_mu, and R_nu = -i hbar
eta_{nu nu} D_nu with D_nu = d/dx_nu.  A family of K operators is a
(K, 81) array of symmetric forms (below), one flattened 9x9 form per
operator, index pairs row-major (M0_{AB} is operator 2A+B, M_{mu nu} is
4 mu + nu); families stack with np.vstack and combine as w @ rows.

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

Every operator here is of degree <= 2 in the x and the d.  With zeta =
(1, x_0..x_3, d_0..d_3), its layout named once as the constant slot 0, the
slices _X and _D, the length _SLOTS = 9 and a form's flat length _FORM,
each is zeta^T H zeta = sum_ij H_ij zeta_i zeta_j for exactly one
symmetric 9x9 H, its Weyl-ordered (symmetric) form, and is stored as that
H: the constant is H_00, x_mu = zeta^T H zeta with H_0,1+mu = H_1+mu,0 =
1/2.  Two operators are equal exactly when their forms are.  With
Omega_ij = [zeta_i, zeta_j],

  [zeta^T H zeta, zeta^T G zeta] = 2 zeta^T (H Omega G - G Omega H) zeta,

so a bracket of two families is one matrix product, and a product of two
operators of degree <= 1 is the symmetric part of one outer product plus
a constant, the only place d_nu x_nu = x_nu d_nu + 1 enters.  For degree
<= 2 the commutator is exactly i hbar times the Poisson bracket of the
Weyl symbols (Groenewold 1946): the quadratic forms bracket as sp(8) and
the linear ones as the Heisenberg algebra, so `closure` is the Lorentz
algebra obtained from Poisson brackets.  A check reads the largest
coefficient of its gaps' Weyl-ordered polynomials, W_ij |H_ij| with W = 1
on the diagonal and 2 off it.  No space is truncated, so no identity
depends on the degree, and at hbar = 1 the gaps cancel to exactly 0.

m0_matrices forms M0 from K at its mantissa, and jz_residual reads J^z's
gap at hbar's mantissa u = hbar 2^-e in [1, 2), scaling by powers of two
exactly, so that nothing over- or underflows on the way at hbar = 1e308 or
at a subnormal hbar.

Every weight that does not depend on hbar is a module constant built once
at import, held as int8 where its entries are integers and as complex64
where they are halves or quarters, both exact; hbar and the units jk and
kj are applied per call.

The degree N sets only the J^z spectrum, which is closed form (see
`jz_spectrum`), and the reported dimension C(N + 4, 4) of the
polynomials in four variables of degree <= N.
"""

from __future__ import annotations

import math

import numpy as np

from .minkowski import EPS, eta4, sigma4_complex

__all__ = [
    "build_canonical",
    "canonical_residual",
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

_ETA = eta4().astype(np.int8)  # eta_{mu nu}

_EPS3 = np.cross(np.eye(3)[:, None], np.eye(3))  # eps_ijk = (e_i x e_j)_k

_JK, _KJ = 1j, -1j
# the quaternion unit products jk and kj, applied where A = j (x) Q and K = k (x) R meet

# zeta = (1, x_0..x_3, d_0..d_3): the constant in slot 0, so a form's flat entry 0
# is its constant H_00, the x in _X and the d in _D; a form is _SLOTS x _SLOTS
_SLOTS, _X, _D = 9, slice(1, 5), slice(5, 9)
_FORM = _SLOTS * _SLOTS  # a form's flat length
# Omega_ij = [zeta_i, zeta_j]; [D_nu, Q_mu] = delta_{mu nu} is the only bracket of two letters
_OMEGA = np.zeros((_SLOTS, _SLOTS))
_OMEGA[_D, _X] = np.eye(4)
# formed in float64 and cast once: an int8 subtraction would page in numpy's
# int8 arithmetic code, about 0.13 MB of RSS that no other code uses
_OMEGA = (_OMEGA - _OMEGA.T).astype(np.int8)
# zeta^T H zeta = sum_ij H_ij zeta_i zeta_j puts W_ij H_ij on the Weyl-ordered
# monomial of zeta_i zeta_j, i <= j: off the diagonal, H_ij and H_ji both stand on it
_WEYL = (2 - np.eye(_SLOTS)).reshape(_FORM)
_OMEGA.flags.writeable = _WEYL.flags.writeable = False


# -- brackets: quadratic forms in zeta ---------------------------------------------


def _products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The forms of X_i Y_j as row i L + j, for families of degree <= 1.

    X_i = u . zeta, u = W_0a H_0a the first row of X_i's form weighted as in
    its Weyl coefficients, and Y_j = v . zeta.  zeta_a zeta_b is its symmetric
    part plus Omega_ab / 2, so X_i Y_j is zeta^T S zeta, S the symmetric part
    of u v^T, plus the constant 1/2 u^T Omega v: there d_nu x_nu = x_nu d_nu
    + 1 enters.
    """
    n = _SLOTS
    if x.reshape(-1, n, n)[:, 1:, 1:].any() or y.reshape(-1, n, n)[:, 1:, 1:].any():
        raise ValueError("products are formed for operators of degree <= 1 only")
    u, v = x[:, :n] * _WEYL[:n], y[:, :n] * _WEYL[:n]
    p = u[:, None, :, None] * v[None, :, None, :]
    s = p + p.swapaxes(2, 3)
    s[:, :, 0, 0] += p.reshape(len(x), len(y), _FORM) @ _OMEGA.reshape(_FORM)  # u^T Omega v
    s *= 0.5
    return s.reshape(-1, _FORM)


def _commutators(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The forms of [X_i, Y_j] as row i L + j.

    With X_i = zeta^T H_i zeta and Y_j = zeta^T G_j zeta, [X_i, Y_j] is
    zeta^T 2 (A + A^T) zeta, A = H_i Omega G_j, and every A is a block of one
    product of the (9K, 9) stack of the H_i Omega with the (9, 9L) row of the
    G_j.  zeta's constant slot stays in the product, so a NaN on a form's
    H_00 reaches its brackets.
    """
    k, l, n = len(x), len(y), _SLOTS
    h = x.reshape(n * k, n) @ _OMEGA
    g = y.reshape(l, n, n).swapaxes(0, 1).reshape(n, n * l)
    a = (h @ g).reshape(k, n, l, n).swapaxes(1, 2)
    s = a.copy()  # contiguous, so the sum below needs no strided temporary
    s += a.swapaxes(2, 3)
    s *= 2
    return s.reshape(k * l, _FORM)


def _scaled(rows: np.ndarray, e: int) -> np.ndarray:
    """Complex rows times 2^e, exactly wherever the result is normal."""
    return np.ldexp(np.ascontiguousarray(rows, complex).view(float), e).view(complex)


def _largest(*gaps: np.ndarray) -> float:
    """Max |Weyl coefficient| over the gaps' forms, W_ij |H_ij|; a NaN stays NaN."""
    weighted = np.abs(np.concatenate([g.reshape(-1, _FORM) for g in gaps]) if len(gaps) > 1 else gaps[0])
    weighted *= _WEYL
    return float(np.maximum.reduce(weighted, axis=None, initial=0.0))


# -- canonical and quaternion pairs ------------------------------------------------


def build_canonical(hbar: float = 1.0) -> tuple:
    """Canonical pairs (Q, R): Q_mu = x_mu*, R_nu = -i hbar eta_{nu nu} d_nu, two families of four.

    A linear term's form holds half its coefficient on H_0j and on H_j0, so
    R's entries round at a subnormal hbar whose last bit is set.
    """
    q, r = np.zeros((2, 4, _SLOTS, _SLOTS), complex)
    q[:, 0, _X] = q[:, _X, 0] = 0.5 * np.eye(4)
    r[:, 0, _D] = r[:, _D, 0] = -0.5j * hbar * _ETA
    return q.reshape(4, _FORM), r.reshape(4, _FORM)


def canonical_residual(q: np.ndarray, r: np.ndarray, hbar: float) -> float:
    """Max Weyl coefficient of the canonical relations' gaps over all 16 index pairs.

    One bracket of the family (Q_0..Q_3, R_0..R_3) with itself gives every
    commutator; [Q, R] = i hbar eta, [R, Q] = -i hbar eta, the rest vanish.
    """
    ops = np.vstack([q, r])
    gaps = _commutators(ops, ops).reshape(8, 8, _FORM)
    gaps[:4, 4:, 0] -= 1j * hbar * _ETA
    gaps[4:, :4, 0] += 1j * hbar * _ETA
    return _largest(gaps)


def mixed_algebra_residual(a_ops: np.ndarray, k_ops: np.ndarray, hbar: float) -> float:
    """Residual of [A,A] = [K,K] = 0 and {A_mu, K_nu} = -hbar eta_{mu nu}.

    {A_mu, K_nu} = jk Q_mu R_nu + kj R_nu Q_mu, from the forms of the
    products, is i [Q_mu, R_nu] only while kj = -jk.  [A, A] and [K, K] are
    the brackets of Q and of R times jj = kk = -1, which flips the sign of a
    whole gap block; no max |coefficient| can see that, so it is left out.
    """
    ka = _products(k_ops, a_ops).reshape(4, 4, _FORM).swapaxes(0, 1).reshape(16, _FORM)
    anti = _JK * _products(a_ops, k_ops) + _KJ * ka
    anti[:, 0] += hbar * _ETA.reshape(16)
    return _largest(_commutators(a_ops, a_ops), _commutators(k_ops, k_ops), anti)


# -- angular momentum: spinor, three-vector and tensor forms -----------------------


def spinor_components(ops: np.ndarray) -> np.ndarray:
    """Spinor family O_{A Bdot} = sigma^mu_{A Bdot} O_mu (operator 2A+Bdot)."""
    return _S4.reshape(4, 4).T @ ops


# 2 x the weights of the products K_{P L} A_{Q E} in M0_(AB) and A_{E Q} K_{L P} in
# M0dag_(AB): delta_AP delta_BQ eps^{E L}, symmetrized over (AB)
_M0_WEIGHTS = np.einsum("ap,bq,el->abpqel", np.eye(2), np.eye(2), EPS)
_M0_WEIGHTS = np.stack([_M0_WEIGHTS.transpose(0, 1, 2, 5, 3, 4), _M0_WEIGHTS.transpose(0, 1, 4, 3, 5, 2)])
_M0_WEIGHTS = (_M0_WEIGHTS + _M0_WEIGHTS.swapaxes(1, 2)).reshape(2, 4, 16).astype(np.int8)


def m0_matrices(a_ops: np.ndarray, k_ops: np.ndarray) -> tuple:
    """Symmetrized angular-momentum spinors as complex families.

    M0_{AB} = i K_A^Edot A_{B Edot} (K factor to the left) and its
    structural adjoint M0dag_{AdotBdot} = -i eps^{EF} A_{E Bdot} K_{F Adot},
    obtained by reversing products and conjugating scalar coefficients
    with A and K treated as formally self-adjoint.  Both are families of
    four operators with the spinor indices symmetrized, on the monomials
    x_mu d_nu: the ordering constants of M0's products D_nu Q_mu cancel.

    Both are formed from K times 2^-e, its largest |form entry| in [1, 2),
    and scaled back by 2^e exactly: M0's ordering constants, sums of hbar
    terms that cancel, would overflow at hbar = 1e308 before they cancel,
    and its halvings would round at a subnormal hbar.
    """
    e = math.frexp(np.max(np.abs(k_ops), initial=0.0))[1] - 1
    a_sp, k_sp = spinor_components(a_ops), spinor_components(_scaled(k_ops, -e))
    # the weights with their units: i kj = -i jk = 1, so M0 is a real
    # combination of R Q products
    w, wd = 0.5j * _KJ * _M0_WEIGHTS[0], -0.5j * _JK * _M0_WEIGHTS[1]
    return _scaled(w @ _products(k_sp, a_sp), e), _scaled(wd @ _products(a_sp, k_sp), e)


# the closure's coefficients of M0_(AE) eps_FB + A <-> B + E <-> F, eps_FB = -eps^{FB}
_CLOSURE = np.einsum("ag,eh,fb->abefgh", np.eye(2), np.eye(2), -EPS)
_CLOSURE = _CLOSURE + _CLOSURE.transpose(1, 0, 2, 3, 4, 5)
_CLOSURE = (_CLOSURE + _CLOSURE.transpose(0, 1, 3, 2, 4, 5)).reshape(4, 4, 4).astype(np.int8)


def lorentz_closure_residual(m0: np.ndarray, m0d: np.ndarray, hbar: float) -> float:
    """Residual of the spinor Lorentz algebra, in Weyl coefficients.

    Checks [M0_(AB), M0_(EF)] against i hbar (M0_(AE) eps_FB + A<->B)
    + E<->F with the lower-index eps_{AB} = -eps^{AB}, and that dotted
    and undotted blocks commute.
    """
    coeffs = np.zeros((4, 8, 4), complex)           # zero on the [M0, M0dag] blocks
    coeffs[:, :4] = 1j * hbar * _CLOSURE
    return _largest(_commutators(m0, np.vstack([m0, m0d])) - coeffs.reshape(32, 4) @ m0)


_THREE_VECTOR = np.array([[0.25j, 0, 0, -0.25j], [0.25, 0, 0, 0.25], [0, -0.5j, 0, 0]], np.complex64)


def three_vector_form(m0: np.ndarray, m0d: np.ndarray) -> tuple:
    """Rotation/boost three-vectors N_i and their adjoints, families of three.

    N_1 = i/4 (Md_11 - Md_22), N_2 = 1/4 (Md_11 + Md_22), N_3 = -i/2 Md_12
    built on the dotted block; the adjoints use the undotted block with
    conjugated coefficients.
    """
    return _THREE_VECTOR @ m0d, _THREE_VECTOR.conj() @ m0


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


# sigma_mu^{A Bdot}: vector index lowered, both spinor indices raised; works out
# to (I, sx, -sy, sz) and satisfies 1/2 sum_{A Bdot} sigma_mu^{A Bdot}
# sigma^nu_{A Bdot} = delta_mu^nu.  Only tensor_form's weight uses it
_S4_UP = np.array([EPS @ (_ETA[mu, mu] * _S4[mu]) @ EPS.T for mu in range(4)])
# tensor_form's weight on the stack (M0, M0dag): the undotted then the dotted block
_TENSOR_FORM = np.concatenate([np.einsum("mae,nbf,ef->mnab", _S4_UP, _S4_UP, EPS).reshape(16, 4),
                               np.einsum("mae,nbf,ab->mnef", _S4_UP, _S4_UP, EPS).reshape(16, 4)], axis=1)
_TENSOR_FORM = (0.25 * _TENSOR_FORM).astype(np.complex64)
del _S4_UP


def tensor_form(m0: np.ndarray, m0d: np.ndarray) -> np.ndarray:
    """Antisymmetric tensor M_{mu nu} equivalent to the spinor pair, a family of 16.

    M_{mu nu} = 1/4 sigma_mu^{A Edot} sigma_nu^{B Fdot}
                (M0_(AB) eps_EdotFdot + M0dag_(EdotFdot) eps_AB).
    """
    return _TENSOR_FORM @ np.vstack([m0, m0d])


# eta_{nu rho} M_{mu sigma} - mu <-> nu - rho <-> sigma, on the six M_{mu<nu}
_PAIRS = np.array([4 * mu + nu for mu in range(4) for nu in range(mu + 1, 4)])
_TENSOR = np.einsum("nr,am,bs->mnrsab", _ETA, np.eye(4), np.eye(4))
_TENSOR = _TENSOR - _TENSOR.transpose(1, 0, 2, 3, 4, 5)
_TENSOR = _TENSOR - _TENSOR.transpose(0, 1, 3, 2, 4, 5)
_TENSOR = _TENSOR.reshape(16, 16, 16)[np.ix_(_PAIRS, _PAIRS)].reshape(36, 16).astype(np.int8)


def tensor_algebra_residual(m_tensor: np.ndarray, hbar: float) -> float:
    """Residual of the tensor-form Lorentz algebra and antisymmetry.

    The literal tensor closes as [M_uv, M_rs] = -i hbar (eta M - ...);
    equivalently -M_{mu nu} satisfies the usual +i hbar forms.  It also
    agrees exactly with the assembly from the three-vector (eps_ijk
    (N_k + N_k^dag) on space-space, -i(N_i - N_i^dag) on time-space).
    """
    coeffs = -1j * hbar * _TENSOR
    ops = m_tensor[_PAIRS]
    mt = m_tensor.reshape(4, 4, _FORM)
    return _largest(mt + mt.swapaxes(0, 1), _commutators(ops, ops) - coeffs @ m_tensor)


_ROUNDTRIP = (0.5 * np.einsum("ef,mae,nbf->abmn", EPS, _S4, _S4).reshape(4, 16)).astype(np.complex64)


def spinor_tensor_roundtrip_residual(m0: np.ndarray, m_tensor: np.ndarray) -> float:
    """Max Weyl coefficient of M0_(AB) - 1/2 eps^EdotFdot sigma^mu sigma^nu M_{mu nu}."""
    return _largest(_ROUNDTRIP @ m_tensor - m0)


# J^z's rows: i/2 (M0_(12) - M0dag_(12)) on the stack (M0, M0dag), and
# -(Q_1 R_2 - Q_2 R_1) on the products Q_mu R_nu
_JZ_M0 = (0.5j * (np.eye(8)[[1]] - np.eye(8)[[4 + 1]])).astype(np.complex64)
_JZ_QR = (np.eye(16)[[4 * 2 + 1]] - np.eye(16)[[4 * 1 + 2]]).astype(np.int8)


def jz_residual(q: np.ndarray, r: np.ndarray, m0: np.ndarray, m0d: np.ndarray, hbar: float) -> float:
    """Max Weyl coefficient of J^z = i/2 (M0_(12) - M0dag_(12)) = Q_1 R_2 - Q_2 R_1, in units of hbar.

    Both sides are of degree 1 in hbar, so the gap divided by hbar does not
    scale with it.  It is formed from R, M0 and M0dag times 2^-e, hbar 2^-e
    in [1, 2), and read in units of that mantissa: at a subnormal hbar the
    halves i/2 M0 would round by whole units of hbar.
    """
    e = math.frexp(hbar)[1] - 1
    m0, m0d, r = (_scaled(f, -e) for f in (m0, m0d, r))
    gap = _JZ_M0 @ np.vstack([m0, m0d]) + _JZ_QR @ _products(q, r)
    return _largest(gap) / math.ldexp(hbar, -e)


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
    q, r = build_canonical(hbar)  # also A = j (x) Q and K = k (x) R, as the families of Q and R
    m0, m0d = m0_matrices(q, r)
    n, nd = three_vector_form(m0, m0d)
    mt = tensor_form(m0, m0d)
    vals = jz_spectrum(degree, hbar)
    residuals = {
        "canonical": canonical_residual(q, r, hbar),
        "mixed": mixed_algebra_residual(q, r, hbar),
        "closure": lorentz_closure_residual(m0, m0d, hbar),
        "su2": su2_closure_residual(n, nd, hbar),
        "tensor": tensor_algebra_residual(mt, hbar),
        "roundtrip": spinor_tensor_roundtrip_residual(m0, mt),
        "jz_integrality": np.max([jz_residual(q, r, m0, m0d, hbar),  # np.max keeps a NaN
                                  integrality_residual(vals, hbar)]),
    }
    return {name: (r, 1) for name, r in residuals.items()}, math.comb(degree + 4, 4), vals
