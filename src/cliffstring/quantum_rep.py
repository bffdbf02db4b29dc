"""Finite-dimensional realization of the string's quantized Lorentz algebra.

Canonical pairs act on real polynomials in four variables of total degree
<= N (monomial basis): Q_mu multiplies by x_mu, R_nu = -i hbar eta_{nu nu}
d/dx_nu.  Multiplication truncates at the degree cap, so canonical
relations are asserted only on the safe subspace of degree <= N-1, where
every intermediate product stays inside the space.

The quaternion mapping A_mu = j (x) Q_mu, K_nu = k (x) R_nu turns the
canonical commutators into mixed relations: [A, A] = [K, K] = 0 and
{A_mu, K_nu} = -hbar eta_{mu nu}, because jk = -kj = i makes the
anticommutator collapse onto i (x) [Q, R].  Operators are carried as a
single quaternion tag plus a matrix; products that mix one A with one K
land on the tag i, and sums of such terms collapse to ordinary complex
matrices (tag i becomes the scalar i).

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .minkowski import EPS, eta4, sigma4_complex

__all__ = [
    "PolySpace",
    "QuatOperator",
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
    "jz_spectrum",
    "integrality_residual",
]

_S4 = sigma4_complex()                       # sigma^mu_{A Bdot}
_S4_UP = np.array([EPS @ (eta4()[mu, mu] * _S4[mu]) @ EPS.T for mu in range(4)])
# sigma_mu^{A Bdot}: vector index lowered, both spinor indices raised;
# works out to (I, sx, -sy, sz) and satisfies
# 1/2 sum_{A Bdot} sigma_mu^{A Bdot} sigma^nu_{A Bdot} = delta_mu^nu.


class PolySpace:
    """Monomial basis for polynomials in `n_vars` variables, degree <= cap."""

    def __init__(self, n_vars: int, degree: int):
        if n_vars < 1 or degree < 1:
            raise ValueError("need at least one variable and degree >= 1")
        self.n_vars = n_vars
        self.degree = degree
        exps = [()]
        for _ in range(n_vars):
            exps = [e + (k,) for e in exps for k in range(degree + 1)]
        exps = [e for e in exps if sum(e) <= degree]
        exps.sort(key=lambda e: (sum(e), e))
        self.exponents = tuple(exps)
        self.index = {e: i for i, e in enumerate(exps)}
        self.degrees = np.array([sum(e) for e in exps])

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def safe_columns(self) -> np.ndarray:
        """Mask of basis monomials with degree <= cap - 1."""
        return self.degrees <= self.degree - 1

    def mult_op(self, mu: int) -> np.ndarray:
        """Matrix of multiplication by x_mu (truncated at the degree cap)."""
        m = np.zeros((self.dim, self.dim))
        for j, e in enumerate(self.exponents):
            shifted = e[:mu] + (e[mu] + 1,) + e[mu + 1:]
            i = self.index.get(shifted)
            if i is not None:
                m[i, j] = 1.0
        return m

    def deriv_op(self, mu: int) -> np.ndarray:
        """Matrix of d/dx_mu (degree-lowering, never truncates)."""
        m = np.zeros((self.dim, self.dim))
        for j, e in enumerate(self.exponents):
            if e[mu] > 0:
                shifted = e[:mu] + (e[mu] - 1,) + e[mu + 1:]
                m[self.index[shifted], j] = float(e[mu])
        return m


_QUAT_TABLE = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
    ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
    ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
    ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
    ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
}


@dataclass(frozen=True)
class QuatOperator:
    """A PolySpace operator matrix carried on a single quaternion unit tag.

    Every object arising here is a sum of terms on one common tag: the
    canonical images live on j and k, any product of one A-factor with
    one K-factor lands on i, and pairs of like factors land on 1.
    Complex scalars act on the matrix part.
    """

    tag: str
    mat: np.ndarray

    def __matmul__(self, other: "QuatOperator") -> "QuatOperator":
        sign, tag = _QUAT_TABLE[self.tag, other.tag]
        return QuatOperator(tag, sign * (self.mat @ other.mat))

    def __add__(self, other: "QuatOperator") -> "QuatOperator":
        if self.tag != other.tag:
            raise ValueError("cannot add operators on different quaternion tags")
        return QuatOperator(self.tag, self.mat + other.mat)

    def __sub__(self, other: "QuatOperator") -> "QuatOperator":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "QuatOperator":
        return QuatOperator(self.tag, scalar * self.mat)

    def collapse(self) -> np.ndarray:
        """Complex matrix of a tag-1 or tag-i operator (i -> scalar i)."""
        if self.tag == "1":
            return self.mat.astype(complex)
        if self.tag == "i":
            return 1j * self.mat
        raise ValueError(f"operator on tag {self.tag!r} has no complex form")


@dataclass(frozen=True)
class CanonicalPairs:
    """Q_mu and R_nu as tuples of four complex (dim, dim) matrices."""

    space: PolySpace
    q: tuple
    r: tuple
    hbar: float


def build_canonical(degree: int = 6, hbar: float = 1.0) -> CanonicalPairs:
    """Canonical pairs Q_mu = x_mu*, R_nu = -i hbar eta_{nu nu} d_nu.

    [Q_mu, R_nu] = i hbar eta_{mu nu} holds exactly on the safe subspace
    of degree <= N-1; the top degree is sacrificed to the truncation.
    """
    if degree < 2:
        raise ValueError("degree bound must be at least 2")
    space = PolySpace(4, degree)
    eta = eta4()
    q = tuple(space.mult_op(mu).astype(complex) for mu in range(4))
    r = tuple(-1j * hbar * eta[nu, nu] * space.deriv_op(nu) for nu in range(4))
    return CanonicalPairs(space=space, q=q, r=r, hbar=hbar)


def _safe_max(mat: np.ndarray, safe: np.ndarray) -> float:
    return float(np.max(np.abs(mat[:, safe]))) if np.any(safe) else 0.0


def canonical_residual(pairs: CanonicalPairs) -> float:
    """Max residual of the canonical relations over all 16 index pairs."""
    space, q, r = pairs.space, pairs.q, pairs.r
    safe = space.safe_columns()
    eye = np.eye(space.dim)
    eta = eta4()
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            comm = q[mu] @ r[nu] - r[nu] @ q[mu]
            worst = max(worst, _safe_max(comm - 1j * pairs.hbar * eta[mu, nu] * eye, safe))
            worst = max(worst, _safe_max(q[mu] @ q[nu] - q[nu] @ q[mu], safe))
            worst = max(worst, _safe_max(r[mu] @ r[nu] - r[nu] @ r[mu], safe))
    return worst


def quaternion_pairs(pairs: CanonicalPairs):
    """Map the canonical pairs onto quaternion tags: A = j(x)Q, K = k(x)R."""
    a_ops = tuple(QuatOperator("j", mat) for mat in pairs.q)
    k_ops = tuple(QuatOperator("k", mat) for mat in pairs.r)
    return a_ops, k_ops


def mixed_algebra_residual(a_ops, k_ops, space: PolySpace, hbar: float) -> float:
    """Residual of [A,A] = [K,K] = 0 and {A_mu, K_nu} = -hbar eta_{mu nu}.

    The anticommutator is evaluated at the tag level: A_mu K_nu lands on
    kj = -i and K_nu A_mu on jk = +i, so the sum sits on a single tag and
    collapses to -hbar eta via [Q, R] = i hbar eta.
    """
    safe = space.safe_columns()
    eye = np.eye(space.dim)
    eta = eta4()
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            comm_a = a_ops[mu] @ a_ops[nu] - a_ops[nu] @ a_ops[mu]
            comm_k = k_ops[mu] @ k_ops[nu] - k_ops[nu] @ k_ops[mu]
            anti = a_ops[mu] @ k_ops[nu] + k_ops[nu] @ a_ops[mu]
            worst = max(worst, _safe_max(comm_a.collapse(), safe))
            worst = max(worst, _safe_max(comm_k.collapse(), safe))
            worst = max(
                worst,
                _safe_max(anti.collapse() + hbar * eta[mu, nu] * eye, safe),
            )
    return worst


def spinor_components(ops) -> list:
    """2x2 spinor matrix O_{A Bdot} = sigma^mu_{A Bdot} O_mu of operators."""
    out = [[None, None], [None, None]]
    for a in range(2):
        for b in range(2):
            acc = complex(_S4[0, a, b]) * ops[0]
            for mu in range(1, 4):
                acc = acc + complex(_S4[mu, a, b]) * ops[mu]
            out[a][b] = acc
    return out


def m0_matrices(a_ops, k_ops) -> tuple:
    """Symmetrized angular-momentum spinors as complex matrices.

    M0_{AB} = i K_A^Edot A_{B Edot} (K factor to the left) and its
    structural adjoint M0dag_{AdotBdot} = -i eps^{EF} A_{E Bdot} K_{F Adot},
    obtained by reversing products and conjugating scalar coefficients
    with A and K treated as formally self-adjoint.  Both are returned as
    (2, 2, dim, dim) complex arrays with the spinor indices symmetrized;
    all entries sit on the quaternion tag i and collapse cleanly.
    """
    a_sp = spinor_components(a_ops)
    k_sp = spinor_components(k_ops)
    dim = a_ops[0].mat.shape[0]
    m0 = np.zeros((2, 2, dim, dim), complex)
    m0d = np.zeros((2, 2, dim, dim), complex)
    for a in range(2):
        for b in range(2):
            acc = None
            accd = None
            for kd in range(2):
                for ld in range(2):
                    w = EPS[kd, ld]
                    if w == 0:
                        continue
                    term = (1j * w) * (k_sp[a][ld] @ a_sp[b][kd])
                    termd = (-1j * w) * (a_sp[kd][b] @ k_sp[ld][a])
                    acc = term if acc is None else acc + term
                    accd = termd if accd is None else accd + termd
            m0[a, b] = acc.collapse()
            m0d[a, b] = accd.collapse()
    m0 = 0.5 * (m0 + m0.transpose(1, 0, 2, 3))
    m0d = 0.5 * (m0d + m0d.transpose(1, 0, 2, 3))
    return m0, m0d


def lorentz_closure_residual(m0, m0d, safe, hbar: float) -> float:
    """Residual of the spinor Lorentz algebra on the safe subspace.

    Checks [M0_(AB), M0_(EF)] against i hbar (M0_(AE) eps_FB + A<->B)
    + E<->F with the lower-index eps_{AB} = -eps^{AB}, and that dotted
    and undotted blocks commute.
    """
    leps = -EPS
    worst = 0.0
    for a in range(2):
        for b in range(2):
            for e in range(2):
                for f in range(2):
                    comm = m0[a, b] @ m0[e, f] - m0[e, f] @ m0[a, b]
                    rhs = 1j * hbar * (
                        m0[a, e] * leps[f, b] + m0[b, e] * leps[f, a]
                        + m0[a, f] * leps[e, b] + m0[b, f] * leps[e, a]
                    )
                    worst = max(worst, _safe_max(comm - rhs, safe))
                    cross = m0[a, b] @ m0d[e, f] - m0d[e, f] @ m0[a, b]
                    worst = max(worst, _safe_max(cross, safe))
    return worst


def three_vector_form(m0, m0d) -> tuple:
    """Rotation/boost three-vectors N_i and their adjoints.

    N_1 = i/4 (Md_11 - Md_22), N_2 = 1/4 (Md_11 + Md_22), N_3 = -i/2 Md_12
    built on the dotted block; the adjoints use the undotted block with
    conjugated coefficients.
    """
    n = np.array([
        0.25j * (m0d[0, 0] - m0d[1, 1]),
        0.25 * (m0d[0, 0] + m0d[1, 1]),
        -0.5j * m0d[0, 1],
    ])
    nd = np.array([
        -0.25j * (m0[0, 0] - m0[1, 1]),
        0.25 * (m0[0, 0] + m0[1, 1]),
        0.5j * m0[0, 1],
    ])
    return n, nd


def su2_closure_residual(n, nd, safe, hbar: float) -> float:
    """Residual of [N_i, N_j] = -i hbar eps_ijk N_k (and the adjoint copy).

    The literal component triple closes left-handed in this eps
    convention; the reordered triple (N_2, N_1, N_3) satisfies the
    +i hbar form.  Mixed commutators [N_i, N_j^dag] must vanish.
    """
    eps3 = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps3[i, j, k] = 1.0
        eps3[j, i, k] = -1.0
    worst = 0.0
    for i in range(3):
        for j in range(3):
            rhs = sum(-1j * hbar * eps3[i, j, k] * n[k] for k in range(3))
            rhsd = sum(-1j * hbar * eps3[i, j, k] * nd[k] for k in range(3))
            worst = max(worst, _safe_max(n[i] @ n[j] - n[j] @ n[i] - rhs, safe))
            worst = max(worst, _safe_max(nd[i] @ nd[j] - nd[j] @ nd[i] - rhsd, safe))
            worst = max(worst, _safe_max(n[i] @ nd[j] - nd[j] @ n[i], safe))
    return worst


def tensor_form(m0, m0d) -> np.ndarray:
    """Antisymmetric tensor M_{mu nu} equivalent to the spinor pair.

    M_{mu nu} = 1/4 sigma_mu^{A Edot} sigma_nu^{B Fdot}
                (M0_(AB) eps_EdotFdot + M0dag_(EdotFdot) eps_AB).
    """
    dim = m0.shape[-1]
    out = np.zeros((4, 4, dim, dim), complex)
    for mu in range(4):
        for nu in range(4):
            acc = np.zeros((dim, dim), complex)
            for a in range(2):
                for e in range(2):
                    for b in range(2):
                        for f in range(2):
                            w = _S4_UP[mu, a, e] * _S4_UP[nu, b, f]
                            if w == 0:
                                continue
                            acc += w * (m0[a, b] * EPS[e, f] + m0d[e, f] * EPS[a, b])
            out[mu, nu] = 0.25 * acc
    return out


def tensor_algebra_residual(m_tensor, safe, hbar: float) -> float:
    """Residual of the tensor-form Lorentz algebra and antisymmetry.

    The literal tensor closes as [M_uv, M_rs] = -i hbar (eta M - ...);
    equivalently -M_{mu nu} satisfies the usual +i hbar form.  It also
    agrees exactly with the assembly from the three-vector (eps_ijk
    (N_k + N_k^dag) on space-space, -i(N_i - N_i^dag) on time-space).
    """
    eta = eta4()
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            worst = max(worst, _safe_max(m_tensor[mu, nu] + m_tensor[nu, mu], safe))
    pairs = [(mu, nu) for mu in range(4) for nu in range(mu + 1, 4)]
    for mu, nu in pairs:
        for rho, sig in pairs:
            comm = (m_tensor[mu, nu] @ m_tensor[rho, sig]
                    - m_tensor[rho, sig] @ m_tensor[mu, nu])
            rhs = -1j * hbar * (
                eta[nu, rho] * m_tensor[mu, sig] - eta[mu, rho] * m_tensor[nu, sig]
                - eta[nu, sig] * m_tensor[mu, rho] + eta[mu, sig] * m_tensor[nu, rho]
            )
            worst = max(worst, _safe_max(comm - rhs, safe))
    return worst


def spinor_tensor_roundtrip_residual(m0, m_tensor) -> float:
    """Max error of M0_(AB) = 1/2 eps^EdotFdot sigma^mu sigma^nu M_{mu nu}."""
    worst = 0.0
    for a in range(2):
        for b in range(2):
            acc = np.zeros_like(m0[0, 0])
            for e in range(2):
                for f in range(2):
                    if EPS[e, f] == 0:
                        continue
                    for mu in range(4):
                        for nu in range(4):
                            w = EPS[e, f] * _S4[mu, a, e] * _S4[nu, b, f]
                            if w != 0:
                                acc += w * m_tensor[mu, nu]
            worst = max(worst, float(np.max(np.abs(0.5 * acc - m0[a, b]))))
    return worst


def jz_spectrum(degree: int, hbar: float = 1.0) -> np.ndarray:
    """Eigenvalues of J^z = Q_1 R_2 - Q_2 R_1 on two-variable polynomials.

    The operator preserves homogeneous degree, so the spectrum is exactly
    integral in units of hbar on every truncation: hbar * {-d, ..., d}
    across degrees d <= cap.  Returned sorted by real part.
    """
    space = PolySpace(2, degree)
    jz = 1j * hbar * (space.mult_op(0) @ space.deriv_op(1)
                      - space.mult_op(1) @ space.deriv_op(0))
    vals = np.linalg.eigvals(jz)
    return vals[np.argsort(vals.real)]


def integrality_residual(values: np.ndarray, hbar: float = 1.0) -> float:
    """Max distance of the values from the lattice hbar * (integers)."""
    scaled = np.asarray(values) / hbar
    return float(np.max(np.abs(scaled - np.round(scaled.real))))
