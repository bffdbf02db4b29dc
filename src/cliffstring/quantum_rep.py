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

Operators are sparse CSR matrices.  A family of K operators is one
(K dim, dim) stack, operator k in rows k dim to (k+1) dim, index pairs
row-major (M0_{AB} is operator 2A+B, M_{mu nu} is 4 mu + nu).  A linear
combination is one product kron(W, I) @ stack, all products X_i Y_j of
two families are one product of the stacked X with the Ys side by side,
and each check is one masked max over all its index pairs at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .minkowski import EPS, eta4, sigma4_complex


class _LazySparse:
    """scipy.sparse, imported on first use: importing this module loads no scipy."""

    def __getattr__(self, name):
        import scipy.sparse
        return getattr(scipy.sparse, name)


sparse = _LazySparse()

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

_EPS3 = np.cross(np.eye(3)[:, None], np.eye(3))  # eps_ijk = (e_i x e_j)_k


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

    def _shift_op(self, mu: int, step: int, weight) -> sparse.csr_matrix:
        """Sends x^e to weight(e) x^(e + step in slot mu), or to 0 outside the space."""
        rows, cols, vals = [], [], []
        for j, e in enumerate(self.exponents):
            i = self.index.get(e[:mu] + (e[mu] + step,) + e[mu + 1:])
            if i is not None:
                rows.append(i)
                cols.append(j)
                vals.append(weight(e))
        return sparse.csr_matrix((vals, (rows, cols)), shape=(self.dim, self.dim))

    def mult_op(self, mu: int) -> sparse.csr_matrix:
        """Matrix of multiplication by x_mu (truncated at the degree cap)."""
        return self._shift_op(mu, 1, lambda e: 1.0)

    def deriv_op(self, mu: int) -> sparse.csr_matrix:
        """Matrix of d/dx_mu (degree-lowering, never truncates)."""
        return self._shift_op(mu, -1, lambda e: float(e[mu]))


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

    Every object arising here lies on one common tag: the canonical
    images live on j and k, any product of one A-factor with one K-factor
    lands on i, and pairs of like factors land on 1.  The matrix may be a
    stacked family, or the block matrix of its products, all on the tag.
    """

    tag: str
    mat: sparse.csr_matrix

    def __matmul__(self, other: "QuatOperator") -> "QuatOperator":
        sign, tag = _QUAT_TABLE[self.tag, other.tag]
        return QuatOperator(tag, sign * (self.mat @ other.mat))

    def collapse(self) -> sparse.csr_matrix:
        """Complex matrix of a tag-1 or tag-i operator (i -> scalar i)."""
        if self.tag == "1":
            return self.mat.astype(complex)
        if self.tag == "i":
            return 1j * self.mat
        raise ValueError(f"operator on tag {self.tag!r} has no complex form")


@dataclass(frozen=True)
class CanonicalPairs:
    """Q_mu (real) and R_nu (complex), each stacked as a (4 dim, dim) CSR matrix."""

    space: PolySpace
    q: sparse.csr_matrix
    r: sparse.csr_matrix
    hbar: float


# -- stacked families ------------------------------------------------------------


def _combine(w: np.ndarray, stack) -> sparse.csr_matrix:
    """Stack of the operators sum_m w[k, m] Z_m of a stacked family Z."""
    n = stack.shape[1]
    return sparse.kron(w, sparse.identity(n), format="csr") @ stack


def _side_by_side(stack) -> sparse.csr_matrix:
    """The (dim, K dim) matrix [Z_0 Z_1 ... Z_{K-1}] of a stacked family."""
    n = stack.shape[1]
    c = stack.tocoo()
    k, row = np.divmod(c.row, n)
    return sparse.csr_matrix((c.data, (row, k * n + c.col)), shape=(n, stack.shape[0]))


def _stack_blocks(p, n: int, swap: bool = False) -> sparse.csr_matrix:
    """Stack of the (dim, dim) blocks of a block matrix, block (i, j) as operator i L + j.

    With swap, block (j, i) of an (L dim, K dim) matrix goes to operator
    i L + j instead, so the products Y_j X_i line up with X_i Y_j.
    """
    c = p.tocoo()
    bi, row = np.divmod(c.row, n)
    bj, col = np.divmod(c.col, n)
    if swap:
        bi, bj = bj, bi
    n_cols = p.shape[0 if swap else 1] // n
    return sparse.csr_matrix(
        (c.data, ((bi * n_cols + bj) * n + row, col)), shape=(p.shape[0] * p.shape[1] // n, n)
    )


def _brackets(xy, yx, n: int, sign: float = -1.0) -> sparse.csr_matrix:
    """Stack of X_i Y_j + sign Y_j X_i from the block products xy = [X_i Y_j], yx = [Y_j X_i]."""
    return _stack_blocks(xy, n) + sign * _stack_blocks(yx, n, swap=True)


def _commutator_gap(x, y, coeffs: np.ndarray, z) -> sparse.csr_matrix:
    """Stack of [X_i, Y_j] - sum_m coeffs[i, j, m] Z_m over all (i, j).

    x, y and z are stacked families of K, L and M operators and coeffs is
    a (K, L, M) array; when y is x one product serves both orders.
    """
    xy = x @ _side_by_side(y)
    yx = xy if y is x else y @ _side_by_side(x)
    return _brackets(xy, yx, x.shape[1]) - _combine(coeffs.reshape(-1, coeffs.shape[-1]), z)


def _tagged_products(x: QuatOperator, y: QuatOperator) -> sparse.csr_matrix:
    """Block matrix [X_i Y_j] of two tagged families, collapsed from its product tag."""
    return (x @ QuatOperator(y.tag, _side_by_side(y.mat))).collapse()


def _max_abs(mat, safe: np.ndarray = None) -> float:
    """Max |entry|, over the safe columns when a mask is given; a NaN propagates."""
    mat = mat.tocsr()
    data = mat.data if safe is None else mat.data[safe[mat.indices]]
    return float(np.max(np.abs(data), initial=0.0))


# -- canonical and quaternion pairs ------------------------------------------------


def build_canonical(degree: int = 6, hbar: float = 1.0) -> CanonicalPairs:
    """Canonical pairs Q_mu = x_mu*, R_nu = -i hbar eta_{nu nu} d_nu.

    [Q_mu, R_nu] = i hbar eta_{mu nu} holds exactly on the safe subspace
    of degree <= N-1; the top degree is sacrificed to the truncation.
    """
    if degree < 2:
        raise ValueError("degree bound must be at least 2")
    space = PolySpace(4, degree)
    eta = eta4()
    q = sparse.vstack([space.mult_op(mu) for mu in range(4)], format="csr")
    r = sparse.vstack(
        [-1j * hbar * eta[nu, nu] * space.deriv_op(nu) for nu in range(4)], format="csr"
    )
    return CanonicalPairs(space=space, q=q, r=r, hbar=hbar)


def canonical_residual(pairs: CanonicalPairs) -> float:
    """Max residual of the canonical relations over all 16 index pairs.

    One product of the family (Q_0..Q_3, R_0..R_3) with itself gives every
    commutator; [Q, R] = i hbar eta, [R, Q] = -i hbar eta, the rest vanish.
    """
    ops = sparse.vstack([pairs.q, pairs.r], format="csr")
    coeffs = np.zeros((8, 8, 1), complex)
    coeffs[:4, 4:, 0] = 1j * pairs.hbar * eta4()
    coeffs[4:, :4, 0] = -1j * pairs.hbar * eta4()
    gap = _commutator_gap(ops, ops, coeffs, sparse.identity(pairs.space.dim, format="csr"))
    return _max_abs(gap, pairs.space.safe_columns())


def quaternion_pairs(pairs: CanonicalPairs):
    """Map the canonical pairs onto quaternion tags: A = j(x)Q, K = k(x)R (stacked)."""
    return QuatOperator("j", pairs.q), QuatOperator("k", pairs.r)


def mixed_algebra_residual(a_ops, k_ops, space: PolySpace, hbar: float) -> float:
    """Residual of [A,A] = [K,K] = 0 and {A_mu, K_nu} = -hbar eta_{mu nu}.

    The anticommutator is evaluated at the tag level: A_mu K_nu lands on
    kj = -i and K_nu A_mu on jk = +i, so the sum sits on a single tag and
    collapses to -hbar eta via [Q, R] = i hbar eta.
    """
    n = space.dim
    aa = _tagged_products(a_ops, a_ops)
    kk = _tagged_products(k_ops, k_ops)
    anti = _brackets(_tagged_products(a_ops, k_ops), _tagged_products(k_ops, a_ops), n, sign=1.0)
    gaps = sparse.vstack([
        _brackets(aa, aa, n),
        _brackets(kk, kk, n),
        anti + sparse.kron(hbar * eta4().reshape(16, 1), sparse.identity(n)),
    ])
    return _max_abs(gaps, space.safe_columns())


# -- angular momentum: spinor, three-vector and tensor forms -----------------------


def spinor_components(ops: QuatOperator) -> QuatOperator:
    """Stacked spinor family O_{A Bdot} = sigma^mu_{A Bdot} O_mu (operator 2A+Bdot)."""
    return QuatOperator(ops.tag, _combine(_S4.reshape(4, 4).T, ops.mat))


def m0_matrices(a_ops, k_ops) -> tuple:
    """Symmetrized angular-momentum spinors as stacked complex matrices.

    M0_{AB} = i K_A^Edot A_{B Edot} (K factor to the left) and its
    structural adjoint M0dag_{AdotBdot} = -i eps^{EF} A_{E Bdot} K_{F Adot},
    obtained by reversing products and conjugating scalar coefficients
    with A and K treated as formally self-adjoint.  Both are returned as
    (4 dim, dim) stacks with the spinor indices symmetrized; all products
    sit on the quaternion tag i and collapse cleanly.
    """
    a_sp, k_sp = spinor_components(a_ops), spinor_components(k_ops)
    n = a_ops.mat.shape[1]
    d = np.eye(2)
    # weights of the products K_{P L} A_{Q E} and A_{E Q} K_{L P}, eps^{E L}
    w = 1j * np.einsum("ap,bq,el->abplqe", d, d, EPS)
    wd = -1j * np.einsum("el,qb,pa->abeqlp", EPS, d, d)
    w, wd = ((0.5 * (c + c.swapaxes(0, 1))).reshape(4, 16) for c in (w, wd))  # (AB)
    m0 = _combine(w, _stack_blocks(_tagged_products(k_sp, a_sp), n))
    m0d = _combine(wd, _stack_blocks(_tagged_products(a_sp, k_sp), n))
    return m0, m0d


def lorentz_closure_residual(m0, m0d, safe, hbar: float) -> float:
    """Residual of the spinor Lorentz algebra on the safe subspace.

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
    both = sparse.vstack([m0, m0d], format="csr")
    return _max_abs(_commutator_gap(m0, both, coeffs, m0), safe)


def three_vector_form(m0, m0d) -> tuple:
    """Rotation/boost three-vectors N_i and their adjoints, (3 dim, dim) stacks.

    N_1 = i/4 (Md_11 - Md_22), N_2 = 1/4 (Md_11 + Md_22), N_3 = -i/2 Md_12
    built on the dotted block; the adjoints use the undotted block with
    conjugated coefficients.
    """
    w = np.array([[0.25j, 0, 0, -0.25j], [0.25, 0, 0, 0.25], [0, -0.5j, 0, 0]])
    return _combine(w, m0d), _combine(w.conj(), m0)


def su2_closure_residual(n, nd, safe, hbar: float) -> float:
    """Residual of [N_i, N_j] = -i hbar eps_ijk N_k (and the adjoint copy).

    The literal component triple closes left-handed in this eps
    convention; the reordered triple (N_2, N_1, N_3) satisfies the
    +i hbar form.  Mixed commutators [N_i, N_j^dag] must vanish.
    """
    ops = sparse.vstack([n, nd], format="csr")
    coeffs = np.zeros((6, 6, 6), complex)
    coeffs[:3, :3, :3] = coeffs[3:, 3:, 3:] = -1j * hbar * _EPS3
    return _max_abs(_commutator_gap(ops, ops, coeffs, ops), safe)


def tensor_form(m0, m0d) -> sparse.csr_matrix:
    """Antisymmetric tensor M_{mu nu} equivalent to the spinor pair, a (16 dim, dim) stack.

    M_{mu nu} = 1/4 sigma_mu^{A Edot} sigma_nu^{B Fdot}
                (M0_(AB) eps_EdotFdot + M0dag_(EdotFdot) eps_AB).
    """
    undotted = np.einsum("mae,nbf,ef->mnab", _S4_UP, _S4_UP, EPS).reshape(16, 4)
    dotted = np.einsum("mae,nbf,ab->mnef", _S4_UP, _S4_UP, EPS).reshape(16, 4)
    w = 0.25 * np.concatenate([undotted, dotted], axis=1)
    return _combine(w, sparse.vstack([m0, m0d], format="csr"))


def tensor_algebra_residual(m_tensor, safe, hbar: float) -> float:
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
    gaps = sparse.vstack([
        _combine(np.eye(16) + transpose, m_tensor),
        _commutator_gap(ops, ops, coeffs, m_tensor),
    ])
    return _max_abs(gaps, safe)


def spinor_tensor_roundtrip_residual(m0, m_tensor) -> float:
    """Max error of M0_(AB) = 1/2 eps^EdotFdot sigma^mu sigma^nu M_{mu nu}."""
    w = 0.5 * np.einsum("ef,mae,nbf->abmn", EPS, _S4, _S4).reshape(4, 16)
    return _max_abs(_combine(w, m_tensor) - m0)


def jz_spectrum(degree: int, hbar: float = 1.0) -> np.ndarray:
    """Eigenvalues of J^z = Q_1 R_2 - Q_2 R_1 on two-variable polynomials.

    The operator preserves homogeneous degree, so the spectrum is exactly
    integral in units of hbar on every truncation: hbar * {-d, ..., d}
    across degrees d <= cap.  Returned sorted by real part; all NaN when
    hbar is so large that J^z overflows.
    """
    space = PolySpace(2, degree)
    # x_1 d_2 - x_2 d_1 sends x^(p, q) to q x^(p+1, q-1) - p x^(p-1, q+1)
    lz = np.zeros((space.dim, space.dim))
    for j, (p, q) in enumerate(space.exponents):
        if q:
            lz[space.index[(p + 1, q - 1)], j] = q
        if p:
            lz[space.index[(p - 1, q + 1)], j] = -p
    jz = 1j * hbar * lz
    if not np.all(np.isfinite(jz)):
        return np.full(space.dim, np.nan + 0j)
    vals = np.linalg.eigvals(jz)
    return vals[np.argsort(vals.real)]


def integrality_residual(values: np.ndarray, hbar: float = 1.0) -> float:
    """Max distance of the values from the lattice hbar * (integers)."""
    scaled = np.asarray(values) / hbar
    return float(np.max(np.abs(scaled - np.round(scaled.real))))
