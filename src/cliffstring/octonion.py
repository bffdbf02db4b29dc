"""Octonion arithmetic over a frozen Cayley-Dickson multiplication table.

Octonions are stored as real coefficient vectors against the basis
(1, e1, ..., e7).  The table is generated once, at import, by doubling the
quaternions: pairs (a, b) multiply as

    (a, b)(c, d) = (a c - d* b, d a + b c*)

with the first four basis indices the quaternion copy and the last four its
double.  Under this convention e1*e2 = e3 and e1*e4 = e5.

The algebra is alternative but not associative, conjugation is an
antiautomorphism, and the Euclidean norm is multiplicative.  Each
span(1, e_k) is a commutative, associative complex subalgebra; those
subspaces are what the Lorentz-transformation layer restricts to.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Octonion",
    "STRUCTURE",
    "mul_arrays",
    "conj_arrays",
    "norm_arrays",
    "alternativity_check",
    "octonion_checks",
]


def _quat_mul(a, b):
    return np.array(
        [
            a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
            a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
            a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
            a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
        ]
    )


def _quat_conj(a):
    return np.array([a[0], -a[1], -a[2], -a[3]])


def _cayley_dickson(x, y):
    a, b = x[:4], x[4:]
    c, d = y[:4], y[4:]
    lo = _quat_mul(a, c) - _quat_mul(_quat_conj(d), b)
    hi = _quat_mul(d, a) + _quat_mul(b, _quat_conj(c))
    return np.concatenate([lo, hi])


def _build_structure():
    s = np.zeros((8, 8, 8))
    eye = np.eye(8)
    for i in range(8):
        for j in range(8):
            s[i, j] = _cayley_dickson(eye[i], eye[j])
    return s


# (i, j, k) entry is the coefficient of e_k in e_i e_j; every slice s[i, j]
# is a single signed basis unit.
STRUCTURE = _build_structure()
STRUCTURE.setflags(write=False)

_CONJ_SIGNS = np.array([1.0, -1, -1, -1, -1, -1, -1, -1])


def mul_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcasting octonion product on (..., 8) coefficient arrays.

    Both operands are copied, broadcast, into one coefficient-major
    (2, 8, M) buffer (M products), so the 64 coefficient pairs a_i b_j are
    64 contiguous multiplies of length M.  Row 8 i + j of the flat table is
    e_i e_j, so one matmul then sums every pair onto its basis unit, each
    output in the same order as a (..., 64) row of pairs times the table,
    and returns a C-ordered (..., 8) array.  The table is a view of STRUCTURE taken per call, which
    a patched table also reaches.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-1:] != (8,) or b.shape[-1:] != (8,):
        raise ValueError(f"octonion arrays need a last axis of 8, got {a.shape} and {b.shape}")
    lead = a.shape[:-1] if a.shape == b.shape else np.broadcast(a[..., 0], b[..., 0]).shape
    x = np.empty((2, 8) + lead, np.result_type(a, b, STRUCTURE))
    # the same buffer seen as (2, ..., 8), so assignment broadcasts each operand
    rows = x.transpose(0, *range(2, x.ndim), 1)
    rows[0], rows[1] = a, b
    x = x.reshape(2, 8, -1)
    pairs = x[0, :, None] * x[1, None]
    return (pairs.reshape(64, -1).T @ STRUCTURE.reshape(64, 8)).reshape(lead + (8,))


def conj_arrays(a: np.ndarray) -> np.ndarray:
    return a * _CONJ_SIGNS


def norm_arrays(a: np.ndarray) -> np.ndarray:
    """Norm of each (..., 8) row, sqrt(c @ c) per row as Octonion.norm rounds
    it (einsum and sum differ)."""
    return np.sqrt((a[..., None, :] @ a[..., :, None])[..., 0, 0])


class Octonion:
    """One octonion; thin wrapper around an (8,) float64 coefficient array."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (8,):
            raise ValueError(f"octonion needs 8 coefficients, got shape {c.shape}")
        self.c = c.copy()

    @classmethod
    def unit(cls, k: int) -> "Octonion":
        if not 0 <= k <= 7:
            raise ValueError("basis index out of range")
        c = np.zeros(8)
        c[k] = 1.0
        return cls(c)

    @classmethod
    def from_complex(cls, z: complex, k: int) -> "Octonion":
        """a + b i  ->  a + b e_k (k = 0 demands a real value)."""
        c = np.zeros(8)
        c[0] = z.real
        if k == 0:
            if abs(z.imag) > 0:
                raise ValueError("k = 0 is the real line; nonzero imaginary part")
        else:
            c[k] = z.imag
        return cls(c)

    def conj(self) -> "Octonion":
        return Octonion(conj_arrays(self.c))

    def norm_sq(self) -> float:
        return float(self.c @ self.c)

    def norm(self) -> float:
        return float(np.sqrt(self.c @ self.c))

    def in_subspace(self, k: int) -> bool:
        """True when the value lies in span(1, e_k) within 1e-12; k = 0 means the real line."""
        return bool(np.max(np.abs(np.delete(self.c, [0, k])), initial=0.0) <= 1e-12)

    def to_complex(self, k: int) -> complex:
        if not self.in_subspace(k):
            raise ValueError(f"value not in span(1, e_{k})")
        return complex(self.c[0], 0.0 if k == 0 else self.c[k])

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.c + other.c)

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.c - other.c)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return Octonion(mul_arrays(self.c, other.c))
        return Octonion(self.c * float(other))

    def __truediv__(self, other: float) -> "Octonion":
        return Octonion(self.c / float(other))

    def __repr__(self) -> str:
        terms = []
        for k, v in enumerate(self.c):
            if v != 0.0:
                terms.append(f"{v:+g}" if k == 0 else f"{v:+g}e{k}")
        return "Octonion<" + (" ".join(terms) if terms else "0") + ">"


def alternativity_check(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max norm of the two alternative-law residuals a(ba)-(ab)a and a(ab)-(aa)b.

    a and b are broadcastable (..., 8) arrays; the result holds one residual
    per pair.
    """
    ab = mul_arrays(a, b)
    r = np.stack([
        mul_arrays(a, mul_arrays(b, a)) - mul_arrays(ab, a),
        mul_arrays(a, ab) - mul_arrays(mul_arrays(a, a), b),
    ])
    return np.maximum(*norm_arrays(r))


# octonion_checks trials per vectorised block, so memory stays bounded.
_BLOCK = 1024


def octonion_checks(rng: np.random.Generator, trials: int) -> dict:
    """{name: (max residual, trials)} of the octonion identities on trials random
    pairs, relative to the pairs' norms, and of the (e1 e2) e4 associator's norm 2."""
    worst = {"norm_composition": 0.0, "alternativity": 0.0, "conj_antiautomorphism": 0.0}
    for start in range(0, trials, _BLOCK):
        # row t holds trial t's a then b: the stream of two 8-coefficient draws
        pairs = rng.uniform(-1.0, 1.0, (min(_BLOCK, trials - start), 2, 8))
        a, b = pairs[:, 0], pairs[:, 1]
        ab = mul_arrays(a, b)
        conj_gap = conj_arrays(ab) - mul_arrays(conj_arrays(b), conj_arrays(a))
        x = np.stack([a, b, ab, conj_gap])
        na, nb, nab, ngap = norm_arrays(x)
        # float_power calls pow() like a Python float ** 2, which x * x can miss by an ulp
        alt_scale = np.float_power(np.maximum(na, nb), 2) * np.minimum(na, nb)
        block = {
            "norm_composition": abs(nab - na * nb) / (na * nb),
            "alternativity": alternativity_check(a, b) / alt_scale,
            "conj_antiautomorphism": ngap / (na * nb),
        }
        for name, r in block.items():
            worst[name] = np.maximum(worst[name], np.max(r))
    e1, e2, e4 = np.eye(8)[[1, 2, 4]]
    witness = mul_arrays(mul_arrays(e1, e2), e4) - mul_arrays(e1, mul_arrays(e2, e4))
    out = {name: (worst[name], trials) for name in worst}
    out["nonassociativity_witness"] = (abs(np.sqrt(witness @ witness) - 2.0), 1)
    return out
