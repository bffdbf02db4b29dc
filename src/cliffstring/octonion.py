"""Octonion arithmetic over a frozen Cayley-Dickson multiplication table.

Octonions are stored as real coefficient vectors against the basis
(1, e1, ..., e7).  The table is generated once, at import, by doubling the
reals three times (R -> C -> H -> O): at each step pairs (a, b) multiply as

    (a, b)(c, d) = (a c - d* b, d a + b c*)

with the first half of the basis indices the algebra being doubled and the
second half its double.  Under this convention e1*e2 = e3 and e1*e4 = e5.

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


_CONJ_SIGNS = np.array([1.0, -1, -1, -1, -1, -1, -1, -1])


def _doubled(s: np.ndarray) -> np.ndarray:
    """Structure tensor of the Cayley-Dickson double of the algebra with tensor s.

    The double's first n basis units are (e_i, 0) and its last n are (0, e_i),
    under (a, b)(c, d) = (a c - d* b, d a + b c*).
    """
    n = len(s)
    c = _CONJ_SIGNS[:n, None]
    t = np.zeros((2 * n,) * 3)
    t[:n, :n, :n] = s  # (a, 0)(c, 0) = (a c, 0)
    t[:n, n:, n:] = s.transpose(1, 0, 2)  # (a, 0)(0, d) = (0, d a)
    t[n:, :n, n:] = s * c  # (0, b)(c, 0) = (0, b c*)
    t[n:, n:, :n] = -c * s.transpose(1, 0, 2)  # (0, b)(0, d) = (-d* b, 0)
    return t + 0.0  # each 0 times -1 above is -0.0; the table holds +0.0 only


# (i, j, k) entry is the coefficient of e_k in e_i e_j; every slice s[i, j]
# is a single signed basis unit.
STRUCTURE = _doubled(_doubled(_doubled(np.ones((1, 1, 1)))))
STRUCTURE.setflags(write=False)


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
    """One octonion; thin wrapper around an (8,) float64 coefficient array,
    kept as the tests' scalar reference for the array functions."""

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

    def conj(self) -> "Octonion":
        return Octonion(conj_arrays(self.c))

    def norm_sq(self) -> float:
        return float(self.c @ self.c)

    def norm(self) -> float:
        return float(np.sqrt(self.c @ self.c))

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
