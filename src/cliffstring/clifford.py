"""Octonion-coefficient vectors in a split Clifford generating space.

The generating space of Cl(2n, 2n, R) is spanned by e_1..e_n, f_1..f_n and
their conjugates e_i*, f_i*.  The symmetric bracket fixes the inner product
on basis vectors:

    {e_i, e_j*} = delta_ij      {f_i, f_j*} = -delta_ij

with every other pair (e-e, f-f, e-f, e-f*, and the conjugated mirrors)
vanishing.  The basis form is the bracket value itself, B(e_i, e_j*) =
delta_ij, so Gram matrices of resolved vectors expand as
sum_k a_ik conj(a_jk) - b_ik conj(b_jk) with unit coefficient.

A TensorVector is an octonion-linear combination of the generators; inner
products multiply octonion coefficients in left-to-right order and weight
each pair by the basis form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .octonion import Octonion, mul_arrays, conj_arrays
from .matrices import OctHermitian

__all__ = [
    "KINDS",
    "CONJ_KIND",
    "TensorVector",
    "cliff_inner",
    "cliff_conj",
    "gram_matrix",
]

KINDS = ("E", "Estar", "F", "Fstar")

CONJ_KIND = {"E": "Estar", "Estar": "E", "F": "Fstar", "Fstar": "F"}

# Basis form on (kind, kind') pairs at equal generator index.
_FORM = {
    ("E", "Estar"): 1.0,
    ("Estar", "E"): 1.0,
    ("F", "Fstar"): -1.0,
    ("Fstar", "F"): -1.0,
}


@dataclass
class TensorVector:
    """Octonion-coefficient vector in the rank-n generating space.

    terms maps (kind, k) with kind in KINDS and 1 <= k <= n to the octonion
    coefficient.  Absent keys are zero.
    """

    n: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        for (kind, k), z in self.terms.items():
            if kind not in KINDS:
                raise ValueError(f"unknown generator kind {kind!r}")
            if not 1 <= k <= self.n:
                raise ValueError(f"generator index {k} outside 1..{self.n}")
            if not isinstance(z, Octonion):
                raise TypeError("coefficients must be Octonion")

    def conj(self) -> "TensorVector":
        out = {}
        for (kind, k), z in self.terms.items():
            out[(CONJ_KIND[kind], k)] = z.conj()
        return TensorVector(self.n, out)

    def scale_left(self, z: Octonion) -> "TensorVector":
        return TensorVector(self.n, {key: z * w for key, w in self.terms.items()})

    def __add__(self, other: "TensorVector") -> "TensorVector":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        out = {k: Octonion(v.c) for k, v in self.terms.items()}
        for key, w in other.terms.items():
            out[key] = out[key] + w if key in out else w
        return TensorVector(self.n, out)

    def __neg__(self) -> "TensorVector":
        return TensorVector(self.n, {key: -w for key, w in self.terms.items()})

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))
        return {
            "n": self.n,
            "terms": [
                {"kind": kind, "k": k, "coeff": z.c.tolist()} for (kind, k), z in items
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TensorVector":
        terms = {}
        for t in obj["terms"]:
            terms[(t["kind"], int(t["k"]))] = Octonion(np.asarray(t["coeff"], float))
        return cls(int(obj["n"]), terms)


def cliff_inner(u: TensorVector, v: TensorVector) -> Octonion:
    """Inner product; octonion coefficients multiply in the order (u, v)."""
    if u.n != v.n:
        raise ValueError("rank mismatch")
    acc = np.zeros(8)
    for (kind1, k1), z1 in u.terms.items():
        for (kind2, k2), z2 in v.terms.items():
            if k1 != k2:
                continue
            w = _FORM.get((kind1, kind2))
            if w is None:
                continue
            acc += w * mul_arrays(z1.c, z2.c)
    return Octonion(acc)


def cliff_conj(v: TensorVector) -> TensorVector:
    return v.conj()


def gram_matrix(vs: list, tol: float = 1e-12) -> OctHermitian:
    """H_ij = cliff_inner(v_i, cliff_conj(v_j)), Hermitian by construction.

    The strict upper triangle is computed once and mirrored; diagonal
    imaginary parts are dropped (they are exact cancellations up to
    round-off), so the result carries zero Hermiticity residual.
    """
    n = len(vs)
    data = np.zeros((n, n, 8))
    for j, vj in enumerate(vs):
        cj = vj.conj()
        for i in range(j + 1):
            h = cliff_inner(vs[i], cj).c
            if i == j:
                data[i, i, 0] = h[0]
            else:
                data[i, j] = h
                data[j, i] = conj_arrays(h)
    return OctHermitian(data, tol=tol, validate=False)
