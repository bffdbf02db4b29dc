"""Finite-dimensional realization of the string's quantized Lorentz algebra.

Canonical pairs act on real polynomials in four variables of total degree
<= N (monomial basis): Q_mu multiplies by x_mu, R_nu = -i hbar eta_{nu nu}
d/dx_nu.  Multiplication truncates at the degree cap, so canonical
relations are asserted only on the safe subspace of degree <= N-1, where
every intermediate product stays inside the space.

The quaternion mapping A_mu = j (x) Q_mu, K_nu = k (x) R_nu turns the
canonical commutators into mixed relations: [A, A] = [K, K] = 0 and
{A_mu, K_nu} = -hbar eta_{mu nu}, because jk = -kj = i makes the
anticommutator collapse onto i (x) [Q, R].  A and K carry their
quaternion unit as a tag, and A and K only ever meet in products, so each
product folds its two tags into a complex scalar (jj = kk = -1, jk = i,
kj = -i) and the result is an ordinary complex family.

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

Every operator is a complex combination of short words in two kinds of
letter: Q_mu (multiply by x_mu, truncated at the cap) and D_nu (d/dx_nu).
A word is an int code whose base-9 digits are its letters, the least
significant acting first: 0 is no letter, 1 + mu is Q_mu and 5 + nu is
D_nu, so the code of a product XY is x 9^len(y) + y.  A family of K
operators is a (K, W) coefficient array over W word codes, index pairs
row-major (M0_{AB} is operator 2A+B, M_{mu nu} is 4 mu + nu).  A linear
combination is w @ coeffs, and the products X_i Y_j of two families are
the outer product of their coefficients and of their codes.  Families on
one alphabet (the same codes) stack by rows and add entry by entry: M0
and M0dag share the 32 words D_nu Q_mu (M0's) and Q_mu D_nu (M0dag's),
and so do N, N^dag and M_{mu nu}.  On one alphabet Y_j X_i has on the
word a b the coefficient X_i Y_j has on b a, so a bracket is one outer
product plus that product with its word slots swapped, and each closure,
su2 and tensor gap lists the 32 x 32 grid of words once.  Those three gap
families are never held whole: their rows are formed, and their words
merged, in blocks of 4 rows (about 68 KiB), so a degree-5 job's working
set stays near 0.8 MiB and reuses the same heap memory from job to job,
where whole grids of 0.5-0.9 MB each grew the heap past glibc's trim
threshold and faulted about 970 pages in again every job.  Each check is
one family of gaps evaluated on the monomial basis.  A word sends each
monomial to one monomial with a weight read off the exponents, and words
with the same net exponent shift land on the same row, so the gaps over a
set of columns are one real product per shift class whose merged
coefficients are not all exactly 0.  The identities cancel symbolically,
so 191 of the 257 classes one job's checks meet are such zeros and cost
no product.  Which words merge and which class each lands in depends only
on the alphabet, not on the degree, hbar or the coefficients, so each
alphabet is decoded once per process (a check's gaps are on one of six
alphabets, of 65, 97, 1056, 1088, 32 and 48 words; closure and su2 share
theirs).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .minkowski import EPS, eta4, sigma4_complex

__all__ = [
    "PolySpace",
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

_FOLD = {("j", "j"): -1, ("k", "k"): -1, ("j", "k"): 1j, ("k", "j"): -1j}
# product of two quaternion tags, each landing on 1 or i

_POW9 = 9 ** np.arange(20)

_BLOCK_BYTES = 72 * 1024
# complex coefficients per block of a streamed gap family, at least one row:
# 4 rows of the 1056- and 1088-word grids (66 and 68 KiB), a whole canonical
# or mixed bracket.  A block and its merge gather stay under glibc's 128 KiB
# mmap threshold, so they reuse the same heap memory from job to job.


class PolySpace:
    """Monomial basis for polynomials in `n_vars` variables, degree <= cap.

    Ordered by degree, then by exponent tuple; `exponents` is the
    (dim, n_vars) int array of the basis monomials.
    """

    def __init__(self, n_vars: int, degree: int):
        if n_vars < 1 or degree < 1:
            raise ValueError("need at least one variable and degree >= 1")
        self.degree = degree
        blocks = []
        for d in range(degree + 1):
            # variable multisets in lex order are exponent tuples in reverse order
            picks = np.array(list(combinations_with_replacement(range(n_vars), d)), int)
            exps = np.zeros((len(picks), n_vars), int)
            np.add.at(exps, (np.arange(len(picks))[:, None], picks), 1)
            blocks.append(exps[::-1])
        self.exponents = np.concatenate(blocks)
        self.degrees = self.exponents.sum(axis=1)

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def safe_columns(self) -> np.ndarray:
        """Mask of basis monomials with degree <= cap - 1."""
        return self.degrees <= self.degree - 1


@functools.lru_cache(maxsize=32)
def _poly_space(n_vars: int, degree: int) -> PolySpace:
    """The shared PolySpace(n_vars, degree), built once per process; its arrays are read-only."""
    space = PolySpace(n_vars, degree)
    space.exponents.flags.writeable = space.degrees.flags.writeable = False
    return space


@dataclass(frozen=True)
class Family:
    """K operators sum_w coeffs[k, w] (word codes[w]), optionally on a quaternion tag."""

    coeffs: np.ndarray
    codes: np.ndarray
    tag: str | None = None


@dataclass(frozen=True)
class CanonicalPairs:
    """Q_mu (real) and R_nu (complex), each a family of four operators."""

    space: PolySpace
    q: Family
    r: Family
    hbar: float


# -- family algebra --------------------------------------------------------------


_IDENTITY = Family(np.ones((1, 1), complex), np.zeros(1, int))


def _combine(w: np.ndarray, f: Family) -> Family:
    """The operators sum_m w[k, m] Z_m of a family Z."""
    return Family(w @ f.coeffs, f.codes, f.tag)


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


def _fold(x: Family, y: Family):
    """The scalar of the product XY's two quaternion tags, 1 when neither has one."""
    if (x.tag is None) != (y.tag is None):
        raise ValueError("a product of a tagged and an untagged family")
    return _FOLD[x.tag, y.tag] if x.tag else 1


def _product_codes(x: Family, y: Family) -> np.ndarray:
    """The word codes of the products X_i Y_j, word a of X times word b of Y as entry a B + b."""
    shift = _POW9[np.searchsorted(_POW9, y.codes, side="right")]  # 9^len(y)
    return (x.codes[:, None] * shift + y.codes).reshape(-1)


def _products(x: Family, y: Family) -> Family:
    """The products X_i Y_j as operator i L + j, their tags folded into the coefficients."""
    coeffs = x.coeffs[:, None, :, None] * y.coeffs[None, :, None, :]
    fold = _fold(x, y)
    if fold != 1:  # a multiply by 1 changes no bit of a finite product
        coeffs *= fold
    return Family(coeffs.reshape(coeffs.shape[0] * coeffs.shape[1], -1), _product_codes(x, y))


def _gap(x: Family, y: Family, sign: float = -1.0, tail: Family | None = None,
         head: Family | None = None) -> tuple:
    """The family _stack(head, _sum(brackets, tail)) as (codes, row blocks).

    The brackets are X_i Y_j + sign Y_j X_i as operator i L + j.  On one
    alphabet Y_j X_i has on the word a b the coefficient X_i Y_j has on
    b a, so each bracket row is the product row plus itself with its word
    slots swapped; families on different alphabets first move onto their
    stack.  The tail (one operator per bracket) adds its words after the
    grid's, and the head's operators come first, on words of their own
    before the grid's.  The rows come as blocks of at most _BLOCK_BYTES,
    each a fresh (rows, W) array, so no whole word grid is ever held; each
    entry is formed exactly as it is on the whole family.
    """
    if not _shared_codes((x, y)):
        both, k = _stack(x, y), x.coeffs.shape[0]
        x = Family(both.coeffs[:k], both.codes, x.tag)
        y = Family(both.coeffs[k:], both.codes, y.tag)
    codes = _product_codes(x, y)
    if tail is not None:
        codes = np.concatenate([codes, tail.codes])
    if head is not None:
        codes = np.concatenate([head.codes, codes])
    fold = _fold(x, y)
    turn = sign * _fold(y, x) / fold  # Y_j X_i carries the tags in the other order
    return codes, _gap_blocks(x, y, fold, turn, tail, head, len(codes))


def _gap_blocks(x, y, fold, turn, tail, head, width):
    """The row blocks of `_gap`, the head's rows first.

    fold and turn are +-1 or +-i.  On a finite product, a multiply by
    fold = 1 or by turn = +-1 changes no bit but a zero's sign, so it is
    skipped and the swapped grid is added or subtracted as it is.  The
    products are finite when the coefficients' moduli multiply to below
    2^1020.  Past that (a huge hbar, a NaN) a product may be inf or NaN,
    and those multiplies turn its other part to NaN, so each grid is then
    scaled by fold and by turn.
    """
    finite = np.max(np.abs(x.coeffs)) * np.max(np.abs(y.coeffs)) < 2.0 ** 1020
    combine = np.add if turn == 1 else np.subtract
    step = max(1, _BLOCK_BYTES // (16 * width))
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
        products = xs[lo:hi] * ys[lo:hi]
        if fold != 1 or not finite:
            products *= fold
        grid = block[:, lead:end].reshape(-1, v, v)  # a view of the block
        if finite:
            combine(products, products.swapaxes(1, 2), out=grid)
        else:
            np.add(products, turn * products.swapaxes(1, 2), out=grid)
        if tail is not None:
            block[:, end:] = tail.coeffs[lo:hi]
        yield block


def _brackets(x: Family, y: Family, sign: float = -1.0) -> Family:
    """X_i Y_j + sign Y_j X_i as operator i L + j, one family (see `_gap`)."""
    codes, blocks = _gap(x, y, sign)
    return Family(np.concatenate(list(blocks)), codes)


def _commutator_gap(x: Family, y: Family, coeffs: np.ndarray, z: Family,
                    head: Family | None = None) -> tuple:
    """[X_i, Y_j] - sum_m coeffs[i, j, m] Z_m over all (i, j), after the head's operators.

    x, y and z are families of K, L and M operators and coeffs is a
    (K, L, M) array; returns (codes, row blocks) as `_gap` does.
    """
    return _gap(x, y, tail=_combine(-coeffs.reshape(-1, coeffs.shape[-1]), z), head=head)


@functools.lru_cache(maxsize=32)
def _word_classes(codes: bytes) -> tuple:
    """How an alphabet's words act, from the int64 bytes of its word codes.

    Returns (letters, perm, first, starts, sizes, rise, reads): the longest
    word's letter count; the order that lists the words class by class and
    the start of each group of merged words in it; the first merged word
    of each shift class and its number of merged words; and per merged
    word its highest degree rise and the `factors` rows its D letters
    read, sorted (one row of `reads` per letter slot some D uses).  It
    depends only on the codes, so each alphabet is decoded once per
    process; the arrays are read-only, since every caller shares them.
    """
    codes = np.frombuffer(codes, np.int64)
    letters = int(np.searchsorted(_POW9, np.max(codes), side="right"))
    span = 2 * letters + 1
    place = span ** np.arange(4)  # the net shift in base span, each digit offset by `letters`
    step = np.concatenate([[0], place, -place])             # none, Q_0..Q_3, D_0..D_3
    rest, shift = codes, np.full(codes.shape, letters * np.sum(place))
    level = rise = np.zeros(codes.shape, int)               # degree so far, its highest
    reads = []
    for _ in range(letters):                                # first letter first
        rest, digit = np.divmod(rest, 9)
        # a D_v after letters that shifted x_v by o meets exponent e_v + o, row
        # v span + o + letters of `factors`; other letters read its last row, all 1
        var = (digit - 1) % 4
        reads.append(np.where(digit >= 5, var * span + shift // place[var] % span, 4 * span))
        shift = shift + step[digit]
        level = level + np.sign(step)[digit]
        rise = np.maximum(rise, level)
    reads = np.sort(reads, axis=0)
    reads = reads[np.min(reads, axis=1) < 4 * span]         # the rows some D reads
    key = shift * (letters + 1) + rise
    for read in reads:
        key = key * (4 * span + 1) + read
    perm = np.argsort(key, kind="stable")                   # shift class by shift class
    first = np.flatnonzero(np.diff(key[perm], prepend=-1))
    shift, rise, reads = shift[perm[first]], rise[perm[first]], reads[:, perm[first]]
    starts = np.flatnonzero(np.diff(shift, prepend=-1))
    sizes = np.diff(starts, append=len(first))
    for a in (perm, first, starts, sizes, rise, reads):
        a.flags.writeable = False
    return letters, perm, first, starts, sizes, rise, reads


def _merge(blocks, perm: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The (Re; Im) stack of a family's merged coefficients, from its row blocks.

    Each block is gathered into merge order and its equal-acting words
    summed as it arrives, so only one block is gathered at a time; each
    merged coefficient is the same sum, in the same order, as on the
    whole family.
    """
    merged = [np.add.reduceat(b.take(perm, axis=1), first, axis=1) for b in blocks]
    return np.concatenate([m.real for m in merged] + [m.imag for m in merged])


def _max_abs(codes: np.ndarray, blocks, space: PolySpace, safe: bool = True) -> float:
    """Max |matrix entry| of a family on the space, over the safe columns by default.

    The family is given as its word codes and its coefficient rows, an
    iterable of (rows, W) blocks (a whole family is one block).

    A word sends each monomial to one monomial: its net exponent shift
    fixes the row, and its weight is the product of the exponents its D
    letters meet, or 0 if a letter takes the degree past the cap.  Words
    with the same shift, the same highest degree and the same (variable,
    offset) at each D act alike, so their coefficients merge
    (`_word_classes` works out the classes once per alphabet).  A shift
    class whose merged coefficients are all exactly 0 has only zero
    entries, so it is skipped; each other class is one product of its
    stacked (Re; Im) coefficients by its weights, whose modulus is taken
    scaled by a power of two so that no square overflows.  A NaN or an
    inf counts as nonzero, so it propagates.
    """
    columns = space.safe_columns() if safe else slice(None)
    exps, degrees = space.exponents[columns].T, space.degrees[columns]
    letters, perm, first, starts, sizes, rise, reads = _word_classes(
        codes.astype(np.int64, copy=False).tobytes())
    stacked = _merge(blocks, perm, first)
    live = np.logical_or.reduceat(np.any(stacked, axis=0), starts)
    # only the merged words of live classes, each class still whole: dropping
    # a zero word inside one would change the product's blocking and round-off
    words = np.repeat(live, sizes)
    stacked, rise, reads = stacked[:, words], rise[words], reads[:, words]

    span = 2 * letters + 1
    factors = np.concatenate([
        (exps[:, None] + np.arange(-letters, letters + 1)[:, None]).reshape(4 * span, -1),
        np.ones((1, exps.shape[1])),
    ])
    weights = (degrees + rise[:, None] <= space.degree).astype(float)
    for read in reads:
        weights *= factors[read]
    k = stacked.shape[0] // 2
    bounds = np.cumsum(sizes[live]).tolist()
    tops = [0.0]
    for lo, hi in zip([0] + bounds, bounds):
        entries = stacked[:, lo:hi] @ weights[lo:hi]
        top = np.abs(entries).max(initial=0.0)
        if 0.0 < top < np.inf:
            # capped, so a subnormal top (below 2^-1024) gets a finite scale
            scale = 2.0 ** min(-int(np.frexp(top)[1]), 1023)
            np.square(entries * scale, out=entries)
            top = math.sqrt(np.max(entries[:k] + entries[k:])) / scale
        tops.append(top)
    return float(np.max(tops))  # np.max keeps a NaN, Python's max would not


# -- canonical and quaternion pairs ------------------------------------------------


def build_canonical(degree: int = 6, hbar: float = 1.0) -> CanonicalPairs:
    """Canonical pairs Q_mu = x_mu*, R_nu = -i hbar eta_{nu nu} d_nu.

    [Q_mu, R_nu] = i hbar eta_{mu nu} holds exactly on the safe subspace
    of degree <= N-1; the top degree is sacrificed to the truncation.
    """
    if degree < 2:
        raise ValueError("degree bound must be at least 2")
    q = Family(np.eye(4, dtype=complex), np.arange(1, 5))
    r = Family(-1j * hbar * eta4().astype(complex), np.arange(5, 9))
    return CanonicalPairs(space=_poly_space(4, degree), q=q, r=r, hbar=hbar)


def canonical_residual(pairs: CanonicalPairs) -> float:
    """Max residual of the canonical relations over all 16 index pairs.

    One product of the family (Q_0..Q_3, R_0..R_3) with itself gives every
    commutator; [Q, R] = i hbar eta, [R, Q] = -i hbar eta, the rest vanish.
    """
    ops = _stack(pairs.q, pairs.r)
    coeffs = np.zeros((8, 8, 1), complex)
    coeffs[:4, 4:, 0] = 1j * pairs.hbar * eta4()
    coeffs[4:, :4, 0] = -1j * pairs.hbar * eta4()
    return _max_abs(*_commutator_gap(ops, ops, coeffs, _IDENTITY), pairs.space)


def quaternion_pairs(pairs: CanonicalPairs):
    """Map the canonical pairs onto quaternion tags: A = j(x)Q, K = k(x)R."""
    return Family(pairs.q.coeffs, pairs.q.codes, "j"), Family(pairs.r.coeffs, pairs.r.codes, "k")


def mixed_algebra_residual(a_ops: Family, k_ops: Family, space: PolySpace, hbar: float) -> float:
    """Residual of [A,A] = [K,K] = 0 and {A_mu, K_nu} = -hbar eta_{mu nu}.

    The tags fold in each product: A_mu K_nu carries jk = +i and K_nu A_mu
    kj = -i, so the anticommutator is i [Q_mu, R_nu] = -hbar eta.
    """
    anti = _brackets(a_ops, k_ops, sign=1.0)
    gaps = _stack(
        _brackets(a_ops, a_ops),
        _brackets(k_ops, k_ops),
        _sum(anti, _combine(hbar * eta4().reshape(16, 1), _IDENTITY)),
    )
    return _max_abs(gaps.codes, [gaps.coeffs], space)


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
    # weights of the products K_{P L} A_{Q E} and A_{E Q} K_{L P}, eps^{E L}
    w = 1j * np.einsum("ap,bq,el->abplqe", d, d, EPS)
    wd = -1j * np.einsum("el,qb,pa->abeqlp", EPS, d, d)
    w, wd = ((0.5 * (c + c.swapaxes(0, 1))).reshape(4, 16) for c in (w, wd))  # (AB)
    both = _stack(_combine(w, _products(k_sp, a_sp)), _combine(wd, _products(a_sp, k_sp)))
    return Family(both.coeffs[:4], both.codes), Family(both.coeffs[4:], both.codes)


def lorentz_closure_residual(m0: Family, m0d: Family, space: PolySpace, hbar: float) -> float:
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
    return _max_abs(*_commutator_gap(m0, _stack(m0, m0d), coeffs, m0), space)


def three_vector_form(m0: Family, m0d: Family) -> tuple:
    """Rotation/boost three-vectors N_i and their adjoints, families of three.

    N_1 = i/4 (Md_11 - Md_22), N_2 = 1/4 (Md_11 + Md_22), N_3 = -i/2 Md_12
    built on the dotted block; the adjoints use the undotted block with
    conjugated coefficients.
    """
    w = np.array([[0.25j, 0, 0, -0.25j], [0.25, 0, 0, 0.25], [0, -0.5j, 0, 0]])
    return _combine(w, m0d), _combine(w.conj(), m0)


def su2_closure_residual(n: Family, nd: Family, space: PolySpace, hbar: float) -> float:
    """Residual of [N_i, N_j] = -i hbar eps_ijk N_k (and the adjoint copy).

    The literal component triple closes left-handed in this eps
    convention; the reordered triple (N_2, N_1, N_3) satisfies the
    +i hbar form.  Mixed commutators [N_i, N_j^dag] must vanish.
    """
    ops = _stack(n, nd)
    coeffs = np.zeros((6, 6, 6), complex)
    coeffs[:3, :3, :3] = coeffs[3:, 3:, 3:] = -1j * hbar * _EPS3
    return _max_abs(*_commutator_gap(ops, ops, coeffs, ops), space)


def tensor_form(m0: Family, m0d: Family) -> Family:
    """Antisymmetric tensor M_{mu nu} equivalent to the spinor pair, a family of 16.

    M_{mu nu} = 1/4 sigma_mu^{A Edot} sigma_nu^{B Fdot}
                (M0_(AB) eps_EdotFdot + M0dag_(EdotFdot) eps_AB).
    """
    undotted = np.einsum("mae,nbf,ef->mnab", _S4_UP, _S4_UP, EPS).reshape(16, 4)
    dotted = np.einsum("mae,nbf,ab->mnef", _S4_UP, _S4_UP, EPS).reshape(16, 4)
    w = 0.25 * np.concatenate([undotted, dotted], axis=1)
    return _combine(w, _stack(m0, m0d))


def tensor_algebra_residual(m_tensor: Family, space: PolySpace, hbar: float) -> float:
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
    return _max_abs(*_commutator_gap(ops, ops, coeffs, m_tensor, head=antisymmetry), space)


def spinor_tensor_roundtrip_residual(m0: Family, m_tensor: Family, space: PolySpace) -> float:
    """Max error of M0_(AB) = 1/2 eps^EdotFdot sigma^mu sigma^nu M_{mu nu}, on every column."""
    w = 0.5 * np.einsum("ef,mae,nbf->abmn", EPS, _S4, _S4).reshape(4, 16)
    gaps = _sum(_combine(w, m_tensor), _combine(-np.eye(4), m0))
    return _max_abs(gaps.codes, [gaps.coeffs], space, safe=False)


def jz_residual(pairs: CanonicalPairs, m0: Family, m0d: Family) -> float:
    """Gap of J^z = i/2 (M0_(12) - M0dag_(12)) = Q_1 R_2 - Q_2 R_1, in units of hbar.

    Both sides are of degree 1 in hbar, so the gap over the safe columns,
    divided by hbar, does not scale with it.
    """
    w = 0.5j * (np.eye(8)[[1]] - np.eye(8)[[4 + 1]])       # i/2 (M0_(12) - M0dag_(12))
    qr = np.eye(16)[[4 * 2 + 1]] - np.eye(16)[[4 * 1 + 2]]  # -(Q_1 R_2 - Q_2 R_1)
    gap = _sum(_combine(w, _stack(m0, m0d)), _combine(qr, _products(pairs.q, pairs.r)))
    return _max_abs(gap.codes, [gap.coeffs], pairs.space) / pairs.hbar


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
    identities on the polynomials of degree <= degree."""
    pairs = build_canonical(degree, hbar)
    space = pairs.space
    a_ops, k_ops = quaternion_pairs(pairs)
    m0, m0d = m0_matrices(a_ops, k_ops)
    n, nd = three_vector_form(m0, m0d)
    mt = tensor_form(m0, m0d)
    vals = jz_spectrum(degree, hbar)
    residuals = {
        "canonical": canonical_residual(pairs),
        "mixed": mixed_algebra_residual(a_ops, k_ops, space, hbar),
        "closure": lorentz_closure_residual(m0, m0d, space, hbar),
        "su2": su2_closure_residual(n, nd, space, hbar),
        "tensor": tensor_algebra_residual(mt, space, hbar),
        "roundtrip": spinor_tensor_roundtrip_residual(m0, mt, space),
        "jz_integrality": np.max([jz_residual(pairs, m0, m0d),  # np.max keeps a NaN
                                  integrality_residual(vals, hbar)]),
    }
    return {name: (r, 1) for name, r in residuals.items()}, space.dim, vals
