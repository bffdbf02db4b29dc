"""Float text, byte for byte Python's: repr's for the JSON tables (json_texts,
json_table) and "%.17g"'s for the CSV grid (csv_rows).  Both writers share
one 17-digit core and one (sign, exponent, digit count) layout table, and
hand what the core cannot print to repr or "%.17g" itself.
"""

import functools

import numpy as np

TEXT_BLOCK = 4096  # nonzero floats per json_texts block: its buffers stay bounded

# -- the 17-digit core --
#
# A value v with 1e-270 <= |v| <= 1e290 and decimal exponent
# X = floor(log10|v|) has the 17 digits D = round-half-even(|v| 10^(16 - X)),
# 1e16 <= D < 1e17.  With 10^s held as hi + lo (lo the rounded remainder),
# |v| hi is split exactly into p + e (Dekker's two-product), and y = p + t
# with t = e + |v| lo is within 2^-47 of |v| 10^s.  p >= 1e16 > 2^53 is an
# integer, so D = p + rint(t) unless t is within 2^-30 of a rounding tie, y is
# below 1e16 or D reaches 1e17 (X was estimated one too high or too low, or
# the rounding carries into an 18th digit).  y is tested as (p - 1e16) + t:
# p alone can round up to 1e16 + 2 while y is below 1e16.  Those values, and
# values outside the range, are printed by Python's correctly rounded "%.17g"
# or repr (the scheme of Loitsch's Grisu3, PLDI 2010).

_SPLIT = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves
_FAST_MIN, _FAST_MAX = 1e-270, 1e290
# X over the fast range is -270..290; one more each way for an estimate one off
_X_MIN, _X_MAX = -271, 291


def _split(a):
    """a as hi + lo halves whose products with another split double are exact."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _pow10_pairs():
    """10^(16 - X) for X = -271..291 as (hi, hi's two halves, lo), each indexed by X + 271."""
    hi, lo = [], []
    for s in range(16 - _X_MIN, 15 - _X_MAX, -1):
        if s >= 0:
            hi.append(float(10**s))  # int to float rounds correctly
            lo.append(float(10**s - int(hi[-1])))
        else:
            den = 10**-s
            hi.append(1 / den)  # int / int rounds correctly
            num, two = hi[-1].as_integer_ratio()
            lo.append((two - num * den) / (two * den))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


@functools.cache
def _quads():
    """The four ASCII digits of 0..9999, one little-endian uint32 each.

    Built from arrays: ten thousand small bytes objects would leave about
    1.5 MB of the interpreter's object arenas resident.
    """
    i = np.arange(10000, dtype=np.uint16)[:, None]
    digits = i // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")
    return digits.astype(np.uint8).view("<u4")[:, 0]


def _exponent_estimate(a):
    """floor(log10 a), which may be one off next to a power of ten; _decimal17 checks it."""
    return np.floor(np.log10(a)).astype(np.intp)


def _decimal17(v):
    """The 17-digit core above, on each entry of a finite float array v.

    Returns |v| (2.0 outside the fast range), X's estimate x, 10^(16 - x) as
    (hi, lo), y as (p, t), D as int64 and the mask of the nonzero entries that
    the core cannot print.
    """
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 2.0)  # any value in range; the callers print the others
    x = _exponent_estimate(a)
    hi, hi1, hi2, lo = (np.take(c, x - _X_MIN) for c in _pow10_pairs())
    a1, a2 = _split(a)
    p = a * hi
    t = ((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2 + a * lo
    d = p.astype(np.int64) + np.rint(t).astype(np.int64)
    slow = (v != 0) & (~fast | ((p - 1e16) + t < 2.0**-30) | (d >= 10**17)
                       | (np.abs(t - np.floor(t) - 0.5) < 2.0**-30))
    return a, x, (hi, lo), (p, t), d, slow


def _ascii17(d):
    """The 17 ASCII digits of each entry of an int64 array below 1e17, as an (n, 17) uint8 array:
    one leading digit, then four groups of four from the table."""
    high, low = (part.astype(np.uint32) for part in np.divmod(d, 10**8))
    lead = high // np.uint32(10**8)
    high -= lead * np.uint32(10**8)
    quads = np.empty((d.size, 4), np.uint32)
    quads[:, 0] = high // np.uint32(10**4)
    quads[:, 1] = high - quads[:, 0] * np.uint32(10**4)
    quads[:, 2] = low // np.uint32(10**4)
    quads[:, 3] = low - quads[:, 2] * np.uint32(10**4)
    digits = np.empty((d.size, 17), np.uint8)
    digits[:, 0] = lead + ord("0")
    digits[:, 1:] = np.take(_quads(), quads).view(np.uint8)
    return digits


# -- repr's digits --
#
# repr writes the fewest digits that read back as v, and of two such the
# nearer to v (the search of Adams's Ryu, PLDI 2018).  A decimal reads back as
# v when it lies in v's rounding interval.  In y's scale the interval reaches
# h = u hi + u lo above y and l below it: u = ulp(v) / 2 is a power of two, so
# both products are exact, and l is h, or h / 2 when v's significand is a
# power of two.  h is 0.55 to 11.1, so D (at most 1/2 from y) is inside, and
# at most one multiple of 100 is.  With r = p mod 1000 and m = 10, 100, 1000,
# the multiple of m under y is at distance b = (r + t) mod m and the one over
# it at m - b; one is inside when b < l, the other when m - b < h.  The nearer
# inside multiple of 100, else of 10, else D itself, is repr's 15, 16 or 17
# digits.  repr itself prints what the core cannot, a value whose b is within
# 2^-30 of l, m - h or m / 2 (an end of the interval, which the parity of v's
# significand closes or opens, or a tie between two multiples), and a value
# with a multiple of 1000 inside (14 digits or fewer; a rounding that carries
# to 10^17 is one of these).  About 1 % of uniform draws take that path.


def _shortest_digits(v):
    """The search above on each entry of a nonzero finite float array v.

    Returns X's estimate x, repr's digits as D (17 - j digits and j zeros,
    j = 0, 1, 2) and the mask of the entries that repr itself prints.
    """
    a, x, (hi, lo), (p, t), d, slow = _decimal17(v)
    u = 0.5 * np.spacing(a)
    h = u * hi + u * lo
    l = np.where(np.frexp(a)[0] == 0.5, 0.5 * h, h)
    whole = p.astype(np.int64)
    r = whole % 1000
    rt = r + t
    j = np.zeros(v.size, np.intp)
    for m in 10, 100:
        step = np.floor(rt / m)
        b = rt - step * m
        under, over = b < l, b > m - h
        slow |= ((np.abs(b - l) < 2.0**-30) | (np.abs(b - (m - h)) < 2.0**-30)
                 | (np.abs(b - 0.5 * m) < 2.0**-30))
        hit = under | over
        nearer = step + (over & ~(under & (b < 0.5 * m)))
        d = np.where(hit, whole - r + (nearer * m).astype(np.int64), d)
        j += hit
    # a multiple of 1000 inside is a multiple of 100 inside
    at = np.flatnonzero(hit)
    b = rt[at] % 1000
    slow[at] |= (b < l[at] + 2.0**-30) | (b > 1000 - h[at] - 2.0**-30)
    return x, d, j, slow


# -- layout --
#
# A text is gathered from its value's pool, _LITERALS and then its 17 digits:
# pool index i < 15 is _LITERALS[i] and 15 + i is digit i.  NUL pads the text.

_LITERALS = "\0-.e+0123456789"
_POOL = len(_LITERALS) + 17
_WIDTH = 24  # a sign, 17 digits, the point and "e-271"
# Values gathered per step.  One step per block was 2-5 % slower, with no page
# faults either way (8.5 against 8.4 ms per default CSV grid, 7.2 against
# 6.8 ms per n = 64 json_texts; 2-core Xeon VM), and its offset table below
# would be 8 times the 49 KB it is at 512.
_GATHER = 512
# Each value's pool offset within a step, over its _WIDTH places: one flat
# add, where a broadcast (n, 1) offset loops over n rows of _WIDTH.
_OFFSETS = np.repeat(np.arange(0, _GATHER * _POOL, _POOL, dtype=np.int32)[:, None], _WIDTH, axis=1)


@functools.cache
def _layouts(shortest):
    """Pool indices of the text of a c-digit value per (sign bit, X + 271, c - 1),
    X = -271..291 and c = 1..17, flattened in that order; repr's when shortest
    is true, "%.17g"'s otherwise.  Fixed notation for -4 <= X < 16 (repr) or
    17 ("%.17g"), every integral digit written and repr adding ".0" to an
    integral value; otherwise scientific, with a two-digit exponent at least.
    """
    lit = _LITERALS.index
    table = np.zeros((2, _X_MAX + 1 - _X_MIN, 17, _WIDTH), np.uint8)
    exponents = np.array([[lit(ch) for ch in ("e%+03d" % x).ljust(5, "\0")]
                          for x in range(_X_MIN, _X_MAX + 1)], np.uint8)
    for c in range(1, 18):
        digits = [len(_LITERALS) + i for i in range(c)]
        mantissa = digits[:1] + ([lit("."), *digits[1:]] if c > 1 else [])
        table[0, :, c - 1, :len(mantissa)] = mantissa
        table[0, :, c - 1, len(mantissa):len(mantissa) + 5] = exponents
        for x in range(-4, 16 if shortest else 17):
            if x < 0:
                text = [lit("0"), lit(".")] + [lit("0")] * (-1 - x) + digits
            else:
                text = digits[:x + 1] + [lit("0")] * (x + 1 - c)
                fraction = digits[x + 1:] or ([lit("0")] if shortest else [])
                text += [lit("."), *fraction] if fraction else []
            table[0, x - _X_MIN, c - 1] = text + [0] * (_WIDTH - len(text))
    table[1, ..., 0] = lit("-")
    table[1, ..., 1:] = table[0, ..., :-1]
    return table.reshape(-1, _WIDTH)


def _text(v, shortest):
    """Each entry of a finite float array v as an (n, _WIDTH) uint8 row of ASCII:
    repr's text when shortest is true, with the search's 17 - j digits, else
    "%.17g"'s, with D's up to its last nonzero one.  A zero is D = 0, X = 0, 1 digit.
    """
    zero = v == 0
    if shortest:
        x, d, j, slow = _shortest_digits(v)
        count = 17 - j
    else:
        _, x, _, _, d, slow = _decimal17(v)
        count = np.full(v.size, 17)
    d[zero | slow] = 0
    x[zero] = 0
    digits = _ascii17(d)
    if not shortest:  # only a D whose 17th digit is 0 has trailing zeros
        ends = np.flatnonzero(digits[:, 16] == ord("0"))
        count[ends] = 17 - np.argmax(digits[ends, ::-1] != ord("0"), axis=1)
    count[zero] = 1
    chars = np.empty((v.size, _POOL), np.uint8)
    chars[:, :len(_LITERALS)] = np.frombuffer(_LITERALS.encode(), np.uint8)
    chars[:, len(_LITERALS):] = digits
    key = (np.signbit(v) * (_X_MAX + 1 - _X_MIN) + x - _X_MIN) * 17 + count - 1
    text = np.empty((v.size, _WIDTH), np.uint8)
    for start in range(0, v.size, _GATHER):
        at = slice(start, start + _GATHER)
        index = np.take(_layouts(shortest), key[at], axis=0)
        np.take(chars[at], index + _OFFSETS[:len(index)], out=text[at])
    for i in np.flatnonzero(slow):
        exact = repr(float(v[i])).encode() if shortest else b"%.17g" % v[i]
        text[i] = np.frombuffer(exact.ljust(_WIDTH, b"\0"), np.uint8)
    return text


# the texts of a zero and a negative zero, indexed by the sign bit
_ZEROS = np.array(["0.0", "-0.0"], dtype=object)


def json_texts(x: np.ndarray) -> np.ndarray:
    """The JSON texts of a float array's entries, flat in C order, as str objects.

    A nonzero entry gets float repr's text, as json writes it, TEXT_BLOCK
    entries at a time; a zero takes the literal "0.0" or "-0.0".  A NaN or inf
    raises json's ValueError, naming the first one.
    """
    flat = x.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        bad = flat[np.argmin(finite)].item()
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    text = _ZEROS[np.signbit(flat).view(np.uint8)]
    nonzero = np.flatnonzero(flat)
    for start in range(0, nonzero.size, TEXT_BLOCK):
        at = nonzero[start:start + TEXT_BLOCK]
        rows = _text(flat[at], True).astype(np.uint32)
        text[at] = rows.view(f"<U{_WIDTH}")[:, 0].astype(object)
    return text


def json_table(texts: np.ndarray, start: int = 0, stop: int = None) -> list:
    """The pieces of json's text of an (n, m, k) table, from its entries' texts,
    where the table is a top-level key's value; only those of rows start to
    stop, so that the pieces of consecutive row ranges join to the table's text.

    The entries alternate with json's five separators: before the first
    entry, between two entries of a line, between two lines, between two rows
    and after the last entry.  Each is one shared str.
    """
    stop = len(texts) if stop is None else stop
    rows = texts[start:stop]
    pieces = np.empty(rows.shape + (2,), dtype=object)
    pieces[..., 0] = rows
    pieces[..., 1] = ",\n        "
    pieces[:, :, -1, 1] = "\n      ],\n      [\n        "
    pieces[:, -1, -1, 1] = "\n      ]\n    ],\n    [\n      [\n        "
    if stop == len(texts) > start:
        pieces[-1, -1, -1, 1] = "\n      ]\n    ]\n  ]"
    opening = ["[\n    [\n      [\n        "] if start == 0 < stop else []
    return opening + pieces.ravel().tolist()


def csv_rows(rows):
    """Each row of a finite float array as "%.17g" values joined by "," and ended by CRLF."""
    n_rows, n_cols = rows.shape
    text = np.zeros((n_rows, n_cols, _WIDTH + 2), np.uint8)
    text[..., :_WIDTH] = _text(rows.ravel(), False).reshape(n_rows, n_cols, _WIDTH)
    text[..., _WIDTH] = ord(",")
    text[:, -1, _WIDTH:] = list(b"\r\n")
    return text.tobytes().translate(None, b"\0")
