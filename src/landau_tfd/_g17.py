"""Exact '%.17g' % x text for a float array, by one numpy pass.

The CSV writer of sweep formats every float cell here.  Python's own
'%.17g' % x runs only for the values the pass cannot prove exact.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# k = floor(log10 |x|) runs over [-280, 279] for |x| in [1e-280, 1e280); the tables reach one further
# either way, for a log10 that rounds across a power of ten
_K_MIN, _K_MAX = -281, 280
# one cell's bytes: '-0.000' (the sign and the 0.000ddd prefix) at 0..5, digit i of d at 6 + 2i with a '.'
# after it, then 'e', the exponent's sign and three digits at 40..44, and the newline at 45
_ROW = 48
# the forms of a cell: fixed notation at k = -4..16, then the exponent form with two and with three digits
_FORMS = 23
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter: x * _SPLIT parts a double into two halves of 26 bits


def _hi_lo(n: int, shift: int) -> tuple:
    """n 2^-shift as hi + lo: hi is n rounded once, lo the residual n - hi rounded once."""
    hi = float(n)
    return math.ldexp(hi, -shift), math.ldexp(float(n - int(hi)), -shift)


@functools.cache
def _tables() -> tuple:
    """The tables of the pass, built on its first call and read-only.

    10^q for q = 16 - k as hi + lo, to about 2^-106 relative: 10^q
    itself for q >= 0, and floor(2^s / 10^-q) 2^-s, an integer of at
    least 116 bits, for q < 0.  The 100 digit pairs and the exponents as
    words of the row layout, and per (sign, form, digits kept) the mask
    of the bytes that make the cell.
    """
    ten, pos = 1, []
    for _ in range(17 - _K_MIN):  # 10^0 .. 10^(16 - _K_MIN)
        pos.append(_hi_lo(ten, 0))
        ten *= 10
    ten, neg = 1, []
    for _ in range(_K_MAX - 16):  # 10^-1 .. 10^(16 - _K_MAX)
        ten *= 10
        shift = ten.bit_length() + 116
        neg.append(_hi_lo((1 << shift) // ten, shift))
    hi, lo = np.array(neg[::-1] + pos).T
    hi1 = _SPLIT * hi - (_SPLIT * hi - hi)

    j = np.arange(100)
    pairs = (48 + j // 10) | ord(".") << 8 | (48 + j % 10) << 16 | ord(".") << 24
    exp = np.arange(_K_MIN, _K_MAX + 1)
    e = np.abs(exp)
    exps = np.stack([
        ord("e") | np.where(exp < 0, ord("-"), ord("+")) << 8 | (48 + e // 100) << 16 | (48 + e // 10 % 10) << 24,
        (48 + e % 10) | ord("\n") << 8,
    ])

    sign, form, kept, at = np.ogrid[:2, :_FORMS, 1:18, :_ROW]
    k = form - 4
    fixed = form < _FORMS - 2
    digit, point = (at - 6) // 2, np.where(fixed, k, 0)  # the digit at a byte, and the digit the point follows
    mask = (
        ((at == 0) & (sign == 1))  # the minus sign
        | (((at == 1) | (at == 2)) & fixed & (k < 0))  # '0.' before a fraction's
        | ((at >= 3) & (at < 6) & fixed & (at - 3 < -k - 1))  # -k - 1 leading zeros
        # the digits kept, and in fixed form every digit before the point
        | ((at >= 6) & (at < 40) & (at % 2 == 0) & (digit <= np.where(fixed, np.maximum(kept - 1, k), kept - 1)))
        | ((at >= 6) & (at < 40) & (at % 2 == 1) & (digit == point) & (kept - 1 > point))  # the point, if digits follow
        | (((at == 40) | (at == 41) | (at == 43) | (at == 44)) & ~fixed)  # 'e', its sign and two digits
        | ((at == 42) & (form == _FORMS - 1))  # a third exponent digit
        | (at == 45)
    ).reshape(-1, _ROW)
    tables = (hi, hi1, hi - hi1, lo, pairs.astype("<u4"), exps.astype("<u4"), mask)
    for a in tables:
        a.flags.writeable = False
    return tables


def digits17(x: np.ndarray) -> tuple:
    """(d, k, exact): |x| rounded to 17 digits, d 10^(k-16) with 10^16 <= d < 10^17, and k = floor(log10 |x|).

    As in Ryu printf (Adams, OOPSLA 2019), an exact two_prod of |x| and
    hi, plus |x| lo, gives |x| 10^(16-k) to about 1e-14 absolute, so the
    rounding is exact wherever the fraction is not within 1e-6 of one
    half.  exact is False, and d is 10^16, where the pass cannot prove
    d: zeros, infinities and NaN, |x| outside [1e-280, 1e280), a k that
    log10 got wrong, and that band around one half (the pass breaks no
    ties; 2^-25 is one).
    """
    hi_t, hi1_t, hi2_t, lo_t = _tables()[:4]
    a = np.abs(x)
    exact = (a >= 1e-280) & (a < 1e280)
    a = np.where(exact, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    q = _K_MAX - k
    hi, hi1, hi2 = hi_t[q], hi1_t[q], hi2_t[q]
    # two_prod: p + e = a * hi exactly; t adds a * lo, and s + r = p + t with s = fl(p + t)
    p = a * hi
    a1 = _SPLIT * a
    a1 -= a1 - a
    a2 = a - a1
    e = ((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2
    t = e + a * lo_t[q]
    s = p + t
    r = t - (s - p)
    r_floor = np.floor(r)
    frac = r - r_floor
    # s is an integer (>= 2^53), and d = s + round(r) has 17 digits when 1e16 <= s + r < 1e17
    exact &= ((s > 1e16) | ((s == 1e16) & (r >= 0))) & (s < 1e17) & (np.abs(frac - 0.5) > 1e-6)
    d = np.where(exact, s.astype(np.int64) + r_floor.astype(np.int64) + (frac > 0.5), 10**16)
    return d, k, exact


def cells(v: np.ndarray) -> list:
    """'%.17g' % x for each x of v by one array pass; Python's own text, byte for byte.

    digits17 gives each |x| as a 17-digit integer d; d goes to ASCII by a
    digit-pair table, and a byte mask per (sign, form, digits kept) picks
    %g's fixed, 0.000ddd or exponent form, with its trailing zeros
    stripped, out of one row layout.  Where digits17 cannot prove d,
    '%.17g' % x itself writes the cell.
    """
    pairs, exps, mask = _tables()[4:]
    x = np.asarray(v, dtype=float)
    n = len(x)
    d, k, exact = digits17(x)

    # the row layout as 4-byte words, one word per row of src until the transpose: the prefix, the leading
    # digit, eight digit pairs (the high and the low eight digits of d, by quarters) and the exponent
    high = d // 100_000_000
    lead = high // 100_000_000
    halves = np.empty((2, n), dtype=np.uint32)
    halves[0] = high - lead * 100_000_000
    halves[1] = d - high * 100_000_000
    quarters = np.empty((2, 2, n), dtype=np.uint32)
    np.floor_divide(halves, 10_000, out=quarters[:, 0])
    quarters[:, 1] = halves - 10_000 * quarters[:, 0]
    quarters = quarters.reshape(4, n)
    digit_pairs = np.empty((4, 2, n), dtype=np.uint32)
    np.floor_divide(quarters, 100, out=digit_pairs[:, 0])
    digit_pairs[:, 1] = quarters - 100 * digit_pairs[:, 0]
    src = np.empty((_ROW // 4, n), dtype="<u4")
    src[0] = int.from_bytes(b"-0.0", "little")
    src[1] = int.from_bytes(b"00\0.", "little") + ((lead + 48) << 16)
    pairs.take(digit_pairs.reshape(8, n), out=src[2:10])
    exps[0].take(k - _K_MIN, out=src[10])
    exps[1].take(k - _K_MIN, out=src[11])

    # trailing zeros of d: those of its low eight digits, or eight and those of its high eight
    low_zero = halves[1] == 0
    w = np.where(low_zero, halves[0], halves[1])
    zeros = 8 * low_zero
    for i in range(1, 9):
        zeros += w // 10**i * 10**i == w
    form = np.where((k >= -4) & (k <= 16), k + 4, _FORMS - 2 + (np.abs(k) >= 100))
    keep = mask.take(((x < 0) * _FORMS + form) * 17 + 16 - zeros, axis=0)
    # the rows' bytes with every byte the mask drops set to NUL, which no cell holds; then the NULs go
    rows = src.T.copy().view(np.uint8)
    rows *= keep
    out = rows.tobytes().translate(None, b"\0").decode().split("\n")
    out.pop()
    for i in np.flatnonzero(~exact).tolist():
        out[i] = "%.17g" % x[i]
    return out
