"""Exact '%.17g' % x and repr(x) text for a float array, by one numpy pass.

The table writer of sweep lays out every chunk of rows here, as one byte
array in the row layout it passes: its CSV float cells in the first style,
its JSON ones in the second.  Python's own '%.17g' % x or repr(x) runs only
for the values the pass cannot prove exact, whose text it writes into the
cell's own slot, and for a column whose values in the chunk are all the
same.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# k = floor(log10 |x|) runs over [-280, 279] for |x| in [1e-280, 1e280); the tables reach one further
# either way, for a log10 that rounds across a power of ten
_K_MIN, _K_MAX = -281, 280
# one cell's slot: '-0.000' (the sign and the 0.000ddd prefix) at 0..5, digit i of d at 6 + 2i with a '.'
# after it, then 'e', the exponent's sign and three digits at 40..44, and the cell's separator at 45
_ROW = 48
# the forms of a cell: fixed notation at k = -4..16, then the exponent form with two and with three digits
_FORMS = 23
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter: x * _SPLIT parts a double into two halves of 26 bits
# a fraction this close to a rounding tie or to an interval's end is not proven: its value falls back
_GUARD = 1e-6


def _hi_lo(n: int, shift: int) -> tuple:
    """n 2^-shift as hi + lo: hi is n rounded once, lo the residual n - hi rounded once."""
    hi = float(n)
    return math.ldexp(hi, -shift), math.ldexp(float(n - int(hi)), -shift)


def _split(x):
    """Veltkamp's split: x = x1 + x2 exactly, each with at most 26 significant bits."""
    x1 = _SPLIT * x
    x1 = x1 - (x1 - x)
    return x1, x - x1


def _two_prod_err(a1, a2, b1, b2, p):
    """a b - p exactly, for p = fl(a b) and the split halves of a and b (Dekker)."""
    return ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


@functools.cache
def _tables() -> tuple:
    """The tables of the pass, built on its first call and read-only.

    10^q for q = 16 - k as hi + lo, to about 2^-105 relative: the exact
    product of 10^(22c), a double-double from integers (10^(22c) itself
    for c >= 0, floor(2^s / 10^-22c) 2^-s for c < 0), and 10^b, an exact
    double, for q = 22c + b.  Every group of four digits and every
    exponent as an 8-byte word of the slot layout, the trailing zeros of
    each group, and per (sign, style, form, digits kept) the mask of the
    bytes that make a cell and its separator, as words of 0xFF and 0x00
    bytes: style 0 is '%.17g', style 1 is repr, which writes an integral
    fixed value with '.0'.
    """
    c, b = np.divmod(np.arange(16 - _K_MAX, 17 - _K_MIN), 22)
    coarse = []
    for i in range(c[0], c[-1] + 1):
        ten = 10 ** abs(22 * i)
        shift = 0 if i >= 0 else ten.bit_length() + 116
        coarse.append(_hi_lo(ten if i >= 0 else (1 << shift) // ten, shift))
    big_hi, big_lo = np.array(coarse)[c - c[0]].T
    small = np.array([float(10**i) for i in range(22)])[b]
    p = big_hi * small
    t = _two_prod_err(*_split(big_hi), *_split(small), p) + big_lo * small
    hi = p + t
    lo = t - (hi - p)

    # four digits with a '.' after each as one word of the slot layout, and how many of them are trailing zeros
    d1, d2, d3, d4 = np.ix_(*[np.arange(10)] * 4)
    quads = (48 + d1 | (48 + d2) << 16 | (48 + d3) << 32 | (48 + d4) << 48 | int.from_bytes(b"\0." * 4, "little")).ravel()
    trailing = ((d4 == 0) * (1 + (d3 == 0) * (1 + (d2 == 0) * (1 + (d1 == 0))))).ravel()
    exp = np.arange(_K_MIN, _K_MAX + 1)
    e = np.abs(exp)
    exps = (
        ord("e") | np.where(exp < 0, ord("-"), ord("+")) << 8
        | (48 + e // 100) << 16 | (48 + e // 10 % 10) << 24 | (48 + e % 10) << 32
    )

    sign, style, form, kept, at = np.ogrid[:2, :2, :_FORMS, 1:18, :_ROW]
    k = form - 4
    fixed = form < _FORMS - 2
    digit, point = (at - 6) // 2, np.where(fixed, k, 0)  # the digit at a byte, and the digit the point follows
    mask = (
        ((at == 0) & (sign == 1))  # '-'
        | (((at == 1) | (at == 2)) & fixed & (k < 0))  # '0.' before a fraction's
        | ((at >= 3) & (at < 6) & fixed & (at - 3 < -k - 1))  # -k - 1 leading zeros
        # the digits kept, and in fixed form every digit before the point, and for repr the one after it
        | ((at >= 6) & (at < 40) & (at % 2 == 0) & (digit <= np.where(fixed, np.maximum(kept - 1, k + style), kept - 1)))
        # the point, if digits follow or repr writes a fixed value
        | ((at >= 6) & (at < 40) & (at % 2 == 1) & (digit == point) & ((kept - 1 > point) | ((style == 1) & fixed)))
        | (((at == 40) | (at == 41) | (at == 43) | (at == 44)) & ~fixed)  # 'e', its sign and two digits
        | ((at == 42) & (form == _FORMS - 1))  # a third exponent digit
        | (at == 45)
    ).reshape(-1, _ROW)
    tables = (
        hi, *_split(hi), lo,
        quads.astype("<u8"), trailing.astype(np.uint8), exps.astype("<u8"),
        (mask * 0xFF).astype(np.uint8).view("<u8"),
    )
    for a in tables:
        a.flags.writeable = False
    return tables


def _product(a: np.ndarray, k: np.ndarray) -> tuple:
    """(s, r): s + r = a 10^(16-k) to about 1e-14 absolute, with s = fl(s + r)."""
    hi_t, hi1_t, hi2_t, lo_t = _tables()[:4]
    q = _K_MAX - k
    hi = hi_t[q]
    p = a * hi
    t = _two_prod_err(*_split(a), hi1_t[q], hi2_t[q], p) + a * lo_t[q]
    s = p + t
    return s, t - (s - p)


def _scaled(x: np.ndarray) -> tuple:
    """(a, k, s, r, ok): a = |x|, k = floor(log10 a), and s + r = a 10^(16-k) with s = fl(s + r).

    As in Ryu printf (Adams, OOPSLA 2019), an exact two_prod of a and
    hi, plus a lo, gives s + r to about 1e-14 absolute.  s is an integer
    (>= 2^53), so |r| <= ulp(s) / 2 <= 8.  Where log10 rounds across a
    power of ten (just below 1e-7 it gives -7), s + r falls outside
    [1e16, 1e17), and k moves by one towards it.  ok is False, and a is 1,
    where the pass cannot prove s + r: zeros, infinities and NaN, |x|
    outside [1e-280, 1e280), and a k still wrong after that step.
    """
    a = np.abs(x)
    ok = (a >= 1e-280) & (a < 1e280)
    a = np.where(ok, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    s, r = _product(a, k)
    low, high = _below(s, r, 1e16), ~_below(s, r, 1e17)
    off = np.flatnonzero(low | high)
    if len(off):
        k[off] += high[off].astype(np.intp) - low[off]
        s[off], r[off] = _product(a[off], k[off])
        low[off], high[off] = _below(s[off], r[off], 1e16), ~_below(s[off], r[off], 1e17)
    return a, k, s, r, ok & ~low & ~high


def _below(s, r, bound: float):
    """s + r < bound, for s = fl(s + r) and a bound of 1e16 or 1e17.

    Near the bound s and the bound are multiples of ulp(s), so s - bound
    is exact and is 0 or at least 2 |r| in size: adding r changes its
    sign only where it is 0.
    """
    return (s - bound) + r < 0


def _floor_frac(y: np.ndarray) -> tuple:
    """(floor(y) as int64, y - floor(y))."""
    floor = np.floor(y)
    return floor.astype(np.int64), y - floor


def digits17(x: np.ndarray) -> tuple:
    """(d, k, exact): |x| rounded to 17 digits, d 10^(k-16) with 10^16 <= d < 10^17, and k = floor(log10 |x|).

    The rounding of s + r is exact wherever its fraction is not within
    _GUARD of one half.  exact is False, and d is 10^16, where _scaled
    cannot prove s + r, and in that band around one half (the pass breaks
    no ties; 2^-25 is one).
    """
    _, k, s, r, exact = _scaled(x)
    r_floor, frac = _floor_frac(r)
    exact &= np.abs(frac - 0.5) > _GUARD
    d = s.astype(np.int64) + r_floor + (frac > 0.5)
    # 10^17 is 1 followed by zeros one decade up
    top = exact & (d == 10**17)
    return np.where(exact & ~top, d, 10**16), k + top, exact


def shortest(x: np.ndarray) -> tuple:
    """(d, k, exact): the digits repr writes for |x|, as d 10^(k-16) with 10^16 <= d < 10^17.

    The shortest digits that read back as x and, among those, the ones
    nearest to it (Loitsch, PLDI 2010; Adams, PLDI 2018).  Scaled as
    s + r, the doubles next to |x| = m 2^e lie u = 2^(e-54) 10^(16-k)
    above and below it, u / 2 below a power of two (m = 1/2), and
    [s + r - gap, s + r + u] holds the values that read back as x.  The
    largest M = 10^j with a multiple in it gives 17 - j digits, and d is
    the multiple of M nearest s + r, clipped into it.  exact is False, and d
    is 10^16, where _scaled cannot prove s + r, where an end's fraction
    is within _GUARD of an integer (so that whether an end reads back as
    x never matters), and where the rounding to M is within _GUARD of a
    tie.
    """
    a, k, s, r, exact = _scaled(x)
    # u = 2^(e-54) 10^(16-k) = (s + r) / m 2^-54, to about 1e-14 with s alone
    m = np.frexp(a)[0]
    u = s / m * 2.0**-54
    s = s.astype(np.int64)
    lo_floor, lo_frac = _floor_frac(r - np.where(m == 0.5, 0.5 * u, u))
    hi_floor, hi_frac = _floor_frac(r + u)
    r_floor, r_frac = _floor_frac(r)
    exact &= (lo_frac > _GUARD) & (lo_frac < 1 - _GUARD) & (hi_frac > _GUARD) & (hi_frac < 1 - _GUARD)
    # the integers in the interval are low + 1 .. high, fewer than 23 as u < 1e17 / 2^53: so it holds at most
    # one multiple of 100, and where it holds one, that is d
    low, high = s + lo_floor, s + hi_floor
    hundred = high - high % 100
    by_hundred = hundred > low
    # else the multiple of M = 10, or else of M = 1, nearest s + r
    big = np.where(low // 10 < high // 10, 10, 1)
    near = s + r_floor
    whole = near // big
    # 2 (s + r - whole M) - M: above 0 rounds up, and half its size is the distance from a tie
    tie = (2 * (near - whole * big) - big) + 2 * r_frac
    exact &= by_hundred | (np.abs(tie) > 2 * _GUARD)
    d = np.where(by_hundred, hundred, np.minimum(np.maximum(whole + (tie > 0), low // big + 1), high // big) * big)
    # 10^17 is 1 followed by zeros one decade up
    top = exact & (d == 10**17)
    return np.where(exact & ~top, d, 10**16), k + top, exact


def _text(x, json_: bool) -> str:
    """Python's own text of one cell: a bool as 0/1 or false/true, '%.17g' % x, or repr(x) with the string
    "inf" for +-inf and NaN for NaN, since JSON has no infinity literal."""
    if isinstance(x, bool):
        return ("false", "true")[x] if json_ else "%d" % x
    if not json_:
        return "%.17g" % x
    return repr(x) if math.isfinite(x) else '"inf"' if math.isinf(x) else "NaN"


def _words(b: bytes) -> np.ndarray:
    """b padded with NUL to whole 8-byte words."""
    return np.frombuffer(b.ljust(-(-len(b) // 8) * 8, b"\0"), dtype="<u8")


def _fill(x: np.ndarray, json_: bool, words: np.ndarray, sep: bytes) -> None:
    """Lay out each x and sep in its slot, a row of words (n, 6).

    digits17 or shortest gives each |x| as a 17-digit integer d; d goes
    to ASCII four digits a word, from a table, and a byte mask per
    (sign, style, form, digits kept) picks the fixed, 0.000ddd or
    exponent form, with its trailing zeros stripped, out of one slot
    layout: every byte the mask drops becomes NUL.  repr writes fixed
    notation up to k = 15, '%.17g' up to 16.  Where the digits are not
    proven, the slot holds Python's text, NUL-padded to sep at byte 45.
    """
    quads, trailing, exps, mask = _tables()[4:]
    n = len(x)
    d, k, exact = (shortest if json_ else digits17)(x)

    # the slot's words: the prefix and the leading digit, the four quarters of the low sixteen digits of d, and
    # the exponent with the separator
    high = d // 100_000_000
    lead = high // 100_000_000
    halves = np.empty((2, n), dtype=np.uint32)
    halves[0] = high - lead * 100_000_000
    halves[1] = d - high * 100_000_000
    quarters = np.empty((2, 2, n), dtype=np.uint32)
    np.floor_divide(halves, 10_000, out=quarters[:, 0])
    quarters[:, 1] = halves - 10_000 * quarters[:, 0]
    quarters = quarters.reshape(4, n)
    src = np.empty((_ROW // 8, n), dtype="<u8")
    src[0] = int.from_bytes(b"-0.000\0.", "little") + ((lead + 48) << 48)
    quads.take(quarters, out=src[1:5])
    exps.take(k - _K_MIN, out=src[5])
    src[5] |= int.from_bytes(sep, "little") << 40

    # trailing zeros of d: those of its last quarter, and while a quarter is all zeros, those of the one before
    tz = trailing.take(quarters)
    zeros = tz[3] + (tz[3] == 4) * (tz[2] + (tz[2] == 4) * (tz[1] + (tz[1] == 4) * tz[0]))
    form = np.where((k >= -4) & (k <= 16 - json_), k + 4, _FORMS - 2 + (np.abs(k) >= 100))
    cell = (((x < 0) * 2 + json_) * _FORMS + form) * 17 + 16 - zeros
    np.bitwise_and(src.T, mask.take(cell, axis=0), out=words)
    # Python's text of a double is at most 24 bytes: it fits before the separator's byte
    bad = np.flatnonzero(~exact)
    if len(bad):
        texts = b"".join((_text(v, json_).encode().ljust(45, b"\0") + sep).ljust(_ROW, b"\0") for v in x[bad].tolist())
        words[bad] = np.frombuffer(texts, dtype="<u8").reshape(-1, _ROW // 8)


def rows(cols: list, json_: bool, layout: tuple) -> bytes:
    """The text of a chunk of table rows, row i holding value i of each column, by one array pass.

    layout is the bytes before a row's first cell, between a cell's ','
    and the next cell, and after the last cell, and the last cell's
    separator.  The chunk is laid out as one byte array, a row of it per
    table row: the layout's bytes, with each cell's slot between them
    ending in ',' or the last cell's separator, and each part padded with
    NUL to whole 8-byte words.  A float column's slot is _fill's, Python's
    text included where the pass falls back, a bool column's its text from
    a table.  A column whose values in the chunk are bitwise identical (so
    -0.0 and 0.0 differ) is written once, by Python, into the layout's
    bytes.  One translate drops the NULs and gives the chunk's text.
    """
    lead, between, end, last_sep = layout
    n = len(cols[0])
    if n == 0:
        return b""
    # the row's parts, each (size in words, the layout's bytes as words, or a column and its cell's separator)
    parts, literal = [], bytearray(lead)
    for j, v in enumerate(cols):
        sep = b"," if j < len(cols) - 1 else last_sep
        bits = v.view(f"u{v.itemsize}")
        if n > 1 and (bits == bits[0]).all():
            literal += _text(v[0].item() if v.dtype == bool else float(v[0]), json_).encode() + sep
        else:
            if literal:
                parts.append((len(_words(literal)), _words(literal), None, None))
            parts.append((1 if v.dtype == bool else _ROW // 8, None, v, sep))
            literal = bytearray()
        if j < len(cols) - 1:
            literal += between
    literal += end
    if literal:
        parts.append((len(_words(literal)), _words(literal), None, None))

    buf = bytearray(8 * n * sum(p[0] for p in parts))
    words = np.frombuffer(buf, dtype="<u8").reshape(n, -1)
    at = 0
    for size, template, v, sep in parts:
        slot = words[:, at : at + size]
        at += size
        if v is None:
            slot[:] = template
        elif v.dtype == bool:
            table = _words(b"".join((_text(b, json_).encode() + sep).ljust(8, b"\0") for b in (False, True)))
            slot[:, 0] = table[v.view(np.uint8)]
        else:
            _fill(np.asarray(v, dtype=float), json_, slot, sep)
    return buf.translate(None, b"\0")
