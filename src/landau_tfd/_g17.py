"""Exact '%.17g' % x and repr(x) text for a float array, by one numpy pass.

The table writer of sweep lays out every chunk of rows here, one byte array
in the row layout it passes with a 32-byte slot per float cell: its CSV
cells in the first style, its JSON ones in the second.  Python's own
'%.17g' % x or repr(x) runs only for the values the pass cannot prove exact,
a value whose log10 rounds across a power of ten among them, writing into
the cell's own slot, and for a column whose values in a chunk are the same.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# k = floor(log10 |x|) runs over [-280, 279] for |x| in [1e-280, 1e280); the tables reach one further
# either way, for a log10 that rounds across a power of ten, whose value falls back
_K_MIN, _K_MAX = -281, 280
# one cell's slot: the sign or NUL, then '0.000' (the 0.000ddd prefix) at 0..5, the lead digit at 6 and a '.' at 7,
# the sixteen low digits at 8..23, one byte each, with the point shifted in after digit k in a fixed form and the
# last digit spilled to 24, then 'e', the exponent's sign and three digits at 25..29, and the cell's separator at 30
_ROW = 32
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
    double, for q = 22c + b.  Four digits as four bytes and their
    trailing zeros, every exponent as the slot's last word, per style and
    k the form and fewest digits kept less one, per form the low-digit
    bytes that stay put and the '.' shifted in, and per (form, digits
    kept) the bytes that make a cell and its separator, as words of 0xFF
    and 0x00 bytes.  q reaches a decade past [1e-280, 1e280) either way,
    for a log10 that rounds across a power of ten: such a value falls back.
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

    # four digits as four ASCII bytes, and how many of them are trailing zeros
    d1, d2, d3, d4 = np.ix_(*[np.arange(10)] * 4)
    quads = (48 + d1 | (48 + d2) << 8 | (48 + d3) << 16 | (48 + d4) << 24).ravel()
    trailing = ((d4 == 0) * (1 + (d3 == 0) * (1 + (d2 == 0) * (1 + (d1 == 0))))).ravel()
    exp = np.arange(_K_MIN, _K_MAX + 1)
    e = np.abs(exp)
    exps = (
        ord("e") << 8 | np.where(exp < 0, ord("-"), ord("+")) << 16
        | (48 + e // 100) << 24 | (48 + e // 10 % 10) << 32 | (48 + e % 10) << 40
    )
    # per style, each k's form and fewest digits kept less one: fixed notation up to k = 16 in '%.17g' and 15 in
    # repr, where an integral value keeps k + 2 digits for its '.0'
    json_ = np.arange(2)[:, None]
    fixed = (exp >= -4) & (exp <= 16 - json_)
    styles = np.stack([np.where(fixed, exp + 4, _FORMS - 2 + (e >= 100)), np.where(fixed & (json_ > 0), exp + 1, 0)], 1)
    # per form, the bytes of the two low-digit words that stay put, and the '.' where the point is shifted in
    word, k, byte = np.ogrid[:2, -4 : _FORMS - 4, :8]
    low, shifted = 8 * word + byte, (k >= 1) & (k <= 15)
    shifts = np.stack([(~shifted | (low < k)) * 0xFF, (shifted & (low == k)) * ord(".")]).astype(np.uint8)

    form, kept, at = np.ogrid[:_FORMS, 1:18, :_ROW]
    k = form - 4
    fixed = form < _FORMS - 2
    frac, point = fixed & (k < 0), np.where(fixed, k, 0)  # the 0.000ddd forms, and the digit the point follows
    shifted = (k >= 1) & (k <= 15)  # the point at byte 8 + k, and the digits after it one byte up
    dot = np.where(shifted, 8 + k, 7)  # the point's byte
    digit = at - 6 - (at > 7) - (shifted & (at > dot))  # the digit at a byte, from 6 to 24 save the point's
    mask = (
        (at == 0)  # '-' or NUL
        | (((at == 1) | (at == 2)) & frac)  # '0.' before a fraction's
        | ((at >= 3) & (at < 6) & frac & (at - 3 < -k - 1))  # -k - 1 leading zeros
        # the digits kept, and in fixed form every digit before the point
        | (((at == 6) | ((at >= 8) & (at <= 24) & (at != dot))) & (digit <= np.maximum(kept - 1, point)))
        | ((at == dot) & ~frac & (kept - 1 > point))  # the point, if digits follow it
        | ((at >= 25) & (at <= 29) & (at != 27) & ~fixed)  # 'e', its sign and two digits
        | ((at == 27) & (form == _FORMS - 1))  # a third exponent digit
        | (at == 30)
    ).reshape(-1, _ROW)
    tables = (
        hi, *_split(hi), lo,
        quads.astype("<u4"), trailing.astype(np.uint8), exps.astype("<u8"), styles,
        shifts.view("<u8")[..., 0],  # (stay or dot, word, form): a take by form reads contiguous rows
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
    (>= 2^53), so |r| <= ulp(s) / 2 <= 8.  ok is False, and a is 1, where
    the pass cannot prove s + r: zeros, infinities and NaN, |x| outside
    [1e-280, 1e280), and where log10 rounds across a power of ten (just
    below 1e-7 it gives -7), so that s + r falls outside [1e16, 1e17).
    """
    a = np.abs(x)
    ok = (a >= 1e-280) & (a < 1e280)
    a = np.where(ok, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    s, r = _product(a, k)
    return a, k, s, r, ok & ~_below(s, r, 1e16) & _below(s, r, 1e17)


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
    """Lay out each x and sep in its slot, a row of words (n, 4).

    digits17 or shortest gives each |x| as a 17-digit integer d, one byte
    a digit, four at a time from a table.  In a fixed form with 1 <= k <=
    15 the digits after digit k move up one byte, the last into byte 24,
    and a '.' fills the gap.  A byte mask per (form, digits kept) picks
    the fixed, 0.000ddd or exponent form, its trailing zeros stripped:
    every byte it drops becomes NUL.  The sign byte is '-' or NUL.
    repr writes fixed notation up to k = 15, '%.17g' up to 16, and its
    '.0' after an integral fixed value is one more digit kept.  Where the
    digits are not proven, the slot holds Python's text, NUL-padded to
    sep at byte 30.
    """
    quads, trailing, exps, styles, shifts, mask = _tables()[4:]
    n = len(x)
    d, k, exact = (shortest if json_ else digits17)(x)

    # the slot's words: the sign ('-' or NUL), the prefix and the leading digit; the low sixteen digits of d, eight
    # a word and four from each quads entry; and the digit spilled from the shift, the exponent and the separator
    high = d // 100_000_000
    lead = high // 100_000_000
    halves = np.array([high - lead * 100_000_000, d - high * 100_000_000], dtype=np.uint32)
    quarters = np.empty((2, n, 2), dtype=np.uint32)
    np.floor_divide(halves, 10_000, out=quarters[..., 0])
    quarters[..., 1] = halves - 10_000 * quarters[..., 0]
    src = np.empty((_ROW // 8, n), dtype="<u8")
    src[0] = int.from_bytes(b"\0" b"0.000\0.", "little") + ((lead + 48) << 48) + (x < 0) * ord("-")
    quads.take(quarters, out=src[1:3].view("<u4").reshape(2, n, 2))

    # the point shifted in after digit k of a fixed form: the digits after it move up one byte, into the next word
    form, least = styles[int(json_)].take(k - _K_MIN, axis=1)
    stay, dot = shifts.take(form, axis=2)
    kept = src[1:3] & stay
    moved = src[1:3] ^ kept
    np.bitwise_or(kept | dot, moved << 8, out=src[1:3])
    src[2] |= moved[0] >> 56
    exps.take(k - _K_MIN, out=src[3])
    src[3] |= int.from_bytes(sep, "little") << 48 | moved[1] >> 56

    # trailing zeros of d: those of its last quarter, and while a quarter is all zeros, those of the one before
    tz = trailing.take(quarters).transpose(0, 2, 1).reshape(4, n)
    zeros = tz[3] + (tz[3] == 4) * (tz[2] + (tz[2] == 4) * (tz[1] + (tz[1] == 4) * tz[0]))
    # the mask row: form, and digits kept less one, at least repr's '.0' in an integral fixed value
    np.bitwise_and(src.T, mask.take(form * 17 + np.maximum(16 - zeros, least), axis=0), out=words)
    # Python's text of a double is at most 24 bytes: it fits before the separator's byte
    bad = np.flatnonzero(~exact)
    if len(bad):
        texts = b"".join((_text(v, json_).encode().ljust(30, b"\0") + sep).ljust(_ROW, b"\0") for v in x[bad].tolist())
        words[bad] = np.frombuffer(texts, dtype="<u8").reshape(-1, _ROW // 8)


def rows(cols: list, json_: bool, layout: tuple, buf: bytearray) -> bytes:
    """The text of a chunk of table rows, row i holding value i of each column, by one array pass.

    layout is the bytes before a row's first cell, between a cell's ','
    and the next cell, and after the last cell, and the last cell's
    separator.  The chunk is laid out in buf, resized in place, so a
    writer can pass the same buf for every chunk: a byte row per table
    row, the layout's bytes, with each cell's slot between them ending
    in ',' or the last cell's separator, and each part padded with NUL
    to whole 8-byte words.  Every word is written, so nothing an earlier
    chunk left in buf shows.  A float column's slot is _fill's 32 bytes,
    Python's text where the pass falls back, a bool column's one word of
    its text from a table.  A column whose values in the chunk are bitwise
    identical (so -0.0 and 0.0 differ) is written once, by Python, into
    the layout's bytes.  One translate drops the NULs and gives the
    chunk's text.
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

    size = 8 * n * sum(p[0] for p in parts)
    if len(buf) < size:
        # repeating one byte grows buf in place, where extending it by bytes(size) would first build a second
        # buffer of that size
        buf[:] = b"\0"
        buf *= size
    # a shorter chunk, such as a table's last, uses the leading part
    del buf[size:]
    words = np.frombuffer(buf, dtype="<u8").reshape(n, -1)
    at = 0
    for width, template, v, sep in parts:
        slot = words[:, at : at + width]
        at += width
        if v is None:
            slot[:] = template
        elif v.dtype == bool:
            table = _words(b"".join((_text(b, json_).encode() + sep).ljust(8, b"\0") for b in (False, True)))
            slot[:, 0] = table[v.view(np.uint8)]
        else:
            _fill(np.asarray(v, dtype=float), json_, slot, sep)
    return buf.translate(None, b"\0")
