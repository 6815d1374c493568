"""Exact decimal text of float64 and integer arrays, without a Python object per value.

A value ``x = m 2^e`` (``m`` the 53-bit significand) with ``k = floor(log10
|x|)`` is ``y = m 5^p 2^(p+e)`` in units of ``10^-p``, ``p = 16 - k``, so
that ``10^16 <= y < 10^17``.  For ``p`` in [0, 27] and a right shift ``-(p +
e)`` in [1, 63], that is for ``1e-11 <= |x| < 2^51`` (about 2.25e15),
``m 5^p`` fits in 128 bits and is formed exactly from 32-bit limbs in uint64,
giving ``floor(y)`` and the bits of its fraction.  Every other value (zero,
subnormals, nan, infinities, other magnitudes) is left to a fallback that
formats one value at a time.

Two texts are made from ``y``.  ``render`` writes ``'%.17g'``: the 17 digits
``round_half_even(y)``.  ``render_shortest`` writes ``repr`` (the float
literal of ``json.dumps``), the fewest digits that read back as ``x``: the
values reading back as ``x`` are ``y ± u``, ``u = 5^p / 2^(1-e-p)``, half a
unit in the last place in units of ``10^-p``, and the digits are those of
``round(y / 10^j) 10^j`` for the largest ``j`` such that a multiple of
``10^j`` lies in that interval.

A cell is the text NUL-padded to ``WIDTH`` bytes, the widest ``'%.17g'`` or
``repr`` of a float64.  The 17 digits are laid out as bytes 7..23 of three
little-endian uint64 words.  One entry of the layout table, keyed by (sign,
decimal exponent, number of digits kept), places them in the cell: the digits
before the point move by one byte shift, those after it by another, each
under a mask, and the sign, point, leading zeros and exponent are added.  The
two texts share that layout but for one case: ``repr`` writes a whole number
with ``.0`` after it.
``render_integers`` writes the decimal text of an integer array from the same
4-digit groups.
"""

from __future__ import annotations

import numpy as np

WIDTH = 24  # bytes of one cell: '-2.2250738585072014e-308' is the widest text
INT_WIDTH = 20  # bytes of an integer cell: the widest int64 or uint64 text

_WORD = np.dtype("<u8")  # a cell's bytes in memory order are its words' bytes
_P_MAX = 27  # 5^27 < 2^63, so m 5^p < 2^116
_X_MIN, _X_MAX = -11, 16  # decimal exponents k with 16 - k in [0, 27]
_POW5 = np.uint64(5) ** np.arange(_P_MAX + 1, dtype=np.uint64)
_POW10 = np.int64(10) ** np.arange(18, dtype=np.int64)
_LO32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_HALF = np.uint64(1 << 63)
_E16, _E17 = 10**16, 10**17
_POWER_OF_TWO = 1 << 52  # the significand whose lower neighbour is half as near


def _group_tables():
    """Each 4-digit group as its 4 ASCII bytes packed in the low half of a
    uint64, and its count of trailing zeros (4 for 0000), from the 100 pairs
    of digits."""
    pair = np.arange(100, dtype=np.uint8)
    text = np.stack([pair // 10, pair % 10], axis=1) + np.uint8(ord("0"))
    zeros = (pair % 10 == 0).astype(np.uint8) + (pair == 0)
    groups = np.concatenate([np.repeat(text, 100, axis=0), np.tile(text, (100, 1))], axis=1)
    trailing = np.tile(zeros, 100) + (np.tile(pair, 100) == 0) * np.repeat(zeros, 100)
    return np.ascontiguousarray(groups).view("<u4").ravel().astype(_WORD), trailing.astype(np.uint8)


_GROUP_TEXT, _GROUP_TRAILING = _group_tables()


def _layout_rows(x: np.ndarray, form: str) -> np.ndarray:
    """The layout fields of the decimal exponents x, which share one ``%g``
    form ("below one", "fixed" or "exponent"), per sign and number of digits
    kept: masks of the digits before and after the point and the constant
    bytes (3 words each), then the byte shifts a1 and a2 as bit counts 8a and
    64 - 8a; shape (13, 2, len(x), 17).  A cell is ``(D >> a1 & mask1) | (D
    >> a2 & mask2) | constant``, D read as one little-endian number.  The
    bytes are built as uint8, the only width they need."""
    sign = np.arange(2)[:, None, None, None]
    x = x[None, :, None, None]
    kept = np.arange(1, 18)[None, None, :, None]
    pos = np.arange(WIDTH)[None, None, None, :]
    byte = np.uint8
    if form == "below one":  # "0.", -x-1 zeros, the digits
        first = sign + 1 - x
        mask1 = (pos >= first) & (pos < first + kept)
        mask2 = np.zeros_like(mask1)
        const = np.where((pos >= sign) & (pos < first), byte(ord("0")), byte(0))
        const = np.where(pos == sign + 1, byte(ord(".")), const)
    else:  # the digits, a point after digit `before` when more follow, any exponent
        first = sign
        before = x if form == "fixed" else 0
        point = sign + before + 1
        after = kept > before + 1
        mask1 = (pos >= sign) & (pos < point)
        mask2 = after & (pos > point) & (pos <= sign + kept)
        const = np.where(after & (pos == point), byte(ord(".")), byte(0))
        if form == "exponent":  # "e-dd": x is from -11 to -5 here
            at = np.where(after, sign + kept + 1, sign + 1)
            const = np.where(pos == at, byte(ord("e")), const)
            const = np.where(pos == at + 1, byte(ord("-")), const)
            const = np.where(pos == at + 2, (-x // 10 + ord("0")).astype(byte), const)
            const = np.where(pos == at + 3, (-x % 10 + ord("0")).astype(byte), const)
    const = np.where((sign == 1) & (pos == 0), byte(ord("-")), const)
    shape = (2, x.shape[1], 17)
    parts = [np.broadcast_to(part, (*shape, WIDTH))
             for part in (mask1 * byte(0xFF), mask2 * byte(0xFF), const)]
    words = np.concatenate(parts, axis=-1).view(_WORD)
    a1 = np.broadcast_to(7 - first[..., 0], shape)  # digit j sits at byte 7 + j of D
    a2 = np.broadcast_to(6 - sign[..., 0], shape)
    shifts = np.stack([8 * a1, 64 - 8 * a1, 8 * a2, 64 - 8 * a2]).astype(_WORD)
    return np.concatenate([np.moveaxis(words, -1, 0), shifts])


# 13 fields, each a row of (2 * 28 * 17) entries, one per key (sign, decimal
# exponent, digits kept): the 9 mask and constant words, and the 4 shifts as
# one byte each (every shift is at most 64).
_LAYOUT = np.concatenate([
    _layout_rows(np.arange(_X_MIN, -4), "exponent"),
    _layout_rows(np.arange(-4, 0), "below one"),
    _layout_rows(np.arange(0, _X_MAX + 1), "fixed"),
], axis=2).reshape(13, -1)
_LAYOUT, _SHIFTS = _LAYOUT[:9], _LAYOUT[9:].astype(np.uint8)


def _covered(normal, k, e):
    """Where p = 16 - k is in [0, 27] and the shift k - 16 - e in [1, 63]."""
    return normal & ((k - _X_MIN).view(np.uint64) <= _P_MAX) & ((k - 17 - e).view(np.uint64) <= 62)


def _scaled(m, e, k):
    """floor(y) for y = m 5^p 2^(p+e), p = 16 - k, and the bits of its
    fraction at the top of a word; p in [0, 27] and the shift -(p+e) in
    [1, 63].  The 128-bit product is formed from 32-bit limbs, each partial
    product in the array of a limb it no longer needs."""
    m = m.view(np.uint64)
    f_lo = _POW5[16 - k]
    f_hi = f_lo >> _SHIFT32
    f_lo &= _LO32
    m_lo, m_hi = m & _LO32, m >> _SHIFT32
    low = m_lo * f_lo
    mid = np.multiply(m_hi, f_lo, out=f_lo)
    mid += np.multiply(m_lo, f_hi, out=m_lo)  # < 2^63 + 2^53
    del m_lo
    hi = np.multiply(m_hi, f_hi, out=m_hi)
    del f_hi
    lo = mid << _SHIFT32
    lo += low
    hi += lo < low
    del low
    mid >>= _SHIFT32
    hi += mid
    del mid
    shift = k - 16
    shift -= e
    shift = shift.view(np.uint64)
    back = np.subtract(np.uint64(64), shift)
    hi <<= back
    hi |= np.right_shift(lo, shift, out=shift)
    lo <<= back
    return hi.view(np.int64), lo


def _split(values: np.ndarray):
    """The kernel's view of a float array: the values x, their bits, m, e, k,
    where they are covered, and floor(y) with its fraction bits.  Values not
    covered are computed as 1.0, to be replaced by the fallback.  Each
    intermediate array is formed in place where it can be and freed once
    used, so the kernel's scratch stays a few words per value."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = x.view(np.int64)
    e = bits >> 52
    e &= 0x7FF
    normal = e != 0
    normal &= e != 0x7FF
    e -= 1075
    m = bits & ((1 << 52) - 1)
    m |= 1 << 52
    # log10 sees only normal values; the others read 1.
    k = np.abs(x, where=normal, out=np.ones_like(x))
    np.log10(k, out=k)
    np.floor(k, out=k)
    k = k.astype(np.int64)
    ok = _covered(normal, k, e)
    if not ok.all():
        m[~ok], e[~ok], k[~ok] = _POWER_OF_TWO, -52, 0
    q, frac = _scaled(m, e, k)
    # log10 can miss floor(log10 |x|) by one next to a power of ten; floor(y)
    # then has 16 or 18 digits, and that k is redone.  One unsigned
    # comparison: q - 10^16 wraps to above 9 10^16 for q below 10^16.
    off = np.flatnonzero((q - _E16).view(np.uint64) >= _E17 - _E16)
    if off.size:
        k[off] += np.where(q[off] >= _E17, 1, -1)
        redo = _covered(normal[off], k[off], e[off])
        ok[off] = redo
        keep, lost = off[redo], off[~redo]
        q[keep], frac[keep] = _scaled(m[keep], e[keep], k[keep])
        m[lost], e[lost], k[lost] = _POWER_OF_TWO, -52, 0
        q[lost], frac[lost] = _E16, 0
    return x, bits, m, e, k, ok, q, frac


def _digits(n):
    """The 16 digits of each n in [0, 10^16), leading zeros included, as two
    little-endian words of ASCII (digit i at byte i), and the trailing zeros
    of the four 4-digit groups they come from, most significant first (4 for
    0000), one byte each.  The words are formed one at a time, and `n` is
    overwritten."""
    zeros = np.empty((4, n.size), np.uint8)
    high = n // 10**8
    n -= high * 10**8
    words = []
    for i, half in enumerate((high, n)):
        group = half // 10**4
        half -= group * 10**4  # the half's lower group
        word = _GROUP_TEXT.take(group, mode="clip")
        _GROUP_TRAILING.take(group, out=zeros[2 * i], mode="clip")
        group = _GROUP_TEXT.take(half, mode="clip")
        group <<= np.uint64(32)
        word |= group
        _GROUP_TRAILING.take(half, out=zeros[2 * i + 1], mode="clip")
        words.append(word)
    return words[0], words[1], zeros


def _fill(cells, values, ok, fallback):
    """Write ``fallback(v)`` into the cell of each value where ``ok`` is false."""
    missed = np.flatnonzero(~ok)
    if missed.size:
        width = cells.shape[1]
        text = np.array([fallback(v) for v in values[missed].tolist()], dtype=f"S{width}")
        cells[missed] = text.view(np.uint8).reshape(-1, width)
    return cells


def _digit_words(bits, n, k):
    """The layout key of each cell, (sign, decimal exponent, digits kept),
    and the three words of D, the 17-digit numbers n, which are overwritten:
    the lead digit at byte 7, then the other 16; the word after them is
    zero."""
    lead = n // _E16
    n -= lead * _E16
    high, low, tz = _digits(n)
    trailing = tz[3] + (tz[3] == 4) * (tz[2] + (tz[2] == 4) * (tz[1] + (tz[1] == 4) * tz[0]))
    del tz
    key = (bits < 0) * ((_X_MAX - _X_MIN + 1) * 17)
    key += (k - _X_MIN) * 17 + 16
    key -= trailing
    lead += ord("0")
    lead = lead.view(_WORD)
    lead <<= np.uint64(56)
    return key, [lead, high, low]


def _lay_out(x, ok, fallback, key, digits) -> np.ndarray:
    """The cells of the digit words `digits` (_digit_words), by the layout
    table's entries `key`; ``fallback`` writes each value where ``ok`` is
    false.

    The layout is gathered from the table's rows one field at a time, as the
    word it builds needs it, and each word of `digits` is overwritten and
    dropped once used, so the kernel holds a few words per value beside the
    cells, not all 13 fields."""
    # Every key and group is in its table's range: "clip" skips the bounds
    # test, and with `out` the copy numpy buffers it through under "raise".
    right1, right2 = _SHIFTS[0].take(key, mode="clip"), _SHIFTS[2].take(key, mode="clip")
    cells = np.empty((x.size, 3), _WORD)
    field = np.empty(x.size, _WORD)
    left = np.empty(x.size, np.uint8)
    for w in range(3):
        here = digits[w]
        word = here >> right1
        part = np.right_shift(here, right2, out=here)
        if w < 2:  # the last word's next is the zero word
            ahead = digits[w + 1]
            word |= np.left_shift(ahead, _SHIFTS[1].take(key, out=left, mode="clip"), out=field)
            part |= np.left_shift(ahead, _SHIFTS[3].take(key, out=left, mode="clip"), out=field)
        word &= _LAYOUT[w].take(key, out=field, mode="clip")
        part &= _LAYOUT[3 + w].take(key, out=field, mode="clip")
        word |= part
        word |= _LAYOUT[6 + w].take(key, out=field, mode="clip")
        cells[:, w] = word
        digits[w] = here = part = word = None  # this word's arrays are done
    return _fill(cells.view(np.uint8), x, ok, fallback)


def render(values: np.ndarray, fallback) -> np.ndarray:
    """The ``(len(values), WIDTH)`` uint8 cells of ``format(v, '.17g')``.

    ``fallback(v)`` gives the text of each value the kernel does not cover.
    """
    x, bits, m, e, k, ok, q, frac = _split(values)
    del m, e
    # Up past half a unit, or at half a unit when q is odd: round half to even.
    q += frac > _HALF - (q.view(np.uint64) & np.uint64(1))
    del frac
    # No covered value lies within half a unit of its 17th digit below a power
    # of ten, so round_half_even(y) never reaches 10^17.
    key, digits = _digit_words(bits, q, k)
    del q, k
    return _lay_out(x, ok, fallback, key, digits)


def _shortest(values):
    """The values, their bits, the 17-digit numbers n of their shortest
    digits with decimal exponents k, and where the kernel covers them; its
    scratch is freed before the layout runs."""
    x, bits, m, e, k, ok, q, frac = _split(values)
    ok &= m != _POWER_OF_TWO
    # u = 5^p / 2^t, t = 1 - e - p in [2, 64], as whole + part / 2^64.
    five = _POW5[16 - k]
    t = (k - 15 - e).view(np.uint64)
    del e
    whole = ((five >> (t - np.uint64(1))) >> np.uint64(1)).view(np.int64)
    part = np.left_shift(five, np.subtract(np.uint64(64), t, out=t), out=five)
    del five, t
    # The interval [lo, hi] = y ± u: integer parts and fraction bits.
    hi_part = frac + part
    hi = q + whole
    hi += hi_part < frac
    lo = q - whole
    lo -= frac < part
    del whole
    lo_part = np.subtract(frac, part, out=part)
    del part
    # Round half even reads an end of the interval back as x when m is even.
    closed = (m & 1) == 0
    del m
    first = lo + ~(closed & (lo_part == 0))  # the first and last integers in it
    del lo, lo_part
    last = hi - (~closed & (hi_part == 0))
    del hi, hi_part, closed
    # The fewest digits are those of a multiple of the highest power of ten
    # 10^j in the interval, the one nearest y (two as near are a tie).  The
    # interval is 2u < 23 wide, so a multiple of 100 in it is the only one
    # and the one of 10^j for every j >= 2; rounding y to 100 finds it, and
    # its trailing zeros, counted with the digits, give its length.
    j = (last // 10 * 10 >= first).view(np.int8) + (last // 100 * 100 >= first)
    del first, last
    power = _POW10[j]
    del j
    quot = q // power
    q -= quot * power  # twice the remainder, and the top fraction bit
    q *= 2
    q += (frac >> np.uint64(63)).view(np.int64)
    twice = q
    rest = np.bitwise_and(frac, _HALF - np.uint64(1), out=frac)
    half = twice == power
    ok &= ~(half & (rest == 0))  # a tie
    half &= rest != 0
    half |= twice > power
    del q, twice, frac, rest
    quot += half
    quot *= power
    n = quot
    del quot, half, power
    carry = n == _E17  # "1" at the next decimal exponent
    k += carry
    n[carry] = _E16
    ok &= k <= 15
    return x, bits, n, k, ok


def render_shortest(values: np.ndarray, fallback) -> np.ndarray:
    """The ``(len(values), WIDTH)`` uint8 cells of ``repr(float(v))``.

    ``fallback(v)`` gives the text of each value the kernel does not cover;
    besides the magnitudes ``render`` leaves to it, those are the values
    whose significand is a power of two (their lower neighbour is half as
    near, so the interval is not symmetric), the values exactly halfway
    between two candidates of the shortest length, and those whose digits
    round up to ``1e+16``.
    """
    x, bits, n, k, ok = _shortest(values)
    # repr ends a whole number in ".0": a fixed-form cell with no digit
    # after the point, that is one whose digits after the first k + 1 are 0.
    integral = np.flatnonzero(ok & (n % _POW10[np.minimum(16 - k, 17)] == 0))
    end = (bits[integral] < 0) + k[integral] + 1
    key, digits = _digit_words(bits, n, k)
    del n, k
    cells = _lay_out(x, ok, fallback, key, digits)
    cells[integral, end] = ord(".")
    cells[integral, end + 1] = ord("0")
    return cells


def render_integers(values: np.ndarray, fallback) -> np.ndarray:
    """The ``(len(values), INT_WIDTH)`` uint8 cells of ``str(int(v))`` for an
    integer array.

    Values in [0, 10^16) are laid out from the 4-digit group table: the 16
    digits with their leading zeros, shifted left by one byte per zero.
    ``fallback(v)`` gives the text of every other value.
    """
    v = np.ascontiguousarray(values).ravel()
    ok = (v >= 0) & (v < _E16)
    n = np.where(ok, v, 0).astype(np.int64)
    zeros = 15 - _POW10[1:16].searchsorted(n, side="right")  # leading zeros of the 16 digits
    head, tail, _ = _digits(n)
    wide = zeros >= 8  # the text starts in the second word
    head = np.where(wide, tail, head)
    tail = np.where(wide, 0, tail)
    shift = ((zeros & 7) * 8).astype(_WORD)
    cells = np.zeros((v.size, 3), _WORD)
    cells[:, 0] = (head >> shift) | ((tail << np.uint64(1)) << (np.uint64(63) - shift))
    cells[:, 1] = tail >> shift
    return _fill(cells.view(np.uint8)[:, :INT_WIDTH], v, ok, fallback)
