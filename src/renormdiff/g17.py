"""Exact ``'%.17g'`` text of a float64 array, without a Python object per value.

A value ``x = m 2^e`` (``m`` the 53-bit significand) with ``k = floor(log10
|x|)`` has the 17 significant digits ``N = round_half_even(m 5^p 2^(p+e))``,
``p = 16 - k``.  For ``p`` in [0, 27] and a right shift ``-(p + e)`` in
[1, 63], that is for ``1e-11 <= |x| < 2^51`` (about 2.25e15), the product
fits in 128 bits and is formed exactly from 32-bit limbs in uint64.  Every
other value (zero, subnormals, nan, infinities, other magnitudes) is left to a
fallback that formats one value at a time.

A cell is the text NUL-padded to ``WIDTH`` bytes, the widest ``'%.17g'`` of a
float64.  The 17 digits of ``N`` are laid out as bytes 7..23 of three
little-endian uint64 words.  One row of the layout table, keyed by (sign,
decimal exponent, number of digits kept), places them in the cell: the digits
before the point move by one byte shift, those after it by another, each
under a mask, and the sign, point, leading zeros and exponent are added.
"""

from __future__ import annotations

import numpy as np

WIDTH = 24  # bytes of one cell: '-2.2250738585072014e-308' is the widest text

_WORD = np.dtype("<u8")  # a cell's bytes in memory order are its words' bytes
_P_MAX = 27  # 5^27 < 2^63, so m 5^p < 2^116
_X_MIN, _X_MAX = -11, 16  # decimal exponents k with 16 - k in [0, 27]
_POW5 = np.uint64(5) ** np.arange(_P_MAX + 1, dtype=np.uint64)
_LO32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_HALF = np.uint64(1 << 63)
_E16, _E17 = 10**16, 10**17


def _group_tables():
    """Each 4-digit group as its 4 ASCII bytes packed in a uint32, and its
    count of trailing zeros (4 for 0000), from the 100 pairs of digits."""
    pair = np.arange(100, dtype=np.uint8)
    text = np.stack([pair // 10, pair % 10], axis=1) + np.uint8(ord("0"))
    zeros = (pair % 10 == 0).astype(np.uint8) + (pair == 0)
    groups = np.concatenate([np.repeat(text, 100, axis=0), np.tile(text, (100, 1))], axis=1)
    trailing = np.tile(zeros, 100) + (np.tile(pair, 100) == 0) * np.repeat(zeros, 100)
    return np.ascontiguousarray(groups).view("<u4").ravel(), trailing.astype(np.uint8)


_GROUP_TEXT, _GROUP_TRAILING = _group_tables()


def _layout_rows(x: np.ndarray, form: str) -> np.ndarray:
    """The layout rows of the decimal exponents x, which share one ``%g``
    form ("below one", "fixed" or "exponent"), per sign and number of digits
    kept: masks of the digits before and after the point and the constant
    bytes (3 words each), then the byte shifts a1 and a2 as bit counts 8a and
    64 - 8a.  A cell is ``(D >> a1 & mask1) | (D >> a2 & mask2) | constant``,
    D read as one little-endian number."""
    sign = np.arange(2)[:, None, None, None]
    x = x[None, :, None, None]
    kept = np.arange(1, 18)[None, None, :, None]
    pos = np.arange(WIDTH)[None, None, None, :]
    if form == "below one":  # "0.", -x-1 zeros, the digits
        first = sign + 1 - x
        mask1 = (pos >= first) & (pos < first + kept)
        mask2 = np.zeros_like(mask1)
        const = np.where((pos >= sign) & (pos < first), ord("0"), 0)
        const = np.where(pos == sign + 1, ord("."), const)
    else:  # the digits, a point after digit `before` when more follow, any exponent
        first = sign
        before = x if form == "fixed" else 0
        point = sign + before + 1
        after = kept > before + 1
        mask1 = (pos >= sign) & (pos < point)
        mask2 = after & (pos > point) & (pos <= sign + kept)
        const = np.where(after & (pos == point), ord("."), 0)
        if form == "exponent":  # "e-dd": x is from -11 to -5 here
            at = np.where(after, sign + kept + 1, sign + 1)
            const = np.where(pos == at, ord("e"), const)
            const = np.where(pos == at + 1, ord("-"), const)
            const = np.where(pos == at + 2, -x // 10 + ord("0"), const)
            const = np.where(pos == at + 3, -x % 10 + ord("0"), const)
    const = np.where((sign == 1) & (pos == 0), ord("-"), const)
    shape = (2, x.shape[1], 17)
    rows = np.empty((*shape, 13), _WORD)
    parts = [np.broadcast_to(part, (*shape, WIDTH)) for part in (mask1 * 0xFF, mask2 * 0xFF, const)]
    rows[..., :9] = np.concatenate(parts, axis=-1).astype(np.uint8).view(_WORD)
    a1 = np.broadcast_to(7 - first[..., 0], shape)  # digit j sits at byte 7 + j of D
    a2 = np.broadcast_to(6 - sign[..., 0], shape)
    rows[..., 9:] = np.stack([8 * a1, 64 - 8 * a1, 8 * a2, 64 - 8 * a2], axis=-1)
    return rows


# (2 * 28 * 17, 13) words per key (sign, decimal exponent, digits kept).
_LAYOUT = np.concatenate([
    _layout_rows(np.arange(_X_MIN, -4), "exponent"),
    _layout_rows(np.arange(-4, 0), "below one"),
    _layout_rows(np.arange(0, _X_MAX + 1), "fixed"),
], axis=1).reshape(-1, 13)


def _covered(normal, k, e):
    """Where p = 16 - k is in [0, 27] and the shift k - 16 - e in [1, 63]."""
    return normal & ((k - _X_MIN).view(np.uint64) <= _P_MAX) & ((k - 17 - e).view(np.uint64) <= 62)


def _scaled(m, e, k):
    """floor(m 5^p 2^(p+e)) for p = 16 - k, and whether round-half-even
    rounds it up; p in [0, 27] and the shift -(p+e) in [1, 63]."""
    m = m.view(np.uint64)
    f = _POW5[16 - k]
    m_lo, m_hi = m & _LO32, m >> _SHIFT32
    f_lo, f_hi = f & _LO32, f >> _SHIFT32
    low = m_lo * f_lo
    mid = m_hi * f_lo
    mid += m_lo * f_hi  # < 2^63 + 2^53
    lo = low + (mid << _SHIFT32)
    hi = m_hi * f_hi
    hi += mid >> _SHIFT32
    hi += lo < low
    shift = (k - 16 - e).view(np.uint64)
    back = np.uint64(64) - shift
    q = (hi << back) | (lo >> shift)
    frac = lo << back  # the bits shifted out, at the top of a word
    up = (frac > _HALF) | ((frac == _HALF) & (q & np.uint64(1)).astype(bool))
    return q.view(np.int64), up


def render(values: np.ndarray, fallback) -> np.ndarray:
    """The ``(len(values), WIDTH)`` uint8 cells of ``format(v, '.17g')``.

    ``fallback(v)`` gives the text of each value the kernel does not cover.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = x.view(np.int64)
    biased = (bits >> 52) & 0x7FF
    normal = (biased != 0) & (biased != 0x7FF)
    m = (bits & ((1 << 52) - 1)) | (1 << 52)
    e = biased - 1075
    # log10 sees only normal values; the others read 1.
    k = np.floor(np.log10(np.abs(x, where=normal, out=np.ones_like(x)))).astype(np.int64)
    ok = _covered(normal, k, e)
    missed = not ok.all()
    if missed:  # computed as 1.0, replaced at the end
        m[~ok], e[~ok], k[~ok] = 1 << 52, -52, 0
    q, up = _scaled(m, e, k)
    # log10 can miss floor(log10 |x|) by one next to a power of ten; the
    # unrounded digits then number 16 or 18, and that k is redone.
    off = np.flatnonzero((q < _E16) | (q >= _E17))
    if off.size:
        k[off] += np.where(q[off] >= _E17, 1, -1)
        redo = _covered(normal[off], k[off], e[off])
        ok[off] = redo
        missed = missed or not redo.all()
        keep, lost = off[redo], off[~redo]
        q[keep], up[keep] = _scaled(m[keep], e[keep], k[keep])
        q[lost], up[lost], k[lost] = _E16, False, 0
    # No covered value lies within half a unit of its 17th digit below a power
    # of ten, so N never rounds up to 10^17.
    n = q + up

    lead = n // _E16
    rest = n - lead * _E16
    by8, by4 = rest // 10**8, rest // 10**4
    groups = np.empty((4, x.size), np.int64)  # the 4-digit groups after the lead digit
    groups[0] = by8 // 10**4
    groups[1] = by8 - groups[0] * 10**4
    groups[2] = by4 - by8 * 10**4
    groups[3] = rest - by4 * 10**4

    packed = _GROUP_TEXT[groups].astype(_WORD)
    # D: the lead digit at byte 7, then the groups, and a zero word after them.
    digits = [(lead + ord("0")).astype(_WORD) << 56, packed[0] | packed[1] << 32,
              packed[2] | packed[3] << 32, np.zeros_like(packed[0])]
    tz = _GROUP_TRAILING[groups]
    trailing = tz[3] + (tz[3] == 4) * (tz[2] + (tz[2] == 4) * (tz[1] + (tz[1] == 4) * tz[0]))
    key = (bits < 0) * ((_X_MAX - _X_MIN + 1) * 17)
    key += (k - _X_MIN) * 17 + 16
    key -= trailing
    layout = _LAYOUT.take(key, axis=0)
    right1, left1, right2, left2 = layout[:, 9], layout[:, 10], layout[:, 11], layout[:, 12]

    cells = np.empty((x.size, 3), _WORD)
    for w in range(3):
        here, ahead = digits[w], digits[w + 1]
        word = ((here >> right1) | (ahead << left1)) & layout[:, w]
        word |= ((here >> right2) | (ahead << left2)) & layout[:, 3 + w]
        word |= layout[:, 6 + w]
        cells[:, w] = word
    cells = cells.view(np.uint8)

    if missed:
        idx = np.flatnonzero(~ok)
        text = np.array([fallback(v) for v in x[idx].tolist()], dtype=f"S{WIDTH}")
        cells[idx] = text.view(np.uint8).reshape(-1, WIDTH)
    return cells
