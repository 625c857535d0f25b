"""The CSV cell kernel: the text of a float64 table's CSV rows, each cell its
repr, byte for byte, made in numpy for the whole table at once.

`csv_text` is `numkit.write_csv_rows`'s formatter.  A finite cell with
1e-9 <= |x| < 1e9 gets the shortest digits that read back as it by Ryu's
digit removal (U. Adams, "Ryu: fast float-to-string conversion", PLDI
2018) on exact 128-bit integer products, an exact half rounded to even,
and is laid out as repr lays it out; +-0.0 is laid out directly; NaN,
infinities, subnormals and magnitudes outside that range go through repr
itself.  Every uint64 operand is a numpy uint64: numpy 1.x promotes uint64
with a Python int to float64.  It is a module of its own because, without a
bytecode cache, the interpreter compiles each imported module whole, and
the memory that takes grows with the module: in `numkit` this code raised
the peak resident set of the benchmark's passes by about 1 MB.
"""

from __future__ import annotations

import math

import numpy as np

# A float64 x with 1e-9 <= |x| < 1e9 is m * 2^(b - 1075) for its 53-bit
# significand m and biased exponent b, 993 <= b <= 1052.  Per b, k puts
# x * 10^k in [2.4e17, 4.8e18) for the whole binade, so that
# x * 10^k = m * 5^k / 2^s with 9 <= k <= 27 (so 5^k < 2^63) and 14 <= s <= 55:
# vr, its floor, has 18 or 19 digits, the rounding interval around it is 40
# to 530 units wide, and its ends, (4m +- 2) * 5^k / 2^(s + 2) ((4m - 1) below
# the bottom of a binade), odd over a power of two, are never integers.
_CELL_MIN, _CELL_MAX = 1e-9, 1e9
_B0 = 993
# Per b from _B0 on: k = ceil(log10(2.4e17) - (b - 1023) * log10(2)), the
# shift s, 5^k, and the interval's half-widths scaled by 4 (2 * 5^k above,
# at index 2 * (b - _B0); 5^k below at a binade's bottom, at index
# 2 * (b - _B0) + 1) as quotient and remainder by 2^(s + 2).  Built from
# Python ints: 60 exponents, and no numpy code to page in at import.
_K = [math.ceil(math.log10(2.4e17) - (b - 1023) * math.log10(2.0)) for b in range(_B0, 1053)]
_SHIFT = [1075 - b - k for b, k in zip(range(_B0, 1053), _K)]
_HALF_Q, _HALF_R = (np.array(v, dtype=np.uint64) for v in zip(*(
    divmod(w, 4 << s) for s, k in zip(_SHIFT, _K) for w in (2 * 5**k, 5**k))))
_POW5 = np.array([5**k for k in _K], dtype=np.uint64)
_K, _SHIFT = np.array(_K), np.array(_SHIFT, dtype=np.uint64)
_POW10 = np.array([10**j for j in range(20)], dtype=np.uint64)
_TIE = np.array([0] + [5 * 10**j for j in range(19)], dtype=np.uint64)   # 5 * 10^(r - 1)
_M32 = np.uint64(0xFFFFFFFF)
# a cell's text is 40 bytes, NUL where it has no character, as ten <u4 words:
# 2 pads, sign, 9 integer digits, ".", 20 fraction digits, "e-0N",
# separator, 2 pads; _QUADS[n] is the four digit characters of 0 <= n < 10^4,
# two byte pairs of the digits of 0 to 99
_WORDS = 10
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), "<u2").astype(np.uint32)
_QUADS = (_PAIRS[:, None] | _PAIRS << np.uint32(16)).ravel()
_DOT_ZEROS, _EXPONENT = np.frombuffer(b".0000e-0", "<u4")
_SEPARATORS = np.array([ord(","), ord("\n")], dtype=np.uint32) << np.uint32(8)
# the bytes a cell's text keeps (0xFF) or drops (0), as <u4 words, for each
# layout: row (ni * 21 + nf) * 2 + e for ni integer digits, nf fraction
# digits and e the exponent form
_CELL_MASKS = np.frombuffer(b"".join(
    b"\0\0\xff" + b"\0" * (9 - ni) + b"\xff" * ni + (b"\xff" if nf else b"\0")
    + b"\0" * (20 - nf) + b"\xff" * nf + (b"\xff" * 4 if e else b"\0" * 4) + b"\xff\0\0"
    for ni in range(10) for nf in range(21) for e in range(2)), "<u4").reshape(-1, _WORDS)


def _shortest(a: np.ndarray):
    """The shortest digits that read back as each a, in the cell kernel's
    range: (d, n, e) with a's repr the n-digit integer d times 10^e.

    This is Ryu's digit removal with exact 128-bit products from 32-bit
    limbs: vr, vp and vm are the floors of x * 10^k and of the interval's
    ends; r digits go where a multiple of 10^r lies in (vm, vp] and none of
    10^(r+1), and the digits are rounded on what is removed, an exact half
    to even.  Since the ends are never integers, their inclusion (the
    significand's parity) changes nothing."""
    bits = a.view(np.uint64)
    b = (bits >> np.uint64(52)).astype(np.intp) - _B0
    low = bits & np.uint64((1 << 52) - 1)
    m = low | np.uint64(1 << 52)
    p5, s = _POW5[b], _SHIFT[b]
    m0, m1, p0, p1 = m & _M32, m >> np.uint64(32), p5 & _M32, p5 >> np.uint64(32)
    p00 = m0 * p0
    mid = m0 * p1 + m1 * p0 + (p00 >> np.uint64(32))
    lo = (mid << np.uint64(32)) | (p00 & _M32)
    hi = m1 * p1 + (mid >> np.uint64(32))
    vr = (hi << (np.uint64(64) - s)) | (lo >> s)
    frac = (lo - ((lo >> s) << s)) << np.uint64(2)   # the bits shifted out, scaled by 4
    s += np.uint64(2)
    b *= 2
    vp = vr + _HALF_Q[b] + ((frac + _HALF_R[b]) >> s)
    b += low == 0
    vm = vr - _HALF_Q[b] - (frac < _HALF_R[b])
    # r is the largest j with vp mod 10^j < vp - vm; that width is below 10^4,
    # so for j >= 4 it takes vp's last 4 digits below it and the next j - 4 zero
    width = (vp - vm).astype(np.uint32)
    vp4 = vp // np.uint64(10000)
    last4 = (vp - vp4 * np.uint64(10000)).astype(np.uint32)
    r = (1 + (last4 - last4 // np.uint32(100) * np.uint32(100) < width).astype(np.intp)
         + (last4 - last4 // np.uint32(1000) * np.uint32(1000) < width))
    more = np.flatnonzero(last4 < width)
    if len(more):
        # the zeros ending vp4 (< 2^49, exact as a float: a quotient by 10^j
        # is whole only when it is)
        v, r4 = vp4[more].astype(float), np.full(len(more), 4)
        for j in (8, 4, 2, 1):
            t = v / 10.0 ** j
            whole = t == np.floor(t)
            v = np.where(whole, t, v)
            r4 += j * whole
        r[more] = r4
    p = _POW10[r]
    d = vr // p
    dp = d * p
    rest, tie = vr - dp, _TIE[r]
    exact = frac == 0
    d += (rest > tie) | ((rest == tie) & ~(exact & ((d & np.uint64(1)) == 0))) | (vm >= dp)
    # d has vr's digits less the r removed, but at least 1: the d = 0 of a vr
    # just below a power of ten, whose r is all its digits, rounds up to 1
    n = np.maximum(18 + (vr >= _POW10[18]) - r, 1)
    return d, n, r - _K[b >> 1]


def _cell_words(x: np.ndarray) -> np.ndarray:
    """The (len(x), _WORDS) <u4 text of each cell, 0.0 or 1e-9 <= |x| < 1e9,
    without its separator: repr's layout, positional from 1e-4 on and
    d.ddde-0N below it."""
    a = np.abs(x)
    zero = a == 0
    a[zero] = 1.0
    d, n, e = _shortest(a)
    d[zero] = 0
    point = n + e                  # digits before the point (repr's decpt)
    sci = point < -3
    nf = np.where(sci, n - 1, -e)  # fraction digits, before 0 -> 1 for ".0"
    div = _POW10[np.clip(nf, 0, 19)]
    whole = d // div
    frac = d - whole * div
    whole = (whole * _POW10[np.maximum(-nf, 0)]).astype(np.uint32)
    ni = np.where(sci, 1, np.maximum(point, 1))
    nf = np.where(sci, nf, np.maximum(nf, 1))
    words = np.empty((len(x), _WORDS), dtype="<u4")
    w4 = whole // np.uint32(10000)
    w8 = w4 // np.uint32(10000)
    words[:, 0] = (np.signbit(x).astype(np.uint32) * np.uint32(ord("-") << 16)
                   | (w8 + np.uint32(ord("0"))) << np.uint32(24))
    words[:, 1] = _QUADS[w4 - w8 * np.uint32(10000)]
    words[:, 2] = _QUADS[whole - w4 * np.uint32(10000)]
    words[:, 3] = _DOT_ZEROS
    f1 = frac // np.uint64(10)
    words[:, 8] = _EXPONENT + (frac - f1 * np.uint64(10)).astype(np.uint32)
    f9 = (f1 // np.uint64(10 ** 8)).astype(np.uint32)
    f1 = (f1 - f9.astype(np.uint64) * np.uint64(10 ** 8)).astype(np.uint32)
    for at, part in ((4, f9), (6, f1)):
        q = part // np.uint32(10000)
        words[:, at] = _QUADS[q]
        words[:, at + 1] = _QUADS[part - q * np.uint32(10000)]
    words[:, 9] = ((1 - point) & 15).astype(np.uint32) + np.uint32(ord("0"))
    words &= _CELL_MASKS.take((ni * 21 + nf) * 2 + sci, axis=0)
    return words


def csv_text(table: np.ndarray) -> str:
    """The CSV rows of a 2-D float64 table, each cell's repr.  A run of
    bit-equal cells in a column is formatted once; cells outside the kernel's
    range (NaN, infinities, subnormals, |x| < 1e-9 or >= 1e9) by repr."""
    rows, cols = table.shape
    flat = table.T.ravel()
    bits = flat.view(np.uint64)
    first = np.empty(len(flat), dtype=bool)
    first[0] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    first[::rows] = True
    starts = np.flatnonzero(first)
    values = flat[starts]
    a = np.abs(values)
    kernel = (a < _CELL_MAX) & ((a >= _CELL_MIN) | (a == 0))
    if kernel.all():
        words = _cell_words(values)
    else:
        words = np.zeros((len(values), _WORDS), dtype="<u4")
        cells = np.flatnonzero(kernel)
        words[cells] = _cell_words(values[cells])
        cells = np.flatnonzero(~kernel)
        text = b"".join(repr(v).encode().ljust(4 * _WORDS - 4, b"\0")
                        for v in values[cells].tolist())
        words[cells, :-1] = np.frombuffer(text, "<u4").reshape(len(cells), -1)
    words[:, -1] |= _SEPARATORS[(starts >= rows * (cols - 1)).view(np.uint8)]
    order = (np.cumsum(first) - 1).reshape(cols, rows).T.ravel()
    return words.take(order, axis=0).tobytes().translate(None, b"\0").decode("ascii")
