"""Byte-exact ``%.17g`` CSV rows from float blocks, a chunk per call.

The formatter behind :func:`rigidmem.integrators.write_trajectory_csv`,
which imports it on its first call: ``import rigidmem`` neither compiles
this module nor builds its tables.  The bytes are those of
``"%.17g" % x`` for every value.  ±0 and every x with
1e-250 <= |x| <= 1e250 go through array passes:

1. the decimal exponent e = floor(log10|x|), from ``np.log10`` and
   corrected by exact comparisons with 10^e and 10^(e+1);
2. P = |x|·10^(16-e), in [1e16, 1e17), as the double-double ph + pt: a
   Dekker two-product of |x| with the high part of 10^(16-e), plus |x|
   times its low part;
3. the 17 digits D = ph + rint(pt), where a rounding up to 1e17 carries
   into e;
4. ``%g``'s text: the sign, fixed notation for -4 <= e < 17 and
   exponential otherwise, trailing zeros and a bare ``.`` dropped, as one
   gather per value from its source row (digits, exponent, constants)
   through a table of layouts, one per notation and digit count;
5. each value's text padded with zero bytes to a fixed width, and the
   padding removed in one pass.

NaN, ±inf, the other values outside that range (subnormals included),
and values whose P lies within 1e-6 of a half-integer (every exact tie
among them) are formatted by ``%`` one at a time.

:func:`rewritten` opens the artifact, for the trajectory and for the
header-only file of a run with no steps.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import stat

import numpy as np

#: the power-of-ten tables span 10^-_SPAN .. 10^_SPAN: a value in the
#: array range reads 10^e for e >= -252 (log10 an ulp low, then one step
#: down) and 10^(16 - e) for e >= -251
_SPAN = 267

#: bits of 10^-n past its leading one that the division of
#: :func:`_powers_of_ten` keeps: hi takes 53 of them, and lo at least 55
#: more unless 10^-n lay within 2^-125 of a double
_GUARD = 180

#: |x| within these bounds goes through the array passes
_LOW, _HIGH = 1e-250, 1e250

#: Dekker's splitting constant 2^27 + 1
_SPLIT = 134217729.0

#: bytes per value: 24 characters at most and the separator
_WIDTH = 25

#: values per gather of the layouts: bounds its (values, _WIDTH) index
_GATHER = 1024

# Columns of a value's 32-byte source row.  Bytes 0..23 hold D as six
# 3-digit groups, each written as "%03d" plus a zero byte: the first group
# holds D's two leading digits, so byte 0 is always "0" and byte 3 zero.
_DIGITS = (1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17, 18, 20, 21, 22)
_ZERO, _PAD = 0, 3
_EXP_SIGN, _EXP_DIGITS = 24, (25, 26, 27)
_MINUS, _DOT, _E, _SEP = 28, 29, 30, 31
_ROW = 32

#: D's digits before group (k, h), the k-th 3-digit group of D's high
#: (h = 0) or low (h = 1) nine digits; the first group's "0" counts -1
_GROUP_OFFSET = np.array([[-1, 8], [2, 11], [5, 14]])[:, :, None]


def _layout(shape: int, sig: int) -> list[int]:
    """Source columns of one value's text: notation ``shape`` (0..20 fixed
    with e = shape - 4, 21 and 22 exponential with 2 and 3 exponent
    digits) and ``sig`` significant digits."""
    digits = list(_DIGITS)
    cols = [_MINUS]
    if shape > 20:
        cols += digits[:1] + ([_DOT] + digits[1:sig] if sig > 1 else [])
        cols += [_E, _EXP_SIGN, *_EXP_DIGITS[22 - shape:]]
    elif shape < 4:
        cols += [_ZERO, _DOT] + [_ZERO] * (3 - shape) + digits[:sig]
    else:
        point = shape - 3
        cols += digits[:point]
        if sig > point:
            cols += [_DOT] + digits[point:sig]
    return cols + [_SEP]


def _nearest(q: int, s: int) -> float:
    """The double nearest (q + f) * 2^-s for some 0 < f < 1, where q has
    at least 55 bits: the lowest bit of q, set, stands in for f."""
    return math.ldexp(float(q | 1), -s)


def _powers_of_ten():
    """10^k for |k| <= _SPAN as hi + lo, both rounded to nearest: hi from
    10^k and lo from 10^k - hi.  A power 10^n is an integer, so both are
    conversions of integers.  Its inverse takes one integer division,
    10^-n = (q + r / 10^n) * 2^-s, whose remainder r > 0 makes the
    rounding of q to hi and of q - hi * 2^s to lo sticky."""
    hi, lo = [0.0] * (2 * _SPAN + 1), [0.0] * (2 * _SPAN + 1)
    power = 1
    for n in range(_SPAN + 1):
        h = float(power)
        hi[_SPAN + n], lo[_SPAN + n] = h, float(power - int(h))
        if n:
            s = power.bit_length() + _GUARD
            q = (1 << s) // power
            h = _nearest(q, s)
            d = q - int(math.ldexp(h, s))
            hi[_SPAN - n] = h
            lo[_SPAN - n] = (_nearest(d, s) if d >= 0
                             else -_nearest(-d - 1, s))
        power *= 10
    return np.array(hi), np.array(lo)


@functools.cache
def _tables():
    """10^k as hi + lo (hi also in Dekker halves) for |k| <= _SPAN; the
    3-digit groups' characters and last nonzero digit; the exponents'
    characters; the layouts; and each exponent's first layout row."""
    hi, lo = _powers_of_ten()
    split = hi * _SPLIT
    hi_h = split - (split - hi)
    pow10 = (hi, lo, hi_h, hi - hi_h)
    groups = [b"%03d\0" % g for g in range(1000)]
    group_chars = np.frombuffer(b"".join(groups), "<u4")
    group_last = np.array([len(g.rstrip(b"0\0")) or -64 for g in groups])
    exps = range(-_SPAN, _SPAN + 1)
    exp_chars = np.frombuffer(
        b"".join([b"%c%03d" % (b"-+"[e >= 0], abs(e)) for e in exps]), "<u4")
    layouts = np.full((23 * 17, _WIDTH), _PAD, dtype=np.intp)
    for shape in range(23):
        for sig in range(1, 18):
            cols = _layout(shape, sig)
            layouts[shape * 17 + sig - 1, :len(cols)] = cols
    first_row = np.array([17 * (e + 4 if -4 <= e < 17 else 21 + (abs(e) > 99))
                          - 1 for e in exps])
    return pow10, group_chars, group_last, exp_chars, layouts, first_row


@contextlib.contextmanager
def rewritten(path):
    """The file ``path`` as a binary writer that rewrites it in place.

    The file is opened without truncation (created with mode 0o666 less
    the umask, as ``open(path, "wb")`` does) and written from its start;
    on leaving the block, also by an exception, a regular file is cut at
    the writer's position, so it holds exactly the bytes written.  An
    existing file's blocks are overwritten rather than freed, which
    spares the truncating open its wait on their write-back.  Any other
    file (``/dev/null``, a pipe) cannot be cut and is left as it is.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


class RowFormatter:
    """Formats (m, ncols) float blocks, m <= ``rows``, as CSV lines.

    Holds one source row per value of the largest block, with the
    constant characters and each column's separator written once.
    """

    def __init__(self, ncols: int, rows: int):
        n = ncols * rows
        self._src = np.zeros((n, _ROW), np.uint8)
        self._src[:, _DOT] = ord(".")
        self._src[:, _E] = ord("e")
        self._src[:, _SEP] = ord(",")
        self._src[ncols - 1::ncols, _SEP] = ord("\n")
        self._base = (np.arange(n) * _ROW)[:, None]
        self._index = np.empty((min(n, _GATHER), _WIDTH), np.intp)

    def __call__(self, block: np.ndarray) -> np.ndarray:
        """The bytes of ``block``'s lines as a flat uint8 array."""
        x = np.ascontiguousarray(block, dtype=float).ravel()
        n = x.size
        src = self._src[:n]
        key, fallback = _fill(src, x)
        layouts = _tables()[4]
        out = np.empty((n, _WIDTH), np.uint8)
        for lo in range(0, n, _GATHER):
            part = slice(lo, min(lo + _GATHER, n))
            index = self._index[:part.stop - lo]
            layouts.take(key[part], axis=0, out=index, mode="clip")
            index += self._base[part]
            src.take(index, out=out[part], mode="clip")
        rows = np.flatnonzero(fallback)
        for r, v in zip(rows.tolist(), x[rows].tolist()):
            text = b"%.17g%c" % (v, src[r, _SEP])
            out[r] = 0
            out[r, :len(text)] = np.frombuffer(text, np.uint8)
        out = out.ravel()
        return out[out != 0]


def _fill(src: np.ndarray, x: np.ndarray):
    """Write the digits, exponent and sign of every value of ``x`` into its
    row of ``src``; returns each value's layout row and whether it must be
    formatted by ``%``."""
    _, group_chars, group_last, exp_chars, _, first_row = _tables()
    ax = np.abs(x)
    zero = ax == 0
    fast = (ax >= _LOW) & (ax <= _HIGH)
    ax[~fast] = 1.0
    d, i, fallback = _digits(ax)
    fallback |= ~(fast | zero)
    d[zero] = 0
    i[zero] = _SPAN
    # g[k, h]: the k-th 3-digit group of D's high (h = 0) and low nine
    # digits
    g = np.empty((3, 2, x.size), np.intp)
    g[2, 0] = d // 10**9
    g[2, 1] = d - g[2, 0] * 10**9
    g[0] = g[2] // 10**6
    g[2] -= g[0] * 10**6
    g[1] = g[2] // 1000
    g[2] -= g[1] * 1000
    src[:, :24].view("<u4").reshape(-1, 2, 3)[:] = group_chars[g].T
    src[:, _EXP_SIGN:_MINUS].view("<u4")[:, 0] = exp_chars[i]
    np.multiply(np.signbit(x), np.uint8(ord("-")), out=src[:, _MINUS])
    sig = group_last[g]
    sig += _GROUP_OFFSET
    key = first_row[i]
    key += sig.reshape(6, -1).max(axis=0)
    key[zero] = first_row[_SPAN] + 1
    return key, fallback


def _digits(ax: np.ndarray):
    """17 digits D, exponent index e + _SPAN and near-tie flags of the
    positive normal values ``ax``."""
    hi, lo, hi_h, hi_l = _tables()[0]
    # log10 is within an ulp, so one step each way; ax < 10^e exactly when
    # ax - hi < lo, as lo has the sign of 10^e - hi and ax - hi is exact
    # wherever it could come near lo
    i = np.floor(np.log10(ax)).astype(np.intp)
    i += _SPAN
    i -= ax - hi[i] < lo[i]
    i += ax - hi[i + 1] >= lo[i + 1]
    j = 2 * _SPAN + 16 - i
    split = ax * _SPLIT
    ax_h = split - (split - ax)
    ax_l = ax - ax_h
    b_h, b_l = hi_h[j], hi_l[j]
    ph = ax * hi[j]
    pt = ((((ax_h * b_h - ph) + ax_h * b_l) + ax_l * b_h) + ax_l * b_l
          + ax * lo[j])
    r = np.rint(pt)
    # ph - 1e17 is exact wherever the sum can reach 0
    carry = (ph - 1e17) + r >= 0
    d = ph.astype(np.int64)
    d += r.astype(np.int64)
    d[carry] = 10**16
    i += carry
    return d, i, np.abs(pt - r) > 0.5 - 1e-6
