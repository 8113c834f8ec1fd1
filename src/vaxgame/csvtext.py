"""Exact ``'%.17g'`` text for float rows, as CSV lines, from one numpy kernel.

:func:`csv_rows` writes the bytes ``'%.17g' % x`` gives for every value
``x``, a comma after each and a newline after the last of each row.  A
finite ``x`` with ``1e-4 <= x < 1e16``, which "%.17g" prints in fixed
notation, gets its 17 significant digits from exact integer and
double-double arithmetic and is printed from ints; every other value
(zero, negatives, values outside that range, infinities, NaN) goes
through "%.17g" itself, inside the same format string.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["SLICE_ROWS", "csv_rows"]

# Callers format this many rows per call, so the temporaries stay small and
# of one size whatever the values are.
SLICE_ROWS = 16
# Dekker's splitting constant for doubles
_SPLIT = 2.0**27 + 1
# the template code of "%.17g"
_FALLBACK = 21


@functools.cache
def _powers():
    """``10**k`` for k in [0, 21] as doubles, exact there, with their Dekker split, and as int64."""
    scale = np.array([float(10**k) for k in range(22)])
    split = _SPLIT * scale
    scale_hi = split - (split - scale)
    return scale, scale_hi, scale - scale_hi, 10 ** np.arange(18, dtype=np.int64)


@functools.cache
def _templates():
    """The value templates, built on first use: template ``2*code``, plus one in the last column.

    Codes 0 to 3 print a value below one as "0.", that many zeros and "%d"
    over all its digits; code ``4 + e`` prints a value from one up as
    "%d.%0{e}d" over its integer part and its ``e`` fraction digits, or
    "%d" when ``e`` is 0; code 21 is "%.17g".  A template ends in a comma,
    or in a newline in the last column.
    """
    bodies = ["0." + "0" * zeros + "%d" for zeros in range(4)]
    bodies += ["%d"] + [f"%d.%0{e}d" for e in range(1, 17)] + ["%.17g"]
    return np.array([body + end for body in bodies for end in ",\n"], dtype=object)


def _decimal_digits(x: np.ndarray):
    """The 17 significant digits "%.17g" prints for each ``x`` it prints in fixed notation.

    Returns ``fast``, true where ``1e-4 <= x < 1e16``, and for those the
    decimal exponent ``X`` and the digits as one int64 ``D`` in
    ``[10**16, 10**17)``, rounded as dtoa rounds: ``x * 10**(16 - X)``
    rounded to an integer, ties to even.  Elsewhere ``X`` and ``D`` are
    those of a filler with no trailing zero.  Products go in place, so
    few temporaries are alive at once.
    """
    scale, scale_hi, scale_lo, _ = _powers()
    fast = (x >= 1e-4) & (x < 1e16)
    x = np.where(fast, x, np.pi)
    X = np.log10(x)
    X = np.floor(X, out=X).astype(np.int64)  # off by one at worst, mended below
    while True:
        # Dekker's TwoProduct: hi + lo == x * 10**(16 - X) exactly, with
        # lo = ((x_hi*s_hi - hi) + x_hi*s_lo + x_lo*s_hi) + x_lo*s_lo
        hi, s_hi, s_lo = scale[16 - X], scale_hi[16 - X], scale_lo[16 - X]
        hi *= x
        x_hi = _SPLIT * x
        x_hi -= x_hi - x
        lo = x_hi * s_hi
        lo -= hi
        lo += x_hi * s_lo
        x_lo = np.subtract(x, x_hi, out=x_hi)
        s_hi *= x_lo
        lo += s_hi
        s_lo *= x_lo
        lo += s_lo
        # is 10**16 <= hi + lo < 10**17?  Where hi is on an end, lo's sign decides
        below = hi <= 1e16
        above = hi >= 1e17
        if below.any() or above.any():
            below &= (hi < 1e16) | (lo < 0)
            above &= (hi > 1e17) | (lo >= 0)
            if below.any() or above.any():
                np.add(X, 1, out=X, where=above)
                np.subtract(X, 1, out=X, where=below)
                continue
        break
    # hi >= 2**53 is an even integer, so rint's ties to even are dtoa's
    D = hi.astype(np.int64)
    D += np.rint(lo, out=lo).astype(np.int64)
    # a D of 10**17 moves the decimal point; no double in range rounds that far up
    carry = D == 10**17
    D[carry] = 10**16
    np.add(X, 1, out=X, where=carry)
    return fast, X, D


def _strip_zeros(R: np.ndarray) -> np.ndarray:
    """Divide the trailing decimal zeros out of ``R`` in place; returns their counts."""
    flat = R.reshape(-1)
    zeros = np.zeros_like(flat)
    at = np.nonzero(np.divmod(flat, 10)[1] == 0)[0]
    if at.size:
        r, n = flat[at], zeros[at]
        for step in (16, 8, 4, 2, 1):
            q, m = np.divmod(r, 10**step)
            hit = m == 0
            np.copyto(r, q, where=hit)
            np.add(n, step, out=n, where=hit)
        flat[at], zeros[at] = r, n
    return zeros.reshape(R.shape)


def _fields(rows: np.ndarray):
    """Per value of ``rows``: whether it is fast, its template and its one or two ints.

    The first int is the integer part from one up, or all the digits
    below one; the second, the fraction's digits, is 0 where unused.
    Apart from :func:`csv_rows`, so its temporaries are freed before the
    text is built.
    """
    *_, pow10 = _powers()
    fast, X, D = _decimal_digits(rows)
    point = X >= 0
    # D splits into the integer part A and the digits R after it; below one, A = 0
    A, R = np.divmod(D, pow10[np.minimum(16 - X, 17)])
    zeros = _strip_zeros(R)
    fraction = point & (R != 0) & fast
    code = np.where(point, 4 + (16 - X - zeros) * fraction, -1 - X)
    index = np.where(fast, code, _FALLBACK) * 2
    index[:, -1] += 1
    return fast, index, np.where(point, A, R), R * fraction


def csv_rows(rows: np.ndarray) -> str:
    """CSV lines holding, for each value of the 2-D ``rows``, the bytes of ``'%.17g' % x``."""
    fast, index, first, second = _fields(rows)
    text = "".join(_templates()[index].ravel().tolist())
    # one or two ints per value, or the float itself for "%.17g"
    args = np.empty(rows.shape + (2,), dtype=object)
    args[..., 0] = first
    if not fast.all():
        np.copyto(args[..., 0], rows, where=~fast)
    used = np.empty(args.shape, dtype=bool)
    used[..., 0] = True
    np.not_equal(second, 0, out=used[..., 1])
    np.copyto(args[..., 1], second, where=used[..., 1])
    args = tuple(args[used].tolist())
    return text % args
