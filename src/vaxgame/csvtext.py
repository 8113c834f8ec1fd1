"""Exact ``'%.17g'`` text for float rows, as CSV lines, from one numpy kernel.

:func:`csv_rows` writes the bytes ``'%.17g' % x`` gives for every value
``x``, a comma after each and a newline after the last of each row.  A
probability ``1e-4 <= x < 1``, which "%.17g" prints as "0.", zero to
three zeros and then its 17 significant digits without their trailing
zeros, gets those digits from exact double-double arithmetic and is
printed from one int.  Every other value (zero, values of one and up,
values below 1e-4, negatives, infinities, NaN) goes through "%.17g"
itself, inside the same format string.

Two facts about doubles, each checked with exact fractions, leave the
arithmetic nothing to correct.  The doubles 1e-3, 1e-2 and 1e-1 each lie
above the power of ten they name, with no double between, so comparing
against them counts each value's zeros exactly.  And no double in
[1e-4, 1) lies within half a unit of the 17th digit below a power of
ten, so no value's digits round up into the next decade.
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
# the zero count z of x is 3 less the number of these at or below x
_DECADES = np.array([1e-3, 1e-2, 1e-1])
# stands in for values outside the fast range; its digits end in no zero,
# so the zero stripping passes it by
_FILLER = 0.3
# the template code of "%.17g"
_FALLBACK = 4


@functools.cache
def _scales():
    """``10**(17 + z)`` for z in [0, 3] as doubles, exact there, with their Dekker split."""
    scale = np.array([float(10 ** (17 + z)) for z in range(4)])
    split = _SPLIT * scale
    scale_hi = split - (split - scale)
    return scale, scale_hi, scale - scale_hi


@functools.cache
def _templates():
    """The value templates, built on first use: template ``2*code``, plus one in the last column.

    Code z from 0 to 3 prints "0.", z zeros and "%d" over the digits;
    code 4 is "%.17g".  A template ends in a comma, or in a newline in
    the last column.
    """
    bodies = ["0." + "0" * zeros + "%d" for zeros in range(4)] + ["%.17g"]
    return np.array([body + end for body in bodies for end in ",\n"], dtype=object)


def _digits(x: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """The digits "%.17g" prints for each ``x`` in [1e-4, 1) with ``zeros`` zeros after the point.

    They are ``x * 10**(17 + zeros)`` rounded to an integer as dtoa
    rounds, ties to even, in ``[10**16, 10**17)``, as one int64 with its
    trailing zeros divided out.  Products go in place, so few
    temporaries are alive at once, and all are freed before the text is
    built.
    """
    # Dekker's TwoProduct: hi + lo == x * 10**(17 + z) exactly, with
    # lo = ((x_hi*s_hi - hi) + x_hi*s_lo + x_lo*s_hi) + x_lo*s_lo
    scale, scale_hi, scale_lo = _scales()
    hi, s_hi, s_lo = scale[zeros], scale_hi[zeros], scale_lo[zeros]
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
    # hi >= 2**53 is an even integer, so rint's ties to even are dtoa's
    D = hi.astype(np.int64)
    D += np.rint(lo, out=lo).astype(np.int64)
    # at most 16 trailing zeros, divided out where there are any
    flat = D.reshape(-1)
    at = np.flatnonzero(flat % 10 == 0)
    if at.size:
        r = flat[at]
        for step in (16, 8, 4, 2, 1):
            q, m = np.divmod(r, 10**step)
            np.copyto(r, q, where=m == 0)
        flat[at] = r
    return D


def csv_rows(rows: np.ndarray) -> str:
    """CSV lines holding, for each value of the 2-D ``rows``, the bytes of ``'%.17g' % x``."""
    fast = (rows >= 1e-4) & (rows < 1.0)
    x = np.where(fast, rows, _FILLER)
    zeros = 3 - np.searchsorted(_DECADES, x, side="right")
    D = _digits(x, zeros)
    index = np.where(fast, zeros, _FALLBACK) * 2
    index[:, -1] += 1
    text = "".join(_templates()[index].ravel().tolist())
    # one argument per value: its digits, or the float itself for "%.17g"
    args = D.astype(object)
    np.copyto(args, rows, where=~fast)
    return text % tuple(args.ravel().tolist())
