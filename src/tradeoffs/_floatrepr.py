"""Shortest round-trip text of float64 values, computed on whole arrays.

``list(float_rows(matrix))`` equals ``[",".join(map(repr, row)) for row
in matrix.tolist()]`` byte for byte; ``workload.serialize_trace`` writes
embeddings with it.

``repr`` gives the shortest decimal string that reads back as the same
double and, of those, the one nearest to it. For 1e-4 <= |x| < 1 that
string is ``0.``, then 0 to 3 zeros, then 1 to 17 significant digits,
and the digits can be found exactly with fixed-width integer arithmetic,
in the manner of Ryu (Adams, PLDI 2018). Write |x| = m * 2**q with a
53-bit m, e = floor(log10 |x|) and k = 16 - e, so that
y = |x| * 10**k = m * 5**k / 2**s, s = -(q + k), lies in [1e16, 1e17).
An integer t reads back as x (scaled by 10**-k) exactly when
2 * |t * 2**s - m * 5**k| < 5**k, i.e. when |t - y| is below half the
gap between x and its neighbours, which is between 0.55 and 11.1 at this
scale. (Equality cannot occur: the left side is even, 5**k is odd.) So
the integers that read back as x form a run of at most 23, and repr's
digits are the run's member with the most trailing zeros that is nearest
to y, written without those zeros. As the run is shorter than 100, that
is its one multiple of 100 if it has one, else its multiple of 10
nearest to y if it has one, else the integer nearest to y.

A mantissa of 2**52 brings the lower neighbour nearer than the upper
one, so fewer integers read back as x than the run holds; in range that
is only 2**-1 .. 2**-13, whose exact decimals have at most 10 digits and
are the run's one multiple of 100, so they need no care.

``float.__repr__`` formats every other value one by one: values outside
the range (zeros, +-1.0, subnormals, NaN and infinities among them) and
values whose nearest candidate is an exact tie, where repr's choice
would need its rounding rule.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["float_rows"]

# Values formatted per array pass: the temporaries stay in the CPU cache
# and the memory they take stays small.
_CHUNK_VALUES = 1 << 14

_MANTISSA = np.uint64((1 << 52) - 1)
_HIDDEN_BIT = np.uint64(1 << 52)
_EXPONENT_SHIFT = np.uint64(52)
# Indexed by k = 16 - e, e in -4..-1.
_POW5 = np.array([5**k for k in range(21)], dtype=np.uint64)
_POW10 = np.array([10.0**k for k in range(21)])  # exact up to 10**22
_E8, _E16 = np.int64(10**8), np.int64(10**16)

# Each value is laid out in 7 little-endian 32-bit words, NUL-padded:
# words 0-1 the sign, "0.", the zeros after the point and the first
# digit, right-aligned; words 2-5 the other 16 digits in groups of 4;
# word 6 the separator that follows the value. NULs are dropped after.
_WORDS = 7
_WORD = np.dtype("<u4")
# "-0.00" + first digit, indexed by negative * 40 + (e + 4) * 10 + digit.
_LEADS = np.frombuffer(
    b"".join(
        (b"-" * negative + b"0." + b"0" * (-1 - e) + b"%d" % digit).rjust(8, b"\0")
        for negative in (0, 1)
        for e in (-4, -3, -2, -1)
        for digit in range(10)
    ),
    dtype=_WORD,
).reshape(-1, 2).T.copy()


def _digit_groups() -> np.ndarray:
    """The 4 digits of g at g, and at 10000 + g with their trailing zeros
    as NULs, for the last nonzero group."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    text = (digits + ord("0")).astype(np.uint8)
    groups = np.concatenate([text, np.where(trailing, 0, text).astype(np.uint8)])
    return groups.view(_WORD).ravel()


_GROUPS = _digit_groups()
_FALLBACK = 1  # marks a value left to float.__repr__; "\x01" is in no number
_COMMA, _CLOSE = ord(","), ord("]")


def _words(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The words of each value of a 1-d float64 array, and the indices of
    the values marked for ``float.__repr__``; the separator word is left
    for the caller."""
    out = np.empty((values.size, _WORDS), dtype=_WORD)
    a = np.abs(values)
    in_range = (a >= 1e-4) & (a < 1.0)
    a[~in_range] = 0.5  # any value in range keeps the arithmetic below valid
    bits = a.view(np.uint64)
    # e + 4 for e = floor(log10 |x|), exact: the double nearest each of
    # 1e-1 .. 1e-4 lies above it, so |x| >= 1e-3 as doubles iff as reals.
    e4 = (a >= 1e-3).view(np.int8) + (a >= 1e-2).view(np.int8) + (a >= 1e-1).view(np.int8)
    k = 20 - e4
    s = 1075 - (bits >> _EXPONENT_SHIFT).view(np.int64) - k
    five = _POW5[k]
    # y = q + r / 2**s exactly. The float product is within 12 of y, so
    # m * 5**k - guess * 2**s, taken mod 2**64, is below 2**53 in size
    # and exact as an int64.
    guess = (a * _POW10[k]).astype(np.int64)
    diff = (((bits & _MANTISSA) | _HIDDEN_BIT) * five - (guess.view(np.uint64) << s.view(np.uint64)))
    diff = diff.view(np.int64)
    q = guess + (diff >> s)
    r = diff & ((1 << s) - 1)
    five = five.view(np.int64)
    # The run [q + below, q + above] of integers that read back as x.
    below = ((2 * r - five) >> (s + 1)) + 1
    above = (2 * r + five) >> (s + 1)
    half = 1 << (s - 1)
    z = q + (r >= half)
    tie = r == half
    last = q % 10
    tens = q - last + 10 * (last >= 5)
    has_ten = (tens >= q + below) & (tens <= q + above)
    z = np.where(has_ten, tens, z)
    tie = np.where(has_ten, (last == 5) & (r == 0), tie)
    hundreds = q + above
    hundreds -= hundreds % 100
    has_hundred = hundreds >= q + below
    z = np.where(has_hundred, hundreds, z)
    tie &= ~has_hundred

    first, rest = np.divmod(z, _E16)
    high, low = np.divmod(rest, _E8)
    g1, g2 = np.divmod(high, 10000)
    g3, g4 = np.divmod(low, 10000)
    lead = (values < 0) * 40 + e4 * 10 + first
    out[:, 0] = _LEADS[0, lead]
    out[:, 1] = _LEADS[1, lead]
    strip = g4 == 0
    out[:, 5] = _GROUPS[g4 + 10000]
    out[:, 4] = _GROUPS[g3 + 10000 * strip]
    strip &= g3 == 0
    out[:, 3] = _GROUPS[g2 + 10000 * strip]
    strip &= g2 == 0
    out[:, 2] = _GROUPS[g1 + 10000 * strip]

    fallback = np.flatnonzero(~in_range | tie)
    out[fallback, :6] = 0
    out[fallback, 0] = _FALLBACK
    return out, fallback


def _block_rows(block: np.ndarray) -> list[str]:
    values = block.ravel()
    words, fallback = _words(values)
    seps = words.reshape(*block.shape, _WORDS)[:, :, 6]
    seps[:] = _COMMA
    seps[:, -1] = _CLOSE  # a row's end, where the text is cut
    text = words.tobytes().translate(None, b"\0").decode("ascii")
    if fallback.size:
        parts = text.split("\x01")
        reprs = map(float.__repr__, values[fallback].tolist())
        text = parts[0] + "".join(map(str.__add__, reprs, parts[1:]))
    return text.split("]")[:-1]


def float_rows(matrix: np.ndarray) -> Iterator[str]:
    """``",".join(map(repr, row))`` for each row of a 2-d float64 matrix
    of at least one column, in order; rows are formatted a block at a
    time, as they are taken."""
    step = max(1, _CHUNK_VALUES // matrix.shape[1])
    for start in range(0, matrix.shape[0], step):
        yield from _block_rows(matrix[start : start + step])
