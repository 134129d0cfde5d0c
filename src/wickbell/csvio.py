"""Small CSV helpers.

Every float is written as format(x, ".17g") so that reruns of one
configuration are byte-identical: 17 significant digits round-trip any
float64 exactly, and the formatting never depends on locale or line endings.

write_csv formats its few rows one cell at a time (format_float). A grid file
(`_write_grid`) formats its values in blocks of _BLOCK with a numpy kernel
(_format_values) that builds the same text without a Python call per value:
|x| = m 2^e times a double-double 10^(16 - X), from a table built of exact
integers, gives the 17-digit integer D (Steele and White, PLDI 1990; Gay,
"Correctly rounded binary-decimal and decimal-binary conversions", 1990).
Its digits come from a 4-digit lookup table and are laid out by the %g
rules. Values within 1e-9 of a rounding tie or of a decade's edge,
integers from 10 up that end in 0, inf and nan go through format() itself,
so every value is exact. A block's lines (axis_a cell, axis_b cell, value,
newline) are laid out in one NUL-padded buffer whose NULs are dropped before
it is written, so grid files are opened in binary mode.

A file that fails while it is being written is removed again, and the OSError
names its path.
"""

from __future__ import annotations

import contextlib
import functools
import os
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# values per block of the grid row writer: a block's line array and the
# kernel's temporaries stay within a few hundred kB
_BLOCK = 4096

# decimal exponents of the finite nonzero float64 values
_X_MIN, _X_MAX = -324, 308

# 4-byte words of one value's line end in _format_values, NUL-padded: the
# sign and "0.000" head, then the leading digit and the point after it;
# 16 more digits; the "e+XXX" tail and the newline
_VALUE_WORDS = 8


def format_float(x: float) -> str:
    return format(float(x), ".17g")


@contextlib.contextmanager
def _output(path: str | os.PathLike, mode: str, **kwargs):
    """open(path, mode, **kwargs), closed on exit. Once it is open, a failure
    removes the file again, and an OSError that names no file is given
    path; a failed open removes nothing."""
    fh = open(path, mode, **kwargs)
    try:
        with fh:
            yield fh
    except BaseException as exc:
        os.remove(path)
        if isinstance(exc, OSError) and exc.filename is None:
            exc.filename = os.fspath(path)
        raise


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows of str/float cells. Floats are formatted, strings passed through."""
    with _output(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [c if isinstance(c, str) else format_float(c) for c in row]
            fh.write(",".join(cells) + "\n")


class _Tables(NamedTuple):
    """Lookup tables of _format_values. Row r = X - _X_MIN of a decimal
    exponent X holds the scale 10^(16 - X) = (hi + lo) 2^shift, hi in [1, 2)
    also split into 26-bit halves (Veltkamp); the digit the point follows in
    fixed notation, -1 where the head holds "0." and 0 in exponent notation;
    the tail; and, at 2 r + negative, the head. Every uint32 is 4 bytes of
    text."""

    hi: np.ndarray
    hi_big: np.ndarray
    hi_small: np.ndarray
    lo: np.ndarray
    shift: np.ndarray
    point: np.ndarray
    head: np.ndarray  # 2 words: the sign and "0.000"
    tail: np.ndarray  # 2 words: "e+XXX" and the newline
    lead: np.ndarray  # the leading digit, and from 10 on the point, in bytes 2-3 of a word
    quads: np.ndarray  # the 4 digits of 0 to 9999; from 10^4 on, trailing zeros dropped


@functools.cache
def _tables() -> _Tables:
    """Built from exact integers on the first grid write, not at import:
    about 120 kB."""
    rows = _X_MAX - _X_MIN + 1
    hi, lo = np.empty(rows), np.empty(rows)
    shift, point = np.empty(rows, np.int32), np.empty(rows, np.intp)
    head, tail = np.zeros((rows, 2, 8), np.uint8), np.zeros((rows, 8), np.uint8)
    for r, x in enumerate(range(_X_MIN, _X_MAX + 1)):
        k = 16 - x
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        f = num.bit_length() - den.bit_length()
        f -= (num << max(-f, 0)) < (den << max(f, 0))  # 2^f <= 10^k < 2^(f+1)
        # the 107 leading bits of 10^k / 2^f: hi takes 53, lo the rest
        q = (num << 106 - f) // den if f <= 106 else num // (den << f - 106)
        top = q >> 54
        hi[r], lo[r], shift[r] = top / 2**52, (q - (top << 54)) / 2**106, f
        head[r, 1, 0] = ord("-")
        if -4 <= x < 17:
            point[r] = max(x, -1)
            zeros = list(b"0." + b"0" * (-x - 1)) if x < 0 else []
            head[r, 0, : len(zeros)] = zeros
            head[r, 1, 1 : len(zeros) + 1] = zeros
        else:
            point[r] = 0
            exponent = list(b"e%+03d" % x)
            tail[r, : len(exponent)] = exponent
        tail[r, 5] = ord("\n")
    split = hi * 134217729.0
    hi_big = split - (split - hi)
    quads, numbers = np.empty((20000, 4), np.uint8), np.arange(10000, dtype=np.int16)
    for k, place in enumerate((1000, 100, 10, 1)):
        quads[:10000, k] = numbers // place % 10 + ord("0")
        # the second half shows a digit that is not 0 or has one after it
        shown = (numbers % place != 0) | (quads[:10000, k] != ord("0"))
        quads[10000:, k] = quads[:10000, k] * shown
    leads = [b"\0\0%d" % v + dot for dot in (b"\0", b".") for v in range(10)]
    return _Tables(
        hi,
        hi_big,
        hi - hi_big,
        lo,
        shift,
        point,
        head.reshape(-1, 8).view(np.uint32).T.copy(),
        tail.view(np.uint32).T.copy(),
        np.frombuffer(b"".join(leads), np.uint32),
        quads.view(np.uint32).ravel(),
    )


def _quotient(a: np.ndarray, divisor: int) -> tuple[np.ndarray, np.ndarray]:
    """divmod(a, divisor) of a non-negative integer array, in about half
    the time np.divmod takes."""
    q = a // divisor
    return q, a - q * divisor


def _decimal(x: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, d, fallback) of the float64 values x: d = round(|x| 10^(16 - X))
    with row = X - _X_MIN, the 17-digit significand of format(x, ".17g") and
    its decimal exponent, or d = 0 and X = 0 for ±0. Where fallback is True
    (inf, nan, and within 1e-9 of a tie or of 10^16 or 10^17) only format()
    is exact, and d and row are those of 0."""
    a = np.abs(x)
    zero, special = a == 0, ~np.isfinite(a)
    a[zero | special] = 1.5
    # |x| = m 2^e with m in [0.5, 1). log10 gives X = floor(log10 |x|) but
    # within about 1e-13 of a power of ten, where the decade test falls back
    m, e = np.frexp(a)
    row = np.floor(np.log10(a, out=a), out=a).astype(np.intp)
    row -= _X_MIN
    # m hi exactly as p + err (Dekker), plus m lo; times 2^(e + shift) that
    # is |x| 10^(16 - X) = whole + part to about 1e-15, whole an integer
    p = m * t.hi[row]
    m_big = np.multiply(m, 134217729.0, out=a)
    m_big -= m_big - m
    m_small = m - m_big
    big, small = t.hi_big[row], t.hi_small[row]
    err = m_big * big - p
    err += m_big * small
    err += m_small * big
    err += m_small * small
    err += m * t.lo[row]
    s = e + t.shift[row]
    whole, part = np.ldexp(p, s, out=p), np.ldexp(err, s, out=err)
    floor = np.floor(part)
    part -= floor
    # |part| < 32 is far inside the 1e7 margins of the decade test
    fallback = special | (np.abs(part - 0.5) < 1e-9)
    fallback |= (whole < 1e16 * (1 + 1e-9)) | (whole > 1e17 * (1 - 1e-9))
    d = whole.astype(np.int64)
    d += floor.astype(np.int64)
    d += part > 0.5
    d[zero | fallback] = 0
    row[zero | fallback] = -_X_MIN
    return row, d, fallback


def _format_values(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write format(v, ".17g") and a newline for each float64 v of x into the
    rows of out (len(x) x _VALUE_WORDS uint32), NUL-padded. Returns the
    indices of x formatted by format() itself."""
    t = _tables()
    row, d, fallback = _decimal(x, t)
    point = t.point[row]
    lead, rest = _quotient(d, 10**16)
    dotted = (point == 0) & (rest != 0)  # exponent notation, or 1 <= |x| < 10
    # the other 16 digits, four to a word: a group whose later groups are
    # all 0 (the next one reads 10000 here) takes the table half with its
    # trailing zeros dropped
    halves = np.stack(_quotient(rest, 10**8))
    groups = np.stack(_quotient(halves, 10**4), axis=1).reshape(4, -1)
    groups[3] += 10000
    for k in (2, 1, 0):
        groups[k] += 10000 * (groups[k + 1] == 10000)
    out[:, 2:6] = t.quads[groups].T
    head = 2 * row + np.signbit(x)
    out[:, 0] = t.head[0][head]
    out[:, 1] = t.head[1][head] | t.lead[lead + 10 * dotted]
    out[:, 6] = t.tail[0][row]
    out[:, 7] = t.tail[1][row]
    # fixed notation from 10 up: the point follows digit `point` where more
    # digits are shown, and those move one byte on, into the empty tail. A
    # multiple of 10 needs the zeros of its integer digits back: format()
    wide = np.nonzero(point > 0)[0]
    if len(wide):
        shown = np.count_nonzero(out[wide, 2:6].view(np.uint8), axis=1)
        fallback[wide[point[wide] > shown]] = True
        wide = wide[point[wide] < shown]
        digits = out[wide, 2:7].view(np.uint8)
        at, cols = point[wide, None], np.arange(17)
        moved = np.take_along_axis(digits, cols - (cols > at), axis=1)
        digits[:, :17] = np.where(cols == at, ord("."), moved)
        out[wide, 2:7] = digits.view(np.uint32)
    exact = np.nonzero(fallback)[0]
    for i in exact.tolist():
        text = (format_float(x[i]) + "\n").encode()
        out[i] = np.frombuffer(text.ljust(4 * _VALUE_WORDS, b"\0"), np.uint32)
    return exact


def _cells(axis) -> np.ndarray:
    """format_float(v) + "," for each v of axis as one row of NUL-padded
    uint32 words, as many words as the longest cell needs."""
    texts = [(format_float(v) + ",").encode() for v in axis]
    width = -(-max(map(len, texts), default=0) // 4) * 4
    joined = b"".join(t.ljust(width, b"\0") for t in texts)
    return np.frombuffer(joined, np.uint32).reshape(len(texts), width // 4)


def _write_rows(fh, cells_b: np.ndarray, axis_a, values) -> None:
    """The grid rows of axis_a[j], j-major, with cells_b = _cells(axis_b):
    the lines (axis_a cell, axis_b cell, value, newline) of about _BLOCK
    values are laid out in one NUL-padded buffer, whose NULs are dropped
    before it is written."""
    cells_a = _cells(axis_a)
    n_b, wa, wb = len(cells_b), cells_a.shape[1], cells_b.shape[1]
    rows, cols = max(1, _BLOCK // n_b), min(n_b, _BLOCK)
    for j in range(0, len(values), rows):
        for k in range(0, n_b, cols):
            block = values[j : j + rows, k : k + cols]
            text = bytearray(4 * block.size * (wa + wb + _VALUE_WORDS))
            lines = np.frombuffer(text, np.uint32).reshape(block.shape + (-1,))
            for w in range(wa):
                lines[..., w] = cells_a[j : j + rows, w, None]
            for w in range(wb):
                lines[..., wa + w] = cells_b[k : k + cols, w]
            _format_values(block.reshape(-1), lines.reshape(block.size, -1)[:, wa + wb :])
            fh.write(text.translate(None, b"\0"))


def _write_grid(path: str | os.PathLike, header: Sequence[str], axis_a, axis_b, values) -> None:
    """write_csv of the rows (axis_a[j], axis_b[k], values[j, k]), j-major. Axes are formatted
    once; the rows go through _write_rows."""
    if values.shape != (len(axis_a), len(axis_b)):
        raise ValueError(f"grid values {values.shape} do not match axes {len(axis_a), len(axis_b)}")
    cells_b = _cells(axis_b)
    with _output(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        _write_rows(fh, cells_b, axis_a, values)
