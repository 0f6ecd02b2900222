"""File formats for the command-line tools.

Three CSV layouts cover the data shapes: a grid table whose header row
tags column coordinates as ``z:<coord>`` and whose first column tags
row coordinates as ``x:<coord>``; a three-column ``x,z,y`` scatter
list; and a curves table with one curve per row under a ``t:<coord>``
header.  Long-format tables for plotting are written as blocks of
columns under one header; a str part of a block is a constant column,
such as a series label.  Summaries are single JSON objects.  Arrays of
dimension three or more use the binary ``.npy`` format, which has no
natural coordinate-tagged text layout.

Every table number, long tables' included, goes through one kernel and
is written as ``'%.17g' % v`` writes it, byte for byte, so files
round-trip bit-identically through float64.  The kernel forms
|v| * 10**(16 - X), X = floor(log10|v|), as an unevaluated sum with an
error below 6e-7: Dekker's exact product with 10**(16 - X) rounded to
26 bits, plus the rest, both from exact integers.  It writes
the 17 digits of each value it proves: the sum lies in [1e16, 1e17 -
1/2) and its fraction is off one half, both by more than that error.
Python's own ``'%.17g'`` writes the rest: exact ties, NaN, infinities,
zeros, subnormals and extreme exponents.  One ``np.loadtxt`` call parses
a table body; only when that fails does a per-field loop parse it again,
to name the file line and field at fault or to accept what ``float()``
accepts.  Blank lines are skipped but counted in the line numbers.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

__all__ = [
    "FileFormatError",
    "read_curves_csv",
    "read_grid_csv",
    "read_scatter_csv",
    "write_curves_csv",
    "write_grid_csv",
    "write_json",
    "write_long_csv",
    "write_scatter_csv",
]


class FileFormatError(ValueError):
    """Malformed input file; the message carries the line number."""


def _float(field: str, path: str, lineno: int, tag: str = "") -> float:
    """One field as a float; with a tag, the field must read '<tag>:<coord>'."""
    if tag:
        if not field.startswith(tag + ":"):
            raise FileFormatError(
                f"{path}:{lineno}: expected '{tag}:<coord>', got {field!r}"
            )
        field = field[len(tag) + 1 :]
    try:
        return float(field)
    except ValueError:
        raise FileFormatError(
            f"{path}:{lineno}: expected a number, got {field!r}"
        ) from None


def _read_table(path: str):
    """Header and body of a table; each non-blank line as (lineno, text)."""
    with open(path, encoding="utf-8") as fh:
        lines = [
            (lineno, line.rstrip("\r\n"))
            for lineno, line in enumerate(fh, start=1)
            if line.strip()
        ]
    if not lines:
        raise FileFormatError(f"{path}:1: empty file")
    return lines[0], lines[1:]


def _parse_body(path: str, body, width: int, tag: str = "") -> np.ndarray:
    """Body lines as a (len(body), width) float array.

    With a tag, each line's first field must read '<tag>:<coord>'.  The
    per-field loop runs only when loadtxt fails or finds another width;
    it raises for the first bad field or returns what float() accepts
    and loadtxt does not (such as '1_0'), so both paths agree.
    """
    prefix = tag + ":" if tag else ""
    texts = [text for _, text in body]
    if texts and all(text.startswith(prefix) for text in texts):
        try:
            values = np.loadtxt(
                [text[len(prefix) :] for text in texts],
                delimiter=",",
                comments=None,
                ndmin=2,
            )
        except ValueError:
            pass
        else:
            if values.shape == (len(texts), width):
                return values
    values = np.empty((len(body), width))
    tags = [tag] + [""] * (width - 1)
    for r, (lineno, text) in enumerate(body):
        fields = text.split(",")
        if len(fields) != width:
            raise FileFormatError(
                f"{path}:{lineno}: expected {width} fields, got {len(fields)}"
            )
        values[r] = [_float(f, path, lineno, t) for f, t in zip(fields, tags)]
    return values


# BLOCK values at a time, in buffers of about 0.5 kB per value.  _SPLIT
# splits a double into 26-bit halves with exact products; _EPS exceeds the
# error of the scaled value (below 6e-7); fast |v| lie in [1e-288, 1e288),
# so |X| < _XMAX.  A value's source row: bytes 0-23 hold '000' and its 17
# digits (four per 32-bit word, so d0 is byte 3) and its exponent's sign
# and digits (word 5), or a fallback text; then '0', '.', 'e', the sign,
# the tag, the separator and a zero byte.  Layouts: fixed notation for X
# in [-4, 16] and 1-17 digits, scientific for 1-17 digits and a 2- or
# 3-digit exponent, and the fallback.
BLOCK = 8192
_SPLIT, _EPS, _XMAX = 2.0**27 + 1, 2.0**-16, 300
_D0, _EXP, _ZERO, _POINT, _E, _SIGN, _TAG, _SEP, _PAD = 3, 20, 24, 25, 26, 27, 28, 30, 31
_SCI, _FALLBACK = 21 * 17, 23 * 17


@functools.cache
def _tables():
    """Per layout, its slot's source bytes; the lookup tables of _digits."""
    digits = [_D0 + i for i in range(17)]
    bodies = [[_ZERO, _POINT] + [_ZERO] * (-x - 1) + digits[:nd] if x < 0 else
              digits[: x + 1] + ([_POINT] + digits[x + 1 : nd] if nd > x + 1 else [])
              for x in range(-4, 17) for nd in range(1, 18)]
    for nd in range(1, 18):
        mantissa = digits[:1] + ([_POINT] + digits[1:nd] if nd > 1 else []) + [_E, _EXP]
        bodies += [mantissa + [_EXP + 2, _EXP + 3], mantissa + [_EXP + 1, _EXP + 2, _EXP + 3]]
    bodies.append(list(range(24)))
    gather = np.array([[_TAG, _TAG + 1, _SIGN] + b + [_SEP] + [_PAD] * (24 - len(b))
                       for b in bodies], dtype=np.uint8)
    c = np.arange(10000)
    quad = (c[:, None] // (1000, 100, 10, 1) % 10 + 48).astype(np.uint8).view(np.uint32)
    # the place of a 4-digit chunk's last non-zero digit, from 0; -16 for 0000
    tail = np.where(c == 0, -16, 3 - (c % 10 == 0) - (c % 100 == 0) - (c % 1000 == 0))
    xs = np.arange(-_XMAX, _XMAX)
    exponent = np.frombuffer("".join(f"{x:+04d}" for x in xs).encode(), np.uint32)
    fixed = (xs >= -4) & (xs <= 16)
    layout = (np.where(fixed, (xs + 4) * 17, _SCI + (np.abs(xs) >= 100))[:, None]
              + np.where(fixed, 1, 2)[:, None] * np.arange(17))
    return gather, quad.ravel(), tail, exponent, layout.ravel()


@functools.lru_cache(maxsize=128)
def _powers(x0: int, x1: int) -> np.ndarray:
    """Rows hi, lo: 10**(16 - x) to 26 bits and the rest, x in [x0, x1]."""
    rows = []
    for k in range(16 - x0, 15 - x1, -1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        m, e = math.frexp(num / den)
        hi_num, hi_den = math.ldexp(m * _SPLIT - (m * _SPLIT - m), e).as_integer_ratio()
        rows.append((hi_num / hi_den, (num * hi_den - hi_num * den) / (den * hi_den)))
    return np.array(rows).T.copy()


def _digits(v, src):
    """Write the sign and data bytes of v's rows of src; return each
    value's layout and whether it is proved.  |v| * 10**(16 - X) is p + t:
    Dekker's exact product p + e of |v| and hi, plus |v| * lo.  p + t in
    [1e16, 1e17 - 1/2) confirms X and rules out a carry to 18 digits; a
    fraction off 1/2 fixes the rounding; both must hold by more than _EPS.
    """
    _, quad, tail, exponent, layouts = _tables()
    src[:, _SIGN] = np.signbit(v).view(np.uint8) * np.uint8(45)
    a = np.abs(v)
    proved = (a >= 1e-288) & (a < 1e288)
    np.copyto(a, 1.0, where=~proved)
    x = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = np.take(_powers(int(x.min()), int(x.max())), x - x.min(), axis=1)
    p = a * hi
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a -= a_hi
    t = (a_hi * hi - p) + a * hi + (a + a_hi) * lo
    proved &= (p - 1e16) + t >= _EPS
    proved &= (p - 1e17) + t < -0.5 - _EPS
    floor = np.floor(t)
    t -= floor
    proved &= np.abs(t - 0.5) > _EPS
    d = p.astype(np.int64) + floor.astype(np.int64) + (t > 0.5)
    chunks = []
    for scale in (10**16, 10**12, 10**8, 10**4):
        chunks.append(d // scale)
        d -= chunks[-1] * scale
    chunks.append(d)
    words = src.view(np.uint32)
    for j, chunk in enumerate(chunks):
        words[:, j] = quad[chunk]
    words[:, _EXP // 4] = exponent[x + _XMAX]
    nd = tail[chunks[4]] + 13  # the place of the last non-zero digit
    last = np.flatnonzero(chunks[4] == 0)
    if last.size:
        nd[last] = np.max([tail[c[last]] + 4 * j - 3 for j, c in enumerate(chunks)], axis=0)
    return layouts[17 * (x + _XMAX) + nd], proved


def _write_table(fh, parts, tag: str = "", tagged: int = 0) -> None:
    """Write the table whose columns are those of the parts, in order,
    each value as '%.17g' formats it and the first `tagged` columns with
    the two-character tag.  A 2-D part is a set of columns; a str part is
    one column holding that text in every row.  A block holds whole rows
    or a piece of one row.  Python formats what _digits cannot prove; a
    text takes its slot as a fallback text does.  Each value's layout
    picks the gather row listing its slot's source bytes; one take fills
    the slots, one compress drops zero bytes (empty sign or tag, padding).
    """
    rows = next(part.shape[0] for part in parts if not isinstance(part, str))
    labels = {i: part for i, part in enumerate(parts) if isinstance(part, str)}
    parts = [np.broadcast_to(0.0, (rows, 1)) if i in labels else part
             for i, part in enumerate(parts)]
    width = sum(part.shape[1] for part in parts)
    gather = _tables()[0]
    n = min(BLOCK, rows * width)
    values, src = np.empty(n), np.zeros((n, 32), dtype=np.uint8)
    src[:, _ZERO:_SIGN] = np.frombuffer(b"0.e", dtype=np.uint8)
    tag = np.frombuffer(tag.encode() or b"\0\0", dtype=np.uint8)
    rel, slots = (np.empty((n, gather.shape[1]), dtype) for dtype in (np.uint8, np.int32))
    text, used = np.empty(rel.size, np.uint8), np.empty(rel.size, bool)
    starts = np.arange(0, 32 * n, 32, dtype=np.int32)[:, None]
    offsets = np.cumsum([0] + [part.shape[1] for part in parts])
    step, span, piece = max(1, n // width), min(n, width), None
    for r0 in range(0, rows, step):
        for c0 in range(0, width, span):
            r1, c1 = min(r0 + step, rows), min(c0 + span, width)
            m, size = (r1 - r0) * (c1 - c0), (r1 - r0) * (c1 - c0) * gather.shape[1]
            np.concatenate([part[r0:r1, max(c0 - o, 0) : max(c1 - o, 0)]
                            for part, o in zip(parts, offsets)],
                           axis=1, out=values[:m].reshape(r1 - r0, -1))
            if (c0, c1) != piece:  # the columns' tags and separators
                piece, cols = (c0, c1), np.arange(c0, c1)
                rowsrc = src[: step * (c1 - c0)].reshape(-1, c1 - c0, 32)
                rowsrc[:, :, _SEP] = np.where(cols == width - 1, 10, 44)
                rowsrc[:, :, _TAG : _TAG + 2] = np.where((cols < tagged)[:, None], tag, 0)
                inside = [i for i in labels if c0 <= offsets[i] < c1]
                at = (np.arange(step)[:, None] * (c1 - c0) + offsets[inside] - c0).ravel()
                names = np.array([labels[i] for i in inside], dtype="S24").view(np.uint8)
                names = np.tile(names.reshape(-1, 24), (step, 1))
            layout, proved = _digits(values[:m], src[:m])
            if inside:  # the labels' texts take their slots
                k = (r1 - r0) * len(inside)
                src[at[:k], :24], layout[at[:k]], proved[at[:k]] = names[:k], _FALLBACK, True
            rest = np.flatnonzero(~proved)
            if rest.size:  # NUL-padded texts; the compress drops the padding
                texts = ["%.17g" % v for v in values[rest].tolist()]
                src[rest, :24] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
                src[rest, _SIGN] = 0
                layout[rest] = _FALLBACK
            np.take(gather, layout, axis=0, out=rel[:m])
            np.add(rel[:m], starts[:m], out=slots[:m])
            np.take(src, slots[:m], out=text[:size].reshape(m, -1), mode="wrap")  # unbuffered
            np.not_equal(text[:size], 0, out=used[:size])
            fh.write(text[:size][used[:size]].tobytes().decode("ascii"))


def write_grid_csv(path, x, z, values) -> None:
    """Grid table: corner cell empty, columns z-tagged, rows x-tagged."""
    x, z, values = (np.asarray(a, dtype=float) for a in (x, z, values))
    if values.shape != (x.size, z.size) or z.size == 0:
        raise ValueError(f"grid values have shape {values.shape}, but x and z "
                         f"have {x.size} and {z.size} entries")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",")
        _write_table(fh, [z.reshape(1, -1)], "z:", z.size)
        _write_table(fh, [x.reshape(-1, 1), values], "x:", 1)


def read_grid_csv(path):
    """Parse a grid table back into (x, z, values)."""
    (lineno, header), body = _read_table(path)
    corner, *columns = header.split(",")
    if corner.strip():
        raise FileFormatError(
            f"{path}:{lineno}: grid header must start with an empty corner cell"
        )
    z = np.array([_float(f, path, lineno, "z") for f in columns])
    if z.size == 0:
        raise FileFormatError(f"{path}:{lineno}: no z-tagged columns")
    table = _parse_body(path, body, z.size + 1, "x")
    x, values = table[:, 0], table[:, 1:]
    return np.ascontiguousarray(x), z, np.ascontiguousarray(values)


def write_scatter_csv(path, x, z, y) -> None:
    """x,z,y table, one observation per row."""
    columns = [np.asarray(c, dtype=float).reshape(-1, 1) for c in (x, z, y)]
    if len({len(c) for c in columns}) > 1:
        raise ValueError("scatter columns x, z, y have %d, %d and %d entries"
                         % tuple(map(len, columns)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,z,y\n")
        _write_table(fh, columns)


def read_scatter_csv(path):
    """Parse an x,z,y table back into three arrays."""
    (lineno, header), body = _read_table(path)
    if [f.strip() for f in header.split(",")] != ["x", "z", "y"]:
        raise FileFormatError(f"{path}:{lineno}: header must be 'x,z,y'")
    table = _parse_body(path, body, 3)
    return table[:, 0], table[:, 1], table[:, 2]


def write_curves_csv(path, t, Y) -> None:
    """One curve per row under a t-tagged coordinate header."""
    t = np.asarray(t, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.ndim != 2 or Y.shape[1] != t.size or t.size == 0:
        raise ValueError(f"curves have shape {Y.shape}, but t has {t.size} entries")
    with open(path, "w", encoding="utf-8") as fh:
        _write_table(fh, [t.reshape(1, -1)], "t:", t.size)
        _write_table(fh, [Y])


def read_curves_csv(path):
    """Parse a curves table back into (t, Y) with one curve per row."""
    (lineno, header), body = _read_table(path)
    t = np.array([_float(f, path, lineno, "t") for f in header.split(",")])
    if not body:
        raise FileFormatError(f"{path}:{lineno + 1}: no curves after the header")
    return t, _parse_body(path, body, t.size)


def _column_set(part):
    """A long-table part as a label or a 2-D float column set."""
    if isinstance(part, str):
        return part
    part = np.asarray(part, dtype=float)
    return part[:, None] if part.ndim == 1 else part


def write_long_csv(path, header, blocks) -> None:
    """Tidy long-format table: the header, then each block's rows through
    the table kernel, so numbers are written as in every other table.  A
    block lists its columns in order: 1-D arrays, 2-D column sets and
    labels.  A str part is a label: a column holding that text in every
    row, such as a series name.  Shapes and labels are checked before the
    file is opened.
    """
    blocks = [[_column_set(part) for part in block] for block in blocks]
    for block in blocks:
        rows = [part.shape[0] for part in block if not isinstance(part, str)]
        width = sum(1 if isinstance(part, str) else part.shape[1] for part in block)
        if len(set(rows)) != 1:
            raise ValueError(f"a block's columns have {', '.join(map(str, rows)) or 'no'} rows")
        if width != len(header):
            raise ValueError(f"a block has {width} columns, but the header has {len(header)}")
        for label in (part for part in block if isinstance(part, str)):
            if not label.isascii() or "\0" in label or len(label) > 24:
                raise ValueError(f"label {label!r} has {len(label.encode())} bytes; "
                                 "labels are ASCII without NUL, at most 24 bytes")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            _write_table(fh, block)


def _strict_json(obj):
    """obj with each non-finite float replaced by "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {key: _strict_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(value) for value in obj]
    return obj


def write_json(path, obj) -> None:
    """Single sorted JSON object; floats keep shortest round-trip form.

    The output is strict JSON: a non-finite float is written as the string
    "inf", "-inf" or "nan", since JSON has no token for it.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict_json(obj), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
