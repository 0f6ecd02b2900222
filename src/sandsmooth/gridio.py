"""File formats for the command-line tools.

Three CSV layouts cover the data shapes: a grid table whose header row
tags column coordinates as ``z:<coord>`` and whose first column tags
row coordinates as ``x:<coord>``; a three-column ``x,z,y`` scatter
list; and a curves table with one curve per row under a ``t:<coord>``
header.  Summaries are single JSON objects.  Arrays of dimension three
or more use the binary ``.npy`` format, which has no natural
coordinate-tagged text layout.

Every number is written with one ``%.17g`` row template per line, the
same text as ``format(v, ".17g")``, so files round-trip bit-identically
through float64.  A table body is parsed by one ``np.loadtxt`` call;
only when that fails does a per-field loop parse it again, to name the
file line and field at fault or to accept what ``float()`` accepts.
Blank lines are skipped but counted in the line numbers.
"""

from __future__ import annotations

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


def _row(width: int, tag: str = "") -> str:
    """Template for one line of `width` numbers, each as '<tag>%.17g'."""
    return ",".join([tag + "%.17g"] * width) + "\n"


def write_grid_csv(path, x, z, values) -> None:
    """Grid table: corner cell empty, columns z-tagged, rows x-tagged."""
    values = np.asarray(values, dtype=float)
    row = "x:%.17g," + _row(values.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("," + _row(len(z), "z:") % tuple(z))
        fh.writelines(row % (xi, *vals) for xi, vals in zip(x, values.tolist()))


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
    row = _row(3)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,z,y\n")
        fh.writelines(row % xzy for xzy in zip(x, z, y))


def read_scatter_csv(path):
    """Parse an x,z,y table back into three arrays."""
    (lineno, header), body = _read_table(path)
    if [f.strip() for f in header.split(",")] != ["x", "z", "y"]:
        raise FileFormatError(f"{path}:{lineno}: header must be 'x,z,y'")
    table = _parse_body(path, body, 3)
    return table[:, 0], table[:, 1], table[:, 2]


def write_curves_csv(path, t, Y) -> None:
    """One curve per row under a t-tagged coordinate header."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    row = _row(Y.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_row(len(t), "t:") % tuple(t))
        fh.writelines(row % tuple(vals) for vals in Y.tolist())


def read_curves_csv(path):
    """Parse a curves table back into (t, Y) with one curve per row."""
    (lineno, header), body = _read_table(path)
    t = np.array([_float(f, path, lineno, "t") for f in header.split(",")])
    if not body:
        raise FileFormatError(f"{path}:{lineno + 1}: no curves after the header")
    return t, _parse_body(path, body, t.size)


def write_long_csv(path, header, rows) -> None:
    """Tidy long-format table; floats at full precision, strings as-is."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            template = ",".join("%s" if isinstance(f, str) else "%.17g" for f in row)
            fh.write(template % tuple(row) + "\n")


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
