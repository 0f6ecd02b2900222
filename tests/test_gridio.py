import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sandsmooth.gridio import (
    FileFormatError,
    read_curves_csv,
    read_grid_csv,
    read_scatter_csv,
    write_curves_csv,
    write_grid_csv,
    write_json,
    write_long_csv,
    write_scatter_csv,
)
from sandsmooth.surfaces import midpoints


# Oracle: the per-value codec that the vectorised one replaced, kept
# verbatim (apart from names) so bytes and bits can be compared.

def _oracle_fmt(v):
    return format(float(v), ".17g")


def _oracle_float(field, path, lineno):
    try:
        return float(field)
    except ValueError:
        raise FileFormatError(
            f"{path}:{lineno}: expected a number, got {field!r}"
        ) from None


def _oracle_tagged(field, tag, path, lineno):
    if not field.startswith(tag + ":"):
        raise FileFormatError(
            f"{path}:{lineno}: expected '{tag}:<coord>', got {field!r}"
        )
    return _oracle_float(field[len(tag) + 1 :], path, lineno)


def _oracle_read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\r\n").split(",") for line in fh if line.strip()]


def oracle_write_grid_csv(path, x, z, values):
    values = np.asarray(values, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("," + ",".join("z:" + _oracle_fmt(c) for c in z) + "\n")
        for xi, row in zip(x, values):
            fh.write("x:" + _oracle_fmt(xi) + "," + ",".join(map(_oracle_fmt, row)) + "\n")


def oracle_read_grid_csv(path):
    rows = _oracle_read_lines(path)
    header = rows[0]
    z = np.array([_oracle_tagged(f, "z", path, 1) for f in header[1:]])
    x = np.empty(len(rows) - 1)
    values = np.empty((len(rows) - 1, z.size))
    for r, row in enumerate(rows[1:], start=2):
        x[r - 2] = _oracle_tagged(row[0], "x", path, r)
        values[r - 2] = [_oracle_float(f, path, r) for f in row[1:]]
    return x, z, values


def oracle_write_scatter_csv(path, x, z, y):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,z,y\n")
        for xi, zi, yi in zip(x, z, y):
            fh.write(f"{_oracle_fmt(xi)},{_oracle_fmt(zi)},{_oracle_fmt(yi)}\n")


def oracle_read_scatter_csv(path):
    rows = _oracle_read_lines(path)
    out = np.empty((len(rows) - 1, 3))
    for r, row in enumerate(rows[1:], start=2):
        out[r - 2] = [_oracle_float(f, path, r) for f in row]
    return out[:, 0], out[:, 1], out[:, 2]


def oracle_write_curves_csv(path, t, Y):
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join("t:" + _oracle_fmt(c) for c in t) + "\n")
        for row in Y:
            fh.write(",".join(map(_oracle_fmt, row)) + "\n")


def oracle_read_curves_csv(path):
    rows = _oracle_read_lines(path)
    t = np.array([_oracle_tagged(f, "t", path, 1) for f in rows[0]])
    Y = np.empty((len(rows) - 1, t.size))
    for r, row in enumerate(rows[1:], start=2):
        Y[r - 2] = [_oracle_float(f, path, r) for f in row]
    return t, Y


def oracle_write_long_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(f if isinstance(f, str) else _oracle_fmt(f) for f in row) + "\n"
            )


EDGE_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-309,
               2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 0.1, 1 / 3]


def edge_grid(rng, shape):
    """Random values of mixed magnitude with every edge value planted."""
    values = awkward_values(rng, shape).ravel()
    values[: len(EDGE_VALUES)] = EDGE_VALUES
    return rng.permutation(values).reshape(shape)


def assert_bits_equal(got, want):
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape
        npt.assert_array_equal(g.view(np.uint64), w.view(np.uint64))


def awkward_values(rng, shape):
    # mix magnitudes so round-trip precision actually gets exercised
    base = rng.standard_normal(shape)
    scale = 10.0 ** rng.integers(-12, 13, size=shape)
    return base * scale


class TestGridCsv:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(0))
        x = np.sort(rng.random(7))
        z = np.sort(rng.random(5))
        vals = awkward_values(rng, (7, 5))
        p = tmp_path / "g.csv"
        write_grid_csv(p, x, z, vals)
        x2, z2, v2 = read_grid_csv(p)
        npt.assert_array_equal(x2, x)
        npt.assert_array_equal(z2, z)
        npt.assert_array_equal(v2, vals)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "g.csv"
        write_grid_csv(p, [0.25, 0.75], [0.5], [[1.0], [2.0]])
        lines = p.read_text().splitlines()
        assert lines[0] == ",z:0.5"
        assert lines[1].startswith("x:0.25,")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(FileFormatError, match="e.csv:1"):
            read_grid_csv(p)

    def test_bad_corner(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("oops,z:0.5\nx:0.25,1.0\n")
        with pytest.raises(FileFormatError, match="empty corner"):
            read_grid_csv(p)

    def test_bad_column_tag(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(",w:0.5\nx:0.25,1.0\n")
        with pytest.raises(FileFormatError, match="g.csv:1.*'z:"):
            read_grid_csv(p)

    def test_bad_row_tag_line_number(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(",z:0.5\nx:0.25,1.0\n0.75,2.0\n")
        with pytest.raises(FileFormatError, match="g.csv:3"):
            read_grid_csv(p)

    def test_width_mismatch(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(",z:0.2,z:0.8\nx:0.25,1.0\n")
        with pytest.raises(FileFormatError, match="g.csv:2.*3 fields"):
            read_grid_csv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(",z:0.5\nx:0.25,abc\n")
        with pytest.raises(FileFormatError, match="g.csv:2.*'abc'"):
            read_grid_csv(p)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(",z:0.5,z:0.7\n\nx:0.25,1.0,2.0\nx:0.75,abc,3.0\n")
        with pytest.raises(FileFormatError, match=r"g\.csv:4: expected a number, got 'abc'"):
            read_grid_csv(p)

    def test_hash_in_field_is_not_a_comment(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text(",z:0.5,z:0.7\nx:0.25,1.0,2.0 # note\n")
        with pytest.raises(FileFormatError, match=r"g\.csv:2: expected a number, got '2.0 # note'"):
            read_grid_csv(p)


class TestScatterCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(1))
        x, z = rng.random(40), rng.random(40)
        y = awkward_values(rng, 40)
        p = tmp_path / "s.csv"
        write_scatter_csv(p, x, z, y)
        x2, z2, y2 = read_scatter_csv(p)
        npt.assert_array_equal(x2, x)
        npt.assert_array_equal(z2, z)
        npt.assert_array_equal(y2, y)
        assert p.read_text().splitlines()[0] == "x,z,y"

    def test_header_required(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("0.1,0.2,0.3\n")
        with pytest.raises(FileFormatError, match="s.csv:1"):
            read_scatter_csv(p)

    def test_row_width(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x,z,y\n0.1,0.2\n")
        with pytest.raises(FileFormatError, match="s.csv:2"):
            read_scatter_csv(p)


class TestCurvesCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(2))
        t = np.sort(rng.random(9))
        Y = awkward_values(rng, (4, 9))
        p = tmp_path / "c.csv"
        write_curves_csv(p, t, Y)
        t2, Y2 = read_curves_csv(p)
        npt.assert_array_equal(t2, t)
        npt.assert_array_equal(Y2, Y)

    def test_single_curve_as_vector(self, tmp_path):
        p = tmp_path / "c.csv"
        write_curves_csv(p, [0.25, 0.75], [1.0, 2.0])
        _, Y = read_curves_csv(p)
        assert Y.shape == (1, 2)

    def test_no_curves(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("t:0.25,t:0.75\n")
        with pytest.raises(FileFormatError, match="c.csv:2"):
            read_curves_csv(p)

    def test_bad_header_tag(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("0.25,0.75\n1.0,2.0\n")
        with pytest.raises(FileFormatError, match="c.csv:1.*'t:"):
            read_curves_csv(p)


class TestCodecMatchesOracle:
    """The vectorised codec writes the oracle's bytes and reads its bits."""

    def test_grid(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(3))
        x, z = np.sort(rng.random(9)), np.sort(rng.random(6))
        vals = edge_grid(rng, (9, 6))
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_grid_csv(new, x, z, vals)
        oracle_write_grid_csv(old, x, z, vals)
        assert new.read_bytes() == old.read_bytes()
        assert_bits_equal(read_grid_csv(old), oracle_read_grid_csv(old))
        assert_bits_equal(read_grid_csv(old), (x, z, vals))

    def test_scatter(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(4))
        x, z, y = rng.random(30), rng.random(30), edge_grid(rng, 30)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_scatter_csv(new, x, z, y)
        oracle_write_scatter_csv(old, x, z, y)
        assert new.read_bytes() == old.read_bytes()
        assert_bits_equal(read_scatter_csv(old), oracle_read_scatter_csv(old))
        assert_bits_equal(read_scatter_csv(old), (x, z, y))

    def test_curves(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(5))
        t, Y = np.sort(rng.random(7)), edge_grid(rng, (5, 7))
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_curves_csv(new, t, Y)
        oracle_write_curves_csv(old, t, Y)
        assert new.read_bytes() == old.read_bytes()
        assert_bits_equal(read_curves_csv(old), oracle_read_curves_csv(old))
        assert_bits_equal(read_curves_csv(old), (t, Y))

    def test_long(self, tmp_path):
        rows = [(v, "fitted" if i % 2 else "observed", float(i), -v)
                for i, v in enumerate(EDGE_VALUES)] + [(3, True, np.float64(0.1), "s")]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_long_csv(new, ["a", "b", "c", "d"], rows)
        oracle_write_long_csv(old, ["a", "b", "c", "d"], rows)
        assert new.read_bytes() == old.read_bytes()

    def test_crlf_and_blank_lines(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(6))
        x, z = np.sort(rng.random(4)), np.sort(rng.random(3))
        vals = edge_grid(rng, (4, 3))
        p = tmp_path / "g.csv"
        write_grid_csv(p, x, z, vals)
        lines = p.read_bytes().split(b"\n")
        p.write_bytes(b"\r\n\r\n".join(lines[:2]) + b"\r\n" + b"\r\n".join(lines[2:]))
        assert_bits_equal(read_grid_csv(p), oracle_read_grid_csv(p))
        assert_bits_equal(read_grid_csv(p), (x, z, vals))

    def test_fields_only_float_accepts(self, tmp_path):
        # loadtxt rejects these; the per-field loop must accept them as float() does
        p = tmp_path / "s.csv"
        p.write_text("x,z,y\n0.5, 0.25 ,1_000\n\uff11,0.5,2\n")
        assert_bits_equal(read_scatter_csv(p), oracle_read_scatter_csv(p))

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.floats(allow_nan=False)))
    def test_round_trip_property(self, tmp_path_factory, vals):
        p = tmp_path_factory.mktemp("prop") / "g.csv"
        x, z = midpoints(vals.shape[0]), midpoints(vals.shape[1])
        write_grid_csv(p, x, z, vals)
        old = p.with_name("old.csv")
        oracle_write_grid_csv(old, x, z, vals)
        assert p.read_bytes() == old.read_bytes()
        assert_bits_equal(read_grid_csv(p), (x, z, vals))


class TestLongCsvAndJson:
    def test_long_csv_mixes_strings_and_floats(self, tmp_path):
        p = tmp_path / "l.csv"
        write_long_csv(p, ["x", "series", "value"],
                       [(0.5, "fitted", 1.25), (0.75, "observed", -2.0)])
        lines = p.read_text().splitlines()
        assert lines[0] == "x,series,value"
        assert lines[1] == "0.5,fitted,1.25"

    def test_json_sorted_and_round_trip(self, tmp_path):
        p = tmp_path / "s.json"
        write_json(p, {"b": 0.1 + 0.2, "a": [1, 2]})
        text = p.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert json.loads(text)["b"] == 0.1 + 0.2

    def test_json_strict_for_non_finite_floats(self, tmp_path):
        p = tmp_path / "s.json"
        write_json(p, {"sse": np.inf, "low": [-np.inf, (np.float64(np.nan), 2.5)],
                       "nested": {"gcv": float("inf"), "n": 3, "ok": True}})

        def no_constants(name):
            raise ValueError(f"non-standard JSON token {name}")

        got = json.loads(p.read_text(), parse_constant=no_constants)
        assert got == {"sse": "inf", "low": ["-inf", ["nan", 2.5]],
                       "nested": {"gcv": "inf", "n": 3, "ok": True}}

    def test_json_finite_output_unchanged(self, tmp_path):
        obj = {"b": [0.1, -0.0, 1e308, 5e-324, (1, 2.5)], "a": {"z": None, "y": "s"},
               "c": np.float64(1 / 3), "d": False}
        p = tmp_path / "s.json"
        write_json(p, obj)
        assert p.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"
