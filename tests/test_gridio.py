import io
import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sandsmooth import gridio
from sandsmooth.binning import ScatterData, iterative_fit
from sandsmooth.cli import main, run_surface_study
from sandsmooth.fda import (
    CurveSet,
    eigenpairs,
    replicate_ise,
    sample_cov,
    simulate_fda,
    smooth_cov,
)
from sandsmooth.glam import ArrayData, fit_array
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
from sandsmooth.kernelcheck import kernel_eval
from sandsmooth.rng import CounterNormals
from sandsmooth.sandwich2d import GridData, LambdaGrid, select_lambda
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


def block_rows(blocks):
    """The rows of long-table blocks, as the oracle takes them."""
    rows = []
    for block in blocks:
        n = next(len(part) for part in block if not isinstance(part, str))
        columns = []
        for part in block:
            if isinstance(part, str):
                columns.append([part] * n)
            else:
                columns.extend(np.asarray(part, dtype=float).reshape(n, -1).T.tolist())
        rows += zip(*columns)
    return rows


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
        # one block per row, so the labels alternate as the rows do
        blocks = [[[v], "fitted" if i % 2 else "observed", [float(i)], [-v]]
                  for i, v in enumerate(EDGE_VALUES)] + [[[3.0], [1.0], [np.float64(0.1)], "s"]]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_long_csv(new, ["a", "b", "c", "d"], blocks)
        oracle_write_long_csv(old, ["a", "b", "c", "d"], block_rows(blocks))
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
                       [[[0.5], "fitted", [1.25]], [np.array([0.75]), "observed", [-2.0]]])
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


def kernel_text(values):
    """The table kernel's text for values written as one column."""
    fh = io.StringIO()
    gridio._write_table(fh, [np.asarray(values, dtype=float).reshape(-1, 1)])
    return fh.getvalue()


def assert_matches_percent_g(values):
    values = np.asarray(values, dtype=float).ravel()
    got, want = kernel_text(values), ("%.17g\n" * values.size) % tuple(values.tolist())
    if got != want:
        for v, g, w in zip(values.tolist(), got.splitlines(), want.splitlines()):
            assert g == w, f"{v.hex()}: kernel wrote {g!r}, '%.17g' writes {w!r}"
        pytest.fail("line counts differ")


def around(values, ulps=3):
    """Each value and its `ulps` neighbours on either side."""
    out, up, down = [values], values, values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


POWERS_OF_TEN = np.array([float(f"1e{e}") for e in range(-323, 309)])


class TestKernelMatchesPercentG:
    """The vectorised kernel writes exactly the bytes of '%.17g' % v, here
    on 2 million values; '%.17g' itself takes most of the time."""

    def test_random_bit_patterns(self):
        rng = np.random.Generator(np.random.Philox(7))
        bits = rng.integers(0, 2**64, size=400_000, dtype=np.uint64, endpoint=False)
        special = np.array([0x7FF0000000000001, 0xFFF8000000000000, 0x7FF8DEADBEEF0000,
                            0x7FF0000000000000, 0xFFF0000000000000, 0, 1 << 63, 1,
                            0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF],
                           dtype=np.uint64)
        assert_matches_percent_g(np.concatenate([special, bits]).view(np.float64))

    def test_powers_of_ten_and_neighbours(self):
        values = around(POWERS_OF_TEN)
        assert_matches_percent_g(np.concatenate([values, -values]))

    def test_log10_rounding_up_to_the_power(self):
        # log10 rounds to -7.0 here, so X must be confirmed on the
        # unrounded scaled value, not on its rounded digits
        assert kernel_text([9.9999999999999995e-08, 1e23]) == (
            "9.9999999999999995e-08\n9.9999999999999992e+22\n")
        assert_matches_percent_g(np.nextafter(POWERS_OF_TEN, 0))

    def test_exact_ties_at_the_18th_digit(self):
        # n / 2**j with n odd has exactly len(str(n * 5**j)) digits, the
        # last a 5: an exact tie that rounds half to even
        rng = np.random.Generator(np.random.Philox(8))
        ties = [1234567890123456.25]
        for j in range(1, 60):
            lo, hi = -(-10**17 // 5**j), min((10**18 - 1) // 5**j, 2**53 - 1)
            for n in rng.integers(lo, hi, size=300, endpoint=True) if lo <= hi else []:
                n = int(n) | 1
                if len(str(n * 5**j)) == 18:
                    ties.append(n / 2**j)
        assert len(ties) > 5000
        ties = np.array(ties)
        assert kernel_text(ties[:1]) == "1234567890123456.2\n"
        assert_matches_percent_g(np.concatenate([ties, -ties, around(ties, 1)]))

    def test_carries_from_runs_of_nines(self):
        rng = np.random.Generator(np.random.Philox(9))
        texts = [f"{d}.{'9' * k}e{x}" for d in range(1, 10) for k in range(14, 20)
                 for x in range(-30, 31)]
        texts += [f"{int(p)}{'9' * k}e{int(x)}" for p, k, x in
                  zip(rng.integers(1, 10**6, 20000), rng.integers(11, 17, 20000),
                      rng.integers(-320, 300, 20000))]
        values = np.array([float(s) for s in texts])
        assert_matches_percent_g(np.concatenate([values, -values]))

    def test_notation_switches_and_long_exponents(self):
        rng = np.random.Generator(np.random.Philox(10))
        mantissa = 1.0 + 9.0 * rng.random(400_000)
        exponent = np.concatenate([rng.choice([-6, -5, -4, -3, 15, 16, 17, 18], 200_000),
                                   rng.choice(np.r_[-323:-99, 100:308], 200_000)])
        values = mantissa * 10.0 ** exponent.astype(float)
        assert_matches_percent_g(values * np.where(rng.random(values.size) < 0.5, -1, 1))

    def test_data_scaled_values(self):
        rng = np.random.Generator(np.random.Philox(16))
        assert_matches_percent_g(awkward_values(rng, 1_150_000))


class TestTableKernelBlocks:
    """Writer bytes equal the oracle's across block boundaries."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(gridio, "BLOCK", 16)

    def grid_bytes(self, tmp_path, x, z, values):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_grid_csv(new, x, z, values)
        oracle_write_grid_csv(old, x, z, values)
        return new.read_bytes(), old.read_bytes()

    def test_row_longer_than_a_block(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(11))
        t, Y = np.sort(rng.random(53)), edge_grid(rng, (3, 53))
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_curves_csv(new, t, Y)
        oracle_write_curves_csv(old, t, Y)
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("shape", [(7, 5), (5, 15), (4, 16), (3, 17), (2, 40)])
    def test_block_boundaries_inside_and_between_rows(self, tmp_path, shape):
        rng = np.random.Generator(np.random.Philox(12))
        x, z = np.sort(rng.random(shape[0])), np.sort(rng.random(shape[1]))
        new, old = self.grid_bytes(tmp_path, x, z, edge_grid(rng, shape))
        assert new == old

    @pytest.mark.parametrize("shape", [(1, 70), (70, 1)])
    def test_single_row_and_single_column(self, tmp_path, shape):
        rng = np.random.Generator(np.random.Philox(13))
        x, z = np.sort(rng.random(shape[0])), np.sort(rng.random(shape[1]))
        new, old = self.grid_bytes(tmp_path, x, z, awkward_values(rng, shape))
        assert new == old

    def test_all_fallback_table(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(14))
        pool = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310,
                         2.2250738585072014e-308, 1e300, -1.7976931348623157e308, 1.0,
                         1234567890123456.25])
        values = rng.choice(pool, (9, 11))
        new, old = self.grid_bytes(tmp_path, np.sort(rng.random(9)), np.linspace(0, 1, 11),
                                   values)
        assert new == old
        scatter_new, scatter_old = tmp_path / "s_new.csv", tmp_path / "s_old.csv"
        write_scatter_csv(scatter_new, *values[:3])
        oracle_write_scatter_csv(scatter_old, *values[:3])
        assert scatter_new.read_bytes() == scatter_old.read_bytes()


def test_full_size_blocks_match_oracle(tmp_path):
    # one row spanning more than two full blocks, plus a partial one
    rng = np.random.Generator(np.random.Philox(15))
    t, Y = np.sort(rng.random(2 * gridio.BLOCK + 3)), edge_grid(rng, (2, 2 * gridio.BLOCK + 3))
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_curves_csv(new, t, Y)
    oracle_write_curves_csv(old, t, Y)
    assert new.read_bytes() == old.read_bytes()


def test_smooth_cov_output_matches_oracle(tmp_path):
    # J = 300: the 300 x 301 body spans eleven full-size blocks
    curves = simulate_fda(1, 40, 300, 0.5, seed=31)
    cv, out, old = tmp_path / "cv.csv", tmp_path / "K.csv", tmp_path / "old.csv"
    write_curves_csv(cv, curves.t, curves.Y)
    assert main(["smooth-cov", "-i", str(cv), "-o", str(out)]) == 0
    t, t2, K = read_grid_csv(out)
    assert K.size > 10 * gridio.BLOCK
    oracle_write_grid_csv(old, t, t2, K)
    assert out.read_bytes() == old.read_bytes()


def test_writer_memory_does_not_grow_with_the_table(tmp_path):
    def traced_peak(n):
        x = midpoints(n)
        values = np.sin(np.add.outer(x, 2 * x))
        tracemalloc.start()
        try:
            write_grid_csv(tmp_path / "g.csv", x, x, values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    write_grid_csv(tmp_path / "g.csv", [0.5], [0.5], [[1.0]])  # builds the tables
    small, large = traced_peak(500), traced_peak(2000)
    assert large < 1.1 * small + 100_000, (small, large)


class TestWriterShapeChecks:
    """Mismatched shapes raise before the file is opened."""

    def test_grid(self, tmp_path):
        p = tmp_path / "g.csv"
        with pytest.raises(ValueError, match=r"shape \(3, 2\).*2 and 1"):
            write_grid_csv(p, [0.1, 0.2], [0.5], np.ones((3, 2)))
        assert not p.exists()

    def test_scatter(self, tmp_path):
        p = tmp_path / "s.csv"
        with pytest.raises(ValueError, match="3, 1 and 3"):
            write_scatter_csv(p, [0.1, 0.2, 0.3], [0.5], [1.0, 2.0, 3.0])
        assert not p.exists()

    def test_curves(self, tmp_path):
        p = tmp_path / "c.csv"
        with pytest.raises(ValueError, match=r"shape \(2, 3\).*2 entries"):
            write_curves_csv(p, [0.25, 0.75], np.ones((2, 3)))
        assert not p.exists()


class TestLongTableLabels:
    """Label columns go through the table kernel with the oracle's bytes."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(gridio, "BLOCK", 16)

    def long_bytes(self, tmp_path, header, blocks):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_long_csv(new, header, blocks)
        oracle_write_long_csv(old, header, block_rows(blocks))
        return new.read_bytes(), old.read_bytes()

    @pytest.mark.parametrize("label", ["a", "abcdefghijklmnopqrstuvwx", "bin_mean"])
    @pytest.mark.parametrize("at", [0, 2, 3], ids=["first", "middle", "last"])
    def test_label_first_middle_or_last(self, tmp_path, at, label):
        # rows of 5 columns: a block of 16 values holds 3 rows, so 7 rows
        # leave a short last block
        rng = np.random.Generator(np.random.Philox(21))
        values = edge_grid(rng, (7, 4))
        parts = [values[:, 0], values[:, 1:3], values[:, 3]]
        parts.insert(at, label)
        second = [values[:5, 0], values[:5, 1:3], values[:5, 3]]
        second.insert(at, "s")
        new, old = self.long_bytes(tmp_path, list("abcde"), [parts, second])
        assert new == old

    @pytest.mark.parametrize("at", [1, 15, 16, 20, 39])
    def test_label_inside_a_row_wider_than_a_block(self, tmp_path, at):
        rng = np.random.Generator(np.random.Philox(22))
        values = edge_grid(rng, (3, 39))
        parts = [values[:, :at], "x" * 24] + ([values[:, at:]] if at < 39 else [])
        new, old = self.long_bytes(tmp_path, [f"c{k}" for k in range(40)], [parts])
        assert new == old

    def test_full_size_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gridio, "BLOCK", 8192)
        rng = np.random.Generator(np.random.Philox(23))
        values = awkward_values(rng, (7001, 2))
        blocks = [[values[:, 0], "fitted", values[:, 1]], [values[:99, 1], "raw", values[:99, 0]]]
        new, old = self.long_bytes(tmp_path, ["x", "series", "value"], blocks)
        assert new == old

    @pytest.mark.parametrize("blocks, match", [
        ([[[0.5], "x" * 25]], "25 bytes"),
        ([[[0.5], "fitté"]], "ASCII"),
        ([[[0.5], "a\0b"]], "NUL"),
        ([[[0.5, 0.25], [1.0]]], "2, 1 rows"),
        ([[[0.5], "s", [1.0]]], "3 columns, but the header has 2"),
        ([[[0.5]]], "1 columns, but the header has 2"),
        ([[[0.5], "ok"], [[0.5], "x" * 25]], "25 bytes"),
    ])
    def test_bad_blocks_raise_before_the_file_opens(self, tmp_path, blocks, match):
        p = tmp_path / "l.csv"
        with pytest.raises(ValueError, match=match):
            write_long_csv(p, ["a", "b"], blocks)
        assert not p.exists()


class TestCliLongTablesMatchOracle:
    """Every long-format CLI artifact has the bytes of the oracle fed the
    rows that the per-row CLI code built.  Without spec or --lambda-grid
    options the CLI fits with the library's defaults, so the oracles pass
    none either."""

    def assert_long(self, path, header, rows):
        old = path.with_name("oracle.csv")
        oracle_write_long_csv(old, header, rows)
        assert path.read_bytes() == old.read_bytes()

    def test_smooth_grid(self, tmp_path):
        x, z = midpoints(13), midpoints(17)
        Y = np.sin(5 * np.add.outer(x, z)) + 0.2 * CounterNormals(4).normals((13, 17))
        inp, gcvp, plotp = (tmp_path / n for n in ("g.csv", "gcv.csv", "plot.csv"))
        write_grid_csv(inp, x, z, Y)
        assert main(["smooth-grid", "-i", str(inp), "--gcv-surface", str(gcvp),
                     "--emit-plotdata", str(plotp)]) == 0
        fit = select_lambda(GridData(Y, x, z))
        self.assert_long(gcvp, ["lambda_x", "lambda_z", "gcv"], [
            (l1, l2, fit.gcv_surface[i, j])
            for i, l1 in enumerate(fit.grids[0])
            for j, l2 in enumerate(fit.grids[1])])
        self.assert_long(plotp, ["x", "z", "series", "value"], [
            (x[i], z[j], series, vals[i, j])
            for series, vals in (("observed", Y), ("fitted", fit.fitted),
                                 ("residual", Y - fit.fitted))
            for i in range(13) for j in range(17)])

    def test_smooth_scatter_with_empty_bins(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(24))
        px, pz = rng.random(1500), rng.random(1500)
        keep = (px - 0.5) ** 2 + (pz - 0.5) ** 2 > 0.05
        px, pz = px[keep], pz[keep]
        py = np.cos(4 * px) * pz + 0.1 * rng.standard_normal(px.size)
        inp, plotp = tmp_path / "s.csv", tmp_path / "plot.csv"
        write_scatter_csv(inp, px, pz, py)
        assert main(["smooth-scatter", "-i", str(inp), "--bins", "12",
                     "--emit-plotdata", str(plotp)]) == 0
        sfit = iterative_fit(ScatterData(px, pz, py), 12, 12, max_iter=20)
        grid = sfit.binned
        assert grid.empty_mask.any()
        self.assert_long(plotp, ["x", "z", "series", "value"], [
            (grid.x_centers[i], grid.z_centers[j], "bin_mean", grid.means[i, j])
            for i, j in np.argwhere(~grid.empty_mask)] + [
            (grid.x_centers[i], grid.z_centers[j], "fitted", sfit.fit.fitted[i, j])
            for i in range(12) for j in range(12)])

    @pytest.mark.parametrize("flags", [[], ["--center", "--exclude-diagonal"]])
    def test_smooth_cov(self, tmp_path, flags):
        curves = simulate_fda(1, 20, 25, 0.5, seed=9)
        inp, eigp, plotp = (tmp_path / n for n in ("c.csv", "eig.csv", "plot.csv"))
        write_curves_csv(inp, curves.t, curves.Y)
        assert main(["smooth-cov", "-i", str(inp), "--eigen-output", str(eigp),
                     "--emit-plotdata", str(plotp), *flags]) == 0
        t = curves.t
        C = sample_cov(CurveSet(curves.Y, t), center=bool(flags))
        model = smooth_cov(C, t=t, exclude_diagonal=bool(flags))
        npairs = min(4, model.eigenvalues.size)
        values, funcs = eigenpairs(model, npairs)
        self.assert_long(eigp, ["eigenvalue"] + [f"t:{format(c, '.17g')}" for c in t],
                         [(values[i], *funcs[i]) for i in range(npairs)])
        self.assert_long(plotp, ["s", "t", "series", "value"], [
            (t[i], t[j], series, vals[i, j])
            for series, vals in (("raw", C), ("smoothed", model.smoothed_cov))
            for i in range(25) for j in range(25)])

    @pytest.mark.parametrize("shape", [(9, 11), (6, 7, 8), (5, 6, 6, 7)])
    def test_smooth_array(self, tmp_path, shape):
        values = CounterNormals(len(shape)).normals(shape)
        inp, plotp = tmp_path / "a.npy", tmp_path / "plot.csv"
        np.save(inp, values)
        assert main(["smooth-array", "-i", str(inp), "--lambda-grid", "6,-3,3",
                     "--emit-plotdata", str(plotp)]) == 0
        data = ArrayData.on_midpoints(values)
        fit = fit_array(data,
                        grids=(LambdaGrid.default(6, -3.0, 3.0).lambda_x,) * len(shape))
        d = len(shape)
        self.assert_long(plotp, [f"axis{k}" for k in range(d)] + ["fitted"], [
            tuple(data.coords[k][idx[k]] for k in range(d)) + (fit.fitted[idx],)
            for idx in np.ndindex(*shape)])

    @pytest.mark.parametrize("kind", ["surface", "fda"])
    def test_simulate(self, tmp_path, kind):
        plotp = tmp_path / "plot.csv"
        assert main(["simulate", "--kind", kind, "--reps", "3", "--size", "12,14",
                     "--emit-plotdata", str(plotp)]) == 0
        if kind == "surface":
            ises = run_surface_study("f2", 0.5, 12, 14, None, None, 1, 3)
        else:
            ises = replicate_ise(1, 12, 14, 0.5, 1, 3)
        self.assert_long(plotp, ["replicate", "ise"],
                         [(float(r), v) for r, v in enumerate(ises)])

    def test_kernel_check(self, tmp_path):
        plotp = tmp_path / "plot.csv"
        assert main(["kernel-check", "--emit-plotdata", str(plotp)]) == 0
        xs = np.linspace(-10.0, 10.0, 501)
        self.assert_long(plotp, ["m", "x", "kernel"], [
            (float(m), xv, hv) for m in (1, 2, 3) for xv, hv in zip(xs, kernel_eval(m, xs))])


def test_plotdata_memory_is_a_few_grids(tmp_path):
    # the long table costs its coordinate and residual columns, not a tuple per row
    x = midpoints(300)
    Y = np.sin(6 * np.add.outer(x, x)) + 0.3 * CounterNormals(5).normals((300, 300))
    inp = tmp_path / "g.csv"
    write_grid_csv(inp, x, x, Y)

    def traced_peak(*flags):
        tracemalloc.start()
        try:
            assert main(["smooth-grid", "-i", str(inp), "-o", str(tmp_path / "o.csv"),
                         *flags]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plot = ("--emit-plotdata", str(tmp_path / "plot.csv"))
    traced_peak(*plot)  # builds the kernel's tables
    without, with_plot = traced_peak(), traced_peak(*plot)
    assert with_plot - without <= 4 * Y.nbytes, (without / Y.nbytes, with_plot / Y.nbytes)
