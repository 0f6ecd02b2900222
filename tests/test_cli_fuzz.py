"""A fuzz gate for the smoothing subcommands of the command-line tools.

Generated input files, small and often malformed, and generated option
values drive cli.main for smooth-grid, smooth-scatter, smooth-cov and
smooth-array.  Whatever the input, a run ends in exit 0, 1 or 2 without a
traceback (an exception escaping main fails the test) or a RuntimeWarning.
A failed run prints exactly one ``sandsmooth: ...`` line on stderr; an
input error (exit 2) names the input file (with the line at fault, where
one line is), an index or an option.  A run that succeeds writes a finite
fitted artifact that its reader accepts, and a summary whose only
non-finite values are an SSE or a GCV past the float range, which the
summary writes as the string "inf".  The library's advisory UserWarning
for degree-0 splines is not part of the error report.
"""

import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sandsmooth.cli import main
from sandsmooth.gridio import read_grid_csv

SPECIAL = [math.nan, math.inf, -math.inf]
# per file: ordinary values, or values near 1e300 or 1e-300
SCALES = [1.0, 1e300, -1e300, 1e-300, 1.7e308]
# the squares of |v| below this stay far inside the float range on these
# small inputs, so no SSE or GCV of theirs may read inf
HUGE = 1e150
# summary fields that read "inf" when the true value is past the float range
SQUARED = {"sse", "gcv", "masked_sse", "masked_gcv"}
# --lambda-grid bounds: ordinary ones and ones near +-300, then ones whose
# 10^bound is past the float range
BOUNDS = [-5.0, 0.0, 4.0, -300.0, -299.5, 299.5, 300.0, 308.0]
BAD_BOUNDS = [-330.0, -324.0, -308.5, 308.3, 309.0]

# Each run is tame or wild.  A tame run has 2 to 6 points per axis on the
# midpoints, a full file of finite values and options in range, so that
# many runs fit; a wild one has 0 to 6 points per axis, coordinates that
# may be duplicate, unsorted, outside [0, 1] or not finite, NaN and
# infinite cells, ragged, empty and header-only files, and options out of
# range or of the wrong count.


def side(wild):
    return st.integers(0 if wild else 2, 6)


@st.composite
def cells(draw, n, wild):
    """n values on one drawn scale; in a wild run a few may be NaN or
    infinite."""
    scale = draw(st.sampled_from(SCALES))
    values = [scale * v for v in draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))]
    if n and wild and draw(st.booleans()):
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            values[i] = draw(st.sampled_from(SPECIAL))
    return values


@st.composite
def coordinates(draw, n, wild):
    """n coordinates: the midpoints of [0, 1], or in a wild run drawn ones."""
    if not (wild and draw(st.booleans())):
        return [(i + 0.5) / n for i in range(n)]
    return draw(st.lists(st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, 0.5] + SPECIAL),
                         min_size=n, max_size=n))


def text(v):
    return repr(float(v))


@st.composite
def table(draw, header, rows, wild):
    """A CSV text of a header line and rows of fields; in a wild run one
    row may lose or gain a field, and the file may be empty or hold the
    header alone."""
    shape = draw(st.sampled_from(["full", "ragged", "header only", "empty"])) if wild else "full"
    if shape == "empty":
        return ""
    if shape == "header only":
        rows = []
    elif shape == "ragged" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1.0"]
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


@st.composite
def grid_file(draw, wild):
    n1, n2 = draw(side(wild)), draw(side(wild))
    x, z = draw(coordinates(n1, wild)), draw(coordinates(n2, wild))
    values = draw(cells(n1 * n2, wild))
    rows = [[f"x:{text(x[i])}"] + [text(v) for v in values[i * n2:(i + 1) * n2]]
            for i in range(n1)]
    return draw(table([""] + [f"z:{text(c)}" for c in z], rows, wild)), values


@st.composite
def scatter_file(draw, wild):
    n = draw(st.integers(0 if wild else 4, 36))
    # points on part of the square leave empty bins for the fit to fill
    width = draw(st.sampled_from([1.0, 0.6]))
    x, z = (draw(st.lists(st.floats(0, width), min_size=n, max_size=n)) for _ in "xz")
    if wild:
        x, z = draw(coordinates(n, wild)), draw(coordinates(n, wild))
    y = draw(cells(n, wild))
    rows = [[text(a), text(b), text(c)] for a, b, c in zip(x, z, y)]
    return draw(table(["x", "z", "y"], rows, wild)), y


@st.composite
def curves_file(draw, wild):
    n, J = draw(side(wild)), draw(side(wild))
    t = draw(coordinates(J, wild))
    Y = draw(cells(n * J, wild))
    rows = [[text(v) for v in Y[i * J:(i + 1) * J]] for i in range(n)]
    # the fit sums the squares of the covariance, fourth powers of Y
    return draw(table([f"t:{text(c)}" for c in t], rows, wild)), [v * v for v in Y]


@st.composite
def array_file(draw, wild):
    """.npy bytes of a float array, C- or F-ordered, of 2 or 3 axes; in a
    wild run of 1 to 3 axes of 0 to 6 entries, or of another dtype, or
    bytes that are no .npy file."""
    kind = draw(st.sampled_from(["float", "int", "complex", "junk"])) if wild else "float"
    if kind == "junk":
        return b"not an array\n", []
    shape = tuple(draw(st.lists(side(wild), min_size=1 if wild else 2, max_size=3)))
    values = draw(cells(math.prod(shape), wild))
    a = np.array(values, dtype=float).reshape(shape)
    if kind == "int":
        a = np.nan_to_num(a).clip(-1e6, 1e6).astype(int)
    elif kind == "complex":
        a = a + 1j
    elif draw(st.booleans()):
        a = np.asfortranarray(a)
    buf = io.BytesIO()
    np.save(buf, a)
    return buf.getvalue(), values


def some(values):
    """A list of 1 or 2 of values, as comma-separated text."""
    return st.lists(st.sampled_from(values), min_size=1, max_size=2).map(
        lambda v: ",".join(map(str, v)))


@st.composite
def fit_flags(draw, wild):
    """Basis and lambda options of the smoothing subcommands: the defaults
    or a basis of 2 functions per axis, which axes of 2 points determine;
    in a wild run also drawn values."""
    basis = draw(st.sampled_from(["default", "small"] + ["drawn"] * wild))
    flags = []
    if basis == "small":
        flags += ["--knots", "1", "--degree", "1", "--penalty-order", "1"]
    elif basis == "drawn":
        flags += ["--knots", draw(some([1, 2, 3, "auto", 0]))]
        flags += ["--degree", draw(some([1, 2, 3, 0]))]
        flags += ["--penalty-order", draw(some([1, 2, 3, 0]))]
    if draw(st.booleans()):
        count = draw(st.integers(0 if wild else 1, 5))
        bounds = st.sampled_from(BOUNDS + BAD_BOUNDS * wild)
        low, high = sorted(draw(st.lists(bounds, min_size=2, max_size=2, unique=True)))
        if wild and draw(st.booleans()):
            low, high = high, low
        flags += ["--lambda-grid", f"{count},{low!r},{high!r}"]
    return flags


@st.composite
def runs(draw):
    """(command, input bytes, input file name, the input's values, flags)."""
    command = draw(st.sampled_from(["smooth-grid", "smooth-scatter",
                                    "smooth-cov", "smooth-array"]))
    wild = draw(st.booleans())
    flags = draw(fit_flags(wild))
    if command == "smooth-array":
        data, values = draw(array_file(wild))
        return command, data, "in.npy", values, flags
    make = {"smooth-grid": grid_file, "smooth-scatter": scatter_file,
            "smooth-cov": curves_file}[command]
    content, values = draw(make(wild))
    if command == "smooth-scatter" and draw(st.booleans()):
        flags += ["--bins", draw(some([6, 4, 2] + [1, 0] * wild))]
    if command == "smooth-cov":
        flags += draw(st.sampled_from([[], ["--center"], ["--exclude-diagonal"]]))
    return command, content.encode(), "in.csv", values, flags


def run_main(argv):
    """(exit code, stderr, warnings) of one run of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
    return rc, err.getvalue(), caught


def check_summary(summary, values):
    """Every summary number is finite, but an SSE or a GCV may read "inf"
    when the input holds values whose squares near the float range."""
    huge = any(math.isfinite(v) and abs(v) >= HUGE for v in values)

    def walk(key, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(k, v)
        elif isinstance(value, list):
            for v in value:
                walk(key, v)
        elif isinstance(value, str) and value in ("inf", "-inf", "nan"):
            assert key in SQUARED and value == "inf" and huge, (key, value)
        elif isinstance(value, float):
            assert math.isfinite(value), (key, value)

    walk(None, summary)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(run=runs())
def test_smoothing_commands_fail_cleanly(tmp_path, run):
    command, data, name, values, flags = run
    inp, summary = tmp_path / name, tmp_path / "s.json"
    out = tmp_path / f"out{inp.suffix}"
    for stale in (out, summary):
        stale.unlink(missing_ok=True)
    inp.write_bytes(data)
    argv = [command, "-i", str(inp), "-o", str(out), "--summary", str(summary), *flags]
    rc, err, caught = run_main(argv)
    assert rc in (0, 1, 2), (argv, rc, err)
    numeric = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not numeric, (argv, numeric)
    if rc:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("sandsmooth: "), (argv, err)
        if rc == 2:
            named = rf"{re.escape(str(inp))}:|\w\[\d+|--[a-z]"
            assert re.search(named, lines[0]), (argv, err)
        return
    if command == "smooth-array":
        fitted = np.load(out)
        assert fitted.shape == np.load(inp).shape
    else:
        fitted = read_grid_csv(out)[2]
    assert np.all(np.isfinite(fitted)), argv
    check_summary(json.loads(summary.read_text()), values)
