import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import sandsmooth
from sandsmooth.cli import bench_knots, build_parser, main
from sandsmooth.fda import simulate_fda
from sandsmooth.glam import ArrayData, fit_array
from sandsmooth.gridio import (
    read_grid_csv,
    write_curves_csv,
    write_grid_csv,
    write_scatter_csv,
)
from sandsmooth.rng import CounterNormals
from sandsmooth.sandwich2d import GridData, LambdaGrid, select_lambda
from sandsmooth.surfaces import SURFACES, midpoints, sample_surface


def make_grid_csv(path, n1=20, n2=30, sigma=0.1, seed=3):
    x, z, F = sample_surface(SURFACES["f2"].f, n1, n2)
    Y = F + sigma * CounterNormals(seed).normals((n1, n2))
    write_grid_csv(path, x, z, Y)
    return x, z, Y


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so modules imported by other tests do not count
    src = str(Path(sandsmooth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, sandsmooth.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def summary_of(path):
    out = json.loads(path.read_text())
    out.pop("elapsed_seconds", None)  # wall clock, the one volatile field
    return out


class TestSmoothGrid:
    def test_end_to_end(self, tmp_path):
        inp = tmp_path / "in.csv"
        make_grid_csv(inp)
        out, sump, gcvp = (tmp_path / n for n in ("fit.csv", "s.json", "g.csv"))
        rc = main(["smooth-grid", "-i", str(inp), "-o", str(out),
                   "--summary", str(sump), "--gcv-surface", str(gcvp)])
        assert rc == 0
        sm = json.loads(sump.read_text())
        l1, l2 = sm["lambda"]
        assert 1e-5 <= l1 <= 1e4 and 1e-5 <= l2 <= 1e4
        assert 4 < sm["edf"] < 150
        assert sm["knots"] == [10, 15]
        assert len(gcvp.read_text().splitlines()) == 1 + 400

    def test_round_trip_matches_library_fit(self, tmp_path):
        inp = tmp_path / "in.csv"
        make_grid_csv(inp)
        out = tmp_path / "fit.csv"
        assert main(["smooth-grid", "-i", str(inp), "-o", str(out)]) == 0
        x, z, Y = read_grid_csv(inp)
        fit = select_lambda(GridData(Y, x, z))
        _, _, fitted_file = read_grid_csv(out)
        npt.assert_array_equal(fitted_file, fit.fitted)

    def test_empty_input_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_text("")
        assert main(["smooth-grid", "-i", str(inp)]) == 2
        assert "in.csv:1" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["smooth-grid", "-i", str(tmp_path / "nope.csv")]) == 2

    def test_missing_input_flag_exits_2(self, capsys):
        assert main(["smooth-grid"]) == 2
        assert "--input" in capsys.readouterr().err

    def test_non_finite_value_exits_2(self, tmp_path, capsys):
        x = z = midpoints(5)
        Y = np.ones((5, 5))
        Y[1, 2] = np.nan
        inp = tmp_path / "in.csv"
        write_grid_csv(inp, x, z, Y)
        assert main(["smooth-grid", "-i", str(inp)]) == 2
        assert "Y[1, 2] is nan; values must be finite" in capsys.readouterr().err

    def test_singular_basis_exits_1(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        make_grid_csv(inp, n1=5, n2=5)
        rc = main(["smooth-grid", "-i", str(inp), "--knots", "10,10"])
        assert rc == 1
        assert "numeric failure" in capsys.readouterr().err

    def test_short_axis_names_the_knot_limit(self, tmp_path, capsys):
        # 4 rows under the auto rule: 2 cubic segments, 5 basis functions
        inp = tmp_path / "in.csv"
        make_grid_csv(inp, n1=4, n2=30)
        assert main(["smooth-grid", "-i", str(inp)]) == 1
        err = capsys.readouterr().err
        assert ("an axis of 4 points cannot determine 5 basis functions "
                "(knot_segments=2, degree=3); use at most 1 knot segment") in err

    def test_degree_zero_failure_is_one_stderr_line(self, tmp_path):
        # a fresh interpreter, whose warnings reach stderr: degree 0 adds no
        # advisory line to the one error line (one point: one basis function)
        inp = tmp_path / "in.csv"
        write_grid_csv(inp, [0.5], [0.5], np.ones((1, 1)))
        src = str(Path(sandsmooth.__file__).resolve().parents[1])
        code = "import sys; from sandsmooth.cli import main; sys.exit(main(sys.argv[1:]))"
        run = subprocess.run(
            [sys.executable, "-W", "default", "-c", code, "smooth-grid", "-i", str(inp),
             "--degree", "0"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60)
        assert run.returncode == 2
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("sandsmooth: "), run.stderr

    def test_huge_values_fit_without_overflow(self, tmp_path):
        x, z = midpoints(20), midpoints(30)
        Y = 1e160 * (1 + 0.1 * CounterNormals(4).normals((20, 30)))
        inp, out = tmp_path / "in.csv", tmp_path / "fit.csv"
        write_grid_csv(inp, x, z, Y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["smooth-grid", "-i", str(inp), "-o", str(out)]) == 0
        _, _, fitted = read_grid_csv(out)
        assert np.all(np.isfinite(fitted))
        npt.assert_allclose(fitted.mean(), Y.mean(), rtol=0.01)

    def test_summary_is_strict_json_past_the_float_range(self, tmp_path):
        # the SSE of a 1e160 grid (about 1e318) reads inf; JSON has no token
        # for it, so the summary holds the string "inf"
        x, z = midpoints(20), midpoints(30)
        Y = 1e160 * (1 + 0.1 * CounterNormals(4).normals((20, 30)))
        inp, sump = tmp_path / "in.csv", tmp_path / "s.json"
        write_grid_csv(inp, x, z, Y)
        assert main(["smooth-grid", "-i", str(inp), "--summary", str(sump)]) == 0

        def no_constants(name):
            raise ValueError(f"non-standard JSON token {name}")

        sm = json.loads(sump.read_text(), parse_constant=no_constants)
        assert sm["sse"] == "inf"
        assert sm["gcv"] == "inf"
        assert all(np.isfinite(sm["lambda"]))

    def test_determinism_byte_identical(self, tmp_path):
        inp = tmp_path / "in.csv"
        make_grid_csv(inp)
        names = ("fit.csv", "gcv.csv", "plot.csv")
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            rc = main(["smooth-grid", "-i", str(inp),
                       "-o", str(d / "fit.csv"),
                       "--gcv-surface", str(d / "gcv.csv"),
                       "--emit-plotdata", str(d / "plot.csv"),
                       "--summary", str(d / "s.json")])
            assert rc == 0
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        assert summary_of(tmp_path / "a" / "s.json") == \
            summary_of(tmp_path / "b" / "s.json")


class TestConfigFile:
    def test_config_sets_and_flag_overrides(self, tmp_path):
        inp = tmp_path / "in.csv"
        make_grid_csv(inp)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(
            "# axis setup\nknots = 8,9\nlambda-grid = 10,-3,3\n"
        )
        sump = tmp_path / "s.json"
        rc = main(["smooth-grid", "--config", str(cfgp), "-i", str(inp),
                   "--summary", str(sump)])
        assert rc == 0
        assert json.loads(sump.read_text())["knots"] == [8, 9]

        rc = main(["smooth-grid", "--config", str(cfgp), "-i", str(inp),
                   "--summary", str(sump), "--knots", "12"])
        assert rc == 0
        assert json.loads(sump.read_text())["knots"] == [12, 12]

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("knotz = 8\n")
        assert main(["smooth-grid", "--config", str(cfgp)]) == 2
        assert "knotz" in capsys.readouterr().err

    def test_bad_syntax_exits_2(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("just some words\n")
        assert main(["smooth-grid", "--config", str(cfgp)]) == 2

    def test_bad_value_exits_2(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("reps = many\n")
        assert main(["simulate", "--config", str(cfgp)]) == 2

    def test_validation_catches_bad_combo(self, tmp_path, capsys):
        assert main(["simulate", "--reps", "0"]) == 2
        assert "reps" in capsys.readouterr().err

    def test_removed_threads_key_exits_2(self, tmp_path, capsys):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("threads = 2\n")
        assert main(["simulate", "--config", str(cfgp)]) == 2
        assert "unknown option 'threads'" in capsys.readouterr().err


class TestUsageErrors:
    """A usage error exits 2 with one line, not argparse's usage block."""

    @pytest.mark.parametrize("argv", [
        [], ["nosuch"], ["simulate", "--bogus"], ["simulate", "--threads", "2"],
    ], ids=["no subcommand", "unknown subcommand", "unknown flag", "removed --threads"])
    def test_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sandsmooth: ")


class TestLambdaGridBounds:
    """A --lambda-grid bound whose power of ten is not a positive finite
    float exits 2 with one line naming the option, the value and the
    bound, from the flag or from a config file, before numpy can warn."""

    @pytest.mark.parametrize("grid, bound", [
        ("3,-5,nan", "nan"), ("2,-5,inf", "inf"), ("1,400,400", "400.0"),
        ("2,-400,1", "-400.0")])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_one_line_naming_the_bound(self, tmp_path, capsys, grid, bound, route):
        inp = tmp_path / "in.csv"
        make_grid_csv(inp)
        if route == "flag":
            args = ["--lambda-grid", grid]
        else:
            cfgp = tmp_path / "run.cfg"
            cfgp.write_text(f"lambda-grid = {grid}\n")
            args = ["--config", str(cfgp)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["smooth-grid", "-i", str(inp), *args]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"sandsmooth: --lambda-grid {grid!r}: bound {bound} ")
        assert f"10^{bound} = " in err[0]


MALFORMED = [
    ("smooth-grid", "--degree", "3,x", "expected comma-separated integers"),
    ("smooth-grid", "--penalty-order", "two", "expected comma-separated integers"),
    ("smooth-grid", "--knots", "x", "each knot count must be an integer or 'auto'"),
    ("smooth-grid", "--lambda-grid", "3,5,4", "log10_high must exceed log10_low"),
    ("smooth-grid", "--lambda-grid", "3,-5", "expected count,log10_low,log10_high"),
    ("smooth-grid", "--lambda-grid", "0,-5,4", "the count must be >= 1"),
    ("smooth-grid", "--lambda-grid", "x,-5,4", "the count must be an integer"),
    ("smooth-grid", "--lambda-grid", "3,low,4",
     "log10_low and log10_high must be numbers"),
    ("simulate", "--seed", "1.5", "expected an integer"),
    ("simulate", "--reps", "many", "expected an integer"),
    ("simulate", "--sigma", "big", "expected a number"),
    ("simulate", "--size", "20", "expected two comma-separated integers"),
    ("simulate", "--case", "one", "expected an integer"),
    ("smooth-scatter", "--bins", "0,0,0",
     "expected 'auto' or one or two comma-separated integers"),
    ("smooth-scatter", "--max-iter", "x", "expected an integer"),
    ("smooth-cov", "--npairs", "x", "expected an integer"),
    ("kernel-check", "--orders", "1,,2", "expected comma-separated integers"),
    ("kernel-check", "--profile", "200,40", "expected n,knots,lambda"),
    ("bench", "--sizes", "20;40", "expected comma-separated integers"),
]


PROFILE_RULE = "n and knots must be >= 1, lambda finite and > 0"
OUT_OF_RANGE = [
    ("smooth-grid", "--degree", "3,-1", "must be >= 0"),
    ("smooth-grid", "--penalty-order", "0", "must be >= 1"),
    ("smooth-grid", "--knots", "8,0", "each knot count must be >= 1 or 'auto'"),
    ("smooth-grid", "--lambda-grid", "2,-5,inf",
     "bound inf gives 10^inf = inf, not a positive finite float"),
    ("smooth-scatter", "--bins", "4,0", "must be >= 1 or 'auto'"),
    ("smooth-scatter", "--max-iter", "0", "must be >= 1"),
    ("smooth-cov", "--npairs", "0", "must be >= 1"),
    ("simulate", "--reps", "0", "must be >= 1"),
    ("simulate", "--kind", "grid", "must be one of ['surface', 'fda']"),
    ("simulate", "--function", "f3", "must be one of ['f1', 'f2']"),
    ("simulate", "--sigma", "-0.5", "must be >= 0"),
    ("simulate", "--sigma", "nan", "must be >= 0"),
    ("simulate", "--sigma", "inf", "must be finite"),
    ("simulate", "--seed", "-3", "must be >= 0"),
    ("simulate", "--seed", str(2**128 - 1), "seed + reps - 1 must be < 2**128"),
    ("simulate", "--case", "3", "must be one of [1, 2]"),
    ("simulate", "--size", "20,1", "must be >= 2"),
    ("kernel-check", "--orders", "1,0", "must be >= 1"),
    ("kernel-check", "--degree", "-1", "must be >= 0"),
    ("kernel-check", "--degree", "2,3", "expected an integer"),
    ("kernel-check", "--penalty-order", "0", "must be >= 1"),
    ("kernel-check", "--profile", "50,10,nan", PROFILE_RULE),
    ("kernel-check", "--profile", "50,10,0", PROFILE_RULE),
    ("kernel-check", "--profile", "1,0,-1", PROFILE_RULE),
    ("kernel-check", "--profile", "0,10,1", PROFILE_RULE),
    ("bench", "--sizes", "20,1", "must be >= 2"),
    ("bench", "--seed", "-1", "must be >= 0"),
    ("bench", "--seed", str(2**128), "must be < 2**128"),
]


class TestMalformedFlags:
    """A malformed or out-of-range value exits 2 with one line naming the
    option, the value and the rule it breaks, the same from a flag as from
    a config file."""

    @pytest.mark.parametrize("command, flag, value, rule", MALFORMED + OUT_OF_RANGE,
                             ids=[f"{f} {v}" for _, f, v, _ in MALFORMED]
                             + [f"{c} {f} {v}" for c, f, v, _ in OUT_OF_RANGE])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_one_line_naming_the_rule(self, tmp_path, capsys, command, flag, value,
                                      rule, route):
        if route == "flag":
            args = [flag, value]
        else:
            cfgp = tmp_path / "run.cfg"
            cfgp.write_text(f"{flag[2:]} = {value}\n")
            args = ["--config", str(cfgp)]
        assert main([command, *args]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"sandsmooth: {flag} {value!r}: {rule}"]


# the options each subcommand's handler reads; every one also takes --config
READS = {
    "smooth-grid": "input output gcv-surface emit-plotdata summary degree "
                   "penalty-order knots lambda-grid",
    "smooth-scatter": "input output bins max-iter emit-plotdata summary degree "
                      "penalty-order knots lambda-grid",
    "smooth-cov": "input output eigen-output npairs center exclude-diagonal "
                  "emit-plotdata summary degree penalty-order knots lambda-grid",
    "smooth-array": "input output emit-plotdata summary degree penalty-order "
                    "knots lambda-grid",
    "simulate": "kind function sigma size case seed reps emit-plotdata summary "
                "degree penalty-order knots lambda-grid",
    "kernel-check": "orders profile degree penalty-order emit-plotdata summary",
    "bench": "sizes seed lambda-grid summary",
}
# the options every subcommand used to accept, read or not
SHARED = ("degree", "penalty-order", "knots", "lambda-grid", "seed", "reps",
          "emit-plotdata", "summary")
UNREAD = [(command, flag) for command, reads in READS.items()
          for flag in SHARED if flag not in reads.split()]


class TestOptionsPerCommand:
    """Each subcommand takes exactly the options its handler reads; any
    other exits 2 in one line.  A config file serves every subcommand: a
    command parses only its own keys."""

    @pytest.mark.parametrize("command, flag", UNREAD,
                             ids=[" --".join(u) for u in UNREAD])
    def test_unread_shared_flag_exits_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, f"--{flag}", "4"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"sandsmooth: unrecognized arguments: --{flag} 4"]

    @pytest.mark.parametrize("command", READS)
    def test_takes_exactly_its_options(self, capsys, command):
        parser = build_parser()
        for option in sorted({o for reads in READS.values() for o in reads.split()}):
            value = [] if option in ("center", "exclude-diagonal") else ["4"]
            argv = [command, f"--{option}", *value, "--config", "run.cfg"]
            if option in READS[command].split():
                args = parser.parse_args(argv)
                assert args.config == "run.cfg"
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)

    def test_other_commands_keys_are_not_parsed(self, tmp_path, capsys):
        inp, sump = tmp_path / "in.csv", tmp_path / "s.json"
        make_grid_csv(inp)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("knots = 8,9\nreps = 0\nseed = x\nbins = 0,0,0\n"
                        "sizes = none\ncase = 7\n")
        assert main(["smooth-grid", "--config", str(cfgp), "-i", str(inp),
                     "--summary", str(sump)]) == 0
        assert json.loads(sump.read_text())["knots"] == [8, 9]
        assert main(["kernel-check", "--config", str(cfgp), "--orders", "1"]) == 0
        assert main(["bench", "--config", str(cfgp)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "sandsmooth: --seed 'x': expected an integer"]

    def test_unknown_key_beside_other_commands_keys_exits_2(self, tmp_path, capsys):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("reps = 3\nsizes = 20\nknotz = 8\n")
        assert main(["smooth-grid", "--config", str(cfgp)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"sandsmooth: {cfgp}:3: unknown option 'knotz'"]


class TestFinePass:
    """The fine pass is removed: --fine-pass, from a flag or a config line,
    is an unknown option on every command, reported in one line."""

    @staticmethod
    def assert_rejected(argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--fine-pass", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sandsmooth: ")
        assert "--fine-pass" in err[0]
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("fine-pass = 2\n")
        assert main(argv + ["--config", str(cfgp)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("unknown option 'fine_pass'")

    @pytest.mark.parametrize("argv", [["smooth-grid"], ["simulate"]], ids=" ".join)
    def test_rejected_by_grid_fits(self, argv, tmp_path, capsys):
        self.assert_rejected(argv, tmp_path, capsys)

    @pytest.mark.parametrize("argv", [
        ["smooth-scatter"], ["smooth-cov"], ["smooth-array"], ["kernel-check"],
        ["bench"], ["simulate", "--kind", "fda"],
    ], ids=" ".join)
    def test_rejected_where_no_grid_fit_runs(self, argv, tmp_path, capsys):
        self.assert_rejected(argv, tmp_path, capsys)


class TestSmoothScatter:
    def test_fully_occupied_equals_grid_command(self, tmp_path):
        # one point per bin center: binning is exact, so the scatter run
        # must reproduce the grid run on the same table of means
        i1, i2 = 8, 10
        cx, cz = midpoints(i1), midpoints(i2)
        X, Z = np.meshgrid(cx, cz, indexing="ij")
        y = SURFACES["f2"].f(X, Z) + 0.05 * CounterNormals(9).normals((i1, i2))
        sc = tmp_path / "sc.csv"
        write_scatter_csv(sc, X.ravel(), Z.ravel(), y.ravel())
        gr = tmp_path / "gr.csv"
        write_grid_csv(gr, cx, cz, y)

        out_s, out_g = tmp_path / "fs.csv", tmp_path / "fg.csv"
        assert main(["smooth-scatter", "-i", str(sc), "-o", str(out_s),
                     "--bins", f"{i1},{i2}"]) == 0
        assert main(["smooth-grid", "-i", str(gr), "-o", str(out_g)]) == 0
        assert out_s.read_bytes() == out_g.read_bytes()

    def test_sparse_scatter_runs(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(17))
        x, z = rng.random(300), rng.random(300)
        y = SURFACES["f1"].f(x, z) + 0.1 * rng.standard_normal(300)
        sc = tmp_path / "sc.csv"
        write_scatter_csv(sc, x, z, y)
        sump = tmp_path / "s.json"
        rc = main(["smooth-scatter", "-i", str(sc), "--summary", str(sump),
                   "--bins", "15"])
        assert rc == 0
        sm = json.loads(sump.read_text())
        assert sm["bins"] == [15, 15]
        assert sm["n_occupied"] < 225
        assert sm["iterations"] >= 1

    def test_out_of_domain_point_exits_2(self, tmp_path, capsys):
        sc = tmp_path / "sc.csv"
        write_scatter_csv(sc, [0.2, 1.7], [0.3, 0.4], [1.0, 2.0])
        assert main(["smooth-scatter", "-i", str(sc)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "sandsmooth: x[1] is 1.7; coordinates must lie within [0, 1]"]

    def test_non_finite_response_exits_2(self, tmp_path, capsys):
        sc = tmp_path / "sc.csv"
        write_scatter_csv(sc, [0.2, 0.7, 0.5], [0.3, 0.4, 0.9], [1.0, np.nan, 2.0])
        assert main(["smooth-scatter", "-i", str(sc)]) == 2
        assert "y[1] is nan" in capsys.readouterr().err

    def test_holed_scatter_reports_the_exact_fit(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(18))
        x, z = rng.random((2, 1500))
        keep = (x - 0.5) ** 2 + (z - 0.5) ** 2 > 0.2 ** 2
        y = SURFACES["f2"].f(x[keep], z[keep]) + 0.1 * rng.standard_normal(keep.sum())
        sc = tmp_path / "sc.csv"
        write_scatter_csv(sc, x[keep], z[keep], y)
        sump = tmp_path / "s.json"
        assert main(["smooth-scatter", "-i", str(sc), "--summary", str(sump),
                     "--bins", "20"]) == 0
        sm = json.loads(sump.read_text())
        assert sm["n_occupied"] < 400
        assert sm["converged"] is True and sm["cycled"] is False
        assert 2 <= sm["iterations"] <= 4

    def test_one_occupied_row_exits_1(self, tmp_path, capsys):
        # every point at x = 0.31: the x-trend of the fit is undetermined
        rng = np.random.Generator(np.random.Philox(19))
        z = rng.random(50)
        sc = tmp_path / "sc.csv"
        write_scatter_csv(sc, np.full(50, 0.31), z, rng.standard_normal(50))
        out = tmp_path / "fs.csv"
        assert main(["smooth-scatter", "-i", str(sc), "-o", str(out),
                     "--bins", "10"]) == 1
        err = capsys.readouterr().err
        assert "in 1 of 10 rows and 10 of 10 columns" in err
        assert "cannot determine" in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["init = zero", "fill-m = 3"])
    def test_removed_start_options_exit_2(self, tmp_path, capsys, line):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(line + "\n")
        assert main(["smooth-scatter", "--config", str(cfgp)]) == 2
        key = line.split(" ")[0].replace("-", "_")
        assert f"unknown option '{key}'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["smooth-scatter", "--" + line.split(" ")[0], "1"])
        assert exc.value.code == 2


class TestSmoothCov:
    def test_huge_curves_fit(self, tmp_path):
        # the squares of two curves near 1e154 sum past the float range,
        # their mean square does not
        t = midpoints(12)
        Y = 1e154 * np.stack([1.2 + 0.1 * np.sin(2 * np.pi * t), -1.1 - 0.2 * t])
        cv, out = tmp_path / "cv.csv", tmp_path / "K.csv"
        write_curves_csv(cv, t, Y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["smooth-cov", "-i", str(cv), "-o", str(out)]) == 0
        _, _, K = read_grid_csv(out)
        assert np.isfinite(K).all() and K.max() > 1e307

    def test_end_to_end(self, tmp_path):
        curves = simulate_fda(1, 40, 20, 0.5, seed=23)
        cv = tmp_path / "cv.csv"
        write_curves_csv(cv, curves.t, curves.Y)
        out, eig, sump = (tmp_path / n for n in ("K.csv", "eig.csv", "s.json"))
        rc = main(["smooth-cov", "-i", str(cv), "-o", str(out),
                   "--eigen-output", str(eig), "--summary", str(sump),
                   "--npairs", "3", "--exclude-diagonal"])
        assert rc == 0
        t, t2, K = read_grid_csv(out)
        npt.assert_array_equal(t, t2)
        npt.assert_allclose(K, K.T, atol=1e-12)
        assert len(eig.read_text().splitlines()) == 1 + 3
        sm = json.loads(sump.read_text())
        assert len(sm["eigenvalues"]) == 3
        assert sm["lambda"] >= 0.0

    def test_npairs_clamped_to_basis_dimension(self, tmp_path):
        # J = 20 gives 10 knot segments, so c = 13 cubic B-splines
        curves = simulate_fda(1, 40, 20, 0.5, seed=23)
        cv = tmp_path / "cv.csv"
        write_curves_csv(cv, curves.t, curves.Y)
        eig, sump = tmp_path / "eig.csv", tmp_path / "s.json"
        rc = main(["smooth-cov", "-i", str(cv), "--eigen-output", str(eig),
                   "--summary", str(sump), "--npairs", "50"])
        assert rc == 0
        assert len(eig.read_text().splitlines()) == 1 + 13
        assert len(json.loads(sump.read_text())["eigenvalues"]) == 13

    def test_single_lambda_is_the_grid_helpers(self, tmp_path):
        # --lambda-grid 1,LO,HI pins the first value of the N,LO,HI list
        curves = simulate_fda(1, 40, 20, 0.5, seed=23)
        cv, sump = tmp_path / "cv.csv", tmp_path / "s.json"
        write_curves_csv(cv, curves.t, curves.Y)
        for low in ("-5", "-2.5", "1"):
            assert main(["smooth-cov", "-i", str(cv), "--summary", str(sump),
                         "--lambda-grid", f"1,{low},4"]) == 0
            lam = json.loads(sump.read_text())["lambda"]
            assert lam == LambdaGrid.default(7, float(low), 4.0).lambda_x[0]

    @pytest.mark.parametrize("swap, extra", [(False, []), (True, ["--exclude-diagonal"])])
    def test_repeated_or_unsorted_t_exits_2(self, tmp_path, capsys, swap, extra):
        # an unsorted t would rebuild the diagonal from index neighbours
        curves = simulate_fda(1, 40, 30, 0.5, seed=23)
        t = np.linspace(0.05, 0.95, 30)
        t[7] = 0.25
        t[6] = 0.3 if swap else 0.25
        cv = tmp_path / "cv.csv"
        write_curves_csv(cv, t, curves.Y)
        assert main(["smooth-cov", "-i", str(cv), *extra]) == 2
        err = capsys.readouterr().err
        assert "t[7] is 0.25; coordinates must be strictly increasing" in err

    def test_ragged_curves_exit_2(self, tmp_path):
        cv = tmp_path / "cv.csv"
        cv.write_text("t:0.25,t:0.75\n1.0,2.0\n3.0\n")
        assert main(["smooth-cov", "-i", str(cv)]) == 2


class TestSmoothArray:
    def test_constant_array_reproduced(self, tmp_path):
        arr = np.full((16, 16, 8), 2.5)
        inp, out = tmp_path / "a.npy", tmp_path / "f.npy"
        np.save(inp, arr)
        rc = main(["smooth-array", "-i", str(inp), "-o", str(out),
                   "--lambda-grid", "6,-3,3"])
        assert rc == 0
        npt.assert_allclose(np.load(out), arr, atol=1e-10)

    def test_huge_values_fit_without_overflow(self, tmp_path):
        rng = np.random.default_rng(11)
        arr = 1e160 * (1 + 0.1 * rng.normal(size=(12, 14, 10)))
        inp, out, sump = tmp_path / "a.npy", tmp_path / "f.npy", tmp_path / "s.json"
        np.save(inp, arr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["smooth-array", "-i", str(inp), "-o", str(out),
                       "--summary", str(sump)])
        assert rc == 0
        fitted = np.load(out)
        assert np.all(np.isfinite(fitted))
        npt.assert_allclose(fitted.mean(), arr.mean(), rtol=0.01)
        assert json.loads(sump.read_text())["sse"] == "inf"

    @pytest.mark.parametrize("shape", [(7, 9), (6, 7, 8), (5, 6, 6, 7)])
    def test_default_options_fit_as_fit_array(self, tmp_path, shape):
        # 20 candidates per axis would exceed the guard at d = 4; the CLI
        # takes fit_array's own defaults, which stay within it
        values = CounterNormals(len(shape)).normals(shape)
        inp, out, want = tmp_path / "a.npy", tmp_path / "f.npy", tmp_path / "w.npy"
        np.save(inp, values)
        assert main(["smooth-array", "-i", str(inp), "-o", str(out)]) == 0
        np.save(want, fit_array(ArrayData.on_midpoints(values)).fitted)
        assert out.read_bytes() == want.read_bytes()

    def test_single_lambda_is_the_grid_helpers(self, tmp_path):
        rng = np.random.default_rng(12)
        inp, sump = tmp_path / "a.npy", tmp_path / "s.json"
        np.save(inp, rng.normal(size=(12, 14, 10)))
        assert main(["smooth-array", "-i", str(inp), "--summary", str(sump),
                     "--lambda-grid", "1,-5,4"]) == 0
        lam = LambdaGrid.default(20, -5.0, 4.0).lambda_x[0]
        assert json.loads(sump.read_text())["lambda"] == [lam] * 3

    def test_values_near_the_float_limit_fit(self, tmp_path):
        rng = np.random.default_rng(14)
        inp, out = tmp_path / "a.npy", tmp_path / "f.npy"
        np.save(inp, 1e307 * (1 + 0.1 * rng.normal(size=(20, 20, 20))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["smooth-array", "-i", str(inp), "-o", str(out)]) == 0
        assert np.all(np.isfinite(np.load(out)))

    def test_zero_length_axis_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "a.npy"
        np.save(inp, np.zeros((4, 0, 5)))
        assert main(["smooth-array", "-i", str(inp)]) == 2
        assert "coords[1] must be a non-empty vector" in capsys.readouterr().err

    def test_not_an_npy_exits_2(self, tmp_path):
        inp = tmp_path / "a.npy"
        inp.write_text("plain text")
        assert main(["smooth-array", "-i", str(inp)]) == 2

    @pytest.mark.parametrize("values, named", [
        (np.full((6, 6), 1 + 2j), "complex128"),
        (np.array([["a", "b"], ["c", "d"]]), "<U1"),
        (np.zeros((4, 4), dtype=[("a", float), ("b", int)]), "('a', '<f8')"),
        (np.array([[1.0, None], [None, 2.0]], dtype=object), "Object arrays"),
    ])
    def test_non_real_dtype_exits_2(self, tmp_path, capsys, values, named):
        inp = tmp_path / "a.npy"
        np.save(inp, values, allow_pickle=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a dropped imaginary part must not warn and fit
            assert main(["smooth-array", "-i", str(inp)]) == 2
        err = capsys.readouterr().err
        assert str(inp) in err and named in err

    def test_npz_archive_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "a.npz"
        np.savez(inp, Y=np.ones((6, 6)))
        assert main(["smooth-array", "-i", str(inp)]) == 2
        err = capsys.readouterr().err
        assert str(inp) in err and ".npz archive" in err

    @pytest.mark.parametrize("dtype", [bool, np.int32, np.uint8, np.float32])
    def test_real_dtypes_fit_as_float(self, tmp_path, dtype):
        values = (CounterNormals(2).normals((7, 9)) > 0).astype(dtype)
        inp, out, want = tmp_path / "a.npy", tmp_path / "f.npy", tmp_path / "w.npy"
        np.save(inp, values)
        np.save(tmp_path / "float.npy", values.astype(float))
        args = ["--lambda-grid", "5,-2,2"]
        assert main(["smooth-array", "-i", str(inp), "-o", str(out), *args]) == 0
        assert main(["smooth-array", "-i", str(tmp_path / "float.npy"), "-o", str(want),
                     *args]) == 0
        assert out.read_bytes() == want.read_bytes()


class TestSimulate:
    def test_noise_free_below_noisy(self, tmp_path):
        mises = {}
        for sigma in ("0", "0.1"):
            sump = tmp_path / f"s{sigma}.json"
            rc = main(["simulate", "--function", "f1", "--sigma", sigma,
                       "--reps", "3", "--seed", "5", "--summary", str(sump)])
            assert rc == 0
            mises[sigma] = json.loads(sump.read_text())["mise"]
        assert 0.0 < mises["0"] < mises["0.1"]

    @pytest.mark.parametrize("kind", ["surface", "fda"])
    def test_same_seed_is_deterministic(self, tmp_path, kind):
        outs = []
        for tag in "ab":
            sump = tmp_path / f"{tag}.json"
            plotp = tmp_path / f"{tag}.csv"
            rc = main(["simulate", "--kind", kind, "--reps", "4", "--seed", "11",
                       "--summary", str(sump), "--emit-plotdata", str(plotp)])
            assert rc == 0
            outs.append((summary_of(sump), plotp.read_bytes()))
        assert outs[0] == outs[1]

    def test_fda_kind(self, tmp_path):
        sump = tmp_path / "s.json"
        rc = main(["simulate", "--kind", "fda", "--case", "2", "--reps", "2",
                   "--seed", "8", "--size", "10,12", "--summary", str(sump)])
        assert rc == 0
        sm = json.loads(sump.read_text())
        assert sm["case"] == 2
        assert sm["mise"] > 0.0

    # squared errors near sigma^2 (surface) and sigma^4 (covariance)
    @pytest.mark.parametrize("kind, sigma", [("surface", "1e300"), ("fda", "1e150")])
    def test_mise_past_the_float_range_reads_inf(self, tmp_path, kind, sigma):
        sump = tmp_path / "s.json"
        argv = ["simulate", "--kind", kind, "--sigma", sigma, "--reps", "2",
                "--size", "12,14", "--summary", str(sump)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        sm = json.loads(sump.read_text())
        assert sm["mise"] == sm["sd_ise"] == "inf"

    def test_stdout_reports_mise(self, capsys):
        assert main(["simulate", "--reps", "2", "--size", "12,14"]) == 0
        assert "MISE=" in capsys.readouterr().out


class TestKernelCheck:
    def test_default_orders_pass(self, tmp_path, capsys):
        sump = tmp_path / "k.json"
        rc = main(["kernel-check", "--summary", str(sump),
                   "--profile", "400,80,10"])
        assert rc == 0
        sm = json.loads(sump.read_text())
        assert sm["all_pass"] is True
        assert sm["profile_gap"] <= 0.1
        assert sm["moments"]["3"]["6"] == pytest.approx(720.0, rel=1e-6)
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "all pass" in out

    def test_bad_order_exits_2(self):
        assert main(["kernel-check", "--orders", "0"]) == 2

    def test_failed_moments_are_one_stderr_line(self, capsys):
        # the closed-form moment sums lose precision at order 8
        assert main(["kernel-check", "--orders", "8"]) == 1
        out, err = capsys.readouterr()
        assert "FAIL" in out
        assert err.splitlines() == ["sandsmooth: kernel-check: failed moment checks: 1"]

    def test_profile_basis_too_small_names_the_options(self, capsys):
        argv = ["kernel-check", "--profile", "19,2,1e-4", "--degree", "0",
                "--penalty-order", "3"]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "sandsmooth: --profile knots 2 and --degree 0 give 2 basis functions, "
            "too few for --penalty-order 3"]

    def test_singular_profile_system_exits_1(self, capsys):
        # 4 points, 12 basis functions and lambda near zero
        argv = ["kernel-check", "--profile", "4,9,1e-300", "--penalty-order", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "sandsmooth: numeric failure: B'B + lam D'D is numerically singular"]

    def test_plotdata_curve(self, tmp_path):
        plotp = tmp_path / "k.csv"
        rc = main(["kernel-check", "--orders", "1", "--emit-plotdata",
                   str(plotp)])
        assert rc == 0
        assert len(plotp.read_text().splitlines()) == 1 + 501


class TestBench:
    def test_small_sizes_run(self, tmp_path, capsys):
        sump = tmp_path / "b.json"
        rc = main(["bench", "--sizes", "20,40", "--summary", str(sump)])
        assert rc == 0
        rows = json.loads(sump.read_text())["results"]
        assert [r["knots"] for r in rows] == [10, 20]
        assert all(np.isfinite(r["seconds"]) and r["seconds"] > 0 for r in rows)
        assert "bench: n=20^2" in capsys.readouterr().out

    def test_knot_rule(self):
        assert bench_knots(20) == 10
        assert bench_knots(40) == 20
        assert bench_knots(80) == 35
        assert bench_knots(500) == 57
