"""Command-line tools for grid, scatter, covariance, and array smoothing.

Subcommands: smooth-grid, smooth-scatter, smooth-cov, smooth-array,
simulate, kernel-check, bench.  Exit codes: 0 success, 1 numeric
failure, 2 input or configuration error.

Each subcommand takes only the options its handler reads.  Options can
also come from a config file (``--config FILE``) holding ``key = value``
lines with ``#`` comments; keys are the long option names with dashes or
underscores (``knots = 10,15``), and a subcommand reads only its own.
Command-line flags override config values, which override built-in
defaults.  Every input error, usage errors included, is one
``sandsmooth: ...`` line on stderr.

Wall-clock fields in summaries (``elapsed_seconds``) are the only
output values that vary between identically configured runs; all
numeric artifacts are byte-identical under a fixed seed and BLAS thread
count.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .basis import AxisSpec, auto_knot_segments
from .binning import ScatterData, auto_bin_count, iterative_fit
from .fda import CurveSet, eigenpairs, replicate_ise, sample_cov, smooth_cov
from .glam import ArrayData, fit_array
from .gridio import (
    FileFormatError,
    read_curves_csv,
    read_grid_csv,
    read_scatter_csv,
    write_grid_csv,
    write_json,
    write_long_csv,
)
from .kernelcheck import kernel_eval, kernel_l2, kernel_moment, profile_gap
from .rng import CounterNormals, replicate_seed
from .sandwich2d import DegenerateFit, GridData, LambdaGrid, _resolve, select_lambda
from .spectra import SingularGram
from .surfaces import SURFACES, midpoints, sample_surface

__all__ = ["main"]

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INPUT = 2

# dest -> (config key, parser, default) of every declared option
_OPTIONS: dict = {}


# Each parser raises ValueError naming the rule a value breaks; build_config
# adds the option and the value, so a flag and a config line read alike.

def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ValueError("expected an integer") from None


def _parse_float(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ValueError("expected a number") from None


def _parse_axes_int(s: str) -> tuple:
    try:
        return tuple(int(f) for f in s.split(","))
    except ValueError:
        raise ValueError("expected comma-separated integers") from None


def _rule(parse, holds, rule):
    """parse, then require holds(value); else raise ValueError(rule)."""
    def parse_checked(s: str):
        value = parse(s)
        if not holds(value):
            raise ValueError(rule)
        return value
    return parse_checked


def _at_least(low, parse):
    """parse, then require the value, or each value of a tuple, >= low."""
    return _rule(parse, lambda value: all(v >= low for v in (
        value if isinstance(value, tuple) else (value,))), f"must be >= {low}")


def _one_of(choices, parse=str):
    """parse, then require the value to be one of choices."""
    return _rule(parse, lambda value: value in choices,
                 f"must be one of {list(choices)}")


_parse_pair = _rule(_parse_axes_int, lambda parts: len(parts) == 2,
                    "expected two comma-separated integers")


def _parse_knots(s: str) -> tuple:
    fields = [f.strip() for f in s.split(",")]
    try:
        knots = tuple(f if f == "auto" else int(f) for f in fields)
    except ValueError:
        raise ValueError("each knot count must be an integer or 'auto'") from None
    if any(k != "auto" and k < 1 for k in knots):
        raise ValueError("each knot count must be >= 1 or 'auto'")
    return knots


def _parse_lambda_grid(s: str) -> tuple:
    parts = s.split(",")
    if len(parts) != 3:
        raise ValueError("expected count,log10_low,log10_high")
    try:
        count = int(parts[0])
    except ValueError:
        raise ValueError("the count must be an integer") from None
    try:
        low, high = float(parts[1]), float(parts[2])
    except ValueError:
        raise ValueError("log10_low and log10_high must be numbers") from None
    if count < 1:
        raise ValueError("the count must be >= 1")
    if count > 1 and high <= low:
        raise ValueError("log10_high must exceed log10_low")
    for bound in (low, high):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            lam = np.power(10.0, bound)
        if not 0.0 < lam < np.inf:
            raise ValueError(f"bound {bound} gives 10^{bound} = {lam}, "
                             "not a positive finite float")
    return count, low, high


def _parse_bins(s: str):
    if s.strip() == "auto":
        return "auto"
    parts = _parse_axes_int(s)
    if len(parts) > 2:
        raise ValueError("expected 'auto' or one or two comma-separated integers")
    if min(parts) < 1:
        raise ValueError("must be >= 1 or 'auto'")
    return parts if len(parts) == 2 else parts * 2


def _parse_profile(s: str) -> tuple:
    parts = s.split(",")
    if len(parts) != 3:
        raise ValueError("expected n,knots,lambda")
    n, knots, lam = _parse_int(parts[0]), _parse_int(parts[1]), _parse_float(parts[2])
    if min(n, knots) < 1 or not 0.0 < lam < math.inf:  # lambda 0: bandwidth 0
        raise ValueError("n and knots must be >= 1, lambda finite and > 0")
    return n, knots, lam


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _opt(parser, flag, *aliases, dest=None, parse=str, default=None, **kw):
    """Declare an option on parser with its parser and its default.  The
    config key is the long flag's name; argparse keeps the flag's string,
    which build_config parses as it does the key's config value."""
    key = flag[2:].replace("-", "_")
    dest = dest or key
    parser.add_argument(flag, *aliases, dest=dest, default=None, **kw)
    _OPTIONS[dest] = key, parse, default


class _Parser(argparse.ArgumentParser):
    """Takes only whole flag names, so a subcommand's flag never stands in
    for another's (bench's --sizes for --size); reports a usage error as
    one line, as build_config reports a bad value."""

    def __init__(self, *args, **kw):
        super().__init__(*args, allow_abbrev=False, **kw)

    def error(self, message):
        self.exit(EXIT_INPUT, f"sandsmooth: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # parent parsers: each option is declared once and attached only to
    # the subcommands that read it
    base, plot, io, spec, lam, seed = (argparse.ArgumentParser(add_help=False)
                                       for _ in range(6))
    base.add_argument("--config", default=None, metavar="FILE",
                      help="key = value option file; flags override it")
    _opt(base, "--summary", metavar="FILE", help="write a JSON run summary")
    _opt(plot, "--emit-plotdata", metavar="FILE",
         help="write a tidy long-format CSV for external plotting")
    _opt(io, "--input", "-i", metavar="FILE")
    _opt(io, "--output", "-o", metavar="FILE")
    _opt(spec, "--degree", parse=_at_least(0, _parse_axes_int),
         metavar="P[,P...]", help="B-spline degree per axis (default 3)")
    _opt(spec, "--penalty-order", parse=_at_least(1, _parse_axes_int),
         metavar="M[,M...]", help="difference-penalty order per axis (default 2)")
    _opt(spec, "--knots", parse=_parse_knots,
         metavar="K[,K...]", help="knot segments per axis, or 'auto'")
    _opt(lam, "--lambda-grid", parse=_parse_lambda_grid,
         metavar="N,LO,HI", help="count,log10_low,log10_high (default: the "
         "fit's, up to 20 per axis between 10^-5 and 10^4)")
    # Philox keys, and so seeds, lie in [0, 2^128)
    _opt(seed, "--seed", parse=_rule(_at_least(0, _parse_int), lambda v: v < 2 ** 128,
                                      "must be < 2**128"),
         default=1, metavar="S", help="master seed (default 1)")

    top = _Parser(
        prog="sandsmooth",
        description="Fast bivariate and array penalized-spline smoothing.",
    )
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)
    smoother = [base, plot, io, spec, lam]

    g = sub.add_parser("smooth-grid", parents=smoother,
                       help="smooth a complete rectangular grid")
    _opt(g, "--gcv-surface", metavar="CSV",
         help="also write the lambda-grid GCV scores")

    s = sub.add_parser("smooth-scatter", parents=smoother,
                       help="bin scattered points, then smooth the bin means")
    _opt(s, "--bins", parse=_parse_bins, default="auto", metavar="I[,I]",
         help="bins per axis, or 'auto'")
    _opt(s, "--max-iter", parse=_at_least(1, _parse_int), default=20, metavar="N",
         help="lambda-search limit (default 20)")

    c = sub.add_parser("smooth-cov", parents=smoother,
                       help="smooth the sample covariance of a curve set")
    _opt(c, "--eigen-output", metavar="CSV",
         help="write leading eigenvalues and eigenfunctions")
    _opt(c, "--npairs", parse=_at_least(1, _parse_int), default=4, metavar="K",
         help="eigenpairs to report (default 4)")
    switch = {"parse": _parse_bool, "default": False, "action": "store_const",
              "const": "true"}
    _opt(c, "--center", **switch,
         help="subtract the mean curve before forming the covariance")
    _opt(c, "--exclude-diagonal", **switch,
         help="rebuild the noise-inflated diagonal from its neighbors")

    sub.add_parser("smooth-array", parents=smoother,
                   help="smooth a d-dimensional .npy array")

    m = sub.add_parser("simulate", parents=[base, plot, spec, lam, seed],
                       help="replicated accuracy studies with known truth")
    _opt(m, "--kind", parse=_one_of(("surface", "fda")), default="surface",
         metavar="WHAT", help="'surface' (grid MISE) or 'fda' (covariance ISE)")
    _opt(m, "--function", parse=_one_of(sorted(SURFACES)), default="f2",
         metavar="ID", help="test surface id: f1 or f2 (surface kind)")
    _opt(m, "--sigma", parse=_rule(_at_least(0, _parse_float), math.isfinite,
                                   "must be finite"),
         default=0.5, metavar="S", help="noise standard deviation (default 0.5)")
    _opt(m, "--size", parse=_at_least(2, _parse_pair), metavar="N1,N2",
         help="grid size, or curves,points for fda (defaults 20,30 / 25,20)")
    _opt(m, "--case", parse=_one_of((1, 2), _parse_int), default=1, metavar="C",
         help="fda eigenfunction family: 1 or 2")
    _opt(m, "--reps", parse=_at_least(1, _parse_int), default=100, metavar="N",
         help="replicates (default 100)")

    k = sub.add_parser("kernel-check", parents=[base, plot],
                       help="verify equivalent-kernel moments and constants")
    _opt(k, "--orders", parse=_at_least(1, _parse_axes_int), default=(1, 2, 3),
         metavar="M[,M...]", help="penalty orders to check (default 1,2,3)")
    _opt(k, "--profile", parse=_parse_profile, metavar="N,K,LAM",
         help="also compare smoother weights against the kernel curve")
    _opt(k, "--degree", dest="profile_degree", parse=_at_least(0, _parse_int),
         default=3, metavar="P", help="B-spline degree of the --profile smoother "
         "(default 3)")
    _opt(k, "--penalty-order", dest="profile_penalty_order",
         parse=_at_least(1, _parse_int), default=2, metavar="M",
         help="penalty order of the --profile smoother (default 2)")

    b = sub.add_parser("bench", parents=[base, lam, seed],
                       help="time the full GCV search on square grids")
    _opt(b, "--sizes", parse=_at_least(2, _parse_axes_int), default=(20, 40, 80),
         metavar="N[,N...]", help="per-axis grid sizes (default 20,40,80)")

    return top


def read_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment.  A key must name
    an option of some subcommand."""
    keys = {key for key, _, _ in _OPTIONS.values()}
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise FileFormatError(f"{path}:{lineno}: unknown option {key!r}")
        out[key] = value.strip()
    return out


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """The command's options, each from its flag, else from the config
    file, else its default.  Flag and config strings are parsed by the
    option's parser; a bad one raises ValueError naming the option, the
    value and the rule.  Config keys of other commands are not parsed."""
    config = read_config_file(args.config) if args.config else {}
    cfg = argparse.Namespace(command=args.command)
    for dest, raw in vars(args).items():
        if dest in ("command", "config"):
            continue
        key, parse, default = _OPTIONS[dest]
        raw = config.get(key) if raw is None else raw
        try:
            setattr(cfg, dest, default if raw is None else parse(raw))
        except ValueError as exc:
            raise ValueError(f"--{key.replace('_', '-')} {raw!r}: {exc}") from None
    return cfg


def _broadcast(values: tuple, d: int, name: str) -> tuple:
    if len(values) == 1:
        return values * d
    if len(values) != d:
        raise ValueError(f"--{name}: expected 1 or {d} values, got {len(values)}")
    return values


def fit_options(cfg: argparse.Namespace, lengths) -> tuple:
    """(specs, grids) from the spec and --lambda-grid options for axes of
    these lengths, 'auto' knots resolved; each is None, the fit's own
    default, when none of its options is given."""
    d = len(lengths)
    given = [(field, _broadcast(values, d, flag)) for field, flag, values in (
        ("degree", "degree", cfg.degree),
        ("penalty_order", "penalty-order", cfg.penalty_order),
        ("knot_segments", "knots", cfg.knots)) if values is not None]
    kws = [{field: values[axis] for field, values in given} for axis in range(d)]
    for kw, n in zip(kws, lengths):
        if kw.get("knot_segments", "auto") == "auto":
            kw["knot_segments"] = auto_knot_segments(n)
    specs = tuple(AxisSpec(**kw) for kw in kws) if given else None
    for axis, spec in enumerate(specs or ()):
        if spec.n_basis <= spec.penalty_order:
            raise ValueError(f"axis {axis}: --knots and --degree give {spec.n_basis} basis "
                             f"functions, too few for --penalty-order {spec.penalty_order}")
    grids = cfg.lambda_grid and (LambdaGrid.default(*cfg.lambda_grid).lambda_x,) * d
    return specs, grids


def _lambda_summary(cfg: argparse.Namespace, grids) -> dict:
    """The summary's lambda_grid block: the --lambda-grid count and range,
    else those of grids, the fit's default lists."""
    count, low, high = cfg.lambda_grid or (
        grids[0].size, *np.log10(grids[0][[0, -1]]).tolist())
    return {"count": count, "log10_low": low, "log10_high": high}


def _require_input(cfg: argparse.Namespace) -> str:
    if cfg.input is None:
        raise FileFormatError(f"{cfg.command}: --input is required")
    return cfg.input


def _mesh(*coords) -> list:
    """The coordinate columns of a grid's cells in C order, one per axis."""
    return [axis.ravel() for axis in np.meshgrid(*coords, indexing="ij")]


def _spec_summary(specs) -> dict:
    return {
        "degree": [s.degree for s in specs],
        "penalty_order": [s.penalty_order for s in specs],
        "knots": [s.knot_segments for s in specs],
    }


def cmd_smooth_grid(cfg: argparse.Namespace) -> int:
    x, z, Y = read_grid_csv(_require_input(cfg))
    data = GridData(Y, x, z)
    specs, grids = fit_options(cfg, data.shape)
    t0 = time.perf_counter()
    fit = select_lambda(data, specs, grids and LambdaGrid(*grids))
    elapsed = time.perf_counter() - t0
    if cfg.output:
        write_grid_csv(cfg.output, x, z, fit.fitted)
    if cfg.gcv_surface:
        write_long_csv(cfg.gcv_surface, ["lambda_x", "lambda_z", "gcv"],
                       [[*_mesh(*fit.grids), fit.gcv_surface.ravel()]])
    if cfg.emit_plotdata:
        xz = _mesh(x, z)
        write_long_csv(cfg.emit_plotdata, ["x", "z", "series", "value"],
                       [[*xz, series, vals.ravel()] for series, vals in (
                           ("observed", Y), ("fitted", fit.fitted),
                           ("residual", Y - fit.fitted))])
    if cfg.summary:
        write_json(cfg.summary, {
            "command": "smooth-grid",
            "input": cfg.input,
            "shape": list(data.shape),
            **_spec_summary(fit.specs),
            "lambda_grid": _lambda_summary(cfg, fit.grids),
            "lambda": list(fit.lambdas),
            "edf": fit.edf,
            "gcv": fit.gcv_value,
            "sse": fit.sse,
            "elapsed_seconds": elapsed,
        })
    print(f"smooth-grid: {data.shape[0]}x{data.shape[1]} grid, "
          f"lambda=({fit.lambdas[0]:.6g}, {fit.lambdas[1]:.6g}), "
          f"edf={fit.edf:.4g}, gcv={fit.gcv_value:.6g}")
    return EXIT_OK


def cmd_smooth_scatter(cfg: argparse.Namespace) -> int:
    x, z, y = read_scatter_csv(_require_input(cfg))
    data = ScatterData(x, z, y)
    if cfg.bins == "auto":
        i1 = i2 = auto_bin_count(data.n)
    else:
        i1, i2 = cfg.bins
    specs, grids = fit_options(cfg, (i1, i2))
    t0 = time.perf_counter()
    sfit = iterative_fit(data, i1, i2, specs, grids and LambdaGrid(*grids),
                         max_iter=cfg.max_iter)
    elapsed = time.perf_counter() - t0
    grid = sfit.binned
    if cfg.output:
        write_grid_csv(cfg.output, grid.x_centers, grid.z_centers,
                       sfit.fit.fitted)
    if cfg.emit_plotdata:
        occupied = ~grid.empty_mask.ravel()
        xz = _mesh(grid.x_centers, grid.z_centers)
        write_long_csv(cfg.emit_plotdata, ["x", "z", "series", "value"], [
            [*(c[occupied] for c in xz), "bin_mean", grid.means.ravel()[occupied]],
            [*xz, "fitted", sfit.fit.fitted.ravel()]])
    if cfg.summary:
        write_json(cfg.summary, {
            "command": "smooth-scatter",
            "input": cfg.input,
            "n_points": data.n,
            "bins": [i1, i2],
            "n_occupied": sfit.n_occupied,
            "iterations": sfit.iterations,
            "converged": sfit.converged,
            "cycled": sfit.cycled,
            **_spec_summary(sfit.fit.specs),
            "lambda": list(sfit.fit.lambdas),
            "edf": sfit.fit.edf,
            "masked_gcv": sfit.masked_gcv,
            "masked_sse": sfit.masked_sse,
            "elapsed_seconds": elapsed,
        })
    print(f"smooth-scatter: {data.n} points into {i1}x{i2} bins "
          f"({sfit.n_occupied} occupied), lambda=({sfit.fit.lambdas[0]:.6g}, "
          f"{sfit.fit.lambdas[1]:.6g}), iterations={sfit.iterations}, "
          f"converged={sfit.converged}")
    return EXIT_OK


def cmd_smooth_cov(cfg: argparse.Namespace) -> int:
    path = _require_input(cfg)
    t, Y = read_curves_csv(path)
    if min(Y.shape) < 2:
        raise FileFormatError(f"{path}: {len(Y)} curves of {t.size} points; need 2 of each")
    curves = CurveSet(Y, t)
    C = sample_cov(curves, center=cfg.center)
    specs, grids = fit_options(cfg, (curves.J,))
    t0 = time.perf_counter()
    model = smooth_cov(C, specs and specs[0], grids and grids[0], t,
                       exclude_diagonal=cfg.exclude_diagonal)
    elapsed = time.perf_counter() - t0
    npairs = min(cfg.npairs, model.eigenvalues.size)
    values, funcs = eigenpairs(model, npairs)
    if cfg.output:
        write_grid_csv(cfg.output, t, t, model.smoothed_cov)
    if cfg.eigen_output:
        header = ["eigenvalue"] + [f"t:{format(c, '.17g')}" for c in t]
        write_long_csv(cfg.eigen_output, header, [[values, funcs]])
    if cfg.emit_plotdata:
        st = _mesh(t, t)
        write_long_csv(cfg.emit_plotdata, ["s", "t", "series", "value"],
                       [[*st, series, vals.ravel()] for series, vals in (
                           ("raw", C), ("smoothed", model.smoothed_cov))])
    if cfg.summary:
        write_json(cfg.summary, {
            "command": "smooth-cov",
            "input": cfg.input,
            "n_curves": curves.n,
            "n_points": curves.J,
            "center": cfg.center,
            "exclude_diagonal": cfg.exclude_diagonal,
            **_spec_summary([model.spec]),
            "lambda": model.lam,
            "edf": model.edf,
            "gcv": model.gcv_value,
            "eigenvalues": list(values),
            "elapsed_seconds": elapsed,
        })
    print(f"smooth-cov: {curves.n} curves on {curves.J} points, "
          f"lambda={model.lam:.6g}, edf={model.edf:.4g}, "
          f"leading eigenvalue={values[0]:.6g}")
    return EXIT_OK


def cmd_smooth_array(cfg: argparse.Namespace) -> int:
    path = _require_input(cfg)
    try:
        values = np.load(path)
    except (OSError, ValueError) as exc:
        raise FileFormatError(f"{path}: not a loadable .npy array ({exc})") from None
    if not isinstance(values, np.ndarray):
        values.close()
        raise FileFormatError(f"{path}: an .npz archive; smooth-array reads one .npy array")
    if values.dtype.kind not in "biuf":
        raise FileFormatError(f"{path}: dtype {values.dtype} is not bool, integer or float")
    if values.ndim < 2:
        raise FileFormatError(f"{path}: shape {values.shape}; smooth-array needs 2 axes")
    data = ArrayData.on_midpoints(np.asarray(values, dtype=float))
    t0 = time.perf_counter()
    fit = fit_array(data, *fit_options(cfg, values.shape))
    elapsed = time.perf_counter() - t0
    if cfg.output:
        np.save(cfg.output, fit.fitted)
    if cfg.emit_plotdata:
        header = [f"axis{k}" for k in range(data.ndim)] + ["fitted"]
        write_long_csv(cfg.emit_plotdata, header,
                       [[*_mesh(*data.coords), fit.fitted.ravel()]])
    if cfg.summary:
        write_json(cfg.summary, {
            "command": "smooth-array",
            "input": cfg.input,
            "shape": list(values.shape),
            **_spec_summary(fit.specs),
            "lambda": list(fit.lambdas),
            "edf": fit.edf,
            "gcv": fit.gcv_value,
            "sse": fit.sse,
            "elapsed_seconds": elapsed,
        })
    lam_text = ", ".join(f"{l:.6g}" for l in fit.lambdas)
    print(f"smooth-array: shape {'x'.join(map(str, values.shape))}, "
          f"lambda=({lam_text}), edf={fit.edf:.4g}")
    return EXIT_OK


def run_surface_study(function: str, sigma: float, n1: int, n2: int,
                      specs, grid, seed: int, reps: int) -> np.ndarray:
    """Per-replicate ISE of the grid fit against the known surface.

    Replicate r adds sigma * normals from a stream keyed by seed + r,
    fits with GCV, and scores (1/n) sum (fitted - truth)^2 on the grid.
    """
    x, z, F = sample_surface(SURFACES[function].f, n1, n2)
    ises = np.empty(reps)
    for r in range(reps):
        eps = CounterNormals(replicate_seed(seed, r)).normals((n1, n2))
        fit = select_lambda(GridData(F + sigma * eps, x, z), specs=specs, grid=grid)
        ises[r] = np.mean((fit.fitted - F) ** 2)
    return ises


def cmd_simulate(cfg: argparse.Namespace) -> int:
    if cfg.seed + cfg.reps - 1 >= 2 ** 128:  # replicate r uses seed + r
        raise ValueError(f"--seed '{cfg.seed}': seed + reps - 1 must be < 2**128")
    t0 = time.perf_counter()
    if cfg.kind == "surface":
        n1, n2 = cfg.size if cfg.size else (20, 30)
        specs, grids = _resolve((n1, n2), *fit_options(cfg, (n1, n2)))
        ises = run_surface_study(cfg.function, cfg.sigma, n1, n2, specs,
                                 LambdaGrid(*grids), cfg.seed, cfg.reps)
        label = f"surface {cfg.function} {n1}x{n2}"
        params = {"function": cfg.function, "size": [n1, n2]}
    else:
        n, J = cfg.size if cfg.size else (25, 20)
        specs, grids = _resolve((J,), *fit_options(cfg, (J,)))
        ises = replicate_ise(cfg.case, n, J, cfg.sigma, cfg.seed, cfg.reps,
                             spec=specs[0], lams=grids[0])
        label = f"fda case {cfg.case} (n,J)=({n},{J})"
        params = {"case": cfg.case, "n_curves": n, "n_points": J}
    elapsed = time.perf_counter() - t0
    mise = float(ises.mean())
    sd = float(ises.std(ddof=1)) if ises.size > 1 else 0.0
    if cfg.emit_plotdata:
        write_long_csv(cfg.emit_plotdata, ["replicate", "ise"],
                       [[np.arange(ises.size, dtype=float), ises]])
    if cfg.summary:
        write_json(cfg.summary, {
            "command": "simulate",
            "kind": cfg.kind,
            **params,
            **_spec_summary(specs),
            "sigma": cfg.sigma,
            "seed": cfg.seed,
            "reps": cfg.reps,
            "lambda_grid": _lambda_summary(cfg, grids),
            "mise": mise,
            "sd_ise": sd,
            "elapsed_seconds": elapsed,
        })
    print(f"simulate {label}: sigma={cfg.sigma:g} reps={cfg.reps} "
          f"MISE={mise:.6g} (sd {sd:.6g})")
    return EXIT_OK


def cmd_kernel_check(cfg: argparse.Namespace) -> int:
    all_pass = True
    moments: dict = {}
    l2: dict = {}
    for m in cfg.orders:
        moments[str(m)] = {}
        for l in range(2 * m + 1):
            got = kernel_moment(m, l)
            if l == 2 * m:
                target = (-1.0) ** (m + 1) * math.factorial(2 * m)
                tol = 1e-6 * math.factorial(2 * m)
            else:
                target = 1.0 if l == 0 else 0.0
                tol = 1e-6
            ok = abs(got - target) <= tol
            all_pass = all_pass and ok
            moments[str(m)][str(l)] = got
            print(f"kernel-check: m={m} l={l}: moment={got: .12e} "
                  f"target={target:g} {'pass' if ok else 'FAIL'}")
        l2[str(m)] = kernel_l2(m)
        print(f"kernel-check: m={m} L2={l2[str(m)]:.12g}")
    gap = None
    if cfg.profile:
        n, k, lam = cfg.profile
        gap = profile_gap(n, k, lam, cfg.profile_degree, cfg.profile_penalty_order)
        print(f"kernel-check: profile n={n} knots={k} lambda={lam:g} "
              f"max-abs gap={gap:.4f}")
    if cfg.emit_plotdata:
        xs = np.linspace(-10.0, 10.0, 501)
        write_long_csv(cfg.emit_plotdata, ["m", "x", "kernel"],
                       [[np.full(xs.size, float(m)), xs, kernel_eval(m, xs)]
                        for m in cfg.orders])
    if cfg.summary:
        write_json(cfg.summary, {
            "command": "kernel-check",
            "orders": list(cfg.orders),
            "moments": moments,
            "l2": l2,
            "profile_gap": gap,
            "all_pass": all_pass,
        })
    print(f"kernel-check: {'all pass' if all_pass else 'FAILURES above'}")
    return EXIT_OK if all_pass else EXIT_NUMERIC


def bench_knots(n: int) -> int:
    """Knots per axis for timing runs: the fits' default rule for small
    grids, n^0.65 beyond that so the basis keeps growing sublinearly."""
    if n <= 100:
        return auto_knot_segments(n)
    return round(n ** 0.65)


def cmd_bench(cfg: argparse.Namespace) -> int:
    results = []
    grid = cfg.lambda_grid and LambdaGrid.default(*cfg.lambda_grid)
    for n in cfg.sizes:
        K = bench_knots(n)
        x, z, F = sample_surface(SURFACES["f2"].f, n, n)
        Y = F + 0.5 * CounterNormals(cfg.seed).normals((n, n))
        spec = AxisSpec(knot_segments=K)
        t0 = time.perf_counter()
        fit = select_lambda(GridData(Y, x, z), specs=(spec, spec), grid=grid)
        dt = time.perf_counter() - t0
        if not (math.isfinite(dt) and dt > 0 and math.isfinite(fit.gcv_value)):
            raise FloatingPointError(f"bench at n={n} produced a bad timing")
        results.append({"n_per_axis": n, "knots": K, "seconds": dt,
                        "edf": fit.edf})
        print(f"bench: n={n}^2 knots={K}^2 "
              f"pairs={fit.gcv_surface.size}: {dt:.3f}s edf={fit.edf:.1f}")
    if cfg.summary:
        write_json(cfg.summary, {"command": "bench", "results": results})
    return EXIT_OK


_HANDLERS = {
    "smooth-grid": cmd_smooth_grid,
    "smooth-scatter": cmd_smooth_scatter,
    "smooth-cov": cmd_smooth_cov,
    "smooth-array": cmd_smooth_array,
    "simulate": cmd_simulate,
    "kernel-check": cmd_kernel_check,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
    except (FileFormatError, ValueError) as exc:
        print(f"sandsmooth: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return _HANDLERS[cfg.command](cfg)
    except (SingularGram, DegenerateFit, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"sandsmooth: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileFormatError as exc:
        print(f"sandsmooth: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"sandsmooth: {exc.filename}: file not found", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"sandsmooth: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
