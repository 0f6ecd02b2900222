"""Inputs, operations, correctness checks and accuracy of the workloads.

Every input comes from numpy's Philox generator keyed by (seed, workload,
stream) and from truth functions written in this file.  Nothing here uses
``sandsmooth.rng`` or ``sandsmooth.surfaces``, so a change to those modules
cannot change a workload.  Candidate grids and knot counts are pinned here
too (to today's library defaults) for the in-process workloads; only
``grid-cli`` relies on the program's own defaults, because that is what a
command-line user gets.

A workload object has one method per phase of an op:

* ``inputs(k)`` builds the inputs of op ``k`` (``k = WARMUP`` for the
  untimed warm-up op); it runs outside every timed span;
* ``run(inp)`` is the op itself, the only timed part;
* ``collect(out)`` turns what ``run`` returned into the output to check
  (it reads the CLI's files, outside the timed span);
* ``check(inp, out)`` returns a list of problems, empty when the output is
  correct;
* ``rel_ise(inp, out)`` is ||fit - truth||^2 / ||truth||^2;
* ``corruptions(out)`` returns damaged copies of an output, each of which
  ``check`` must flag (the run's self-test); by default the one copy that
  ``corrupt(out)`` makes.

There are two workloads: ``grid-cli`` and ``in-process``.  The latter runs
three stages in one op, ``engine-mem``, ``scatter-holes`` and ``cov-dense``,
each of which is written as a workload of its own.

The traced run also uses ``probes(out)`` (extra public calls timed outside
the op), ``memory_op(inp)`` (the in-process calls whose working memory is
measured) and ``op_counts(inp, out)`` (counts read off the result).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import sandsmooth.binning as binning
import sandsmooth.fda as fda
import sandsmooth.glam as glam
import sandsmooth.sandwich2d as sandwich2d
from sandsmooth.basis import AxisSpec

WARMUP = -1
LAMBDAS_20 = np.logspace(-5.0, 4.0, 20)
LAMBDAS_10 = np.logspace(-5.0, 4.0, 10)
# A CLI child gets this long before the op counts as failed; a healthy op
# takes about two seconds.
CLI_TIMEOUT_S = 60.0


def generator(seed: int, workload: int, *stream: int) -> np.random.Generator:
    """Philox stream for one workload; ``stream`` separates ops and roles."""
    key = np.random.SeedSequence([seed, workload, *stream])
    return np.random.Generator(np.random.Philox(key))


def midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def surface(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Noise-free bivariate truth: a tilted wave, a narrow bump and a ramp.

    The bump is narrower than a knot span at 35 segments, so much of the
    error is bias that does not depend on the noise draw; that keeps
    ``rel_ise`` steady across seeds.  Arguments broadcast.
    """
    return (0.8 * np.sin(2 * np.pi * (x + 0.6 * z)) * np.cos(3 * np.pi * z)
            + 1.2 * np.exp(-((x - 0.35) ** 2 + (z - 0.65) ** 2) / (2 * 0.015 ** 2))
            + 0.5 * x * z)


def volume(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Noise-free trivariate truth for the array fit.  Arguments broadcast."""
    return (np.sin(2 * np.pi * x) * np.cos(np.pi * y)
            + np.exp(-((x - 0.5) ** 2 + (y - 0.4) ** 2 + (z - 0.6) ** 2)
                     / (2 * 0.1 ** 2))
            + z ** 2)


def hole_surface(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Noise-free truth for scattered data, with structure under the hole."""
    return (1.5 * np.exp(-((x - 0.5) ** 2 + (z - 0.5) ** 2) / (2 * 0.2 ** 2))
            + np.sin(2 * np.pi * x) * z)


def eigenfunctions(t: np.ndarray) -> np.ndarray:
    """Four orthonormal functions on [0, 1], as rows."""
    return np.stack([np.sqrt(2.0) * np.sin(k * np.pi * t) for k in (1, 2, 3, 4)])


COV_EIGENVALUES = np.array([1.0, 0.6, 0.35, 0.2])


def rel_error(fit: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sum((fit - truth) ** 2) / np.sum(truth * truth))


def on_grid(value: float, grid: np.ndarray) -> bool:
    return bool(np.any(grid == value))


def finite_shape(name: str, a: np.ndarray, shape: tuple) -> list[str]:
    a = np.asarray(a)
    if a.shape != shape:
        return [f"{name} has shape {a.shape}, expected {shape}"]
    if not np.all(np.isfinite(a)):
        return [f"{name} has non-finite entries"]
    return []


def write_grid(path: str, x: np.ndarray, z: np.ndarray, Y: np.ndarray) -> None:
    """Grid table in the CLI's layout, 17 significant digits (exact round trip)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("," + ",".join(f"z:{v:.17g}" for v in z) + "\n")
        for xi, row in zip(x, Y):
            fh.write(f"x:{xi:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def parse_grid(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a grid table independently of ``sandsmooth.gridio``."""
    lines = text.splitlines()
    z = np.array([float(f[2:]) for f in lines[0].split(",")[1:]])
    rows = [line.split(",") for line in lines[1:]]
    x = np.array([float(r[0][2:]) for r in rows])
    Y = np.array([[float(v) for v in r[1:]] for r in rows])
    return x, z, Y


def grid_truth(f, *axes: np.ndarray) -> np.ndarray:
    return f(*np.meshgrid(*axes, indexing="ij", sparse=True))


class Workload:
    """Defaults shared by the workloads."""

    # True when the op runs in a child process, which records its own spans
    trace_child = False
    # seconds per stage of the last op, for a workload made of stages
    stage_times = None

    def collect(self, out):
        return out

    def probes(self, out) -> list:
        return []

    def memory_op(self, inp):
        return self.run(inp)

    def op_counts(self, inp, out) -> dict:
        return {}

    def corruptions(self, out) -> list:
        return [self.corrupt(out)]


@dataclasses.dataclass(frozen=True)
class CliOutput:
    """What a ``smooth-grid`` child left behind."""

    returncode: int
    stderr: str
    raw: bytes = b""
    summary: dict | None = None


class GridCli(Workload):
    """``sandsmooth.cli smooth-grid`` as a fresh child process per op.

    Every op reads the same input file, so every output must be the same
    bytes; the values are compared once with an in-process fit.
    """

    name = "grid-cli"
    n = 500
    sigma = 0.25
    trace_child = True

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.input = os.path.join(workdir, "in.csv")
        self.output = os.path.join(workdir, "out.csv")
        self.summary = os.path.join(workdir, "summary.json")
        self.x = midpoints(self.n)
        self.truth = grid_truth(surface, self.x, self.x)
        self.first_hash = None
        self.first_rel_ise = None
        self.output_bytes = 0
        # set by the traced run: argv that replaces ``-m sandsmooth.cli``
        self.trace_argv = None
        if not os.path.exists(self.input):
            self.write_input()

    def write_input(self) -> None:
        noise = generator(self.seed, 0, 0).standard_normal((self.n, self.n))
        write_grid(self.input, self.x, self.x, self.truth + self.sigma * noise)

    def sizes(self) -> dict:
        return {"grid": [self.n, self.n], "lambda_pairs": LAMBDAS_20.size ** 2,
                "knots": "auto", "input_bytes": os.path.getsize(self.input),
                "output_bytes": self.output_bytes}

    def command(self) -> list[str]:
        args = ["smooth-grid", "-i", self.input, "-o", self.output,
                "--summary", self.summary]
        return [sys.executable, *(self.trace_argv or ["-m", "sandsmooth.cli"]),
                *args]

    def inputs(self, k: int):
        for path in (self.output, self.summary):
            if os.path.exists(path):
                os.remove(path)
        return None

    def run(self, inp):
        return subprocess.run(self.command(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)

    def collect(self, proc) -> CliOutput:
        stderr = proc.stderr.decode(errors="replace")[-300:]
        if proc.returncode != 0:
            return CliOutput(proc.returncode, stderr)
        with open(self.output, "rb") as fh:
            raw = fh.read()
        self.output_bytes = len(raw)
        with open(self.summary, encoding="utf-8") as fh:
            summary = json.load(fh)
        return CliOutput(proc.returncode, stderr, raw, summary)

    def check(self, inp, out: CliOutput) -> list[str]:
        if out.returncode != 0:
            return [f"exit code {out.returncode}: {out.stderr}"]
        problems = []
        digest = hashlib.sha256(out.raw).hexdigest()
        if self.first_hash is None:
            problems += self._check_values(out.raw)
            if not problems:
                self.first_hash = digest
        elif digest != self.first_hash:
            problems.append("output differs from the run's first output")
        lams = out.summary.get("lambda", [])
        if len(lams) != 2 or not all(on_grid(lam, LAMBDAS_20) for lam in lams):
            problems.append(f"lambda {lams} is not a pair on the candidate grid")
        return problems

    def _check_values(self, raw: bytes) -> list[str]:
        try:
            x, z, fitted = parse_grid(raw.decode())
        except (ValueError, IndexError) as exc:
            return [f"output is not a grid table: {exc}"]
        problems = finite_shape("fitted", fitted, (self.n, self.n))
        if problems:
            return problems
        if not (np.array_equal(x, self.x) and np.array_equal(z, self.x)):
            problems.append("output coordinates differ from the input's")
        # The reference parses the same input and fits with the library
        # defaults, which the CLI's defaults mirror.
        ref = self.memory_op(None)
        rel = np.max(np.abs(fitted - ref.fitted)) / np.max(np.abs(ref.fitted))
        if not rel <= 1e-12:
            problems.append(f"output differs from the in-process fit by {rel:.3g}")
        self.first_rel_ise = rel_error(fitted, self.truth)
        return problems

    def memory_op(self, inp):
        with open(self.input, encoding="utf-8") as fh:
            x, z, Y = parse_grid(fh.read())
        return sandwich2d.select_lambda(sandwich2d.GridData(Y, x, z))

    def rel_ise(self, inp, out: CliOutput) -> float:
        # check() has proved the output equal to the first one
        return self.first_rel_ise

    def corrupt(self, out: CliOutput) -> CliOutput:
        body = out.raw.index(b"\n") + 1
        at = out.raw.index(b",", body) + 2
        digit = b"1" if out.raw[at:at + 1] != b"1" else b"2"
        return dataclasses.replace(out, raw=out.raw[:at] + digit + out.raw[at + 1:])


class EngineMem(Workload):
    """In-process grid search on 2000^2 plus an array fit on 200^3.

    The coordinates stay fixed, as in a simulation study; each op gets fresh
    noise, so no result can be reused between ops.
    """

    name = "engine-mem"
    n_grid = 2000
    n_array = 200
    sigma = 1.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.x = midpoints(self.n_grid)
        self.c = midpoints(self.n_array)
        self.truth2 = grid_truth(surface, self.x, self.x)
        self.truth3 = grid_truth(volume, self.c, self.c, self.c)
        # knots by the `sandsmooth bench` rule n^0.65
        self.specs2 = (AxisSpec(knot_segments=round(self.n_grid ** 0.65)),) * 2
        self.grid2 = sandwich2d.LambdaGrid(LAMBDAS_20, LAMBDAS_20)
        self.specs3 = (AxisSpec(knot_segments=min(self.n_array // 2, 35)),) * 3
        self.grids3 = (LAMBDAS_10,) * 3

    def sizes(self) -> dict:
        return {"grid": [self.n_grid] * 2,
                "grid_knots": self.specs2[0].knot_segments,
                "lambda_pairs": LAMBDAS_20.size ** 2,
                "array": [self.n_array] * 3,
                "array_knots": self.specs3[0].knot_segments,
                "lambda_tuples": LAMBDAS_10.size ** 3,
                "input_bytes": 8 * (self.n_grid ** 2 + self.n_array ** 3)}

    def inputs(self, k: int):
        g = generator(self.seed, 1, k + 1)
        Y2 = self.truth2 + self.sigma * g.standard_normal(self.truth2.shape)
        Y3 = self.truth3 + self.sigma * g.standard_normal(self.truth3.shape)
        return Y2, Y3

    def run(self, inp):
        Y2, Y3 = inp
        fit2 = sandwich2d.select_lambda(sandwich2d.GridData(Y2, self.x, self.x),
                                        specs=self.specs2, grid=self.grid2)
        fit3 = glam.fit_array(glam.ArrayData(Y3, (self.c,) * 3),
                              specs=self.specs3, grids=self.grids3)
        return fit2, fit3

    def check(self, inp, out) -> list[str]:
        fit2, fit3 = out
        problems = finite_shape("grid fit", fit2.fitted, (self.n_grid,) * 2)
        problems += finite_shape("array fit", fit3.fitted, (self.n_array,) * 3)
        if not all(on_grid(lam, LAMBDAS_20) for lam in fit2.lambdas):
            problems.append(f"grid lambdas {fit2.lambdas} not on the candidate grid")
        if not all(on_grid(lam, LAMBDAS_10) for lam in fit3.lambdas):
            problems.append(f"array lambdas {fit3.lambdas} not on the candidate grid")
        return problems

    def rel_ise(self, inp, out) -> float:
        fit2, fit3 = out
        return 0.5 * (rel_error(fit2.fitted, self.truth2)
                      + rel_error(fit3.fitted, self.truth3))

    def corrupt(self, out):
        fit2, fit3 = out
        lams = (fit2.lambdas[0] * 1.5, fit2.lambdas[1])
        return dataclasses.replace(fit2, lambdas=lams), fit3


class ScatterHoles(Workload):
    """Binned scattered data around a disc with no points, imputed iteratively."""

    name = "scatter-holes"
    n_points = 5000
    bins = 70
    hole_center = (0.5, 0.5)
    hole_radius = 0.15
    sigma = 0.3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        centers = midpoints(self.bins)
        self.truth = grid_truth(hole_surface, centers, centers)
        self.specs = (AxisSpec(knot_segments=min(self.bins // 2, 35)),) * 2
        self.grid = sandwich2d.LambdaGrid(LAMBDAS_20, LAMBDAS_20)

    def sizes(self) -> dict:
        return {"points": self.n_points, "bins": [self.bins] * 2,
                "hole": {"center": list(self.hole_center),
                         "radius": self.hole_radius},
                "knots": self.specs[0].knot_segments,
                "lambda_pairs": LAMBDAS_20.size ** 2, "max_iter": 20, "fill_m": 3,
                "input_bytes": 3 * 8 * self.n_points}

    def inputs(self, k: int):
        g = generator(self.seed, 2, k + 1)
        kept = []
        while sum(p.shape[0] for p in kept) < self.n_points:
            p = g.random((self.n_points, 2))
            r2 = ((p[:, 0] - self.hole_center[0]) ** 2
                  + (p[:, 1] - self.hole_center[1]) ** 2)
            kept.append(p[r2 > self.hole_radius ** 2])
        x, z = np.concatenate(kept)[: self.n_points].T
        y = hole_surface(x, z) + self.sigma * g.standard_normal(self.n_points)
        return binning.ScatterData(x.copy(), z.copy(), y)

    def run(self, inp):
        return binning.iterative_fit(inp, self.bins, self.bins, specs=self.specs,
                                     grid=self.grid, init="nearest", fill_m=3,
                                     max_iter=20)

    def check(self, inp, out) -> list[str]:
        problems = finite_shape("fitted", out.fit.fitted, (self.bins, self.bins))
        if not all(on_grid(lam, LAMBDAS_20) for lam in out.fit.lambdas):
            problems.append(f"lambdas {out.fit.lambdas} not on the candidate grid")
        if not 1 <= out.iterations <= 20:
            problems.append(f"{out.iterations} imputation rounds, expected 1..20")
        if int(out.binned.counts.sum()) != self.n_points:
            problems.append("binned counts do not add up to the points")
        return problems

    def rel_ise(self, inp, out) -> float:
        return rel_error(out.fit.fitted, self.truth)

    def op_counts(self, inp, out) -> dict:
        last = out.changes[-1] if out.changes else 0.0
        return {"binning.empty_cells": int(out.binned.empty_mask.sum()),
                "binning.rounds": out.iterations,
                "binning.converged": int(out.converged),
                "binning.last_change_rel": last / float(np.max(np.abs(inp.y)))}

    def corrupt(self, out):
        bad = out.fit.fitted.copy()
        bad[self.bins // 2, self.bins // 2] = np.nan
        return dataclasses.replace(out, fit=dataclasses.replace(out.fit, fitted=bad))


class CovDense(Workload):
    """Covariance smoothing and eigenpairs of densely observed curves."""

    name = "cov-dense"
    n_curves = 200
    J = 2000
    k = 4
    sigma = 1.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.t = midpoints(self.J)
        self.psi = eigenfunctions(self.t)
        self.truth = (self.psi.T * COV_EIGENVALUES) @ self.psi
        self.spec = AxisSpec(degree=3, penalty_order=2,
                             knot_segments=min(self.J // 2, 35))

    def sizes(self) -> dict:
        return {"curves": self.n_curves, "J": self.J, "rank": 4,
                "eigenpairs": self.k, "knots": self.spec.knot_segments,
                "lambdas": LAMBDAS_20.size,
                "input_bytes": 8 * self.n_curves * self.J}

    def inputs(self, k: int):
        g = generator(self.seed, 3, k + 1)
        # Whitened scores: their sample second moment is exactly diag(lambda),
        # so the noise-free part of the sample covariance equals the truth
        # and rel_ise measures the smoother, not the luck of 200 score draws.
        q, r = np.linalg.qr(g.standard_normal((self.n_curves, 4)))
        scores = q * np.sign(np.diag(r)) * np.sqrt(self.n_curves * COV_EIGENVALUES)
        noise = g.standard_normal((self.n_curves, self.J))
        return fda.CurveSet(scores @ self.psi + self.sigma * noise, self.t)

    def run(self, inp):
        C = fda.sample_cov(inp)
        model = fda.smooth_cov(C, self.spec, LAMBDAS_20, self.t)
        values, funcs = fda.eigenpairs(model, self.k)
        return model, values, funcs

    def check(self, inp, out) -> list[str]:
        model, values, funcs = out
        M = model.smoothed_cov
        problems = finite_shape("smoothed covariance", M, (self.J, self.J))
        problems += finite_shape("eigenfunctions", funcs, (self.k, self.J))
        problems += finite_shape("eigenvalues", values, (self.k,))
        if problems:
            return problems
        if not np.array_equal(M, M.T):
            problems.append("smoothed covariance is not exactly symmetric")
        if not np.all(np.diff(model.eigenvalues) <= 0):
            problems.append("eigenvalues are not descending")
        if not on_grid(model.lam, LAMBDAS_20):
            problems.append(f"lambda {model.lam} not on the candidate grid")
        return problems

    def rel_ise(self, inp, out) -> float:
        return rel_error(out[0].smoothed_cov, self.truth)

    def probes(self, out) -> list:
        # public eigenpairs on the bare smoothed matrix: the J x J eigh that
        # smooth_cov also runs inside
        return [("fda.eigen", lambda: fda.eigenpairs(out[0].smoothed_cov, self.k))]

    def corrupt(self, out):
        model, values, funcs = out
        bad = model.smoothed_cov.copy()
        bad[0, 1] += 1e-3
        return dataclasses.replace(model, smoothed_cov=bad), values, funcs


class InProcess(Workload):
    """The three in-process fits, one after the other in every op.

    One op runs the ``engine-mem``, ``scatter-holes`` and ``cov-dense``
    stages in turn, each on fresh inputs.  Together they reach every layer
    that ``grid-cli`` does not; the traced run splits the op by layer, and
    the timed loop records each stage's time.
    """

    name = "in-process"

    def __init__(self, seed: int, workdir: str):
        self.stages = [EngineMem(seed, workdir), ScatterHoles(seed, workdir),
                       CovDense(seed, workdir)]

    def sizes(self) -> dict:
        parts = {s.name: s.sizes() for s in self.stages}
        return {"stages": parts,
                "input_bytes": sum(p["input_bytes"] for p in parts.values())}

    def inputs(self, k: int):
        return [s.inputs(k) for s in self.stages]

    def run(self, inp):
        outs, times = [], {}
        for stage, part in zip(self.stages, inp):
            start = time.perf_counter()
            outs.append(stage.run(part))
            times[stage.name] = time.perf_counter() - start
        self.stage_times = times
        return outs

    def check(self, inp, out) -> list[str]:
        parts = inp or [None] * len(self.stages)
        return [f"{s.name}: {p}" for s, i, o in zip(self.stages, parts, out)
                for p in s.check(i, o)]

    def rel_ise(self, inp, out) -> float:
        # geometric mean, so that each stage's accuracy counts alike although
        # their errors differ by orders of magnitude
        return math.exp(statistics.fmean(
            math.log(s.rel_ise(i, o)) for s, i, o in zip(self.stages, inp, out)))

    def probes(self, out) -> list:
        return [p for s, o in zip(self.stages, out) for p in s.probes(o)]

    def memory_op(self, inp):
        return [s.memory_op(i) for s, i in zip(self.stages, inp)]

    def op_counts(self, inp, out) -> dict:
        counts = {}
        for s, i, o in zip(self.stages, inp, out):
            counts.update(s.op_counts(i, o))
        return counts

    def corruptions(self, out) -> list:
        # one damaged stage at a time, so every stage's check must work
        return [out[:j] + [s.corrupt(out[j])] + out[j + 1:]
                for j, s in enumerate(self.stages)]


WORKLOADS = {w.name: w for w in (GridCli, InProcess)}
