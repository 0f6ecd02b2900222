"""One workload in one fresh process: set up, run the closed op loop, check.

run.py starts this with sandsmooth's ``src/`` on PYTHONPATH:

    worker.py WORKLOAD SEED SECONDS TRACE MODE SPAWNED DEADLINE WORKDIR RESULT

MODE ``setup`` stops after the set-up and reports ``setup_s``; MODE ``full``
goes on to the timed loop.  SPAWNED is the parent's ``time.perf_counter()``
just before it started this process, DEADLINE the one by which the loop
must end.  The result is one JSON object written to RESULT.
"""

import contextlib
import json
import resource
import statistics
import sys
import time

import tracing

# rel_ise averages this many ops, and the loop runs at least this many, so
# rel_ise is a function of the seed alone and op_tail_s (ten ops beyond it)
# always exists.  At 13 ops the tail is the third-fastest op: a lower order
# statistic swings with the machine's noise.
MIN_OPS = 13
# the traced run interleaves plain and traced ops, at least this many each
TRACE_MIN_OPS = 3


def timed_op(wl, inp, check=True, span=None):
    """Run one op; returns (seconds, collected output or None, problems).

    ``span``, a context manager, wraps the op alone, not its check.
    """
    with span or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            raw = wl.run(inp)
        except Exception as exc:  # an op that raises counts as failed
            return time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
    if not check:
        return elapsed, raw, []
    try:
        out = wl.collect(raw)
        return elapsed, out, wl.check(inp, out)
    except Exception as exc:
        return elapsed, None, [f"check raised {type(exc).__name__}: {exc}"]


def self_test(wl, out) -> bool:
    """True when the check flags every damaged copy of a good output."""
    return all(wl.check(None, bad) for bad in wl.corruptions(out))


def timed_loop(wl, seconds, deadline):
    times, stages, problems, ise, failed, flagged = [], [], [], [], 0, None
    k = 0
    while sum(times) < seconds or k < MIN_OPS:
        if time.perf_counter() > deadline:
            raise TimeoutError(f"{k} ops done when the deadline came")
        inp = wl.inputs(k)
        elapsed, out, errs = timed_op(wl, inp)
        times.append(elapsed)
        if errs:
            failed += 1
            problems += [f"op {k}: {e}" for e in errs]
        else:
            if wl.stage_times:
                stages.append(wl.stage_times)
            if k < MIN_OPS:
                ise.append(wl.rel_ise(inp, out))
            if flagged is None:
                flagged = self_test(wl, out)
        # nothing outlives its op, so the peak RSS does not depend on the
        # number of ops
        del inp, out
        k += 1
    return {"op_times": times, "stage_times": stages, "failed": failed,
            "problems": problems[:20], "rel_ise_ops": ise,
            "self_test_flagged": bool(flagged)}


def traced_loop(wl, seconds, deadline, spans_dir):
    """Alternate plain and traced ops; returns times, layer metrics, spans."""
    tracer = tracing.Tracer()
    plain, traced, counts, problems, failed, flagged = [], [], {}, [], 0, None
    k = 0
    while (sum(plain) + sum(traced) < seconds
           or min(len(plain), len(traced)) < TRACE_MIN_OPS):
        if time.perf_counter() > deadline:
            raise TimeoutError(f"{k} ops done when the deadline came")
        inp = wl.inputs(k)
        on = k % 2 == 1
        if on:
            tracer.op = k
            op_id = len(tracer.spans)
            child_spans = f"{spans_dir}/child-{k}.json"
            if wl.trace_child:
                wl.trace_argv = [f"{sys.path[0]}/cli_trace.py", child_spans]
            else:
                tracer.patch()
        try:
            elapsed, out, errs = timed_op(wl, inp, span=tracer.span("op") if on else None)
        finally:
            tracer.unpatch()
            if wl.trace_child:
                wl.trace_argv = None
        (traced if on else plain).append(elapsed)
        if errs:
            failed += 1
            problems += [f"op {k}: {e}" for e in errs]
        else:
            if flagged is None:
                flagged = self_test(wl, out)
            if on:
                if wl.trace_child:
                    with open(child_spans, encoding="utf-8") as fh:
                        tracer.adopt(json.load(fh), op_id)
                for name, probe in wl.probes(out):
                    with tracer.span(name):
                        probe()
                counts[k] = wl.op_counts(inp, out)
        del inp, out
        k += 1
    tracer.op = None
    peaks = {}
    patches = tracing.memory_patches(peaks)
    try:
        wl.memory_op(wl.inputs(k))
    finally:
        patches.restore()
    return {"plain_times": plain, "traced_times": traced, "failed": failed,
            "problems": problems[:20], "self_test_flagged": bool(flagged),
            "layers": layer_metrics(wl, tracer, plain, traced, counts, peaks),
            "spans": tracer.spans}


def layer_metrics(wl, tracer, plain, traced, counts, peaks) -> dict:
    """Per-layer metrics: per-op medians over the traced ops."""
    ops = tracing.per_op(tracer.spans)
    rows = []
    layer_self = op_total = 0.0
    for k, entry in ops.items():
        if k not in counts:
            continue  # an op that failed its check

        def total(name):
            return entry[name]["total"] if name in entry else 0.0

        def self_time(name):
            return entry[name]["self"] if name in entry else 0.0

        def count(name, key, agg=sum):
            vals = entry[name]["counts"][key] if name in entry else []
            return agg(vals) if vals else 0

        row = dict(counts[k])
        eigen = total("fda.eigen")
        impute = self_time("binning.iterative_fit")
        rounds = row.get("binning.rounds", 0)
        row.update({
            "cli.overhead_s": self_time("op") if wl.trace_child else 0.0,
            "gridio.read_s": total("gridio.read_grid_csv"),
            "gridio.write_s": total("gridio.write_grid_csv"),
            "basis.design_matrix_s": total("basis.design_matrix"),
            "spectra.axis_spectrum_s": total("spectra.axis_spectrum"),
            "spectra.factor_s": self_time("spectra.axis_spectrum"),
            "spectra.basis_dim": count("spectra.axis_spectrum", "basis_dim", max),
            "sandwich2d.transform_s": total("sandwich2d.transform_data"),
            "sandwich2d.select_lambda_s": total("sandwich2d.select_lambda"),
            "sandwich2d.search_s": self_time("sandwich2d.select_lambda"),
            "sandwich2d.pairs_scored": count("sandwich2d.select_lambda", "pairs"),
            "sandwich2d.transform_gflop": count("sandwich2d.transform_data", "gflop"),
            "glam.fit_array_s": total("glam.fit_array"),
            "glam.project_s": total("glam.rh"),
            "glam.search_s": self_time("glam.fit_array"),
            "glam.tuples_scored": count("glam.fit_array", "tuples"),
            "binning.bin_scatter_s": total("binning.bin_scatter"),
            "binning.fill_nearest_s": total("binning.fill_nearest"),
            "binning.iterative_fit_s": total("binning.iterative_fit"),
            "binning.impute_s": impute,
            "binning.s_per_round": impute / rounds if rounds else 0.0,
            "fda.sample_cov_s": total("fda.sample_cov"),
            "fda.smooth_cov_s": total("fda.smooth_cov"),
            "fda.eigen_s": eigen,
            "fda.select_s": self_time("fda.smooth_cov") - eigen,
        })
        rows.append(row)
        # Every span under the op belongs to a layer; the op's own self time
        # is the workload's glue, except for the CLI, where it is the cli
        # layer's start-up, argument parsing and exit.
        op_total += total("op")
        layer_self += total("op") - (0.0 if wl.trace_child else self_time("op"))
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]} if rows else {}
    for name in ("sandwich2d.peak_mb", "glam.peak_mb", "fda.peak_mb"):
        metrics[name] = peaks.get(name, 0.0)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["trace.coverage"] = layer_self / op_total if op_total else 0.0
    return metrics


def main(argv):
    name, seed, seconds, trace, mode, spawned, deadline, workdir, result_path = argv
    import sandsmooth  # noqa: F401  (the import is part of setup_s)

    imported = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](int(seed), workdir)
    inp = wl.inputs(workloads.WARMUP)
    # a set-up-only process just times the warm-up; the full one checks it
    elapsed, out, problems = timed_op(wl, inp, check=mode == "full")
    result = {"setup_s": imported - float(spawned) + elapsed,
              "warmup_problems": problems}
    del inp, out
    if mode == "full":
        if trace == "1":
            loop = traced_loop(wl, float(seconds), float(deadline), workdir)
            with open(f"{workdir}/spans.jsonl", "w", encoding="utf-8") as fh:
                for rec in loop.pop("spans"):
                    fh.write(json.dumps(rec) + "\n")
        else:
            loop = timed_loop(wl, float(seconds), float(deadline))
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.trace_child
                                   else resource.RUSAGE_SELF)
        loop["peak_rss_mb"] = usage.ru_maxrss / 1024
        loop["sizes"] = wl.sizes()
        result.update(loop)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
