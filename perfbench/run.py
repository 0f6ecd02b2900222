"""Benchmark of sandsmooth: end-to-end and per-layer metrics on two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is grid-cli, in-process (its op runs the engine-mem, scatter-holes and
cov-dense stages in turn), or ``all``.
Run it from anywhere inside a checkout; it calls the program in ``src/``
through PYTHONPATH, because the package is not installed.

Each workload runs in fresh worker processes, one at a time, as a
single-client closed loop.  With ``--trace 0`` the worker is started three
times: the first two only set up (for the median ``setup_s``), the third
also runs the timed loop.  With ``--trace 1`` one worker alternates plain
and traced ops and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (machine facts,
sizes, every op time) goes to ``.perfbench/results/``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["grid-cli", "in-process"]
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# a run must end within 180 s; this leaves room for reporting
RUN_BUDGET_S = 170.0
BLAS_THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"]


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        # the whole group, so a worker's CLI child does not outlive it
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1]} ran past the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited with {proc.returncode}:\n"
                         f"{err[-2000:]}")
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def run_worker(workload, seed, seconds, trace, mode, workdir, deadline) -> dict:
    result = os.path.join(workdir, f"result-{mode}.json")
    spawned = time.perf_counter()
    run_child([sys.executable, os.path.join(HERE, "worker.py"), workload,
               str(seed), str(seconds), str(trace), mode, repr(spawned),
               repr(deadline - 5.0), workdir, result], deadline)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def import_seconds(statement: str, before: str, deadline: float) -> float:
    """Median wall time of ``statement`` in fresh interpreters, after ``before``."""
    code = (f"{before}\nimport time\nt = time.perf_counter()\n{statement}\n"
            "print(repr(time.perf_counter() - t))")
    return statistics.median(
        float(run_child([sys.executable, "-c", code], deadline).stdout)
        for _ in range(IMPORT_REPEATS))


def machine_facts() -> dict:
    import numpy as np

    facts = {"nproc": os.cpu_count(),
             "nproc_usable": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "numpy": np.__version__,
             "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}
    try:
        facts["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        facts["scipy"] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        facts["blas"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                       if line.startswith("model name")), None)
    except OSError:
        facts["cpu_model"] = None
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(f"{base}/{index}/level") as fl, open(f"{base}/{index}/type") as ft, \
                    open(f"{base}/{index}/size") as fs:
                level, kind, size = fl.read().strip(), ft.read().strip(), fs.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
        elif kind == "Data":
            caches["L1d"] = size
    facts["caches"] = caches
    return facts


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with ten ops beyond it, and that percentile."""
    ordered = sorted(times)
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(setups: list[float], full: dict) -> tuple[dict, dict]:
    times = full["op_times"]
    tail_s, pct = tail(times)
    ise = full["rel_ise_ops"]
    metrics = {"setup_s": statistics.median(setups),
               "op_p50_s": statistics.median(times),
               "op_tail_s": tail_s,
               "ops_per_s": len(times) / sum(times),
               "peak_rss_mb": full["peak_rss_mb"],
               "rel_ise": sum(ise) / len(ise) if ise else float("nan")}
    notes = {"op_tail_percentile": pct, "op_tail_ops_beyond": 10,
             "ops": len(times), "rel_ise_ops": len(ise), "setup_runs": setups}
    stages = full["stage_times"]
    if stages:
        notes["stage_p50_s"] = {name: statistics.median(t[name] for t in stages)
                                for name in stages[0]}
    return metrics, notes


def run_workload(workload, seed, seconds, trace, spec) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    workdir = os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    facts = machine_facts()
    setups, warm_problems = [], []
    if trace:
        full = run_worker(workload, seed, seconds, trace, "full", workdir, deadline)
        attempted = len(full["plain_times"]) + len(full["traced_times"])
        layers = dict(full["layers"])
        layers["cli.import_s"] = import_seconds("import sandsmooth", "", deadline)
        layers["kernelcheck.deps_import_s"] = import_seconds(
            "import scipy.integrate, scipy.special", "import numpy", deadline)
        sizes = full["sizes"]
        layers["gridio.bytes_in"] = sizes["input_bytes"] if workload == "grid-cli" else 0
        layers["gridio.bytes_out"] = sizes.get("output_bytes", 0)
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {name: layers.get(name, 0.0) for name in names}
        notes = {"ops_plain": len(full["plain_times"]),
                 "ops_traced": len(full["traced_times"]),
                 "spans": os.path.relpath(os.path.join(workdir, "spans.jsonl"), ROOT)}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        for _ in range(SETUP_REPEATS - 1):
            part = run_worker(workload, seed, seconds, trace, "setup", workdir, deadline)
            setups.append(part["setup_s"])
            warm_problems += part["warmup_problems"]
        full = run_worker(workload, seed, seconds, trace, "full", workdir, deadline)
        attempted = len(full["op_times"])
        metrics, notes = end_to_end(setups + [full["setup_s"]], full)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    warm_problems += full["warmup_problems"]
    correct = (full["failed"] == 0 and not warm_problems
               and full["self_test_flagged"])
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "correct": correct, "attempted": attempted,
              "failed": full["failed"],
              "problems": warm_problems + full["problems"],
              "self_test_flagged": full["self_test_flagged"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "notes": notes, "sizes": full["sizes"], "facts": facts,
              "op_times": {k: full[k] for k in ("op_times", "stage_times",
                                                "plain_times", "traced_times")
                           if k in full}}
    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']}")
    for problem in record["problems"][:5]:
        print(f"  problem: {problem}")
    for name, m in record["metrics"].items():
        print(f"  {name:30s} {m['value']:>16.6g} {m['unit']}")
    print(f"  notes: {json.dumps(record['notes'])}")
    print(f"  machine: {json.dumps(record['facts'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sandsmooth", "__init__.py")):
        print("perfbench: no src/sandsmooth next to the benchmark; "
              "run it inside a checkout of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, seconds, args.trace, spec))
            report(records[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
