"""margfact benchmark: run one workload on one seed, untraced or traced.

    python3 bench/run.py --workload fit500 --seed 0 --seconds 10 --trace 0

With --trace 0 the run times the workload with tracing off and reports the
end-to-end metrics; with --trace 1 it runs the workload's sequence once
untraced and once traced and reports the per-layer metrics. Every line but
the last is a human-readable report; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
BLAS is pinned to one thread through the environment before numpy loads.
"""

import time

T0 = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isfile(os.path.join(SRC, "margfact", "__init__.py")):
    sys.exit(f"bench: no margfact sources at {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from margfact import data_io  # noqa: E402
from tracer import SPAN_NAMES, Tracer, summarize  # noqa: E402

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
WORK_ROOT = os.path.join(HERE, "_work")
SPANS_ROOT = os.path.join(HERE, "_spans")

END_TO_END = (("setup_s", "s"), ("task_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics: (name, unit, better). Every span name gets calls, busy
# seconds and self seconds; the rest are counts and ratios taken at the
# same boundaries, the workload's quality and the tracing overhead.
PER_LAYER = tuple(
    [(f"{n}.calls", "count", "lower") for n in SPAN_NAMES]
    + [(f"{n}.s", "s", "lower") for n in SPAN_NAMES]
    + [(f"{n}.self_s", "s", "lower") for n in SPAN_NAMES]
    + [("solver.sweeps", "count", "lower"), ("solver.block_steps", "count", "lower"),
       ("solver.accept_ratio", "ratio", "higher"), ("solver.evals_per_step", "ratio", "lower"),
       ("likelihoods.cells", "count", "lower"), ("likelihoods.erf.cells", "count", "lower"),
       ("data_io.triplets", "count", "higher"),
       ("quality.fit_gap", "ratio", "lower"), ("quality.fit_pg", "ratio", "lower"),
       ("quality.project_nll", "nats/cell", "lower"), ("quality.cv_auprc", "ratio", "higher"),
       ("trace.overhead", "ratio", "lower")])


def environment():
    """Interpreter, numpy and BLAS actually in effect, and the usable cores."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0))}


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_setup(workload, instance, out_dir):
    """Set-up, run in a fresh process: import, generate and write the cohort.

    Prints one JSON line: the set-up time, then, computed after the clock
    stopped, what the run needs from the generated cohort."""
    cohort = workloads.generate(workload, instance)
    manifest = data_io.save_observations(cohort.observations, out_dir)
    setup_s = time.perf_counter() - T0
    print(json.dumps({"setup_s": setup_s, "manifest": manifest,
                      "digest": workloads.digest(cohort.observations),
                      "labels": None if cohort.labels is None else cohort.labels.tolist()}))


def timed_setup(workload, seed, out_dir):
    """Set-up in a fresh process; returns its JSON line as a dict."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
         "--seed", str(seed), "--setup-out", out_dir],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload, seed, seconds, work_dir, targets):
    """End-to-end run: repeated set-up, then the closed loop.

    The cohort is generated only in the set-up processes, so this process's
    peak memory is the loaded cohort and the library's work on it."""
    instance = workloads.instance_seed(seed)
    setups = [timed_setup(workload, seed, os.path.join(work_dir, f"setup{i}"))
              for i in range(SETUP_REPEATS)]
    first = setups[0]
    labels = None if first["labels"] is None else np.asarray(first["labels"], dtype=int)
    run = workloads.Run(workload, instance, workloads.SetUp(first["manifest"], first["digest"],
                                                            labels), work_dir, targets)
    run.ledger.record("set-up", [] if all(s["digest"] == first["digest"] and
                                          s["labels"] == first["labels"] for s in setups)
                      else ["set-ups of one seed generated different cohorts"])
    deadline = time.perf_counter() + seconds
    samples = [run.task()]
    # read after one operation: the allocator's slow growth over a longer
    # loop would make the figure depend on how many operations fit in it
    peak_mb = peak_rss_mb()
    while time.perf_counter() < deadline:
        samples.append(run.task())
    if run.projection is not None:
        run.projection_quality()

    stages = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    metrics = {"setup_s": statistics.median(s["setup_s"] for s in setups),
               "task_s": stages["task_s"], "peak_rss_mb": peak_mb}
    report_lines = [f"instance {instance}, {len(samples)} task samples, "
                    f"{workloads.triplet_count(run.loaded)} triplets, "
                    f"time scales {json.dumps(run.scale)}"]
    report_lines += [f"{k} = {v:.6g}" for k, v in stages.items() if k != "task_s"]
    if run.target_sweep is not None:
        report_lines.append(f"target sweep = {run.target_sweep}")
    report_lines += [f"{k} = {v!r}" for k, v in run.quality.items()]
    return run.ledger, metrics, dict(END_TO_END), report_lines


def sequence(workload, instance, work_dir, targets):
    """The traced run's sequence: set-up, ingestion, the solver's own fit and
    the later stages on that fit, or the CV. Returns (run, wall seconds)."""
    start = time.perf_counter()
    cohort = workloads.generate(workload, instance)
    setup = workloads.SetUp(data_io.save_observations(cohort.observations, work_dir),
                            workloads.digest(cohort.observations), cohort.labels, cohort.truth)
    run = workloads.Run(workload, instance, setup, work_dir, targets)
    run.ingest()
    if workload.fits_to_target:
        run.reference_fit()
        run.downstream()
    else:
        run.cross_validate()
    return run, time.perf_counter() - start


def trace(workload, seed, work_dir, targets):
    instance = workloads.instance_seed(seed)
    plain, plain_s = sequence(workload, instance, os.path.join(work_dir, "plain"), targets)
    with Tracer() as tracer:
        traced, traced_s = sequence(workload, instance, os.path.join(work_dir, "traced"),
                                    targets)
    if workload.fits_to_target:
        plain.fit_quality()
    if plain.projection is not None:
        plain.projection_quality()

    spans = summarize(tracer.spans)
    counts = tracer.counts
    metrics = {}
    for name in SPAN_NAMES:
        entry = spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key in ("calls", "s", "self_s"):
            metrics[f"{name}.{key}"] = entry[key]
    steps = metrics["solver.projected_step.calls"]
    objective_calls = metrics["model.objective.calls"]
    metrics.update({
        "solver.sweeps": counts["solver.sweeps"], "solver.block_steps": steps,
        "solver.accept_ratio": counts["solver.accepted_steps"] / steps if steps else 0.0,
        "solver.evals_per_step": objective_calls / steps if steps else 0.0,
        "likelihoods.cells": counts["likelihoods.cells"],
        "likelihoods.erf.cells": counts["likelihoods.erf.cells"],
        "data_io.triplets": counts["data_io.triplets"],
        "trace.overhead": traced_s / plain_s - 1.0})
    for key in ("fit_gap", "fit_pg", "project_nll", "cv_auprc"):
        metrics[f"quality.{key}"] = plain.quality.get(key, 0.0)

    os.makedirs(SPANS_ROOT, exist_ok=True)
    with open(os.path.join(SPANS_ROOT, f"{workload.name}-{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)

    plain.ledger.extend(traced.ledger)
    report_lines = [f"instance {instance}, untraced {plain_s:.3f} s, traced {traced_s:.3f} s, "
                    f"{len(tracer.spans)} spans"]
    report_lines += [f"{k} = {v!r}" for k, v in plain.quality.items()]
    return plain.ledger, metrics, {name: unit for name, unit, _ in PER_LAYER}, report_lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the closed loop; at least one task runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_out:
        write_setup(workload, workloads.instance_seed(args.seed), args.setup_out)
        return 0

    targets = workloads.load_targets()
    work_dir = os.path.join(WORK_ROOT, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        if args.trace:
            ledger, metrics, units, lines = trace(workload, args.seed, work_dir, targets)
        else:
            ledger, metrics, units, lines = measure(workload, args.seed, args.seconds,
                                                    work_dir, targets)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"# {workload.name} seed {args.seed} trace {args.trace}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for line in lines:
        print(f"# {line}")
    for name, value in metrics.items():
        print(f"# {name} = {value!r} {units[name]}")
    print(f"# error_rate = {ledger.failed / max(ledger.attempted, 1)!r} "
          f"({ledger.failed} of {ledger.attempted} operations failed)")
    for problem in ledger.problems[:20]:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
