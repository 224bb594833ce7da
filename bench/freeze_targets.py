"""Write targets.json: what the solver does on each pooled instance.

The targets are frozen at the commit that introduced the benchmark and
must not be regenerated by a change that is being measured: a target is
the objective at which that commit's solver stopped, and the work counts
are that commit's. Run from the repository root, one workload per process
if you want them in parallel:

    python3 bench/freeze_targets.py [--workload fit500 ...]

Existing entries of other workloads in targets.json are kept.
"""

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

import run  # noqa: F401  (pins BLAS threads and puts src/ on the path first)
import workloads
from tracer import BINDINGS, Tracer


def count_calls(span_name, fn, *args):
    """Run fn(*args) counting the calls to one traced function; returns (result, calls)."""
    with Tracer([b for b in BINDINGS if b[2] == span_name]) as tracer:
        result = fn(*args)
    return result, len(tracer.spans)


def erf_series_work(x):
    """Cells times series terms that this commit's likelihoods.erf sums for x.

    Its Maclaurin loop runs over every cell with |x| < 6 until the largest
    new term drops below 1e-15; the largest is the one at the largest |x|,
    so replaying the loop on that cell alone gives the number of terms.
    """
    xa = np.abs(np.atleast_1d(np.asarray(x, dtype=float))).astype(np.longdouble)
    active = xa[xa < 6.0]
    if active.size == 0:
        return 0
    z = active.max()
    term, k = z, 0
    while True:
        k += 1
        term = term * (-z * z) / k
        if abs(term / (2 * k + 1)) < 1e-15:
            return active.size * k


def cv_erf_work(cohort):
    """five_fold_cv with erf_series_work summed over every erf call; the
    series erf is most of the CV's time and no call count follows it."""
    original, total = workloads.likelihoods.erf, 0

    def counting(x):
        nonlocal total
        total += erf_series_work(x)
        return original(x)

    workloads.likelihoods.erf = counting
    try:
        workloads.evaluate.five_fold_cv(cohort.observations, cohort.labels, cohort.spec,
                                        cohort.spec.solver, seed=workloads.CV_SEED)
    finally:
        workloads.likelihoods.erf = original
    return total


def freeze(workload, seed):
    cohort = workloads.generate(workload, seed)
    spec = cohort.spec
    entry = {"triplets": workloads.triplet_count(cohort.observations)}
    fit_obs = workloads.data_io._take_patients(cohort.observations, list(range(workload.n_fit)))
    start = time.perf_counter()
    if workload.fits_to_target:
        _, report, _ = workloads.fit(spec, fit_obs)
        target = report.loss_trace[-1][1]
        sweep = workloads.target_sweep(report, target)
        # the parent's work to first reach its own stop objective: the same
        # trajectory cut where the timed fit will cut it
        (model, _, _), calls = count_calls("model.objective", workloads.fit, spec, fit_obs,
                                           sweep)
        entry.update(target=target, stop_sweep=report.sweeps_run, ref_sweeps=sweep,
                     ref_objective_calls=calls)
        if workload.n_fit < workload.n_patients:
            test_obs = workloads.data_io._take_patients(
                cohort.observations, list(range(workload.n_fit, workload.n_patients)))
            _, entry["ref_project_calls"] = count_calls(
                "likelihoods.nll_cells", workloads.mmodel.project_patients, model, test_obs)
    else:
        entry["ref_erf_work"] = cv_erf_work(cohort)
    print(f"{workload.name} seed {seed}: {entry}, {time.perf_counter() - start:.1f} s",
          file=sys.stderr, flush=True)
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    fresh = {}
    for name in args.workload or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        instances = {str(s): freeze(workload, s) for s in range(workloads.POOL_SIZE)}
        fresh[name] = {
            "median": {key: statistics.median(i[key] for i in instances.values())
                       for key in workloads.WORK_KEYS if key in instances["0"]},
            "instances": instances}
    # read just before writing, so processes freezing other workloads in
    # parallel keep each other's entries
    frozen = workloads.load_targets() if os.path.exists(workloads.TARGETS_PATH) else {}
    frozen.update(fresh)
    with open(workloads.TARGETS_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
