"""SHA-256 digests of margfact's outputs, to show that a refactor keeps them bit for bit.

    python3 scripts/output_digest.py

Run it from the repository root on two commits and compare the lines. It
uses the benchmark's cohorts (bench/workloads.py) and pins BLAS to one
thread before numpy loads. Each line is `<output> <sha256>`:

- fit500: the loss_trace of seeds 0-5 over 60 sweeps (log_every=1), and
  every logged step size and accept flag of seed 0's step log;
- cohort10k: the loss_trace of a 2-sweep fit on the first 9,000 patients
  of seed 0 (the Poisson-binary objective itself), and project_patients
  of the other 1,000 under that model; and, after a 1-sweep fit, the
  objective, every block gradient and the per-row NLL of the 1,000 held-out
  rows at their projection (the kernels of the sparse Poisson terms);
- cv_mixed: the loss_trace of a 30-sweep fit (log_every=1) on the whole
  of seed 1 (the Gaussian kernels' objective), and five_fold_cv fold
  AUPRCs and lambdas of seed 1;
- split: the labels of split_train_test(stratify=True) and the Dx values
  of a plain split of cv_mixed seed 1, for split seeds 0-4;
- three_way: every block gradient, the objective and two correspondence
  rows of a three-modality model (the column-scale product with skips);
- recovery: the loss_trace (log_every=1) of each Poisson planted-recovery
  fit of tests/test_recovery.py, the pair and the three-way tensor at seeds
  0 and 1 (the all-Poisson shared block's EM step);
- save_observations: the name and bytes of every file save_observations
  writes for cv_mixed seed 0 (all four kinds) and cohort10k seed 0;
- load_observations: the ids and values, as float64, of every matrix
  load_observations reads back from those files;
- likelihoods: nll_cells and grad_nll_wrt_reconstruction of each kind on a
  fixed grid: vhat from EPS to 60 (30 included) against counts 0-5 and reals
  0-5, and, for both binary kinds, labels 0 and 1; the Gaussian-binary grid
  is y from -30 to 30 with the series switch at 26 under GaussianParams(1, 2).
"""

import dataclasses
import hashlib
import json
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from margfact import (GaussianParams, InteractionTensorSpec, ModelSpec,  # noqa: E402
                      ObservationKind, SolverConfig, build_model, extract_correspondence,
                      five_fold_cv, gradient_block, load_observations, objective,
                      project_patients, save_observations, split_train_test, synth_generate,
                      train)
from margfact.data_io import _take_patients  # noqa: E402
from margfact.likelihoods import EPS, grad_nll_wrt_reconstruction, nll_cells  # noqa: E402
from margfact.model import SHARED, Model  # noqa: E402


def sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(np.asarray(part, dtype=float)).tobytes())
    return h.hexdigest()


def fit500(seed):
    cohort = workloads.generate(workloads.WORKLOADS["fit500"], seed)
    model = build_model(cohort.spec, cohort.observations)
    report = train(model, dataclasses.replace(cohort.spec.solver, max_sweeps=60))
    steps = [[*s["step_size_per_block"].values(), *s["step_accepted_per_block"].values()]
             for s in report.step_log]
    return sha([f for _, f in report.loss_trace]), sha(steps)


def cohort10k():
    cohort = workloads.generate(workloads.WORKLOADS["cohort10k"], 0)
    fit_obs = _take_patients(cohort.observations, list(range(9000)))
    test_obs = _take_patients(cohort.observations, list(range(9000, 10000)))
    model = build_model(cohort.spec, fit_obs)
    report = train(model, dataclasses.replace(cohort.spec.solver, max_sweeps=2))
    loss_trace = sha([f for _, f in report.loss_trace])
    projection = sha(project_patients(model, test_obs))

    model = build_model(cohort.spec, fit_obs)
    train(model, dataclasses.replace(cohort.spec.solver, max_sweeps=1))
    grads = [gradient_block(model, b) for b in [SHARED] + cohort.spec.modality_order]
    S = project_patients(model, test_obs)
    rows = np.arange(S.shape[0])
    row_nll = sum(term.nll(S, model.factors, rows)
                  for term in Model(cohort.spec, test_obs, S, model.factors).compiled_terms())
    return loss_trace, projection, sha([objective(model)], *grads, row_nll)


def cv_and_split():
    cohort = workloads.generate(workloads.WORKLOADS["cv_mixed"], 1)
    model = build_model(cohort.spec, cohort.observations)
    report = train(model, dataclasses.replace(cohort.spec.solver, max_sweeps=30, log_every=1))
    loss_trace = sha([f for _, f in report.loss_trace])
    result = five_fold_cv(cohort.observations, cohort.labels, cohort.spec, cohort.spec.solver,
                          seed=0)
    cv = sha([[f["auprc"], f["lambda"]] for f in result["folds"]])
    splits = []
    for seed in range(5):
        (_, y_train), (_, y_test) = split_train_test(cohort.observations, cohort.labels,
                                                     seed=seed, stratify=True)
        splits += [y_train, y_test]
        train_obs, test_obs = split_train_test(cohort.observations, seed=seed)
        splits += [train_obs["Dx"].values, test_obs["Dx"].values]
    return loss_trace, cv, sha(*splits)


def three_way():
    spec = ModelSpec(rank=4, tensors=[
        InteractionTensorSpec("abc", ["A", "B", "C"], "poisson"),
        InteractionTensorSpec("bd", ["B", "D"], "gaussian", 0.5)],
        init_seed=3, solver=SolverConfig(max_sweeps=5, step0=1e-4))
    obs, _ = synth_generate(spec, {"A": 6, "B": 5, "C": 7, "D": 4},
                            {"A": "integer", "B": "binary", "C": "integer", "D": "real"},
                            n_patients=40, seed=3)
    model = build_model(spec, obs)
    train(model)
    grads = [gradient_block(model, b) for b in [SHARED] + spec.modality_order]
    rows = [extract_correspondence(model, "abc", "A", "A_0", "C").scores,
            extract_correspondence(model, "abc", "C", "C_1", "B").scores]
    return sha(*grads, [objective(model)], *rows)


def recovery(layout, seed):
    modalities, scale = {"poisson_pair": (["A", "B"], 1.0),
                         "poisson_three_way": (["A", "B", "C"], 0.5)}[layout]
    spec = ModelSpec(rank=5, tensors=[InteractionTensorSpec("t", modalities, "poisson")],
                     init_seed=seed, solver=SolverConfig(log_every=1))
    obs, _ = synth_generate(spec, dict.fromkeys(modalities, 30),
                            dict.fromkeys(modalities, "integer"), 500, sparsity=0.5,
                            scale=scale, seed=seed)
    return sha([f for _, f in train(build_model(spec, obs)).loss_trace])


def saved_and_loaded():
    files, loaded = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("cv_mixed", "cohort10k"):
            out = os.path.join(tmp, name)
            manifest = save_observations(
                workloads.generate(workloads.WORKLOADS[name], 0).observations, out)
            for file_name in sorted(os.listdir(out)):
                files.update(file_name.encode())
                with open(os.path.join(out, file_name), "rb") as fh:
                    files.update(fh.read())
            for modality, obs in load_observations(manifest).items():
                loaded.update(json.dumps([modality, obs.shared_ids, obs.item_ids]).encode())
                loaded.update(np.ascontiguousarray(obs.values, dtype=float).tobytes())
    return files.hexdigest(), loaded.hexdigest()


def likelihood_kernels():
    vhat = np.concatenate([np.geomspace(EPS, 1.0, 61), np.arange(1.5, 60.5, 0.5)])
    counts, labels = np.arange(6.0)[:, None], np.array([[0.0], [1.0]])
    # y = (1 - 2V) vhat / 2 under sigma2 = 1, t_n = 2
    y = np.concatenate([np.linspace(-30.0, 30.0, 1201), [25.999, 26.0, 26.001, 27.5]])
    params = GaussianParams(1.0, 2)
    cases = [("poisson-integer", counts, vhat, None), ("poisson-binary", labels, vhat, None),
             ("gaussian-real", counts, vhat, params),
             ("gaussian-binary", labels, (1.0 - 2.0 * labels) * 2.0 * y, params)]
    outputs = []
    for token, V, Vhat, p in cases:
        kind = ObservationKind.parse(token)
        outputs += [nll_cells(kind, V, Vhat, p), grad_nll_wrt_reconstruction(kind, V, Vhat, p)]
    return sha(*outputs)


if __name__ == "__main__":
    for seed in range(6):
        loss_trace, steps = fit500(seed)
        print(f"fit500.seed{seed}.loss_trace {loss_trace}", flush=True)
        if seed == 0:
            print(f"fit500.seed0.step_log {steps}", flush=True)
    loss_trace, projection, kernels = cohort10k()
    print(f"cohort10k.loss_trace {loss_trace}")
    print(f"cohort10k.project_patients {projection}")
    print(f"cohort10k.sparse_kernels {kernels}", flush=True)
    loss_trace, cv, split = cv_and_split()
    print(f"cv_mixed.loss_trace {loss_trace}")
    print(f"cv_mixed.five_fold_cv {cv}")
    print(f"cv_mixed.split_train_test {split}")
    print(f"three_way.gradients_objective_correspondence {three_way()}", flush=True)
    for layout in ("poisson_pair", "poisson_three_way"):
        for seed in (0, 1):
            print(f"recovery.{layout}.seed{seed}.loss_trace {recovery(layout, seed)}",
                  flush=True)
    files, loaded = saved_and_loaded()
    print(f"save_observations.files {files}")
    print(f"load_observations.values {loaded}")
    print(f"likelihoods.kernels {likelihood_kernels()}")
