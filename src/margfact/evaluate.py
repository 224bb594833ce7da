"""Downstream predictive evaluation: lasso-logistic regression and AUPRC."""

import dataclasses
import math
import os

import numpy as np

from .data_io import _take_patients, check_labels, class_permutations, stratified_split
from .errors import ConfigurationError, check_setting
from .model import build_model, project_patients
from .solver import train

LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
# FISTA stops at this prox-gradient norm, or after MAX_ITER steps
PG_TOL = 1e-6
MAX_ITER = 10_000


def _sigmoid(z):
    # 1 / (1 + e^-z) as exp(-log(1 + e^-z)), stable for both signs
    return np.exp(-np.logaddexp(0.0, -z))


def lasso_logistic_fit(X, y, lam, w0=None, b0=0.0):
    """Minimize mean logistic loss + lam * ||w||_1 from (w0, b0), zero when w0 is None.

    FISTA (Beck & Teboulle 2009) on [X, 1] with step 1/L and gradient restart
    (O'Donoghue & Candes 2015); the intercept is unpenalized. Stops when the
    prox-gradient norm is at most PG_TOL, or after MAX_ITER steps.
    Deterministic given the data; raises if only one class is present.
    """
    check_setting("lasso-logistic fit", "lam", lam, 0.0)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or not np.isfinite(X).all():
        raise ValueError(f"X must be a finite 2-D array, got shape {X.shape}")
    check_labels(y, X.shape[0], ValueError)
    y = np.asarray(y, dtype=float)
    if X.shape[0] < 2 or len(np.unique(y)) < 2:
        raise ValueError("need at least two patients and both classes present")
    n, d = X.shape
    # Lipschitz bound for the mean logistic gradient, intercept included
    Xa = np.hstack([X, np.ones((n, 1))])
    L = 0.25 * np.linalg.norm(Xa, 2) ** 2 / n
    step = 1.0 / L
    step_grad = (step / n) * Xa.T  # step times the gradient is step_grad @ (p - y)
    shrink = np.append(np.full(d, step * lam), 0.0)  # soft threshold; the intercept's is 0
    x = np.zeros(d + 1) if w0 is None else np.append(np.asarray(w0, dtype=float), b0)
    v, t = x, 1.0  # v: the extrapolated point the gradient is taken at
    for _ in range(MAX_ITER):
        u = v - step_grad @ (_sigmoid(Xa @ v) - y)
        x_new = u - np.minimum(np.maximum(u, -shrink), shrink)
        residual, move, x = v - x_new, x_new - x, x_new
        if residual @ residual <= (PG_TOL * step) ** 2:  # prox-gradient norm |v - x| / step
            break
        if residual @ move > 0:  # momentum points uphill: restart from x
            v, t = x, 1.0
        else:
            t_new = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            v, t = x + ((t - 1.0) / t_new) * move, t_new
    return x[:d], float(x[d])


def predict_scores(X, w, b):
    return _sigmoid(np.asarray(X, dtype=float) @ w + b)


def auprc(scores, labels):
    """Average precision with tied scores grouped."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or not np.isfinite(scores).all():
        raise ValueError(f"scores must be a finite 1-D array, got shape {scores.shape}")
    check_labels(labels, len(scores), ValueError)
    labels = np.asarray(labels).astype(int)
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == len(labels):
        raise ValueError("both classes must be present")
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])  # one run per tied score
    group_pos = np.add.reduceat(y, starts)
    tp, seen = np.cumsum(group_pos), np.append(starts[1:], len(s))
    # Python's sum adds left to right, as a running total does; a group with no positive adds 0
    return sum((group_pos * (tp / seen)).tolist()) / n_pos


def _stratified_folds(labels, n_folds, seed):
    folds = [[] for _ in range(n_folds)]
    for perm in class_permutations(labels, np.random.default_rng(seed)):
        for pos, idx in enumerate(perm):
            folds[pos % n_folds].append(int(idx))
    return [sorted(f) for f in folds]


def cv_fold(observations, labels, model_spec, folds, seed, fold_id):
    """The result of fold fold_id of five_fold_cv: fit on the other folds'
    patients, project this fold's, select lambda, refit and score."""
    test_idx = folds[fold_id]
    train_idx = sorted(set(range(len(labels))) - set(test_idx))
    train_obs = _take_patients(observations, train_idx)
    test_obs = _take_patients(observations, test_idx)
    y_train, y_test = labels[train_idx], labels[test_idx]

    model = build_model(model_spec, train_obs)
    train(model)
    X_train = model.shared
    X_test = project_patients(model, test_obs)

    lam, start = _select_lambda(X_train, y_train, seed + fold_id)
    w, b = lasso_logistic_fit(X_train, y_train, lam, *start)
    score = auprc(predict_scores(X_test, w, b), y_test)
    return {"fold": fold_id, "auprc": score, "lambda": lam,
            "n_train": len(train_idx), "n_test": len(test_idx)}


_worker_inputs = ()  # cv_fold's arguments before fold_id, set in each worker by its initializer


def _keep_inputs(*inputs):
    global _worker_inputs
    _worker_inputs = inputs


def _fold_in_worker(fold_id):
    return cv_fold(*_worker_inputs, fold_id)


def five_fold_cv(observations, labels, model_spec, solver_cfg=None, n_folds=5, seed=0):
    """Per-fold AUPRC of lasso-logistic mortality prediction on projections.

    Each fold (cv_fold): fit the factorization on the training patients,
    project the test patients, select lambda on an inner 80/20 validation
    split of the training representations, refit, and score the held-out
    fold. lambda is chosen from LAMBDA_GRID, fitted as one warm-started
    path from the largest lambda down; the refit starts from the chosen
    lambda's path fit. Each lasso fit is FISTA stopped at prox-gradient
    norm PG_TOL. Fit and projection both run under solver_cfg, model_spec's
    own solver when None.

    The folds run in min(n_folds, usable CPUs) worker processes forked from
    this one, so the workers inherit the inputs and the BLAS thread setting;
    the result equals that of calling cv_fold on each fold in turn, bit for
    bit. An error raised in a fold is raised here; a worker that dies (in
    practice, killed for want of memory) raises MemoryError.
    """
    check_setting("cross-validation", "n_folds", n_folds, 2, integral=True)
    check_setting("cross-validation", "seed", seed, 0, integral=True)
    if solver_cfg is not None:
        model_spec = dataclasses.replace(model_spec, solver=solver_cfg)
    if not observations:
        raise ConfigurationError("cross-validation needs at least one modality")
    n = len(next(iter(observations.values())).shared_ids)
    check_labels(labels, n, ConfigurationError)
    labels = np.asarray(labels, dtype=int)
    if int(labels.sum()) < n_folds or int((1 - labels).sum()) < n_folds:
        raise ConfigurationError(f"need at least {n_folds} patients per class")
    folds = _stratified_folds(labels, n_folds, seed)
    # imported here, not at module level: they would add 15-30 ms to every `import margfact`
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    workers = min(n_folds, len(os.sched_getaffinity(0)))
    try:
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 initializer=_keep_inputs,
                                 initargs=(observations, labels, model_spec, folds, seed)) as pool:
            results = list(pool.map(_fold_in_worker, range(n_folds)))
    except BrokenProcessPool as exc:
        raise MemoryError("a cross-validation worker process died; "
                          "the likely cause is the system killing it for want of memory") from exc
    values = np.array([r["auprc"] for r in results])
    return {"folds": results, "mean": float(values.mean()), "std": float(values.std()),
            "config": {"n_folds": n_folds, "lambda_grid": list(LAMBDA_GRID), "seed": seed}}


def _select_lambda(X, y, seed):
    """Pick lambda by AUPRC on a stratified inner 80/20 validation split.

    LAMBDA_GRID is fitted as one path from the largest lambda down, each fit
    warm-started from the one before, and scored in LAMBDA_GRID order, so a
    tie goes to the smaller lambda. Returns lambda and the start (w0, b0) for
    its refit: its path fit, or (None, 0.0) for LAMBDA_GRID[0] when a side of
    the split lacks a class.
    """
    val_idx, fit_idx = stratified_split(y, 0.2, np.random.default_rng(seed))
    if len(np.unique(y[fit_idx])) < 2 or len(np.unique(y[val_idx])) < 2:
        return LAMBDA_GRID[0], (None, 0.0)
    fits, start = {}, (None, 0.0)
    for lam in sorted(LAMBDA_GRID, reverse=True):
        fits[lam] = start = lasso_logistic_fit(X[fit_idx], y[fit_idx], lam, *start)
    best_lam, best_score = LAMBDA_GRID[0], -1.0
    for lam in LAMBDA_GRID:
        score = auprc(predict_scores(X[val_idx], *fits[lam]), y[val_idx])
        if score > best_score:
            best_lam, best_score = lam, score
    return best_lam, fits[best_lam]
