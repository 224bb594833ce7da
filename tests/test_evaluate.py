import concurrent.futures
import os

import numpy as np
import pytest

from margfact import (ConfigurationError, InteractionTensorSpec, ModelSpec, NumericError,
                      RegularizerConfig, SolverConfig, auprc, evaluate, five_fold_cv,
                      lasso_logistic_fit, reconstruct_marginal)
from margfact.data_io import stratified_split
from margfact.evaluate import (LAMBDA_GRID, PG_TOL, _select_lambda, _stratified_folds, cv_fold,
                               predict_scores)

from helpers import lasso_ista, lasso_objective, lasso_prox_step, lasso_step, make_obs


def planted_lasso_problem(seed, n=80):
    """Non-negative features, as shared factors are, with three informative columns."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 2.0, size=(n, 6))
    z = 3.0 * X[:, 0] - 2.0 * X[:, 3] + 0.5 * X[:, 5] - 1.0
    y = (1.0 / (1.0 + np.exp(-z)) > rng.uniform(size=n)).astype(int)
    return X, y


class TestLassoLogistic:
    def test_full_shrinkage(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(50, 3))
        y = (rng.uniform(size=50) < 0.3).astype(int)
        w, b = lasso_logistic_fit(X, y, lam=100.0)
        np.testing.assert_allclose(w, 0.0, atol=1e-8)
        rate = y.mean()
        assert b == pytest.approx(np.log(rate / (1 - rate)), abs=1e-2)

    def test_separable_toy(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.uniform(0.0, 0.4, size=(20, 2)),
                       rng.uniform(0.6, 1.0, size=(20, 2))])
        y = np.array([0] * 20 + [1] * 20)
        w, b = lasso_logistic_fit(X, y, lam=1e-4)
        pred = (predict_scores(X, w, b) > 0.5).astype(int)
        assert np.mean(pred == y) == 1.0

    def test_fit_is_stationary_and_no_worse_than_ista(self):
        X, y = planted_lasso_problem(2)
        step = lasso_step(X)
        for lam in LAMBDA_GRID:
            w, b = lasso_logistic_fit(X, y, lam)
            w_next, b_next = lasso_prox_step(X, y, lam, w, b, step)
            prox_gradient = np.linalg.norm(np.append(w - w_next, b - b_next)) / step
            assert prox_gradient <= PG_TOL, lam
            ista = lasso_ista(X, y, lam)
            assert lasso_objective(X, y, lam, w, b) <= lasso_objective(X, y, lam, *ista), lam

    @pytest.mark.parametrize("lam, start_lam", [(1e-4, 1e-3), (1e-2, 1.0), (1.0, 1e-4)])
    def test_warm_start_reaches_the_cold_objective(self, lam, start_lam):
        X, y = planted_lasso_problem(3)
        cold = lasso_objective(X, y, lam, *lasso_logistic_fit(X, y, lam))
        warm = lasso_logistic_fit(X, y, lam, *lasso_logistic_fit(X, y, start_lam))
        assert lasso_objective(X, y, lam, *warm) == pytest.approx(cold, rel=1e-9, abs=0.0)

    def test_single_class_errors(self):
        X = np.ones((5, 2))
        with pytest.raises(ValueError):
            lasso_logistic_fit(X, np.zeros(5), 0.1)

    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
    def test_lambda_must_be_finite_and_non_negative(self, lam):
        X, y = planted_lasso_problem(0, n=20)
        with pytest.raises(ConfigurationError, match="lam must be a finite number"):
            lasso_logistic_fit(X, y, lam)

    @pytest.mark.parametrize("bad", ["inf", "nan", "one_d", "short_labels"])
    def test_features_must_be_finite_2d_rows_of_the_labels(self, bad):
        X, y = planted_lasso_problem(0, n=20)
        if bad in ("inf", "nan"):
            X[4, 1] = float(bad)
        X, y = {"one_d": (X[:, 0], y), "short_labels": (X, y[:-1])}.get(bad, (X, y))
        with pytest.raises(ValueError, match="X must be a finite 2-D array|one 0 or 1"):
            lasso_logistic_fit(X, y, 0.01)

    @pytest.mark.parametrize("labels", [[0, 2], [0, 0.5], [-1, 1]],
                             ids=["two", "half", "minus_one"])
    def test_labels_must_be_0_or_1(self, labels):
        X, y = planted_lasso_problem(0, n=20)
        y = np.where(y == 1, labels[1], labels[0])
        with pytest.raises(ValueError, match="labels must be one 0 or 1 per patient"):
            lasso_logistic_fit(X, y, 0.01)

    def test_lasso_path_monotone(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 5))
        beta = np.array([2.0, -1.0, 0.0, 0.5, 0.0])
        y = (1.0 / (1.0 + np.exp(-(X @ beta))) > rng.uniform(size=60)).astype(int)
        norms = []
        for lam in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            w, _ = lasso_logistic_fit(X, y, lam)
            norms.append(np.sum(np.abs(w)))
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-6


class TestAuprc:
    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert auprc(scores, labels) == pytest.approx(1.0)

    def test_constant_scores_base_rate(self):
        labels = np.array([1, 0, 0, 0, 1])
        assert auprc(np.full(5, 0.5), labels) == pytest.approx(labels.mean())

    def test_matches_rank_by_rank_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = 12
            scores = rng.permutation(n).astype(float)  # distinct scores, no ties
            labels = (rng.uniform(size=n) < 0.4).astype(int)
            if labels.sum() in (0, n):
                continue
            order = np.argsort(-scores)
            y = labels[order]
            ap = 0.0
            tp = 0
            for rank, yi in enumerate(y, start=1):
                if yi:
                    tp += 1
                    ap += tp / rank
            ap /= labels.sum()
            assert auprc(scores, labels) == pytest.approx(ap, abs=1e-12)

    def test_equals_tie_group_loop_bit_for_bit(self):
        def loop(scores, labels):  # one tie group at a time, a running total
            order = np.argsort(-scores, kind="stable")
            s, y = scores[order], labels[order]
            ap, tp, seen, i = 0.0, 0, 0, 0
            while i < len(s):
                j = i
                while j < len(s) and s[j] == s[i]:
                    j += 1
                group_pos = int(y[i:j].sum())
                tp += group_pos
                seen += j - i
                if group_pos:
                    ap += group_pos * (tp / seen)
                i = j
            return ap / labels.sum()

        rng = np.random.default_rng(6)
        for trial in range(300):
            n = int(rng.integers(2, 200))
            labels = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(int)
            labels[:2] = (0, 1)
            levels = (2, 7, n)[trial % 3]  # few tie groups, some, or mostly distinct
            scores = rng.integers(0, levels, size=n) / levels
            assert auprc(scores, labels) == loop(scores, labels)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(size=20)
        labels = (rng.uniform(size=20) < 0.3).astype(int)
        labels[0] = 1
        labels[1] = 0
        base = auprc(scores, labels)
        assert auprc(np.exp(5 * scores), labels) == pytest.approx(base)
        assert auprc(np.log(scores + 1e-9), labels) == pytest.approx(base)

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            auprc(np.array([0.1, 0.2]), np.array([1, 1]))

    @pytest.mark.parametrize("labels", [[2, 0, 0], [1, 0.5, 0], [1, 0, -1]],
                             ids=["two", "half", "minus_one"])
    def test_labels_must_be_0_or_1(self, labels):
        with pytest.raises(ValueError, match="labels must be one 0 or 1 per patient"):
            auprc(np.array([0.9, 0.5, 0.1]), np.array(labels))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_scores_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="scores must be a finite 1-D array"):
            auprc(np.array([0.9, bad, 0.1, 0.3]), np.array([1, 0, 0, 1]))

    @pytest.mark.parametrize("n_labels", [3, 5])
    def test_scores_and_labels_of_different_lengths(self, n_labels):
        with pytest.raises(ValueError, match="4 patients, labels of shape"):
            auprc(np.array([0.9, 0.5, 0.1, 0.3]), np.array([1, 0, 0, 1, 0])[:n_labels])


def test_select_lambda_falls_back_without_both_classes_on_each_side(monkeypatch):
    # one positive goes to the validation side, leaving the fit side one class,
    # as in a training fold of five_fold_cv(n_folds=2) with two positive patients
    def fail(*args):
        raise AssertionError("no lasso fit is scored without both classes")

    monkeypatch.setattr(evaluate, "lasso_logistic_fit", fail)
    X = np.random.default_rng(0).uniform(size=(6, 3))
    assert _select_lambda(X, np.array([0, 0, 1, 0, 0, 0]), seed=0) == (LAMBDA_GRID[0], (None, 0.0))


@pytest.mark.parametrize("seed", range(6))
def test_select_lambda_scores_the_path_as_cold_fits_in_grid_order(seed):
    # the lambda that scoring cold fits in LAMBDA_GRID order picks, a tie going to the
    # smaller; seeds 2 and 4 tie at the best score (1e-4, 1e-3 and 1e-2 score alike)
    X, y = planted_lasso_problem(seed, n=40 + 10 * seed)
    val_idx, fit_idx = stratified_split(y, 0.2, np.random.default_rng(seed))
    scores = [auprc(predict_scores(X[val_idx], *lasso_logistic_fit(X[fit_idx], y[fit_idx], lam)),
                    y[val_idx]) for lam in LAMBDA_GRID]
    lam, (w, b) = _select_lambda(X, y, seed)
    assert lam == LAMBDA_GRID[scores.index(max(scores))]
    # the start it returns is the chosen lambda's fit on the inner split
    cold = lasso_logistic_fit(X[fit_idx], y[fit_idx], lam)
    assert lasso_objective(X[fit_idx], y[fit_idx], lam, w, b) == pytest.approx(
        lasso_objective(X[fit_idx], y[fit_idx], lam, *cold), rel=1e-9, abs=0.0)


def cv_setup(seed=0, n=120, rank=3, per_block=8):
    """Planted-factor cohort whose labels threshold one shared column.

    Item factors are block structured (each latent column owns a disjoint
    slice of the vocabulary) so the factorization is identifiable, and the
    labelled shared column is bimodal so the 80th-percentile cut falls in
    a margin rather than splitting near-ties.
    """
    rng = np.random.default_rng(seed)

    def blocky(rows_per, cols):
        U = np.zeros((rows_per * cols, cols))
        for r in range(cols):
            U[r * rows_per:(r + 1) * rows_per, r] = rng.uniform(0.5, 1.5, size=rows_per)
        return U

    A, B = blocky(per_block, rank), blocky(per_block, rank)
    S = rng.uniform(0.2, 1.2, size=(n, rank))
    elevated = rng.permutation(n)[: n // 5]
    S[:, 0] = rng.uniform(0.1, 0.5, size=n)
    S[elevated, 0] = rng.uniform(1.2, 1.8, size=len(elevated))
    VA = rng.poisson(reconstruct_marginal(S, [A, B], 0)).astype(float)
    VB = rng.poisson(reconstruct_marginal(S, [A, B], 1)).astype(float)
    obs = {"A": make_obs("A", VA, "poisson", "integer"),
           "B": make_obs("B", VB, "poisson", "integer")}
    labels = (S[:, 0] > np.quantile(S[:, 0], 0.8)).astype(int)
    spec = ModelSpec(rank=rank, tensors=[InteractionTensorSpec("ab", ["A", "B"], "poisson")],
                     regularizer=RegularizerConfig(gamma=0.0, beta=0.0),
                     init_seed=seed,
                     solver=SolverConfig(max_sweeps=800, tol=1e-8, step0=1e-4))
    return obs, labels, spec


def raise_boom(model):
    raise NumericError("boom")


def die(model):
    os._exit(1)


# a fold's train that fails: (train, the error five_fold_cv raises, its message)
FAILED_FOLDS = {"raises": (raise_boom, NumericError, "boom"),
                "dies": (die, MemoryError, "worker process died")}


class TestFiveFoldCV:
    def test_fold_partition(self):
        obs, labels, spec = cv_setup()
        spec.solver.max_sweeps = 5
        report = five_fold_cv(obs, labels, spec, spec.solver, seed=1)
        counts = sum(r["n_test"] for r in report["folds"])
        assert counts == len(labels)
        assert len(report["folds"]) == 5

    def test_planted_signal_recovered(self):
        obs, labels, spec = cv_setup(seed=2)
        report = five_fold_cv(obs, labels, spec, spec.solver, seed=2)
        assert report["mean"] >= 0.9

    def test_shuffled_labels_near_base_rate(self):
        obs, labels, spec = cv_setup(seed=3)
        spec.solver.max_sweeps = 40
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(labels)
        report = five_fold_cv(obs, shuffled, spec, spec.solver, seed=3)
        base = shuffled.mean()
        assert abs(report["mean"] - base) <= max(3 * report["std"], 0.2)

    @pytest.mark.parametrize("n_folds", [1, 0, -1])
    def test_fewer_than_two_folds_is_configuration_error(self, n_folds):
        obs, labels, spec = cv_setup()
        with pytest.raises(ConfigurationError):
            five_fold_cv(obs, labels, spec, spec.solver, n_folds=n_folds)

    def test_too_few_patients_per_class_is_configuration_error(self):
        obs, labels, spec = cv_setup()
        with pytest.raises(ConfigurationError):
            five_fold_cv(obs, labels, spec, spec.solver, n_folds=int(labels.sum()) + 1)
        with pytest.raises(ConfigurationError, match="at least one modality"):
            five_fold_cv({}, labels, spec)

    @pytest.mark.parametrize("bad", ["short", "long", "three_classes", "fraction"])
    def test_labels_must_be_one_0_or_1_per_patient(self, bad):
        obs, labels, spec = cv_setup()
        spec.solver.max_sweeps = 1
        labels = {"short": labels[:100], "long": np.r_[labels, labels[:20]],
                  "three_classes": np.where(np.arange(120) < 20, 2, labels),
                  "fraction": np.where(np.arange(120) == 7, 0.5, labels)}[bad]
        with pytest.raises(ConfigurationError, match="labels must be one 0 or 1 per patient"):
            five_fold_cv(obs, labels, spec, spec.solver)

    @pytest.mark.parametrize("n_folds, cpus", [(5, None), (3, None), (5, 1)],
                             ids=["5_folds", "3_folds", "one_worker"])
    def test_deterministic_folds(self, monkeypatch, n_folds, cpus):
        obs, labels, spec = cv_setup(seed=4)
        spec.solver.max_sweeps = 3
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        workers = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        a = five_fold_cv(obs, labels, spec, spec.solver, n_folds=n_folds, seed=7)
        b = five_fold_cv(obs, labels, spec, spec.solver, n_folds=n_folds, seed=7)
        assert workers == [min(n_folds, len(os.sched_getaffinity(0)))] * 2
        # the same as the folds run one after another in this process
        folds = _stratified_folds(labels, n_folds, 7)
        serial = [cv_fold(obs, labels, spec, folds, 7, fold_id) for fold_id in range(n_folds)]
        assert a == b and a["folds"] == serial
        assert a["mean"] == float(np.mean([fold["auprc"] for fold in serial]))

    @pytest.mark.parametrize("failure", FAILED_FOLDS)
    def test_a_failed_fold_reaches_the_caller(self, monkeypatch, failure):
        obs, labels, spec = cv_setup()
        train, error, message = FAILED_FOLDS[failure]
        monkeypatch.setattr(evaluate, "train", train)  # the workers fork with the patch
        with pytest.raises(error, match=message):
            five_fold_cv(obs, labels, spec, spec.solver)
