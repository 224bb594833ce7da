import concurrent.futures
import os

import numpy as np
import pytest

from margfact import (ConfigurationError, InteractionTensorSpec, ModelSpec, NumericError,
                      RegularizerConfig, SolverConfig, auprc, evaluate, five_fold_cv,
                      lasso_logistic_fit, reconstruct_marginal)
from margfact.evaluate import _logistic_loss, _stratified_folds, cv_fold, predict_scores

from helpers import make_obs


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

    def test_objective_trace_nonincreasing(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 4))
        y = (rng.uniform(size=30) < 0.5).astype(int)
        lam = 0.01
        # re-run the proximal iteration manually to watch the objective
        n, d = X.shape
        Xa = np.hstack([X, np.ones((n, 1))])
        L = 0.25 * np.linalg.norm(Xa, 2) ** 2 / n
        step = 1.0 / L
        w, b = np.zeros(d), 0.0
        prev = _logistic_loss(X @ w + b, y) + lam * np.sum(np.abs(w))
        for _ in range(200):
            p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
            w_new = w - step * (X.T @ (p - y) / n)
            w_new = np.sign(w_new) * np.maximum(0.0, np.abs(w_new) - step * lam)
            b_new = b - step * float(np.mean(p - y))
            cur = _logistic_loss(X @ w_new + b_new, y) + lam * np.sum(np.abs(w_new))
            assert cur <= prev + 1e-12
            w, b, prev = w_new, b_new, cur

    def test_single_class_errors(self):
        X = np.ones((5, 2))
        with pytest.raises(ValueError):
            lasso_logistic_fit(X, np.zeros(5), 0.1)

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
