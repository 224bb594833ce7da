import json

import numpy as np
import pytest

from margfact import (InteractionTensorSpec, ModelSpec, RegularizerConfig,
                      SolverConfig, build_model, nll, objective,
                      projected_step, reconstruct_marginal, train)
from margfact.likelihoods import ObservationKind

from helpers import make_obs, poisson_pair_model


class TestProjectedStep:
    def test_zero_gradient_unchanged(self):
        U = np.array([[1.0, 2.0], [3.0, 4.0]])
        cfg = SolverConfig()
        new, f, accepted = projected_step(U, np.zeros_like(U), lambda x: 0.0, 0.0, cfg)
        assert accepted
        np.testing.assert_array_equal(new, U)

    def test_projection_to_zero(self):
        U = np.full((2, 2), 1e-6)
        grad = np.full((2, 2), 1e6)  # any step drives everything negative
        cfg = SolverConfig(step0=1.0)

        def f(candidate):
            return float(np.sum(candidate ** 2))

        new, fv, accepted = projected_step(U, grad, f, f(U), cfg)
        assert accepted
        np.testing.assert_array_equal(new, np.zeros((2, 2)))

    def test_quadratic_toy_objective(self):
        # f(u) = 0.5 ||u - t||^2; hand-computed projected iterate
        target = np.array([[1.0, -1.0]])
        u0 = np.array([[0.0, 0.5]])

        def f(u):
            return float(0.5 * np.sum((u - target) ** 2))

        grad = u0 - target  # [[-1, 1.5]]
        cfg = SolverConfig(step0=0.5)
        expected = np.maximum(0.0, u0 - 0.5 * grad)  # [[0.5, 0.0]] by hand
        new, fv, accepted = projected_step(u0, grad, f, f(u0), cfg)
        assert accepted
        np.testing.assert_allclose(new, expected)
        assert fv < f(u0)


class TestRowProjectedStep:
    """A vector f_current makes each row of the block its own line search."""

    @staticmethod
    def problem():
        # f_i(x) = 0.5 w_i ||x - t_i||^2: rows of growing curvature need more
        # halvings; row 3 sits at its optimum, row 4 at the bound with a
        # gradient pointing out of the orthant, and row 5 runs out of halvings
        rng = np.random.default_rng(7)
        w = np.array([1.0, 10.0, 100.0, 3.0, 5.0, 1e9])
        t = rng.uniform(-0.5, 1.5, size=(6, 4))
        x = rng.uniform(0.1, 1.0, size=(6, 4))
        t[3] = x[3]
        x[4] = 0.0
        t[4] = -1.0
        return w, t, x, w[:, None] * (x - t)

    def test_rows_equal_scalar_calls_bit_for_bit(self):
        w, t, x, grad = self.problem()
        cfg = SolverConfig(step0=1.0, max_halvings=12)

        def f_rows(v, rows):
            return 0.5 * w[rows] * np.sum((v - t[rows]) ** 2, axis=1)

        new, f, accepted = projected_step(x, grad, f_rows, f_rows(x, np.arange(6)), cfg)
        assert f.shape == accepted.shape == (6,)
        for i in range(6):
            def f_row(v, i=i):
                return 0.5 * w[i] * np.sum((v - t[i]) ** 2)

            row, fi, ok = projected_step(x[i], grad[i], f_row, f_row(x[i]), cfg)
            np.testing.assert_array_equal(new[i], row)
            assert f[i] == fi and accepted[i] == ok
        assert list(accepted) == [True] * 5 + [False]
        assert np.all(f[:3] < f_rows(x, np.arange(6))[:3])

    def test_row_calls_see_only_pending_rows(self):
        w, t, x, grad = self.problem()
        cfg = SolverConfig(step0=1.0, max_halvings=12)
        seen = []

        def f_rows(v, rows):
            seen.append(rows.copy())
            assert v.shape == (len(rows), 4)
            return 0.5 * w[rows] * np.sum((v - t[rows]) ** 2, axis=1)

        new, f, accepted = projected_step(x, grad, f_rows, f_rows(x, np.arange(6)), cfg)
        calls = seen[1:]
        # rows 3 and 4 are stationary and never evaluated; a row leaves once accepted
        assert [list(r) for r in calls[:2]] == [[0, 1, 2, 5], [1, 2, 5]]
        for before, after in zip(calls, calls[1:]):
            assert set(after) <= set(before)
        for i in np.flatnonzero(accepted):
            if i not in (3, 4):
                last = max(n for n, rows in enumerate(calls) if i in rows)
                np.testing.assert_array_equal(
                    new[i], np.maximum(0.0, x[i] - 0.5 ** last * grad[i]))
        assert all(5 in rows for rows in calls)
        assert len(calls) == cfg.max_halvings + 1

    def test_length_one_vector_stays_row_form(self):
        w, t, x, grad = self.problem()
        cfg = SolverConfig(step0=1.0)
        calls = []

        def f_rows(v, rows):
            calls.append((v.shape, list(rows)))
            return 0.5 * w[0] * np.sum((v - t[0]) ** 2, axis=1)

        def f_row(v):
            return 0.5 * w[0] * np.sum((v - t[0]) ** 2)

        f0 = np.array([f_row(x[0])])
        new, f, accepted = projected_step(x[:1], grad[:1], f_rows, f0, cfg)
        assert f.shape == accepted.shape == (1,)
        assert calls and all(call == ((1, 4), [0]) for call in calls)
        row, fi, ok = projected_step(x[0], grad[0], f_row, f_row(x[0]), cfg)
        np.testing.assert_array_equal(new[0], row)
        assert f[0] == fi and accepted[0] == ok

    def test_zero_step_rows_unchanged_and_accepted(self):
        w, t, x, grad = self.problem()
        cfg = SolverConfig(step0=1.0)
        f0 = 0.5 * w * np.sum((x - t) ** 2, axis=1)

        def never(v, rows):
            raise AssertionError("a stationary block needs no evaluation")

        rows = [3, 4]
        new, f, accepted = projected_step(x[rows], grad[rows], never, f0[rows], cfg)
        np.testing.assert_array_equal(new, x[rows])
        np.testing.assert_array_equal(f, f0[rows])
        assert accepted.all()

    def test_scalar_call_returns_json_types(self):
        w, t, x, grad = self.problem()

        def f_all(v):
            return float(0.5 * np.sum(w[:, None] * (v - t) ** 2))

        for g in (grad, np.zeros_like(grad)):
            _, f, accepted = projected_step(x, g, f_all, f_all(x), SolverConfig(step0=1e-3))
            assert json.loads(json.dumps([f, accepted])) == [f, accepted]
            assert type(f) is float and type(accepted) is bool


class TestTrain:
    def test_planted_rank_one_recovery(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(0.5, 1.5, size=(50, 1))
        a = rng.uniform(0.5, 1.5, size=(5, 1))
        b = rng.uniform(0.5, 1.5, size=(6, 1))
        VA = rng.poisson(reconstruct_marginal(s, [a, b], 0)).astype(float)
        VB = rng.poisson(reconstruct_marginal(s, [a, b], 1)).astype(float)
        obs = {"A": make_obs("A", VA, "poisson", "integer"),
               "B": make_obs("B", VB, "poisson", "integer")}
        spec = ModelSpec(rank=1, tensors=[InteractionTensorSpec("ab", ["A", "B"], "poisson")],
                         regularizer=RegularizerConfig(gamma=0.0, beta=0.0),
                         init_seed=1, solver=SolverConfig(max_sweeps=2000, tol=1e-9))
        model = build_model(spec, obs)
        train(model)
        kind = ObservationKind("poisson", "integer")
        planted = (nll(kind, VA, reconstruct_marginal(s, [a, b], 0)) +
                   nll(kind, VB, reconstruct_marginal(s, [a, b], 1)))
        assert objective(model) <= planted * 1.01

    def test_zero_budget(self):
        model = poisson_pair_model()
        report = train(model, SolverConfig(max_sweeps=0))
        assert not report.converged
        assert report.sweeps_run == 0
        assert len(report.loss_trace) == 1

    def test_seeded_determinism(self):
        traces = []
        for _ in range(2):
            model = poisson_pair_model(seed=42, max_sweeps=30)
            report = train(model)
            traces.append(report.loss_trace)
        assert traces[0] == traces[1]  # bit-identical

    def test_monotone_loss_trace(self):
        model = poisson_pair_model(seed=2, max_sweeps=100)
        report = train(model, SolverConfig(max_sweeps=100, tol=1e-10, log_every=1))
        values = [f for _, f in report.loss_trace]
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-12

    def test_factors_stay_nonnegative(self):
        model = poisson_pair_model(seed=3, max_sweeps=50)
        train(model)
        assert np.all(model.shared >= 0)
        for U in model.factors.values():
            assert np.all(U >= 0)

    def test_convergence_flag_implies_small_change(self):
        model = poisson_pair_model(seed=4)
        cfg = SolverConfig(max_sweeps=5000, tol=1e-6, log_every=1)
        report = train(model, cfg)
        assert report.converged
        (s1, f1), (s2, f2) = report.loss_trace[-2], report.loss_trace[-1]
        if s2 > s1:  # final sweep logged separately
            assert abs(f1 - f2) / max(1.0, abs(f1)) < cfg.tol * (s2 - s1)

    def test_loss_flattens(self):
        model = poisson_pair_model(seed=5)
        report = train(model, SolverConfig(max_sweeps=64, tol=1e-14, log_every=1))
        values = dict(report.loss_trace)
        for k in (1, 2, 4, 8, 16, 32):
            assert values[2 * k] <= values[k]
