import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import margfact.model as mmodel
from margfact import (InteractionTensorSpec, ModelSpec, RegularizerConfig,
                      SolverConfig, build_model, gradient_block, nll, objective,
                      projected_step, reconstruct_marginal, solver,
                      synth_generate, train)
from margfact.likelihoods import ObservationKind
from margfact.model import ARMIJO_C, BACKTRACK, SHARED, Term, em_step

from helpers import make_obs, poisson_pair_model, small_mixed_model


@pytest.fixture()
def halvings(monkeypatch):
    """Set the line search's halving budget for one test."""
    def set_budget(n):
        monkeypatch.setattr("margfact.model.MAX_HALVINGS", n)
        return n
    return set_budget


def as_row(f, shape):
    """A whole-block objective f as the callback of the block run as one row."""
    return lambda trial, idx: f(trial.reshape(shape))


class TestProjectedStep:
    """A whole block is one row, as train runs it."""

    def test_zero_gradient_unchanged(self):
        U = np.array([[1.0, 2.0], [3.0, 4.0]])
        new, f, accepted, _ = projected_step(U, np.zeros_like(U), as_row(lambda x: 0.0, U.shape),
                                             [0.0], 1e-2)
        assert accepted[0]
        np.testing.assert_array_equal(new, U)

    def test_projection_to_zero(self):
        U = np.full((2, 2), 1e-6)
        grad = np.full((2, 2), 1e6)  # any step drives everything negative

        def f(candidate):
            return float(np.sum(candidate ** 2))

        new, fv, accepted, _ = projected_step(U, grad, as_row(f, U.shape), [f(U)], 1.0)
        assert accepted[0]
        np.testing.assert_array_equal(new, np.zeros((2, 2)))

    def test_quadratic_toy_objective(self):
        # f(u) = 0.5 ||u - t||^2; hand-computed projected iterate
        target = np.array([[1.0, -1.0]])
        u0 = np.array([[0.0, 0.5]])

        def f(u):
            return float(0.5 * np.sum((u - target) ** 2))

        grad = u0 - target  # [[-1, 1.5]]
        expected = np.maximum(0.0, u0 - 0.5 * grad)  # [[0.5, 0.0]] by hand
        new, fv, accepted, _ = projected_step(u0, grad, as_row(f, u0.shape), [f(u0)], 0.5)
        assert accepted[0]
        np.testing.assert_allclose(new, expected)
        assert fv[0] < f(u0)


class TestRowProjectedStep:
    """Each row of the block is its own line search."""

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

    def test_rows_equal_scalar_calls_bit_for_bit(self, halvings):
        halvings(12)
        w, t, x, grad = self.problem()

        def f_rows(v, rows):
            return 0.5 * w[rows] * np.sum((v - t[rows]) ** 2, axis=1)

        new, f, accepted, _ = projected_step(x, grad, f_rows, f_rows(x, np.arange(6)), 1.0)
        assert f.shape == accepted.shape == (6,)
        for i in range(6):
            def f_row(v, _, i=i):
                return f_rows(v, [i])

            row, fi, ok, _ = projected_step(x[i:i + 1], grad[i:i + 1], f_row, f_row(x[i:i + 1], 0),
                                            1.0)
            np.testing.assert_array_equal(new[i], row[0])
            assert f[i] == fi[0] and accepted[i] == ok[0]
        assert list(accepted) == [True] * 5 + [False]
        assert np.all(f[:3] < f_rows(x, np.arange(6))[:3])

    def test_row_calls_see_only_pending_rows(self, halvings):
        budget = halvings(12)
        w, t, x, grad = self.problem()
        seen = []

        def f_rows(v, rows):
            seen.append(rows.copy())
            assert v.shape == (len(rows), 4)
            return 0.5 * w[rows] * np.sum((v - t[rows]) ** 2, axis=1)

        new, f, accepted, _ = projected_step(x, grad, f_rows, f_rows(x, np.arange(6)), 1.0)
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
        assert len(calls) == budget + 1

    def test_length_one_vector_stays_row_form(self):
        # a whole block is one row: the callback sees it flattened, as row 0
        w, t, x, grad = self.problem()
        calls = []

        def f(v):
            return float(0.5 * np.sum(w[:, None] * (v - t) ** 2))

        def f_block(v, rows):
            calls.append((v.shape, list(rows)))
            return f(v.reshape(x.shape))

        f0 = f(x)
        new, f, accepted, nxt = projected_step(x, grad, f_block, [f0], 1e-3)
        assert new.shape == x.shape and f.shape == accepted.shape == nxt.shape == (1,)
        assert calls and all(call == ((1, 24), [0]) for call in calls)
        assert f[0] <= f0

    def test_zero_step_rows_unchanged_and_accepted(self):
        w, t, x, grad = self.problem()
        f0 = 0.5 * w * np.sum((x - t) ** 2, axis=1)

        def never(v, rows):
            raise AssertionError("a stationary block needs no evaluation")

        rows = [3, 4]
        new, f, accepted, _ = projected_step(x[rows], grad[rows], never, f0[rows], 1.0)
        np.testing.assert_array_equal(new, x[rows])
        np.testing.assert_array_equal(f, f0[rows])
        assert accepted.all()


class TestPerEntryStep:
    """A 2-D eta is one step per entry, scaled by t from 1: the EM step's form."""

    def test_broadcast_row_steps_give_the_per_row_result_bit_for_bit(self, halvings):
        halvings(12)
        w, t, x, grad = TestRowProjectedStep.problem()
        eta = np.array([1.0, 0.25, 0.01, 2.0, 4.0, 3.0])

        def f_rows(v, rows):
            return 0.5 * w[rows] * np.sum((v - t[rows]) ** 2, axis=1)

        f0 = f_rows(x, np.arange(6))
        new, f, accepted, nxt = projected_step(x, grad, f_rows, f0, eta)
        new_e, f_e, accepted_e, t_end = projected_step(
            x, grad, f_rows, f0, np.broadcast_to(eta[:, None], x.shape))
        np.testing.assert_array_equal(new_e, new)
        np.testing.assert_array_equal(f_e, f)
        np.testing.assert_array_equal(accepted_e, accepted)
        assert list(accepted) == [True] * 5 + [False]
        # t is the share of eta the search ended on; per row, an accepted
        # step is also where the next search starts, times BACKTRACK
        np.testing.assert_array_equal((t_end * eta)[:3], (nxt * BACKTRACK)[:3])
        np.testing.assert_array_equal(t_end[3:], [1.0, 1.0, BACKTRACK ** 12])

    def test_zero_entries_of_the_step_stay_unmoved_without_warnings(self):
        # pytest makes a RuntimeWarning (say 0 / 0 in the Armijo sum) an error
        x = np.array([[0.5, 1.0, 0.0], [2.0, 0.0, 0.25]])
        D = np.array([[0.0, 0.5, 0.0], [0.0, 0.25, 1.0]])

        def f_rows(v, rows):
            return np.sum((v - 3.0) ** 2, axis=1)

        new, f, accepted, t_end = projected_step(x, -np.ones_like(x), f_rows,
                                                 f_rows(x, [0, 1]), D)
        assert accepted.all() and np.all(f < f_rows(x, [0, 1]))
        np.testing.assert_array_equal(new[:, 0], x[:, 0])
        np.testing.assert_array_equal(new[0, 2], 0.0)
        np.testing.assert_array_equal(t_end, [1.0, 1.0])

    def test_zero_column_of_P_leaves_the_shared_column_unmoved(self):
        model = poisson_pair_model(seed=0)
        model.factors["A"][:, 0] = 0.0  # every term's prod colsum(B_m) is 0 in column 0
        S, f0 = model.shared, objective(model)
        grad = gradient_block(model, SHARED)
        D = em_step(model, S, grad)
        assert np.all(D[:, 0] == 0.0) and np.all(D[:, 1:] > 0.0)
        new, f, accepted, t_end = projected_step(
            S, grad, lambda trial, _: objective(model, SHARED, None, trial.reshape(S.shape)),
            [f0], D)
        np.testing.assert_array_equal(new[:, 0], S[:, 0])
        assert accepted[0] and f[0] < f0 and t_end[0] == 1.0
        assert not np.array_equal(new[:, 1:], S[:, 1:])

    def test_kappa_lifts_a_zero_entry_the_gradient_pulls_up(self):
        model = poisson_pair_model(seed=2)
        model.shared[0] = 0.0
        grad = gradient_block(model, SHARED)
        assert np.all(grad[0] < 0)  # counts but no mean: every entry is pulled up
        D = em_step(model, model.shared, grad)
        assert np.all(D[0] > 0)
        assert np.all(np.maximum(0.0, model.shared - D * grad)[0] > 0)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(layout=st.sampled_from(["pair", "shared_twice", "three_way"]),
           n_patients=st.integers(2, 30), n_items=st.integers(1, 8), rank=st.integers(1, 4),
           rate=st.sampled_from([0.05, 0.5, 3.0, 20.0]), spread=st.floats(1e-3, 1e3),
           seed=st.integers(0, 2 ** 16))
    def test_em_trial_at_t_one_never_raises_the_objective(self, layout, n_patients, n_items,
                                                          rank, rate, spread, seed):
        modalities = {"pair": [["A", "B"]], "shared_twice": [["A", "B"], ["A", "C"]],
                      "three_way": [["A", "B", "C"]]}[layout]
        rng = np.random.default_rng(seed)
        names = sorted({m for tensor in modalities for m in tensor})
        obs = {m: make_obs(m, rng.poisson(rate, (n_patients, n_items + i)), "poisson",
                           "integer") for i, m in enumerate(names)}
        spec = ModelSpec(rank=rank, tensors=[InteractionTensorSpec(f"t{i}", mods, "poisson")
                                             for i, mods in enumerate(modalities)],
                         init_seed=seed)
        model = build_model(spec, obs)
        model.shared *= spread  # starts far above and far below the counts' scale
        f0 = objective(model)
        grad = gradient_block(model, SHARED)
        trial = np.maximum(0.0, model.shared - em_step(model, model.shared, grad) * grad)
        assert objective(model, SHARED, None, trial) <= f0 + 1e-12 * abs(f0)


class TestStepMemory:
    """projected_step returns where the next search should start."""

    def test_accepted_step_grows(self):
        target = np.array([[1.0, 2.0]])
        u0 = np.array([[0.5, 0.5]])

        def f(u):
            return float(0.5 * np.sum((u - target) ** 2))

        new, fv, accepted, nxt = projected_step(u0, u0 - target, as_row(f, u0.shape), [f(u0)],
                                                0.5)
        assert accepted[0] and fv[0] < f(u0)
        assert nxt[0] == 0.5 / BACKTRACK
        # a search started from the returned step tries that step first
        tried = []

        def g(u):
            tried.append(u.copy())
            return f(u)

        projected_step(new, new - target, as_row(g, u0.shape), fv, nxt)
        np.testing.assert_array_equal(tried[0], np.maximum(0.0, new - nxt * (new - target)))

    def test_rejected_search_returns_smallest_step_tried(self, halvings):
        budget = halvings(3)
        u0 = np.array([[1.0, 2.0]])

        def f(u):  # the negative gradient points uphill: every trial fails
            return float(np.sum(u))

        new, fv, accepted, nxt = projected_step(u0, -np.ones_like(u0), as_row(f, u0.shape),
                                                [f(u0)], 0.8)
        assert not accepted[0] and fv[0] == f(u0)
        np.testing.assert_array_equal(new, u0)
        assert nxt[0] == 0.8 * BACKTRACK ** budget

    def test_stationary_keeps_given_step(self):
        U = np.array([[0.0, 2.0]])
        grad = np.array([[3.0, 0.0]])  # at the bound and pushed out, or flat

        def never(u, rows):
            raise AssertionError("a stationary block needs no evaluation")

        new, fv, accepted, nxt = projected_step(U, grad, never, [1.5], 7.0)
        assert accepted[0] and fv[0] == 1.5 and nxt[0] == 7.0
        np.testing.assert_array_equal(new, U)

    def test_rows_carry_their_own_steps(self, halvings):
        budget = halvings(12)
        w, t, x, grad = TestRowProjectedStep.problem()
        eta = np.array([1.0, 0.25, 0.01, 2.0, 4.0, 3.0])

        def f_rows(v, rows):
            return 0.5 * w[rows] * np.sum((v - t[rows]) ** 2, axis=1)

        new, f, accepted, nxt = projected_step(x, grad, f_rows, f_rows(x, np.arange(6)), eta)
        assert nxt.shape == (6,)
        for i in range(6):
            def f_row(v, _, i=i):
                return f_rows(v, [i])

            row, fi, ok, step = projected_step(x[i:i + 1], grad[i:i + 1], f_row,
                                               f_row(x[i:i + 1], 0), eta[i])
            np.testing.assert_array_equal(new[i], row[0])
            assert f[i] == fi[0] and accepted[i] == ok[0] and nxt[i] == step[0]
        # rows 0-2 grew from the step they accepted, 3 and 4 are stationary
        # and keep theirs, and row 5 ends at the smallest step it tried
        for i in range(3):
            k = np.log2(eta[i] / (nxt[i] * BACKTRACK))
            assert k == round(k) >= 0
            np.testing.assert_array_equal(new[i], np.maximum(0.0, x[i] - nxt[i] * BACKTRACK
                                                             * grad[i]))
        assert nxt[3] == eta[3] and nxt[4] == eta[4]
        assert not accepted[5] and nxt[5] == eta[5] * BACKTRACK ** budget

    def test_idle_block_step_stays_finite_without_evaluations(self):
        U = np.array([[0.0, 1.0], [2.0, 0.0]])
        grad = np.array([[1.0, 0.0], [0.0, 5.0]])
        step0 = SolverConfig().step0
        calls = []

        def count(*args):
            calls.append(args)
            return 0.0

        step, steps = step0, np.full(2, step0)
        for _ in range(2000):
            U, _, accepted, step = projected_step(U, grad, count, [0.0], step)
            assert accepted[0]
            U, _, _, steps = projected_step(U, grad, count, np.zeros(2), steps)
        assert calls == []
        assert step[0] == step0 and np.all(steps == step0)


class TestStopReason:
    def test_every_block_keeps_accepting_at_criterion_5_scale(self):
        # At a fixed first step, the shared block and M0 of this fit froze
        # after sweep 1: their gradients near the bound need steps far below
        # step0 * BACKTRACK ** MAX_HALVINGS.
        spec = ModelSpec(
            rank=5,
            tensors=[InteractionTensorSpec("t0", ["M0", "M1"], "poisson"),
                     InteractionTensorSpec("t1", ["M0", "M2"], "poisson")],
            init_seed=0,
            solver=SolverConfig(max_sweeps=60, tol=1e-6, step0=1e-4, log_every=1))
        obs, _ = synth_generate(spec, {"M0": 30, "M1": 30, "M2": 30},
                                {m: "integer" for m in ("M0", "M1", "M2")}, 500, seed=0)
        report = train(build_model(spec, obs))
        assert report.stop_reason == "budget" and report.sweeps_run == 60
        later = [e for e in report.step_log if e["sweep"] >= 2]
        assert len(later) == 59
        for block in later[0]["step_accepted_per_block"]:
            accepts = sum(e["step_accepted_per_block"][block] for e in later)
            assert accepts >= 0.9 * len(later), (block, accepts)

    def test_no_block_moving_is_stalled(self, halvings):
        halvings(0)
        model = small_mixed_model(seed=1, n_patients=12)  # a Gaussian term: every step additive
        f0 = objective(model)
        report = train(model, SolverConfig(step0=1e6, log_every=5))
        assert report.stop_reason == "stalled" and not report.converged
        assert report.sweeps_run == 1
        assert report.loss_trace == [(0, f0), (1, f0)]
        entry = report.step_log[-1]
        assert not any(entry["step_accepted_per_block"].values())
        assert set(entry["step_size_per_block"].values()) == {1e6}

    def test_flat_objective_with_a_frozen_block_is_stalled(self, monkeypatch):
        model = _frozen_shared(monkeypatch)
        frozen = model.shared.copy()
        report = train(model, SolverConfig(max_sweeps=5000, tol=1e-6))
        assert report.stop_reason == "stalled" and not report.converged
        assert report.sweeps_run > 1
        assert report.step_log[-1]["step_accepted_per_block"] == {
            SHARED: False, "A": True, "B": True}
        np.testing.assert_array_equal(model.shared, frozen)

    def test_a_modality_named_dunder_shared_is_a_block_of_its_own(self):
        rng = np.random.default_rng(0)
        obs = {n: make_obs(n, rng.poisson(1.0, (8, 4)).astype(float), "poisson", "integer")
               for n in ("A", "__shared__")}
        spec = ModelSpec(rank=2, tensors=[
            InteractionTensorSpec("t", ["A", "__shared__"], "poisson")])
        model = build_model(spec, obs)
        start = model.factors["__shared__"].copy()
        report = train(model, SolverConfig(max_sweeps=5, log_every=1))
        assert list(report.step_log[0]["step_accepted_per_block"]) == [SHARED, "A", "__shared__"]
        assert not np.array_equal(model.factors["__shared__"], start)

    def test_sweep_budget(self):
        model = poisson_pair_model(seed=1)
        report = train(model, SolverConfig(max_sweeps=3, tol=1e-16, log_every=1))
        assert report.stop_reason == "budget" and not report.converged
        assert report.sweeps_run == 3 and [s for s, _ in report.loss_trace] == [0, 1, 2, 3]

    def test_trace_records_stop_reason_and_step_sizes(self):
        model = poisson_pair_model(seed=4)
        cfg = SolverConfig(max_sweeps=5000, tol=1e-6, step0=1e-3, log_every=7)
        report = train(model, cfg)
        d = json.loads(json.dumps(report.to_dict()))
        assert d["stop_reason"] == report.stop_reason == "converged" and d["converged"]
        first = report.step_log[0]
        assert list(first["step_size_per_block"]) == [SHARED, "A", "B"]
        for entry in d["steps"]:
            assert all(type(v) is float and 0.0 < v < np.inf
                       for v in entry["step_size_per_block"].values())
        assert d["steps"][-1]["sweep"] == report.sweeps_run

    def test_step_log_holds_json_types(self):
        report = train(poisson_pair_model(seed=4), SolverConfig(max_sweeps=4, log_every=1))
        for entry in report.step_log:
            assert type(entry["objective"]) is float
            assert all(type(v) is bool for v in entry["step_accepted_per_block"].values())
            assert all(type(v) is float for v in entry["step_size_per_block"].values())
        assert json.loads(json.dumps(report.to_dict()))["steps"] == report.step_log

    def test_converged_follows_stop_reason(self):
        report = solver.TrainReport()
        for reason in ("converged", "stalled", "budget"):
            report.stop_reason = reason
            assert report.converged == (reason == "converged")
            assert report.to_dict()["converged"] == report.converged


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
        report = train(model, SolverConfig(max_sweeps=64, tol=1e-16, log_every=1))
        values = dict(report.loss_trace)
        for k in (1, 2, 4, 8, 16, 32):
            assert values[2 * k] <= values[k]


def _shared_twice_model(seed=0):
    """fit500's layout at toy scale: M0 in two Poisson tensors."""
    spec = ModelSpec(rank=3,
                     tensors=[InteractionTensorSpec("t0", ["M0", "M1"], "poisson"),
                              InteractionTensorSpec("t1", ["M0", "M2"], "poisson")],
                     init_seed=seed, solver=SolverConfig(step0=1e-4))
    obs, _ = synth_generate(spec, {"M0": 6, "M1": 5, "M2": 7},
                            {"M0": "integer", "M1": "binary", "M2": "integer"}, 40, seed=seed)
    return build_model(spec, obs)


def _three_way_model(seed=0):
    spec = ModelSpec(rank=3, tensors=[InteractionTensorSpec("abc", ["A", "B", "C"], "poisson")],
                     regularizer=RegularizerConfig(gamma=1e-3, beta=0.5), init_seed=seed,
                     solver=SolverConfig(step0=1e-3))
    obs, _ = synth_generate(spec, {"A": 5, "B": 4, "C": 6},
                            {"A": "integer", "B": "binary", "C": "integer"}, 30, seed=seed)
    return build_model(spec, obs)


def _sparse_model(monkeypatch):
    monkeypatch.setattr(mmodel, "SPARSE_DENSITY", 1.01)
    model = _shared_twice_model(seed=2)
    assert all(term.cells is not None for term in model.compiled_terms())
    return model


def _frozen_shared(monkeypatch):
    """A search in which every trial of the shared block scores +inf, so it
    is rejected to its last halving, whichever step form the block takes."""
    model = poisson_pair_model(seed=1)

    def rejects_all(trial, idx):
        return np.full(idx.size, np.inf)

    def shared_always_rejects(values, grad, eval_rows, f, eta):
        return projected_step(values, grad, rejects_all if values is model.shared else eval_rows,
                              f, eta)

    monkeypatch.setattr(solver, "projected_step", shared_always_rejects)
    return model


def _rejected_everywhere(monkeypatch):
    """test_no_block_moving_is_stalled's search: one additive trial, far too long."""
    monkeypatch.setattr(mmodel, "MAX_HALVINGS", 0)
    model = small_mixed_model(seed=1, n_patients=12)
    model.spec.solver.step0 = 1e6
    return model


def _stationary_after_rejected(monkeypatch):
    """C and D hold zeros against all-zero observations: a zero projected step,
    accepted untried, every sweep. With one trial per search, B's searches
    are rejected from sweep 2 on, just before C's."""
    monkeypatch.setattr(mmodel, "MAX_HALVINGS", 0)
    rng = np.random.default_rng(0)
    obs = {"A": make_obs("A", rng.poisson(2.0, (10, 4)), "poisson", "integer"),
           "B": make_obs("B", rng.poisson(2.0, (10, 5)), "poisson", "integer"),
           "C": make_obs("C", np.zeros((10, 3)), "poisson", "integer"),
           "D": make_obs("D", np.zeros((10, 2)), "poisson", "binary")}
    spec = ModelSpec(rank=2, tensors=[InteractionTensorSpec("ab", ["A", "B"], "poisson"),
                                      InteractionTensorSpec("cd", ["C", "D"], "poisson")],
                     regularizer=RegularizerConfig(gamma=1e-3, beta=0.5),
                     solver=SolverConfig(step0=1e-2))
    model = build_model(spec, obs)
    model.factors["C"][:] = model.factors["D"][:] = 0.0
    return model


def _stationary_after_rejected_trial(monkeypatch):
    """One search that rejects its first trial and then finds a zero
    projected step: accepted, unchanged, after a trial. In sweep 1 M1's
    gradient is replaced by a step that moves every entry with a positive
    gradient uphill by one ulp, and which halved rounds to no move. The
    first step, 1e-30, makes the Armijo margin of that one-ulp trial far
    exceed what it can change the objective by, so it is rejected."""
    monkeypatch.setattr(mmodel, "MAX_HALVINGS", 1)
    model = _shared_twice_model()
    eta = model.spec.solver.step0 = 1e-30
    gradient_block, crafted = mmodel.gradient_block, []

    def uphill_once(m, block):
        grad = gradient_block(m, block)
        if m is not model or block != "M1" or crafted:
            return grad
        U, f = m.factors["M1"], objective(m)
        # x - eta * step rounds to x + ulp, and x - eta / 2 * step to x
        step = np.where((U > 0) & (grad > 0), -0.75 * np.spacing(U) / eta, 0.0)
        assert np.array_equal(np.maximum(0.0, U - eta / 2 * step), U)
        trial = np.maximum(0.0, U - eta * step)
        margin = ARMIJO_C * np.sum((trial - U) ** 2) / eta
        assert objective(m, "M1", values=trial) > f - margin  # so the first trial is rejected
        crafted.append(block)
        return step

    monkeypatch.setattr(solver, "gradient_block", uphill_once)
    return model


LAYOUTS = {
    "M0_in_two_tensors": lambda mp: _shared_twice_model(),
    "disjoint_tensors_four_kinds": lambda mp: small_mixed_model(seed=3, n_patients=12),
    "three_way": lambda mp: _three_way_model(),
    "sparse_poisson": _sparse_model,
    "unregularized": lambda mp: small_mixed_model(seed=4, n_patients=10, gamma=0.0, beta=0.0),
    "every_search_rejected": _rejected_everywhere,
    "frozen_shared": _frozen_shared,
    "stationary_after_rejected": _stationary_after_rejected,
    "stationary_after_rejected_trial": _stationary_after_rejected_trial,
}


class TestBlockLocalTrials:
    """A trial re-evaluates only the parts of the objective its block touches,
    and every fit is the same bit for bit as one whose trials evaluate it all."""

    @staticmethod
    def fit(model, monkeypatch, full_trials):
        """20 sweeps, and the objective of the model at the start of every
        sweep and at the end. With full_trials every trial evaluates the
        whole objective: the reference. Without, every trial checks that the
        parts it reads are those of the current iterate."""
        cfg = SolverConfig(max_sweeps=20, tol=1e-12, step0=model.spec.solver.step0,
                           log_every=1)
        seen = []
        gradient_block = solver.gradient_block

        def watch(m, block):
            if block == SHARED:
                seen.append(objective(m))
            return gradient_block(m, block)

        def checked(m, block=None, parts=None, values=None):
            if block is not None:
                fresh, kept = {}, dict(parts)
                objective(m, block, fresh, values)
                objective(m, block, kept, values)
                assert kept == fresh
            return objective(m, block, parts, values)

        with monkeypatch.context() as patch:
            patch.setattr(solver, "gradient_block", watch)
            if full_trials:
                patch.setattr(solver, "objective", lambda m, block=None, parts=None, values=None:
                              objective(m, block, None, values))
            else:
                patch.setattr(solver, "objective", checked)
            report = train(model, cfg)
        return report, seen + [objective(model)]

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_fit_equals_full_trials_bit_for_bit(self, layout, monkeypatch):
        ref = LAYOUTS[layout](monkeypatch)
        ref_report, _ = self.fit(ref, monkeypatch, full_trials=True)
        model = LAYOUTS[layout](monkeypatch)
        report, seen = self.fit(model, monkeypatch, full_trials=False)
        if layout == "stationary_after_rejected":
            entries = [e["step_accepted_per_block"] for e in report.step_log]
            assert all(e["C"] and e["D"] for e in entries)
            assert not entries[1]["B"] and entries[2][SHARED]
        if layout == "stationary_after_rejected_trial":
            assert report.step_log[0]["step_accepted_per_block"]["M1"]
        assert report.loss_trace == ref_report.loss_trace
        assert report.step_log == ref_report.step_log
        assert report.stop_reason == ref_report.stop_reason
        # the solver's f after every sweep is the whole objective, exactly
        assert [f for _, f in report.loss_trace] == seen
        np.testing.assert_array_equal(model.shared, ref.shared)
        for name, U in model.factors.items():
            np.testing.assert_array_equal(U, ref.factors[name])

    def test_a_trial_evaluates_only_the_terms_of_its_block(self, monkeypatch):
        # cv_mixed's layout: tensors dx_rx (Dx, Rx) and gb_fluid (Gb, Fluid)
        model = small_mixed_model(seed=3, n_patients=12)
        searching, trials = [None], []  # (block searched, tensor of each Term.nll)
        gradient_block, evaluate, nll = solver.gradient_block, solver.objective, Term.nll

        def search(m, block):
            searching[0] = block
            return gradient_block(m, block)

        def trial(m, *args, **kwargs):
            trials.append((searching[0], []))
            return evaluate(m, *args, **kwargs)

        def term_nll(term, *args):
            trials[-1][1].append(term.tensor.id)
            return nll(term, *args)

        monkeypatch.setattr(solver, "gradient_block", search)
        monkeypatch.setattr(solver, "objective", trial)
        monkeypatch.setattr(Term, "nll", term_nll)
        train(model, SolverConfig(max_sweeps=3, tol=1e-12, step0=1e-4))
        evaluated = {}
        for block, tensors in trials[1:]:  # after the first, whole, evaluation
            evaluated.setdefault(block, set()).add(tuple(sorted(tensors)))
        assert evaluated[SHARED] == {("dx_rx", "dx_rx", "gb_fluid", "gb_fluid")}
        assert evaluated["Dx"] == evaluated["Rx"] == {("dx_rx", "dx_rx")}
        assert evaluated["Gb"] == evaluated["Fluid"] == {("gb_fluid", "gb_fluid")}
