import numpy as np
import pytest

from margfact import ConfigurationError, RegularizerConfig, angular_penalty, elastic_net
from margfact.regularizers import angular_penalty_grad, elastic_net_grad

from conftest import assert_grad_close, central_difference


class TestElasticNet:
    def test_zero_factors(self):
        cfg = RegularizerConfig(gamma=1.0, alpha=0.5, beta=0.0)
        assert elastic_net([np.zeros((3, 2))], cfg) == 0.0

    def test_direct_evaluation(self):
        # one column u = (1, 1): alpha * 2 + (1 - alpha) * 2 = 2 for alpha = 0.5
        cfg = RegularizerConfig(gamma=1.0, alpha=0.5, beta=0.0)
        assert elastic_net([np.ones((2, 1))], cfg) == pytest.approx(2.0)

    def test_gamma_zero_disables(self):
        cfg = RegularizerConfig(gamma=0.0)
        assert elastic_net([np.full((5, 4), 3.0)], cfg) == 0.0

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(17)
        cfg = RegularizerConfig(gamma=0.3, alpha=0.7, beta=0.0)
        U = rng.uniform(0.1, 1.0, size=(4, 3))  # strictly positive: l1 smooth here
        analytic = elastic_net_grad(U, cfg)
        numeric = central_difference(lambda x: elastic_net([x], cfg), U)
        assert_grad_close(analytic, numeric, rtol=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(18)
        cfg = RegularizerConfig(gamma=1.0, alpha=0.4)
        U = rng.uniform(size=(5, 3))
        assert elastic_net([U], cfg) == pytest.approx(elastic_net([U[:, [2, 0, 1]]], cfg))


class TestAngularPenalty:
    def test_orthogonal_columns(self):
        U = np.array([[1.0, 0.0], [0.0, 1.0]])
        cfg = RegularizerConfig(beta=1.0, theta=0.0)
        assert angular_penalty([U], cfg) == 0.0

    def test_identical_columns(self):
        U = np.ones((3, 2))
        cfg = RegularizerConfig(beta=1.0, theta=0.5)
        assert angular_penalty([U], cfg) == pytest.approx(0.25)

    def test_zero_column_no_penalty(self):
        U = np.column_stack([np.ones(3), np.zeros(3)])
        cfg = RegularizerConfig(beta=2.0, theta=0.0)
        assert angular_penalty([U], cfg) == 0.0

    def test_column_rescaling_invariance(self):
        rng = np.random.default_rng(19)
        cfg = RegularizerConfig(beta=1.0, theta=0.3)
        U = rng.uniform(0.1, 1.0, size=(4, 3))
        U2 = U.copy()
        U2[:, 1] *= 7.5
        assert angular_penalty([U], cfg) == pytest.approx(angular_penalty([U2], cfg), rel=1e-12)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(20)
        cfg = RegularizerConfig(beta=1.5, theta=0.5)
        for _ in range(5):
            U = rng.uniform(0.1, 1.0, size=(4, 3))
            cos_vals = []
            for r in range(3):
                for rp in range(r):
                    c = U[:, r] @ U[:, rp] / (np.linalg.norm(U[:, r]) * np.linalg.norm(U[:, rp]))
                    cos_vals.append(c)
            if any(abs(c - 0.5) < 1e-3 for c in cos_vals):
                continue  # skip points at the hinge kink
            analytic = angular_penalty_grad(U, cfg)
            numeric = central_difference(lambda x: angular_penalty([x], cfg), U)
            assert_grad_close(analytic, numeric, rtol=1e-5)

    def test_gradient_equals_pairwise_loop(self):
        # reference: the pairwise loop over r > r', zero columns skipped
        def loop_grad(U, cfg):
            norms = np.linalg.norm(U, axis=0)
            Un = U / np.where(norms > 0, norms, 1.0)
            cos = Un.T @ Un
            grad = np.zeros_like(U)
            for r in range(1, U.shape[1]):
                for rp in range(r):
                    h = cos[r, rp] - cfg.theta
                    if norms[r] == 0 or norms[rp] == 0 or h <= 0:
                        continue
                    u, v = U[:, r], U[:, rp]
                    uv = norms[r] * norms[rp]
                    grad[:, r] += 2.0 * h * (v / uv - cos[r, rp] * u / (norms[r] ** 2))
                    grad[:, rp] += 2.0 * h * (u / uv - cos[r, rp] * v / (norms[rp] ** 2))
            return cfg.beta * grad

        rng = np.random.default_rng(23)
        for _ in range(50):
            rows, rank = rng.integers(1, 30), rng.integers(1, 12)
            U = rng.uniform(size=(rows, rank)) * (rng.uniform(size=(rows, rank)) < 0.7)
            if rng.uniform() < 0.2:
                U[:, rng.integers(rank)] = 0.0
            cfg = RegularizerConfig(beta=rng.uniform(0.1, 2.0), theta=rng.uniform())
            np.testing.assert_array_equal(angular_penalty_grad(U, cfg), loop_grad(U, cfg))

    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        cfg = RegularizerConfig(beta=1.0, theta=0.5)
        for _ in range(10):
            U = rng.uniform(size=(4, 3))
            assert angular_penalty([U], cfg) >= 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(22)
        cfg = RegularizerConfig(beta=1.0, theta=0.2)
        U = rng.uniform(size=(5, 4))
        perm = [3, 1, 0, 2]
        assert angular_penalty([U], cfg) == pytest.approx(angular_penalty([U[:, perm]], cfg),
                                                          rel=1e-12)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RegularizerConfig(gamma=-1.0)
    with pytest.raises(ConfigurationError):
        RegularizerConfig(alpha=1.5)
    with pytest.raises(ConfigurationError):
        RegularizerConfig(theta=-0.1)


def test_per_modality_theta():
    cfg = RegularizerConfig(theta={"Dx": 0.1, "Rx": 0.9})
    assert cfg.theta_for("Dx") == 0.1
    assert cfg.theta_for("Rx") == 0.9
    U = np.ones((3, 2))  # cosine 1 between the two columns
    low = angular_penalty({"Dx": U}, cfg)
    high = angular_penalty({"Rx": U}, cfg)
    assert low == pytest.approx((1 - 0.1) ** 2)
    assert high == pytest.approx((1 - 0.9) ** 2)
