import math

import numpy as np
import pytest

from margfact import (GaussianParams, ObservationKind, erf, erf_derivative,
                      grad_nll_wrt_reconstruction, nll)
from margfact.likelihoods import EPS, gaussian_binary_prob, nll_cells

from conftest import assert_grad_close, central_difference

PI = ObservationKind("poisson", "integer")
PB = ObservationKind("poisson", "binary")
GR = ObservationKind("gaussian", "real")
GB = ObservationKind("gaussian", "binary")


def scalar_loop_nll_poisson_integer(V, Vhat):
    total = 0.0
    for v, vh in zip(V.ravel(), Vhat.ravel()):
        total += vh - v * math.log(max(vh, 1e-12))
    return total


@pytest.mark.parametrize("kind", [PI, PB], ids=str)
def test_absent_cell_at_zero_mean_costs_nothing(kind):
    # P(V = 0) = e^-0 = 1 under both Poisson laws
    assert nll_cells(kind, np.zeros(1), np.zeros(1))[0] == 0.0


class TestPoissonInteger:
    def test_zero_counts_unit_mean(self):
        assert nll(PI, np.zeros((2, 2)), np.ones((2, 2))) == pytest.approx(4.0)

    def test_single_matched_cell(self):
        assert nll(PI, np.array([[1.0]]), np.array([[1.0]])) == pytest.approx(1.0)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        V = rng.poisson(2.0, size=(3, 4)).astype(float)
        Vhat = rng.uniform(0.5, 3.0, size=(3, 4))
        assert nll(PI, V, Vhat) == pytest.approx(
            scalar_loop_nll_poisson_integer(V, Vhat), abs=1e-12)

    def test_finite_at_zero_mean(self):
        assert math.isfinite(nll(PI, np.array([[3.0]]), np.array([[0.0]])))


class TestPoissonBinary:
    def test_failure_term(self):
        a = 1.7
        assert nll(PB, np.array([[0.0]]), np.array([[a]])) == pytest.approx(a)

    def test_half_probability(self):
        got = nll(PB, np.array([[1.0]]), np.array([[math.log(2.0)]]))
        assert got == pytest.approx(math.log(2.0), rel=1e-10)

    def test_equals_generic_bernoulli(self):
        # dual route: direct kernel vs Bernoulli NLL at p = 1 - exp(-vhat)
        rng = np.random.default_rng(9)
        Vb = (rng.uniform(size=(3, 3)) < 0.5).astype(float)
        Vhat = rng.uniform(0.2, 3.0, size=(3, 3))
        p = 1.0 - np.exp(-Vhat)
        bernoulli = -np.sum(Vb * np.log(p) + (1.0 - Vb) * np.log(1.0 - p))
        assert nll(PB, Vb, Vhat) == pytest.approx(bernoulli, abs=1e-10)

    def test_monte_carlo_law(self):
        # quantized Poisson draws match p = 1 - exp(-vhat)
        rng = np.random.default_rng(9)
        n = 200_000
        for vhat in (0.1, 0.7, 1.5, 3.0):
            hits = np.mean(rng.poisson(vhat, size=n) > 0)
            p = 1.0 - math.exp(-vhat)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(hits - p) < 3.5 * se

    def test_finite_at_zero_mean_positive_label(self):
        assert math.isfinite(nll(PB, np.array([[1.0]]), np.array([[0.0]])))

    @staticmethod
    def dense_cells_and_grad(Vb, Vhat):
        """The dense formulas, with the log term and V / p on every cell."""
        v = np.maximum(Vhat, EPS)
        small = v < 30.0
        log_expm1 = np.where(small, np.log(np.expm1(np.where(small, v, 1.0))),
                             v + np.log1p(-np.exp(-v)))
        p = np.clip(-np.expm1(-v), EPS, 1.0 - EPS)
        return Vhat - Vb * log_expm1, 1.0 - Vb / p

    @pytest.mark.parametrize("density", [0.0, 1.0, 0.02])
    def test_observed_cells_only_equal_dense_bit_for_bit(self, density):
        rng = np.random.default_rng(11)
        shape = (40, 50)
        Vhat = np.concatenate([
            np.zeros(100), np.full(100, EPS), rng.uniform(0.0, 1e-6, 100),
            rng.uniform(1e-6, 30.0, 1000), np.full(100, 30.0), rng.uniform(30.0, 60.0, 600),
        ])[rng.permutation(2000)].reshape(shape)
        Vb = (rng.uniform(size=shape) < density).astype(float)
        cells, grad = self.dense_cells_and_grad(Vb, Vhat)
        np.testing.assert_array_equal(nll_cells(PB, Vb, Vhat), cells)
        np.testing.assert_array_equal(grad_nll_wrt_reconstruction(PB, Vb, Vhat), grad)
        assert nll(PB, Vb, Vhat) == float(np.sum(cells))
        # column-major and strided inputs index the same cells
        np.testing.assert_array_equal(nll_cells(PB, Vb.T, Vhat.T), cells.T)
        np.testing.assert_array_equal(grad_nll_wrt_reconstruction(PB, Vb[::2], Vhat[::2]),
                                      grad[::2])

    def test_absent_cell_nll_is_vhat_below_eps(self):
        # P(absent) = e^-vhat: the NLL is vhat, so its slope is 1 down to
        # vhat = 0, the gradient there, as in the sparse terms' sum of vhat
        vhat = np.array([0.0, 0.25 * EPS, 0.5 * EPS, 0.75 * EPS])
        V = np.zeros_like(vhat)
        np.testing.assert_array_equal(nll_cells(PB, V, vhat), vhat)
        np.testing.assert_array_equal(grad_nll_wrt_reconstruction(PB, V, vhat), 1.0)

    def test_probability_monotone(self):
        vhat = np.linspace(0.0, 10.0, 50)
        p = -np.expm1(-vhat)
        assert np.all(np.diff(p) > 0)
        assert np.all((p >= 0) & (p < 1))


class TestGaussianReal:
    def test_constructed_zero(self):
        # t_n * sigma2 = 1 / (2 pi) makes the log term vanish
        params = GaussianParams(sigma2=1.0 / (2.0 * math.pi), t_n=1)
        V = np.full((2, 2), 0.3)
        assert nll(GR, V, V, params) == pytest.approx(0.0, abs=1e-12)

    def test_single_cell(self):
        params = GaussianParams(sigma2=1.0, t_n=1)
        got = nll(GR, np.array([[1.0]]), np.array([[0.0]]), params)
        assert got == pytest.approx(0.5 * (math.log(2.0 * math.pi) + 1.0), rel=1e-12)

    def test_variance_scaling_matches_loop(self):
        rng = np.random.default_rng(3)
        V = rng.uniform(size=(3, 4))
        Vhat = rng.uniform(size=(3, 4))
        for sigma2 in (0.5, 2.0):
            params = GaussianParams(sigma2=sigma2, t_n=3)
            ts2 = 3 * sigma2
            expected = sum(0.5 * (math.log(2 * math.pi * ts2) + (v - vh) ** 2 / ts2)
                           for v, vh in zip(V.ravel(), Vhat.ravel()))
            assert nll(GR, V, Vhat, params) == pytest.approx(expected, rel=1e-12)


class TestGaussianBinary:
    def test_zero_mean_is_half(self):
        params = GaussianParams(sigma2=1.0, t_n=1)
        p = gaussian_binary_prob(np.array([[0.0]]), params)
        assert p[0, 0] == pytest.approx(0.5)
        for label in (0.0, 1.0):
            got = nll(GB, np.array([[label]]), np.array([[0.0]]), params)
            assert got == pytest.approx(math.log(2.0), rel=1e-10)

    def test_saturation(self):
        params = GaussianParams(sigma2=1.0, t_n=1)
        got = nll(GB, np.array([[1.0]]), np.array([[50.0]]), params)
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_unit_argument(self):
        # vhat = sigma * sqrt(2 t_n) makes the erf argument -1
        params = GaussianParams(sigma2=4.0, t_n=2)
        vhat = math.sqrt(params.sigma2) * math.sqrt(2 * params.t_n)
        p = gaussian_binary_prob(np.array([vhat]), params)[0]
        assert p == pytest.approx(0.5 + 0.5 * 0.8427007929497149, rel=1e-9)

    def test_probability_symmetry_and_monotone(self):
        params = GaussianParams(sigma2=0.7, t_n=3)
        v = np.linspace(-3, 3, 31)
        p = gaussian_binary_prob(v, params)
        np.testing.assert_allclose(p + p[::-1], 1.0, atol=1e-12)
        assert np.all(np.diff(p) > 0)

    @pytest.mark.parametrize("z", [3.0, 4.0, 4.5, 4.8])
    def test_unobserved_tail_matches_erfc(self, z):
        # sigma2 = 1, t_n = 2 make the erf argument exactly -vhat / 2
        import mpmath
        params = GaussianParams(sigma2=1.0, t_n=2)
        got = nll_cells(GB, np.array([[0.0]]), np.array([[2.0 * z]]), params)[0, 0]
        with mpmath.workdps(50):
            expected = float(-mpmath.log(mpmath.erfc(z) / 2))
        assert got == pytest.approx(expected, rel=1e-6)

    # sigma2 = 1 and t_n = 2 make y = (1 - 2V) vhat / 2; the grid crosses
    # erfc's switch at 0, the series' at 26 and math.erfc's underflow at 27.3
    TAIL_PARAMS = GaussianParams(sigma2=1.0, t_n=2)
    TAIL_Y = np.concatenate([np.linspace(-30.0, 30.0, 1201), [25.999, 26.0, 26.001, 27.5]])

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_nll_matches_mpmath_for_every_y(self, label):
        import mpmath
        y = self.TAIL_Y
        got = nll_cells(GB, np.full_like(y, label), (1.0 - 2.0 * label) * 2.0 * y,
                        self.TAIL_PARAMS)
        with mpmath.workdps(40):
            ref = np.array([float(-mpmath.log(mpmath.erfc(float(v)) / 2)) for v in y])
        # -log(erfc(y)/2) lies in [0, log 2] where y <= 0: there the error is absolute
        np.testing.assert_allclose(got[y > 0], ref[y > 0], rtol=1e-14)
        np.testing.assert_allclose(got[y <= 0], ref[y <= 0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_gradient_matches_central_difference_for_every_y(self, label):
        y = self.TAIL_Y
        V = np.full_like(y, label)
        vhat = (1.0 - 2.0 * label) * 2.0 * y
        h = 1e-5 * np.maximum(1.0, np.abs(vhat))
        fd = (nll_cells(GB, V, vhat + h, self.TAIL_PARAMS)
              - nll_cells(GB, V, vhat - h, self.TAIL_PARAMS)) / (2.0 * h)
        got = grad_nll_wrt_reconstruction(GB, V, vhat, self.TAIL_PARAMS)
        np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-9)

    def test_monte_carlo_law(self):
        rng = np.random.default_rng(21)
        params = GaussianParams(sigma2=0.5, t_n=4)
        n = 200_000
        for vhat in (-1.0, 0.0, 0.5, 2.0):
            draws = vhat + math.sqrt(params.t_n * params.sigma2) * rng.standard_normal(n)
            hits = np.mean(draws > 0)
            p = gaussian_binary_prob(np.array([vhat]), params)[0]
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(hits - p) < 3.5 * se + 1e-6


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_odd_symmetry(self):
        for x in (0.3, 1.2, 2.7, 4.9):
            assert erf(-x) == pytest.approx(-erf(x), abs=1e-15)

    def test_known_value(self):
        assert erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-10)

    def test_against_math_erf_grid(self):
        xs = np.linspace(-4, 4, 161)
        for x in xs:
            assert erf(float(x)) == pytest.approx(math.erf(x), abs=1e-12)

    def test_saturation(self):
        assert erf(7.0) == 1.0
        assert erf(-8.5) == -1.0

    def test_vectorized_matches_scalar(self):
        xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(erf(xs), [erf(float(x)) for x in xs], atol=1e-15)

    def test_within_one_ulp_of_mpmath(self):
        import mpmath
        xs = np.arange(-7000, 7001) * 1e-3
        with mpmath.workdps(50):
            refs = [float(mpmath.erf(float(x))) for x in xs]
        for x, value, ref in zip(xs, erf(xs), refs):
            assert abs(value - ref) <= math.ulp(ref), x

    def test_infinities_and_nan(self):
        assert erf(math.inf) == 1.0
        assert erf(-math.inf) == -1.0
        assert math.isnan(erf(math.nan))
        out = erf(np.array([-np.inf, np.nan, np.inf]))
        assert out[0] == -1.0 and math.isnan(out[1]) and out[2] == 1.0

    def test_zero_d_input_returns_float(self):
        for x in (0.5, np.float64(0.5), np.array(0.5)):
            assert type(erf(x)) is float

    def test_shape_kept(self):
        xs = np.linspace(-3, 3, 12).reshape(3, 4)
        for x in (xs, xs.T, np.empty((0, 4))):
            out = erf(x)
            assert out.shape == x.shape and out.dtype == np.float64
            np.testing.assert_array_equal(out.ravel(), [math.erf(v) for v in x.ravel()])


class TestErfDerivative:
    def test_at_zero(self):
        assert erf_derivative(0.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)

    def test_finite_difference(self):
        for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
            h = 1e-6
            fd = (erf(x + h) - erf(x - h)) / (2 * h)
            assert erf_derivative(x) == pytest.approx(fd, abs=1e-6)

    def test_even(self):
        for x in (0.4, 1.9, 3.3):
            assert erf_derivative(x) == erf_derivative(-x)


class TestGradients:
    def test_poisson_integer_stationary_at_match(self):
        V = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = grad_nll_wrt_reconstruction(PI, V, V)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_gaussian_real_stationary_at_match(self):
        params = GaussianParams(1.0, 2)
        V = np.array([[1.0, 2.0]])
        g = grad_nll_wrt_reconstruction(GR, V, V, params)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", [PI, PB, GR, GB])
    def test_finite_differences_all_kinds(self, kind):
        rng = np.random.default_rng(hash(str(kind)) % 2**32)
        params = GaussianParams(0.8, 3) if kind.distribution == "gaussian" else None
        for _ in range(25):
            shape = (2, 3)
            if kind.datatype == "integer":
                V = rng.poisson(2.0, size=shape).astype(float)
            elif kind.datatype == "binary":
                V = (rng.uniform(size=shape) < 0.5).astype(float)
            else:
                V = rng.uniform(0.1, 2.0, size=shape)
            Vhat = rng.uniform(0.2, 2.5, size=shape)
            analytic = grad_nll_wrt_reconstruction(kind, V, Vhat, params)
            numeric = central_difference(lambda x: nll(kind, V, x, params), Vhat)
            assert_grad_close(analytic, numeric, rtol=1e-4)
