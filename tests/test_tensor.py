import numpy as np
import pytest

from margfact import ConfigurationError, reconstruct_marginal
from margfact.data_io import read_factor_csv, write_factor_csv

from helpers import OracleScaleError, marginalize, reconstruct_full


def triple_loop_reconstruct(factors):
    shape = tuple(U.shape[0] for U in factors)
    R = factors[0].shape[1]
    out = np.zeros(shape)
    for idx in np.ndindex(shape):
        for r in range(R):
            prod = 1.0
            for d, i in enumerate(idx):
                prod *= factors[d][i, r]
            out[idx] += prod
    return out


def loop_marginalize(tensor, keep):
    a, b = keep
    out = np.zeros((tensor.shape[a], tensor.shape[b]))
    for idx in np.ndindex(tensor.shape):
        out[idx[a], idx[b]] += tensor[idx]
    return out


class TestReconstructFull:
    def test_rank_one_ones(self):
        F = [np.ones((2, 1)), np.ones((3, 1))]
        np.testing.assert_array_equal(reconstruct_full(F), np.ones((2, 3)))

    def test_zero_column_annihilates(self):
        rng = np.random.default_rng(0)
        F = [rng.uniform(size=(3, 2)), rng.uniform(size=(4, 2))]
        F[0][:, 1] = 0.0
        expected = np.outer(F[0][:, 0], F[1][:, 0])
        np.testing.assert_allclose(reconstruct_full(F), expected, atol=1e-14)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        F = [rng.uniform(size=(3, 2)), rng.uniform(size=(4, 2)), rng.uniform(size=(5, 2))]
        np.testing.assert_allclose(reconstruct_full(F), triple_loop_reconstruct(F), rtol=1e-12)

    def test_rank_mismatch(self):
        with pytest.raises(ConfigurationError):
            reconstruct_full([np.ones((2, 1)), np.ones((3, 2))])

    def test_size_cap(self):
        with pytest.raises(OracleScaleError):
            reconstruct_full([np.ones((500, 1)), np.ones((500, 1)), np.ones((500, 1))])

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(3)
        F = [rng.uniform(size=(3, 3)), rng.uniform(size=(4, 3))]
        perm = [2, 0, 1]
        Fp = [U[:, perm] for U in F]
        np.testing.assert_allclose(reconstruct_full(F), reconstruct_full(Fp), rtol=1e-12)

    def test_nonnegative_output(self):
        rng = np.random.default_rng(4)
        F = [rng.uniform(size=(3, 2)), rng.uniform(size=(4, 2))]
        assert np.all(reconstruct_full(F) >= 0)


class TestMarginalize:
    def test_all_ones_cube(self):
        np.testing.assert_array_equal(marginalize(np.ones((2, 2, 2)), (0, 1)), np.full((2, 2), 2.0))

    def test_matrix_identity(self):
        M = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(marginalize(M, (0, 1)), M)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        T = rng.uniform(size=(3, 4, 5))
        np.testing.assert_allclose(marginalize(T, (0, 2)), loop_marginalize(T, (0, 2)), rtol=1e-12)

    def test_swapped_keep_transposes(self):
        rng = np.random.default_rng(8)
        T = rng.uniform(size=(3, 4, 5))
        np.testing.assert_allclose(marginalize(T, (2, 0)), marginalize(T, (0, 2)).T)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            marginalize(np.ones((2, 2)), (0, 5))

    def test_linearity(self):
        rng = np.random.default_rng(9)
        T1, T2 = rng.uniform(size=(3, 4, 5)), rng.uniform(size=(3, 4, 5))
        lhs = marginalize(2.5 * T1 + T2, (0, 1))
        rhs = 2.5 * marginalize(T1, (0, 1)) + marginalize(T2, (0, 1))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestReconstructMarginal:
    def test_rank_one_ones(self):
        S = np.ones((2, 1))
        F = [np.ones((2, 1)), np.ones((3, 1))]
        np.testing.assert_array_equal(reconstruct_marginal(S, F, 1), np.full((2, 3), 2.0))

    def test_single_modality_plain_product(self):
        rng = np.random.default_rng(1)
        S, U = rng.uniform(size=(3, 2)), rng.uniform(size=(4, 2))
        np.testing.assert_allclose(reconstruct_marginal(S, [U], 0), S @ U.T, rtol=1e-12)

    def test_matches_full_tensor_oracle(self):
        rng = np.random.default_rng(7)
        S = rng.uniform(size=(3, 2))
        F = [rng.uniform(size=(4, 2)), rng.uniform(size=(5, 2))]
        for target in (0, 1):
            full = reconstruct_full([S] + F)
            expected = marginalize(full, (0, target + 1))
            got = reconstruct_marginal(S, F, target)
            np.testing.assert_allclose(got, expected, atol=1e-10, rtol=1e-10)

    def test_rank_mismatch(self):
        with pytest.raises(ConfigurationError):
            reconstruct_marginal(np.ones((2, 2)), [np.ones((3, 1))], 0)


def test_factor_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    U = rng.uniform(size=(4, 3))
    ids = [f"e{i}" for i in range(4)]
    path = tmp_path / "factor.csv"
    write_factor_csv(path, ids, U)
    got_ids, got = read_factor_csv(path)
    assert got_ids == ids
    np.testing.assert_array_equal(got, U)  # 17 significant digits round-trips exactly
