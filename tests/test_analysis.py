import numpy as np
import pytest

from margfact import (ConfigurationError, InteractionTensorSpec, ModelSpec, build_model,
                      cosine_similarity_metric, extract_correspondence, extract_phenotypes,
                      jaccard_at_k, meaningfulness_score, sparsity)
from margfact.analysis import CorrespondenceRow, Phenotype, find_tensor, top_k_items
from margfact.solver import train

from helpers import make_obs, poisson_pair_model, reconstruct_full


def fitted_small_model(seed=0):
    model = poisson_pair_model(seed=seed, n_patients=3, n_a=3, n_b=3, max_sweeps=30)
    train(model)
    return model


class TestExtractCorrespondence:
    def test_rank_one_rows_identical(self):
        model = poisson_pair_model(rank=1, n_patients=5, max_sweeps=50)
        train(model)
        rows = []
        for item in model.observations["A"].item_ids:
            obs = model.observations["A"]
            j = obs.item_ids.index(item)
            if not np.any(obs.values[:, j] > 0):
                continue
            row = extract_correspondence(model, "ab", "A", item, "B")
            rows.append(row.scores)
        for r in rows[1:]:
            np.testing.assert_allclose(r, rows[0], rtol=1e-10)

    def test_planted_block_structure(self):
        # anchor loading only on rank 0 must pick the target item loading on rank 0
        model = poisson_pair_model(rank=2, n_patients=4, n_a=2, n_b=2)
        model.factors["A"] = np.array([[1.0, 0.0], [0.0, 1.0]])
        model.factors["B"] = np.array([[2.0, 0.0], [0.0, 2.0]])
        model.shared = np.abs(model.shared) + 0.1
        model.observations["A"].values[:, 0] = 1.0
        row = extract_correspondence(model, "ab", "A", "A_0", "B")
        assert row.scores[0] > row.scores[1]
        assert row.top(1)[0][0] == "B_0"

    def test_matches_full_tensor_oracle(self):
        model = fitted_small_model()
        anchor = "A_0"
        j = model.observations["A"].item_ids.index(anchor)
        pop = np.flatnonzero(model.observations["A"].values[:, j] > 0)
        if pop.size == 0:
            pop = np.array([0])
        full = reconstruct_full([model.shared, model.factors["A"], model.factors["B"]])
        acc = full[pop].sum(axis=0)  # anchor-by-target correspondence matrix
        expected = acc[j] / acc[j].sum()
        row = extract_correspondence(model, "ab", "A", anchor, "B", population=pop)
        np.testing.assert_allclose(row.scores, expected, rtol=1e-10)

    def test_l1_normalized(self):
        model = fitted_small_model(seed=3)
        obs = model.observations["A"]
        j = next(j for j in range(obs.n_items) if np.any(obs.values[:, j] > 0))
        row = extract_correspondence(model, "ab", "A", obs.item_ids[j], "B")
        if not row.all_zero:
            assert row.scores.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(row.scores >= 0)

    def test_population_rescaling_invariance(self):
        model = fitted_small_model(seed=4)
        obs = model.observations["A"]
        j = next(j for j in range(obs.n_items) if np.any(obs.values[:, j] > 0))
        item = obs.item_ids[j]
        pop = np.flatnonzero(obs.values[:, j] > 0)
        base = extract_correspondence(model, "ab", "A", item, "B", population=pop)
        model.shared[pop] *= 3.7
        scaled = extract_correspondence(model, "ab", "A", item, "B", population=pop)
        np.testing.assert_allclose(scaled.scores, base.scores, rtol=1e-10)

    def test_empty_population_errors(self):
        model = fitted_small_model(seed=5)
        item = model.observations["A"].item_ids[0]
        with pytest.raises(ConfigurationError, match=item):
            extract_correspondence(model, "ab", "A", item, "B", population=np.array([], dtype=int))

    @pytest.mark.parametrize("population", [[-1], [3], [0, 0, 0], [[0, 1]], [1.7]])
    def test_population_must_list_distinct_patients(self, population):
        model = poisson_pair_model(n_patients=3)
        with pytest.raises(ConfigurationError,
                           match=r"population must list distinct patient indices in \[0, 3\)"):
            extract_correspondence(model, "ab", "A", "A_0", "B", population=population)


def three_tensor_model():
    """t0 = [A, C], t1 = [A, B, C], t2 = [A, B]: two tensors list both A and B."""
    rng = np.random.default_rng(7)
    obs = {name: make_obs(name, rng.poisson(1.0, size=(8, n)), "poisson", "integer")
           for name, n in (("A", 3), ("B", 4), ("C", 2))}
    tensors = [InteractionTensorSpec("t0", ["A", "C"], "poisson"),
               InteractionTensorSpec("t1", ["A", "B", "C"], "poisson"),
               InteractionTensorSpec("t2", ["A", "B"], "poisson")]
    obs["A"].values[:, 0] = 1.0
    return build_model(ModelSpec(rank=2, tensors=tensors), obs)


class TestFindTensor:
    def test_none_picks_the_first_tensor_listing_every_modality(self):
        model = three_tensor_model()
        assert find_tensor(model, None, "A", "B").id == "t1"
        assert find_tensor(model, None, "C", "A").id == "t0"
        assert find_tensor(model, "t2", "B", "A").id == "t2"

    def test_extract_correspondence_without_a_tensor_uses_that_tensor(self):
        model = three_tensor_model()
        auto = extract_correspondence(model, None, "A", "A_0", "B")
        named = [extract_correspondence(model, t, "A", "A_0", "B").scores for t in ("t1", "t2")]
        np.testing.assert_array_equal(auto.scores, named[0])
        assert not np.allclose(named[0], named[1])  # C's column sums weigh t1's row

    @pytest.mark.parametrize("tensor_id,modalities,match", [
        ("t9", ("A", "B"), "unknown tensor 't9'"),
        ("t2", ("A", "C"), "tensor 't2' does not contain modality 'C'"),
        (None, ("B", "Z"), "no tensor contains 'B' and 'Z'")])
    def test_refusals_name_what_is_missing(self, tensor_id, modalities, match):
        with pytest.raises(ConfigurationError, match=match):
            find_tensor(three_tensor_model(), tensor_id, *modalities)


class TestExtractPhenotypes:
    def test_one_hot_column(self):
        model = poisson_pair_model(rank=1, n_a=3)
        model.factors["A"] = np.array([[0.0], [5.0], [0.0]])
        phenos = extract_phenotypes(model)
        assert phenos[0].items["A"] == [("A_1", 1.0)]

    def test_normalization_and_threshold(self):
        model = poisson_pair_model(rank=1, n_a=3)
        model.factors["A"] = np.array([[3.0], [1.0], [0.0]])
        phenos = extract_phenotypes(model, weight_threshold=1e-4)
        assert phenos[0].items["A"] == [("A_0", 0.75), ("A_1", 0.25)]

    def test_zero_column_empty(self):
        model = poisson_pair_model(rank=2, n_a=3)
        model.factors["A"][:, 1] = 0.0
        phenos = extract_phenotypes(model)
        assert phenos[1].items["A"] == []

    @pytest.mark.parametrize("threshold", [-1.0, -1e-9, 1.5, 2.0, float("nan")])
    def test_threshold_outside_unit_interval_is_configuration_error(self, threshold):
        model = poisson_pair_model(rank=1, n_a=3)
        with pytest.raises(ConfigurationError, match="threshold"):
            extract_phenotypes(model, weight_threshold=threshold)

    def test_threshold_bounds_are_allowed(self):
        model = poisson_pair_model(rank=1, n_a=3)
        model.factors["A"] = np.array([[0.0], [5.0], [0.0]])
        assert extract_phenotypes(model, weight_threshold=1.0)[0].items["A"] == [("A_1", 1.0)]
        assert len(extract_phenotypes(model, weight_threshold=0.0)[0].items["A"]) == 3

    def test_reassembly_bounds_dropped_mass(self):
        model = fitted_small_model(seed=6)
        threshold = 1e-2
        phenos = extract_phenotypes(model, weight_threshold=threshold)
        for r, p in enumerate(phenos):
            for name, items in p.items.items():
                col = model.factors[name][:, r]
                if col.sum() == 0:
                    continue
                kept = sum(w for _, w in items)
                assert 1.0 - kept <= threshold * len(col) + 1e-12


class TestCosineSimilarityMetric:
    def test_orthogonal_columns(self):
        U = np.eye(4)[:, :3]
        assert cosine_similarity_metric([U]) == 0.0

    def test_identical_columns_fixed_point(self):
        U = np.ones((3, 2))
        assert cosine_similarity_metric([U]) == pytest.approx(0.5)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        factors = [rng.uniform(size=(5, 4)), rng.uniform(size=(6, 4))]
        total = 0.0
        for U in factors:
            for r1 in range(4):
                for r2 in range(r1 + 1, 4):
                    u, v = U[:, r1], U[:, r2]
                    total += u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
        expected = total / (2 * 4 * 3)
        assert cosine_similarity_metric(factors) == pytest.approx(expected, abs=1e-12)

    def test_rank_one_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="rank"):
            cosine_similarity_metric([np.ones((3, 1))])

    def test_range_for_nonnegative_factors(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            factors = [rng.uniform(size=(5, 3))]
            val = cosine_similarity_metric(factors)
            assert 0.0 <= val <= 0.5


class TestJaccardAtK:
    def _pheno(self, index, items):
        return Phenotype(index, {"M": [(i, 1.0) for i in items]})

    def test_identical_pair(self):
        ps = [self._pheno(0, ["a", "b"]), self._pheno(1, ["a", "b"])]
        assert jaccard_at_k(ps) == pytest.approx(0.5)

    def test_disjoint(self):
        ps = [self._pheno(0, ["a"]), self._pheno(1, ["b"])]
        assert jaccard_at_k(ps) == 0.0

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(3)
        items = [f"i{j}" for j in range(20)]
        ps = []
        for r in range(4):
            chosen = list(rng.choice(items, size=8, replace=False))
            ps.append(self._pheno(r, chosen))
        sets = [top_k_items(p, 10) for p in ps]
        total = sum(len(sets[a] & sets[b]) / len(sets[a] | sets[b])
                    for a in range(4) for b in range(a + 1, 4))
        assert jaccard_at_k(ps, 10) == pytest.approx(total / (4 * 3), abs=1e-12)

    def test_symmetric_in_order(self):
        ps = [self._pheno(0, ["a", "b"]), self._pheno(1, ["b", "c"]), self._pheno(2, ["c"])]
        assert jaccard_at_k(ps) == pytest.approx(jaccard_at_k(list(reversed(ps))))

    def test_range(self):
        ps = [self._pheno(0, ["a", "b"]), self._pheno(1, ["a", "b"])]
        assert 0.0 <= jaccard_at_k(ps) <= 0.5

    def test_one_phenotype_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="2 phenotypes"):
            jaccard_at_k([self._pheno(0, ["a"])])

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_configuration_error(self, k):
        ps = [self._pheno(0, ["a", "b"]), self._pheno(1, ["b", "c"])]
        with pytest.raises(ConfigurationError):
            jaccard_at_k(ps, k)
        with pytest.raises(ConfigurationError):
            top_k_items(ps[0], k)
        row = CorrespondenceRow("A", "a0", "B", ["b0", "b1", "b2"], np.array([3.0, 2.0, 1.0]), 5)
        with pytest.raises(ConfigurationError):
            row.top(k)


class TestSparsity:
    def test_all_zero(self):
        assert sparsity([np.zeros((3, 2))]) == 0.0

    def test_half(self):
        U = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert sparsity([U]) == 0.5

    def test_counting_oracle(self):
        rng = np.random.default_rng(4)
        U = rng.uniform(size=(6, 5)) * (rng.uniform(size=(6, 5)) < 0.4)
        expected = np.count_nonzero(U) / U.size
        assert sparsity([U]) == pytest.approx(expected)


class TestMeaningfulness:
    def _row(self, scores, items=None):
        scores = np.asarray(scores, dtype=float)
        items = items or [f"m{i}" for i in range(len(scores))]
        return CorrespondenceRow("Dx", "d0", "Rx", items, scores, 10)

    def test_all_relevant(self):
        row = self._row([0.7, 0.2, 0.1])
        ann = {m: 2 for m in row.item_ids}
        assert meaningfulness_score(row, ann) == pytest.approx(2.0)

    def test_symmetric_average(self):
        row = self._row([0.5, 0.5])
        assert meaningfulness_score(row, {"m0": 2, "m1": 0}) == pytest.approx(1.0)

    def test_paper_diabetes_style_row(self):
        # four items, weights dominated by the first, all annotated relevant
        row = self._row([0.88, 0.05, 0.01, 0.01])
        ann = {m: 2 for m in row.item_ids}
        assert meaningfulness_score(row, ann) == pytest.approx(2.0)

    def test_missing_annotation_errors(self):
        row = self._row([0.5, 0.5])
        with pytest.raises(ConfigurationError, match="m1"):
            meaningfulness_score(row, {"m0": 2})

    def test_monotone_in_annotations(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(size=6)
        scores /= scores.sum()
        row = self._row(scores)
        ann = {m: int(a) for m, a in zip(row.item_ids, rng.integers(0, 3, size=6))}
        base = meaningfulness_score(row, ann)
        for m in row.item_ids:
            if ann[m] < 2:
                bumped = dict(ann)
                bumped[m] += 1
                assert meaningfulness_score(row, bumped) >= base

    def test_zero_weights_absent(self):
        row = self._row([0.0, 0.0])
        assert meaningfulness_score(row, {"m0": 2, "m1": 2}) is None

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            scores = rng.uniform(size=5)
            row = self._row(scores / scores.sum())
            ann = {m: int(a) for m, a in zip(row.item_ids, rng.integers(0, 3, size=5))}
            assert 0.0 <= meaningfulness_score(row, ann) <= 2.0
