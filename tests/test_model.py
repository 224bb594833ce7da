import json

import numpy as np
import pytest

from margfact import (ConfigurationError, GaussianParams, IngestionError,
                      InteractionTensorSpec, ModelSpec, ObservationKind,
                      RegularizerConfig, SolverConfig, angular_penalty, build_model,
                      elastic_net, gradient_block, load_model, nll, objective,
                      project_patients, reconstruct_marginal, save_model)
from margfact.model import SHARED, Model
from margfact.solver import train

from conftest import assert_grad_close, central_difference
from helpers import (make_obs, marginalize, poisson_pair_model, reconstruct_full,
                     small_mixed_model)


class TestBuildModel:
    def test_tying_allocates_one_factor(self):
        rng = np.random.default_rng(0)
        obs = {
            "Dx": make_obs("Dx", rng.poisson(1.0, (5, 3)).astype(float), "poisson", "integer"),
            "Rx": make_obs("Rx", rng.poisson(1.0, (5, 4)).astype(float), "poisson", "integer"),
            "Lab": make_obs("Lab", rng.poisson(1.0, (5, 2)).astype(float), "poisson", "integer"),
        }
        spec = ModelSpec(rank=2, tensors=[
            InteractionTensorSpec("t1", ["Dx", "Rx"], "poisson"),
            InteractionTensorSpec("t2", ["Dx", "Lab"], "poisson"),
        ])
        model = build_model(spec, obs)
        assert set(model.factors) == {"Dx", "Rx", "Lab"}
        # identity of storage: both tensors see the same array object
        dx_blocks = [term.blocks(model.factors)[term.tensor.modalities.index("Dx")]
                     for term in model.compiled_terms() if "Dx" in term.tensor.modalities]
        assert all(b is model.factors["Dx"] for b in dx_blocks)

    def test_paper_style_configuration_counts_factors(self):
        # three tensors, four modalities + shared entity block -> 5 factor matrices
        rng = np.random.default_rng(1)
        obs = {
            "Dx": make_obs("Dx", (rng.uniform(size=(6, 3)) < 0.5).astype(float), "poisson", "binary"),
            "Rx": make_obs("Rx", rng.poisson(1.0, (6, 4)).astype(float), "poisson", "integer"),
            "Lab": make_obs("Lab", rng.poisson(1.0, (6, 2)).astype(float), "poisson", "integer"),
            "Fluid": make_obs("Fluid", rng.uniform(size=(6, 3)), "gaussian", "real"),
        }
        spec = ModelSpec(rank=2, tensors=[
            InteractionTensorSpec("dx_rx", ["Dx", "Rx"], "poisson"),
            InteractionTensorSpec("dx_lab", ["Dx", "Lab"], "poisson"),
            InteractionTensorSpec("dx_fluid", ["Dx", "Fluid"], "gaussian", sigma2=1e-2),
        ])
        model = build_model(spec, obs)
        assert len(model.factors) + 1 == 5

    def test_unknown_modality_errors(self):
        obs = {"A": make_obs("A", np.zeros((3, 2)), "poisson", "integer")}
        spec = ModelSpec(rank=1, tensors=[InteractionTensorSpec("t", ["A", "Missing"], "poisson")])
        with pytest.raises(ConfigurationError, match="Missing"):
            build_model(spec, obs)

    def test_bad_pairing_errors(self):
        obs = {"A": make_obs("A", np.zeros((3, 2)), "gaussian", "real"),
               "B": make_obs("B", np.zeros((3, 2)), "poisson", "integer")}
        spec = ModelSpec(rank=1, tensors=[InteractionTensorSpec("t", ["A", "B"], "poisson")])
        with pytest.raises(ConfigurationError, match="A"):
            build_model(spec, obs)

    def test_initialization_in_unit_interval(self):
        model = poisson_pair_model(seed=7)
        assert np.all(model.shared > 0) and np.all(model.shared < 1)
        for U in model.factors.values():
            assert np.all(U > 0) and np.all(U < 1)


class TestSpecValidation:
    @pytest.mark.parametrize("name", ["", "shared", ".", "..", "../esc", "a\\b", 3])
    def test_modality_name_that_cannot_name_its_files_errors(self, name):
        with pytest.raises(ConfigurationError, match="modality name"):
            InteractionTensorSpec("t", ["A", name], "poisson")

    def test_repeated_modality_errors(self):
        with pytest.raises(ConfigurationError, match="more than once"):
            InteractionTensorSpec("t", ["A", "A"], "poisson")
        with pytest.raises(ConfigurationError, match="more than once"):
            InteractionTensorSpec("t", ["A", "B", "A"], "poisson")

    def test_repeated_tensor_id_errors(self):
        tensors = [InteractionTensorSpec("t", ["A", "B"], "poisson"),
                   InteractionTensorSpec("t", ["A", "C"], "poisson")]
        with pytest.raises(ConfigurationError, match="tensor ids must be unique"):
            ModelSpec(rank=2, tensors=tensors)

    @pytest.mark.parametrize("field", ["max_sweeps"])
    def test_negative_solver_count_errors(self, field):
        assert getattr(SolverConfig(**{field: 0}), field) == 0
        with pytest.raises(ConfigurationError, match=field):
            SolverConfig(**{field: -1})


class TestObjective:
    def test_regularizer_off_is_nll_sum(self):
        model = poisson_pair_model(gamma=0.0, beta=0.0)
        total = 0.0
        for term in model.compiled_terms():
            vhat = reconstruct_marginal(model.shared, term.blocks(model.factors), term.k)
            total += nll(term.kind, term.V, vhat, term.params)
        assert objective(model) == pytest.approx(total, rel=1e-12)

    def test_matched_point_value(self):
        # factors arranged so vhat equals V: objective = sum(v - v log v) + Omega
        model = poisson_pair_model(gamma=1e-3, beta=0.5)
        for term in model.compiled_terms():
            vhat = reconstruct_marginal(model.shared, term.blocks(model.factors), term.k)
            V = term.V
            expect = float(np.sum(V - V * np.log(np.maximum(V, 1e-12))))
            assert nll(term.kind, V, V, term.params) == pytest.approx(expect, rel=1e-10)

    def test_hitf_special_case_oracle(self):
        # standalone single-tensor objective coded independently
        model = poisson_pair_model(gamma=1e-3, beta=0.5)
        A, B = model.factors["A"], model.factors["B"]
        S = model.shared
        VA, VB = model.observations["A"].values, model.observations["B"].values
        vhat_a = S @ np.diag(B.sum(axis=0)) @ A.T
        vhat_b = S @ np.diag(A.sum(axis=0)) @ B.T
        nll_a = np.sum(vhat_a - VA * np.log(np.maximum(vhat_a, 1e-12)))
        nll_b = np.sum(vhat_b - VB * np.log(np.maximum(vhat_b, 1e-12)))
        cfg = model.spec.regularizer
        omega = elastic_net([A, B], cfg) + angular_penalty({"A": A, "B": B}, cfg)
        assert objective(model) == pytest.approx(nll_a + nll_b + omega, rel=1e-10)

    def test_additivity_over_disjoint_tensors(self):
        rng = np.random.default_rng(4)
        obs = {n: make_obs(n, rng.poisson(1.5, (5, 3)).astype(float), "poisson", "integer")
               for n in ("A", "B", "C", "D")}
        reg = RegularizerConfig(gamma=0.0, alpha=0.7, beta=0.0)
        t_ab = InteractionTensorSpec("ab", ["A", "B"], "poisson")
        t_cd = InteractionTensorSpec("cd", ["C", "D"], "poisson")
        seed = 11
        both = build_model(ModelSpec(rank=2, tensors=[t_ab, t_cd], regularizer=reg,
                                     init_seed=seed), obs)
        only_ab = build_model(ModelSpec(rank=2, tensors=[t_ab], regularizer=reg,
                                        init_seed=seed), obs)
        only_cd = build_model(ModelSpec(rank=2, tensors=[t_cd], regularizer=reg,
                                        init_seed=seed), obs)
        # align factor values so the three models evaluate the same point
        only_ab.shared = both.shared
        only_cd.shared = both.shared
        for name in ("A", "B"):
            only_ab.factors[name] = both.factors[name]
        for name in ("C", "D"):
            only_cd.factors[name] = both.factors[name]
        assert objective(both) == pytest.approx(objective(only_ab) + objective(only_cd),
                                                rel=1e-12)

    def test_every_form_returns_the_same_float(self):
        rng = np.random.default_rng(1)
        obs = {n: make_obs(n, rng.poisson(1.0, (6, i)).astype(float), "poisson", "integer")
               for n, i in (("A", 3), ("B", 4), ("C", 2))}
        three_way = build_model(ModelSpec(
            rank=2, tensors=[InteractionTensorSpec("abc", ["A", "B", "C"], "poisson")],
            regularizer=RegularizerConfig(gamma=1e-3, beta=0.5)), obs)
        for model in (small_mixed_model(), three_way):
            whole = objective(model)
            for block in [SHARED, *model.factors]:
                assert objective(model, block) == whole  # no parts dict: every part computed
                parts = {}
                assert objective(model, block, parts) == whole
                assert objective(model, block, parts) == whole  # read back from the full dict
                # block holding values: evaluated as the model holding them, never written
                shared, factors = model.shared, dict(model.factors)
                values = rng.uniform(size=(shared if block == SHARED else factors[block]).shape)
                held = Model(model.spec, model.observations, shared, dict(factors))
                if block == SHARED:
                    held.shared = values
                else:
                    held.factors[block] = values
                for trial_parts in (None, {}, dict(parts)):
                    assert objective(model, block, trial_parts, values) == objective(held)
                assert model.shared is shared
                assert all(model.factors[n] is U for n, U in factors.items())
            with pytest.raises(ConfigurationError, match="no block"):
                objective(model, None, None, model.shared)


    def test_gaussian_multiplicity_matches_monte_carlo(self):
        # each marginal entry sums prod_{k != n} I_k hidden cells, each with
        # N(0, sigma2) noise, so its variance is t_n sigma2 with t_n that product
        rng = np.random.default_rng(0)
        sigma2 = 0.3
        sizes = {"A": 3, "B": 4, "C": 5}
        obs = {m: make_obs(m, np.zeros((2, n)), "gaussian", "real") for m, n in sizes.items()}
        spec = ModelSpec(rank=2, tensors=[InteractionTensorSpec("abc", list(sizes), "gaussian",
                                                                sigma2)])
        model = build_model(spec, obs)
        full = reconstruct_full([model.shared] + [model.factors[m] for m in sizes])
        draws = [full + rng.normal(0.0, np.sqrt(sigma2), full.shape) for _ in range(3000)]
        for term in model.compiled_terms():
            marginals = np.array([marginalize(d, (0, term.k + 1)) for d in draws])
            np.testing.assert_allclose(marginals.mean(axis=0),
                                       reconstruct_marginal(model.shared,
                                                            term.blocks(model.factors), term.k),
                                       atol=0.2)
            assert marginals.var(axis=0).mean() == pytest.approx(
                term.params.t_n * term.params.sigma2, rel=0.05)


class TestGradientBlock:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_blocks_finite_difference_mixed_model(self, seed):
        model = small_mixed_model(seed=seed)
        for block in [SHARED] + list(model.factors):
            analytic = gradient_block(model, block)

            def f(values, _block=block):
                if _block == SHARED:
                    old, model.shared = model.shared, values
                else:
                    old, model.factors[_block] = model.factors[_block], values
                try:
                    return objective(model)
                finally:
                    if _block == SHARED:
                        model.shared = old
                    else:
                        model.factors[_block] = old

            point = model.shared if block == SHARED else model.factors[block]
            numeric = central_difference(f, point)
            assert_grad_close(analytic, numeric, rtol=1e-4)

    def test_finite_difference_after_sweeps(self):
        model = small_mixed_model(seed=3)
        from margfact import SolverConfig
        train(model, SolverConfig(max_sweeps=5, tol=1e-14))
        # projection can park entries exactly at the boundary where the
        # objective is only one-sided differentiable; nudge into the interior
        model.shared = np.maximum(model.shared, 1e-3)
        for name in model.factors:
            model.factors[name] = np.maximum(model.factors[name], 1e-3)
        for block in [SHARED] + list(model.factors):
            analytic = gradient_block(model, block)
            point = model.shared if block == SHARED else model.factors[block]

            def f(values, _block=block):
                if _block == SHARED:
                    old, model.shared = model.shared, values
                else:
                    old, model.factors[_block] = model.factors[_block], values
                try:
                    return objective(model)
                finally:
                    if _block == SHARED:
                        model.shared = old
                    else:
                        model.factors[_block] = old

            numeric = central_difference(f, point)
            assert_grad_close(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_unknown_block_errors(self):
        model = poisson_pair_model()
        parts = {}
        objective(model, None, parts)
        for evaluate in (lambda: gradient_block(model, "Nope"),
                         lambda: objective(model, "Nope"),
                         lambda: objective(model, "Nope", parts)):
            with pytest.raises(ConfigurationError, match="unknown block 'Nope'"):
                evaluate()

    def test_shared_modality_gradient_additivity(self):
        rng = np.random.default_rng(6)
        obs = {
            "Dx": make_obs("Dx", rng.poisson(1.5, (5, 3)).astype(float), "poisson", "integer"),
            "Rx": make_obs("Rx", rng.poisson(1.5, (5, 4)).astype(float), "poisson", "integer"),
            "Lab": make_obs("Lab", rng.poisson(1.5, (5, 2)).astype(float), "poisson", "integer"),
        }
        reg = RegularizerConfig(gamma=0.0, beta=0.0)
        t1 = InteractionTensorSpec("t1", ["Dx", "Rx"], "poisson")
        t2 = InteractionTensorSpec("t2", ["Dx", "Lab"], "poisson")
        both = build_model(ModelSpec(rank=2, tensors=[t1, t2], regularizer=reg, init_seed=9), obs)
        m1 = build_model(ModelSpec(rank=2, tensors=[t1], regularizer=reg, init_seed=9), obs)
        m2 = build_model(ModelSpec(rank=2, tensors=[t2], regularizer=reg, init_seed=9), obs)
        m1.shared = m2.shared = both.shared
        for name in both.factors:
            if name in m1.factors:
                m1.factors[name] = both.factors[name]
            if name in m2.factors:
                m2.factors[name] = both.factors[name]
        g_both = gradient_block(both, "Dx")
        g_sum = gradient_block(m1, "Dx") + gradient_block(m2, "Dx")
        np.testing.assert_allclose(g_both, g_sum, rtol=1e-12)


class TestProjectPatients:
    def test_training_data_projection_improves_partial(self):
        model = poisson_pair_model(seed=5, max_sweeps=100, tol=1e-9)
        train(model)
        S_proj = project_patients(model, model.observations)
        # re-optimizing the shared rows cannot do worse than the trained rows
        def shared_partial(S):
            total = 0.0
            for term in model.compiled_terms():
                from margfact.tensor import marginal_scales
                blocks = term.blocks(model.factors)
                scales = marginal_scales(blocks, term.k)
                vhat = (S * scales) @ blocks[term.k].T
                total += nll(term.kind, term.V, vhat, term.params)
            return total
        assert shared_partial(S_proj) <= shared_partial(model.shared) + 1e-6

    def test_all_zero_patient_converges_to_zero(self):
        model = poisson_pair_model(seed=6, max_sweeps=300, tol=1e-10)
        train(model)
        zero_obs = {
            name: make_obs(name, np.zeros((1, obs.n_items)), obs.kind.distribution,
                           obs.kind.datatype, ["new0"])
            for name, obs in model.observations.items()
        }
        S = project_patients(model, zero_obs)
        assert np.all(S < 1e-2)

    def test_row_independence(self):
        model = poisson_pair_model(seed=7, max_sweeps=100, tol=1e-9)
        train(model)
        rng = np.random.default_rng(0)
        new = {name: make_obs(name, rng.poisson(2.0, (3, obs.n_items)).astype(float),
                              obs.kind.distribution, obs.kind.datatype,
                              ["n0", "n1", "n2"])
               for name, obs in model.observations.items()}
        batch = project_patients(model, new)
        for i in range(3):
            single = {name: make_obs(name, obs.values[i:i + 1], obs.kind.distribution,
                                     obs.kind.datatype, [obs.shared_ids[i]])
                      for name, obs in new.items()}
            np.testing.assert_allclose(project_patients(model, single)[0], batch[i],
                                       rtol=1e-4, atol=1e-6)

    def test_modality_mismatch_errors(self):
        model = poisson_pair_model()
        with pytest.raises(ConfigurationError):
            project_patients(model, {"A": model.observations["A"]})

    @pytest.mark.parametrize("case", ["more B patients", "fewer B patients",
                                      "B patients reordered", "B items reordered"])
    def test_misaligned_input_errors(self, case):
        model = poisson_pair_model(seed=7, max_sweeps=5)
        train(model)
        rng = np.random.default_rng(0)
        ids = ["n0", "n1", "n2"]
        new = {name: make_obs(name, rng.poisson(2.0, (3, obs.n_items)).astype(float),
                              "poisson", "integer", ids)
               for name, obs in model.observations.items()}
        n_items = new["B"].n_items
        if case == "B items reordered":
            new["B"].item_ids = new["B"].item_ids[::-1]
        else:  # B's patients listed in reverse, as many as A's or not
            n_b = {"more B patients": 5, "fewer B patients": 2}.get(case, 3)
            new["B"] = make_obs("B", rng.poisson(2.0, (n_b, n_items)).astype(float),
                                "poisson", "integer", [f"n{i}" for i in range(n_b)][::-1])
        with pytest.raises(ConfigurationError, match="'B'"):
            project_patients(model, new)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = poisson_pair_model(seed=8, max_sweeps=10)
        train(model)
        save_model(model, tmp_path / "model")
        loaded = load_model(tmp_path / "model", model.observations)
        np.testing.assert_array_equal(loaded.shared, model.shared)
        for name in model.factors:
            np.testing.assert_array_equal(loaded.factors[name], model.factors[name])
        assert objective(loaded) == pytest.approx(objective(model), rel=1e-12)

    def test_load_draws_no_random_model(self, tmp_path, monkeypatch):
        model = poisson_pair_model(seed=8, max_sweeps=3)
        train(model)
        save_model(model, tmp_path / "model")

        def refuse(*args):
            raise AssertionError("load_model needs no fresh model")

        monkeypatch.setattr("margfact.model.build_model", refuse)
        loaded = load_model(tmp_path / "model", model.observations)
        np.testing.assert_array_equal(loaded.shared, model.shared)
        assert list(loaded.factors) == list(model.factors)
        assert objective(loaded) == objective(model)

    def test_load_rejects_other_observations(self, tmp_path):
        model = poisson_pair_model(seed=8, n_patients=6, max_sweeps=2)
        save_model(model, tmp_path / "model")
        obs = model.observations
        reversed_patients = {n: make_obs(n, o.values[::-1], "poisson", "integer",
                                         o.shared_ids[::-1]) for n, o in obs.items()}
        one_more_item = dict(obs, B=make_obs("B", np.ones((6, 6)), "poisson", "integer",
                                             obs["B"].shared_ids))
        for other in (reversed_patients, one_more_item):
            with pytest.raises(IngestionError, match="ids"):
                load_model(tmp_path / "model", other)
        spec = model.spec
        spec.rank = 3
        spec.save(tmp_path / "model" / "spec.json")
        with pytest.raises(IngestionError, match="rank"):
            load_model(tmp_path / "model", obs)

    @pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
    def test_load_rejects_negative_or_non_finite_factor(self, tmp_path, value):
        model = poisson_pair_model(seed=8, n_patients=6, max_sweeps=2)
        save_model(model, tmp_path / "model")
        path = tmp_path / "model" / "B.csv"
        header, first, *rest = path.read_text().splitlines()
        cells = first.split(",")
        cells[1] = value
        path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        with pytest.raises(IngestionError, match="B.csv"):
            load_model(tmp_path / "model", model.observations)

    @pytest.mark.parametrize("text", ["", "\n\n", "entity_id\n", "entity_id,f1,f2\nB_0,1\n",
                                      "entity_id,f1,f2\nB_0,x,1\n"])
    def test_load_rejects_malformed_factor_file(self, tmp_path, text):
        model = poisson_pair_model(seed=8, n_patients=6, max_sweeps=2)
        save_model(model, tmp_path / "model")
        (tmp_path / "model" / "B.csv").write_text(text)
        with pytest.raises(IngestionError, match="B.csv"):
            load_model(tmp_path / "model", model.observations)

    def test_ids_with_commas_and_quotes_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        patients = ["Doe, Jane", 'P "J" 7', "p3", "p4"]
        obs = {"A": make_obs("A", rng.poisson(2.0, (4, 3)).astype(float), "poisson",
                             "integer", patients),
               "B": make_obs("B", rng.poisson(2.0, (4, 2)).astype(float), "poisson",
                             "integer", patients)}
        obs["B"].item_ids = ["Sodium Chloride 0.9%, Flush", '4" gauze']
        spec = ModelSpec(rank=2, tensors=[InteractionTensorSpec("ab", ["A", "B"], "poisson")])
        model = build_model(spec, obs)
        train(model, SolverConfig(max_sweeps=3))
        save_model(model, tmp_path / "model")
        loaded = load_model(tmp_path / "model", obs)
        np.testing.assert_array_equal(loaded.shared, model.shared)
        np.testing.assert_array_equal(loaded.factors["B"], model.factors["B"])

    def test_old_spec_with_armijo_c_loads(self, tmp_path):
        model = small_mixed_model()
        for key, value in (("armijo_c", 1e-4), ("backtrack", 0.5), ("max_halvings", 30)):
            doc = model.spec.to_dict()
            assert key not in doc["solver"]
            doc["solver"][key] = value
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(doc))
            assert ModelSpec.load(path).to_dict() == model.spec.to_dict()

    def test_spec_json_round_trip(self, tmp_path):
        model = small_mixed_model()
        path = tmp_path / "spec.json"
        model.spec.save(path)
        loaded = ModelSpec.load(path)
        assert loaded.to_dict() == model.spec.to_dict()
