"""Acceptance suite: one test per criterion, one pass/fail line each.

Every criterion is checked against an independent oracle computed inside the
test (full-tensor marginalization, central finite differences, Monte-Carlo
simulation, extended-precision series, brute-force metric loops, or a
permutation null), never against the implementation under test.
"""

import json
import os

import numpy as np
import pytest

from margfact import (InteractionTensorSpec, ModelSpec, RegularizerConfig,
                      SolverConfig, auprc, build_model, cosine_similarity_metric,
                      extract_correspondence, five_fold_cv, jaccard_at_k,
                      meaningfulness_score, objective, reconstruct_marginal,
                      sparsity, synth_generate, train)
from margfact.analysis import CorrespondenceRow, Phenotype, top_k_items
from margfact.cli import main as cli_main
from margfact.data_io import ObservationMatrix
from margfact.likelihoods import (GaussianParams, ObservationKind, erf,
                                  grad_nll_wrt_reconstruction, nll_cells)
from margfact.model import SHARED, gradient_block
from margfact.regularizers import (RegularizerConfig as Reg, angular_penalty,
                                   angular_penalty_grad, elastic_net,
                                   elastic_net_grad)

from conftest import central_difference
from helpers import make_obs, marginalize, reconstruct_full


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def _poisson_obs(name, values):
    n, m = values.shape
    return ObservationMatrix(name, [f"p{i}" for i in range(n)],
                             [f"{name}_{j}" for j in range(m)],
                             ObservationKind("poisson", "integer"),
                             values.astype(float))


# --------------------------------------------------------------------------
# 1. reconstruct_marginal vs. full-tensor marginalization
# --------------------------------------------------------------------------

def test_criterion_01_marginalization_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        order = int(rng.integers(3, 5))          # shared + 2 or 3 modalities
        rank = int(rng.integers(1, 5))
        dims = [int(rng.integers(2, 7)) for _ in range(order)]
        blocks = [rng.uniform(0.1, 2.0, size=(d, rank)) for d in dims]
        full = reconstruct_full(blocks)
        for target in range(1, order):           # mode 0 is the shared mode
            oracle = marginalize(full, keep=(0, target))
            fast = reconstruct_marginal(blocks[0], blocks[1:], target - 1)
            worst = max(worst, float(np.max(np.abs(fast - oracle))))
    assert worst <= 1e-10
    report(1, f"50 configs, max |fast - full-tensor oracle| = {worst:.3g} <= 1e-10")


# --------------------------------------------------------------------------
# 2. every analytic gradient vs. central finite differences
# --------------------------------------------------------------------------

def _rel_err(analytic, numeric):
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1.0)
    return np.max(np.abs(analytic - numeric)) / scale


def test_criterion_02_gradient_suite():
    rng = np.random.default_rng(1)
    worst = 0.0
    points = 0

    # four NLL kernels, gradient w.r.t. the reconstruction
    kinds = [(ObservationKind("poisson", "integer"), None),
             (ObservationKind("poisson", "binary"), None),
             (ObservationKind("gaussian", "real"), GaussianParams(0.5, 7)),
             (ObservationKind("gaussian", "binary"), GaussianParams(0.5, 7))]
    for kind, params in kinds:
        vhat = rng.uniform(0.2, 3.0, size=120)
        if kind.datatype == "binary":
            v = (rng.uniform(size=120) < 0.5).astype(float)
        elif kind.datatype == "integer":
            v = rng.poisson(1.5, size=120).astype(float)
        else:
            v = rng.uniform(0.0, 3.0, size=120)
        analytic = grad_nll_wrt_reconstruction(kind, v, vhat, params)
        numeric = central_difference(
            lambda x: float(np.sum(nll_cells(kind, v, x, params))), vhat)
        worst = max(worst, _rel_err(analytic, numeric))
        points += vhat.size

    # both regularizer gradients (single-block, penalty evaluated on that block)
    for _ in range(8):
        U = rng.uniform(0.1, 2.0, size=(5, 3))
        cfg = Reg(gamma=0.3, alpha=0.6, beta=0.8, theta=0.4)
        numeric = central_difference(lambda x: elastic_net([x], cfg), U)
        worst = max(worst, _rel_err(elastic_net_grad(U, cfg), numeric))
        numeric = central_difference(lambda x: angular_penalty([x], cfg), U)
        worst = max(worst, _rel_err(angular_penalty_grad(U, cfg), numeric))
        points += 2 * U.size

    # full model gradient_block across all four observation kinds
    from helpers import small_mixed_model
    for seed in range(3):
        model = small_mixed_model(seed=seed)
        model.shared = np.maximum(model.shared, 0.05)
        for name in model.factors:
            model.factors[name] = np.maximum(model.factors[name], 0.05)
        for block in [SHARED] + list(model.factors):
            values = model.shared if block == SHARED else model.factors[block]

            def f(x, _b=block):
                old = model.shared if _b == SHARED else model.factors[_b]
                if _b == SHARED:
                    model.shared = x
                else:
                    model.factors[_b] = x
                try:
                    return objective(model)
                finally:
                    if _b == SHARED:
                        model.shared = old
                    else:
                        model.factors[_b] = old
            numeric = central_difference(f, values)
            analytic = gradient_block(model, block)
            worst = max(worst, _rel_err(analytic, numeric))
            points += values.size

    assert points >= 100 * 4
    assert worst <= 1e-4
    report(2, f"{points} FD points, worst relative error = {worst:.3g} <= 1e-4")


# --------------------------------------------------------------------------
# 3. quantization laws vs. Monte-Carlo simulation of the generative process
# --------------------------------------------------------------------------

def test_criterion_03_quantization_laws():
    rng = np.random.default_rng(2)
    n = 1_000_000
    worst_z = 0.0
    for vhat in np.linspace(0.05, 3.0, 20):
        p = -np.expm1(-vhat)                      # predicted Bernoulli rate
        hits = rng.poisson(vhat, size=n) > 0      # simulate count, then quantize
        se = np.sqrt(p * (1 - p) / n)
        worst_z = max(worst_z, abs(hits.mean() - p) / se)
    assert worst_z <= 3.0
    z_poisson = worst_z

    worst_z = 0.0
    sigma2, t_n = 0.8, 9
    std = np.sqrt(t_n * sigma2)
    for vhat in np.linspace(-2.0, 2.0, 20):
        p = 0.5 - 0.5 * erf(-vhat / (np.sqrt(2.0 * t_n) * np.sqrt(sigma2)))
        hits = vhat + std * rng.standard_normal(n) > 0
        se = np.sqrt(max(p * (1 - p), 1e-12) / n)
        worst_z = max(worst_z, abs(hits.mean() - p) / se)
    assert worst_z <= 3.0
    report(3, f"20+20 points at 1e6 samples; worst |z| = "
              f"{max(z_poisson, worst_z):.2f} <= 3 standard errors")


# --------------------------------------------------------------------------
# 4. erf vs. 200-term extended-precision reference
# --------------------------------------------------------------------------

def test_criterion_04_erf_accuracy():
    import mpmath
    mpmath.mp.dps = 50

    def reference(x):
        # 200-term Maclaurin series at 50 decimal digits
        z = mpmath.mpf(x)
        total = mpmath.mpf(0)
        term = z
        for k in range(200):
            total += term / (2 * k + 1)
            term *= -z * z / (k + 1)
        return float(2 / mpmath.sqrt(mpmath.pi) * total)

    grid = np.arange(-4.0, 4.0 + 1e-9, 0.01)
    worst = max(abs(erf(float(x)) - reference(float(x))) for x in grid)
    assert worst <= 1e-10
    report(4, f"grid [-4,4] step 0.01, max abs error = {worst:.3g} <= 1e-10")


# --------------------------------------------------------------------------
# 5. solver monotonicity + convergence at cohort scale
# --------------------------------------------------------------------------

def test_criterion_05_solver_monotone_convergence():
    sweeps_used = []
    for seed in range(5):
        spec = ModelSpec(
            rank=5,
            tensors=[InteractionTensorSpec("t0", ["M0", "M1"], "poisson"),
                     InteractionTensorSpec("t1", ["M0", "M2"], "poisson")],
            init_seed=seed,
            solver=SolverConfig(max_sweeps=5000, tol=1e-6, step0=1e-4, log_every=1))
        obs, _ = synth_generate(spec, {"M0": 30, "M1": 30, "M2": 30},
                                {m: "integer" for m in ("M0", "M1", "M2")},
                                500, seed=seed)
        model = build_model(spec, obs)
        rep = train(model, spec.solver)
        values = [f for _, f in rep.loss_trace]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert rep.converged and rep.sweeps_run <= 5000
        sweeps_used.append(rep.sweeps_run)
    report(5, f"5 seeds at I_s=500: non-increasing traces, converged in "
              f"{sweeps_used} sweeps (all <= 5000)")


# --------------------------------------------------------------------------
# 6. planted block correspondence recovery
# --------------------------------------------------------------------------

def test_criterion_06_planted_correspondence_recovery():
    accuracies = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n, rank, n_dx, n_rx = 200, 3, 20, 30
        dx_blocks = np.array_split(np.arange(n_dx), rank)
        rx_blocks = np.array_split(np.arange(n_rx), rank)
        Dx = np.zeros((n_dx, rank))
        Rx = np.zeros((n_rx, rank))
        for r in range(rank):
            Dx[dx_blocks[r], r] = rng.uniform(0.5, 1.5, size=len(dx_blocks[r]))
            Rx[rx_blocks[r], r] = rng.uniform(0.5, 1.5, size=len(rx_blocks[r]))
        S = rng.uniform(0.2, 1.2, size=(n, rank))
        VD = rng.poisson(reconstruct_marginal(S, [Dx, Rx], 0)).astype(float)
        VR = rng.poisson(reconstruct_marginal(S, [Dx, Rx], 1)).astype(float)
        obs = {"Dx": _poisson_obs("Dx", VD), "Rx": _poisson_obs("Rx", VR)}
        spec = ModelSpec(rank=rank,
                         tensors=[InteractionTensorSpec("t0", ["Dx", "Rx"], "poisson")],
                         regularizer=RegularizerConfig(gamma=0.0, beta=0.0),
                         init_seed=seed,
                         solver=SolverConfig(max_sweeps=800, tol=1e-8, step0=1e-4))
        model = build_model(spec, obs)
        train(model, spec.solver)

        block_of_rx = np.zeros(n_rx, dtype=int)
        for r in range(rank):
            block_of_rx[rx_blocks[r]] = r
        correct = total = 0
        for r in range(rank):
            for j in dx_blocks[r]:
                if not np.any(VD[:, j] > 0):
                    continue
                row = extract_correspondence(model, "t0", "Dx", f"Dx_{j}", "Rx")
                if row.all_zero:
                    continue
                top_item, _ = row.top(1)[0]
                total += 1
                correct += int(block_of_rx[int(top_item.split("_")[1])] == r)
        accuracies.append(correct / total)
    mean_acc = float(np.mean(accuracies))
    assert mean_acc >= 0.8
    report(6, f"mean top-1 block accuracy over 5 seeds = {mean_acc:.3f} >= 0.8")


# --------------------------------------------------------------------------
# 7. analysis metrics vs. brute-force oracles
# --------------------------------------------------------------------------

def test_criterion_07_metric_oracles():
    rng = np.random.default_rng(3)
    worst = 0.0

    for _ in range(100):
        R = int(rng.integers(2, 5))
        factors = [rng.uniform(size=(int(rng.integers(3, 7)), R))
                   * (rng.uniform(size=(1,)) < 2.0) for _ in range(2)]

        # cosine: explicit double loop over ordered column pairs
        total = 0.0
        for U in factors:
            for r1 in range(R):
                for r2 in range(r1 + 1, R):
                    nu, nv = np.linalg.norm(U[:, r1]), np.linalg.norm(U[:, r2])
                    if nu > 0 and nv > 0:
                        total += float(U[:, r1] @ U[:, r2]) / (nu * nv)
        oracle = total / (len(factors) * R * (R - 1))
        worst = max(worst, abs(cosine_similarity_metric(factors) - oracle))

        # sparsity: explicit count
        oracle = sum(np.count_nonzero(U) for U in factors) / sum(U.size for U in factors)
        worst = max(worst, abs(sparsity(factors) - oracle))

        # jaccard@k: explicit set arithmetic on top-k unions
        phenos = []
        for r in range(R):
            items = {"M": [(f"i{j}", float(w)) for j, w in
                           enumerate(rng.uniform(size=8)) if w > 0.3]}
            phenos.append(Phenotype(r, items))
        k = 4
        sets = [top_k_items(p, k) for p in phenos]
        total = sum(len(sets[a] & sets[b]) / len(sets[a] | sets[b])
                    for a in range(R) for b in range(a + 1, R)
                    if sets[a] | sets[b])
        oracle = total / (R * (R - 1))
        worst = max(worst, abs(jaccard_at_k(phenos, k) - oracle))

        # meaningfulness: explicit weighted average over the top 10
        scores = rng.uniform(size=12)
        scores /= scores.sum()
        row = CorrespondenceRow("Dx", "d0", "Rx", [f"m{j}" for j in range(12)],
                                scores, 12)
        ann = {f"m{j}": int(a) for j, a in enumerate(rng.integers(0, 3, size=12))}
        top = sorted(range(12), key=lambda j: (-scores[j], j))[:10]
        num = sum(scores[j] * ann[f"m{j}"] for j in top)
        den = sum(scores[j] for j in top)
        worst = max(worst, abs(meaningfulness_score(row, ann) - num / den))

        # auprc: explicit rank-by-rank precision sum (distinct scores)
        n = 15
        s = rng.permutation(n).astype(float)
        y = (rng.uniform(size=n) < 0.4).astype(int)
        if 0 < y.sum() < n:
            order = np.argsort(-s)
            tp, ap = 0, 0.0
            for rank_pos, j in enumerate(order, start=1):
                if y[j]:
                    tp += 1
                    ap += tp / rank_pos
            worst = max(worst, abs(auprc(s, y) - ap / y.sum()))

    assert worst <= 1e-12
    # fixed point: one factor, two identical columns -> exactly 0.50
    assert cosine_similarity_metric([np.ones((3, 2))]) == pytest.approx(0.5, abs=0)
    report(7, f"100 instances x 5 metrics, max |metric - oracle| = {worst:.3g}"
              " <= 1e-12; identical-column fixed point = 0.50")


# --------------------------------------------------------------------------
# 8. predictive pipeline: planted signal and shuffled control
# --------------------------------------------------------------------------

def test_criterion_08_predictive_pipeline():
    from test_evaluate import cv_setup
    obs, labels, spec = cv_setup(seed=2, n=200, per_block=10)
    rep = five_fold_cv(obs, labels, spec, spec.solver, seed=2)
    assert rep["mean"] >= 0.95

    rng = np.random.default_rng(0)
    shuffled = rng.permutation(labels)
    rep_s = five_fold_cv(obs, shuffled, spec, spec.solver, seed=2)

    # permutation null: distribution of the mean-of-5-folds AUPRC when scores
    # carry no information, simulated directly with random scores
    n = len(shuffled)
    sims = []
    for _ in range(500):
        y = shuffled[rng.permutation(n)]
        fold_means = []
        for part in np.array_split(np.arange(n), 5):
            yy = y[part]
            if 0 < yy.sum() < len(yy):
                fold_means.append(auprc(rng.uniform(size=len(yy)), yy))
        sims.append(np.mean(fold_means))
    sigma = float(np.std(sims))
    base = float(shuffled.mean())
    assert abs(rep_s["mean"] - base) <= 3 * sigma
    report(8, f"planted AUPRC = {rep['mean']:.3f} >= 0.95; shuffled AUPRC = "
              f"{rep_s['mean']:.3f} within 3 sigma ({3 * sigma:.3f}) of base rate {base:.2f}")


# --------------------------------------------------------------------------
# 9. byte-identical training runs through the batch front door
# --------------------------------------------------------------------------

def test_criterion_09_determinism(tmp_path):
    assert cli_main(["synth", "--rank", "2", "--patients", "40",
                     "--modality", "A:6:integer:poisson",
                     "--modality", "B:8:integer:poisson",
                     "--seed", "11", "--out", str(tmp_path / "data")]) == 0
    spec = ModelSpec(rank=2,
                     tensors=[InteractionTensorSpec("t0", ["A", "B"], "poisson")],
                     init_seed=11,
                     solver=SolverConfig(max_sweeps=60, tol=1e-9, step0=1e-4))
    spec.save(str(tmp_path / "spec.json"))
    contents = []
    for run in ("m1", "m2"):
        assert cli_main(["train", "--manifest", str(tmp_path / "data" / "manifest.json"),
                         "--spec", str(tmp_path / "spec.json"),
                         "--threads", "1", "--deterministic",
                         "--out", str(tmp_path / run)]) == 0
        files = {}
        for name in sorted(os.listdir(tmp_path / run)):
            with open(tmp_path / run / name, "rb") as fh:
                files[name] = fh.read()
        contents.append(files)
    assert contents[0] == contents[1]
    report(9, f"two cmd_train runs produced byte-identical model directories "
              f"({len(contents[0])} files)")


# --------------------------------------------------------------------------
# 10. regularizer ablation directions
# --------------------------------------------------------------------------

def test_criterion_10_regularizer_ablation():
    def fit(seed, reg):
        spec = ModelSpec(rank=4,
                         tensors=[InteractionTensorSpec("t0", ["A", "B"], "poisson")],
                         regularizer=reg, init_seed=seed,
                         solver=SolverConfig(max_sweeps=400, tol=1e-7, step0=1e-4))
        obs, _ = synth_generate(spec, {"A": 20, "B": 20},
                                {"A": "integer", "B": "integer"}, 150, seed=seed)
        model = build_model(spec, obs)
        train(model, spec.solver)
        return model

    cos_off, cos_ang, nnz_off, nnz_en = [], [], [], []
    for seed in range(5):
        base = fit(seed, RegularizerConfig(gamma=0.0, beta=0.0))
        angular = fit(seed, RegularizerConfig(gamma=0.0, beta=1.0, theta=0.5))
        elastic = fit(seed, RegularizerConfig(gamma=1e-5, alpha=0.7, beta=0.0))
        cos_off.append(cosine_similarity_metric(base.factors))
        cos_ang.append(cosine_similarity_metric(angular.factors))
        nnz_off.append(sparsity(base.factors))
        nnz_en.append(sparsity(elastic.factors))

    mean_off, mean_ang = float(np.mean(cos_off)), float(np.mean(cos_ang))
    mean_nnz_off, mean_nnz_en = float(np.mean(nnz_off)), float(np.mean(nnz_en))
    assert mean_ang < mean_off
    assert mean_nnz_en <= mean_nnz_off + 1e-12
    report(10, f"angular: mean cosine {mean_off:.4f} -> {mean_ang:.4f} (decreased); "
               f"elastic net: mean nonzero ratio {mean_nnz_off:.4f} -> "
               f"{mean_nnz_en:.4f} (not increased), 5 seeds")
