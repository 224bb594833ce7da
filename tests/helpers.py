"""Shared builders for small synthetic models used across the test suite,
the brute-force full-tensor oracles the marginal algebra is checked against,
the factor match score planted recoveries are scored by, and the plain ISTA
oracle the lasso-logistic solver is checked against."""

import csv
import itertools

import numpy as np

from margfact import (ConfigurationError, InteractionTensorSpec, ModelSpec,
                      ObservationKind, ObservationMatrix, RegularizerConfig,
                      SolverConfig, build_model, reconstruct_marginal)
from margfact.errors import MargfactError
from margfact.tensor import _common_rank

#: full tensors exist only to validate the marginal algebra
DENSE_SIZE_CAP = 10_000_000


class OracleScaleError(MargfactError):
    """A dense tensor was requested above the oracle-scale size cap."""


def check_factor(U, name="factor"):
    """Validate a factor matrix: 2-D, non-negative, at least one row/column."""
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] < 1 or U.shape[1] < 1:
        raise ConfigurationError(f"{name} must be a non-empty 2-D array, got shape {U.shape}")
    if np.any(U < 0):
        raise ConfigurationError(f"{name} has negative entries")
    return U


def reconstruct_full(factors, size_cap=DENSE_SIZE_CAP):
    """Sum of rank-one outer products of the factor columns.

    Entry (i1, ..., iD) equals sum_r prod_d factors[d][i_d, r].
    """
    factors = [check_factor(U, f"factors[{d}]") for d, U in enumerate(factors)]
    _common_rank(factors)
    shape = tuple(U.shape[0] for U in factors)
    total = int(np.prod(shape))
    if total > size_cap:
        raise OracleScaleError(f"dense tensor of {total} entries exceeds cap {size_cap}")
    letters = [chr(ord("a") + d) for d in range(len(factors))]
    subscripts = ",".join(f"{c}r" for c in letters) + "->" + "".join(letters)
    return np.einsum(subscripts, *factors)


def marginalize(tensor, keep):
    """Sum the tensor over every mode except the two in `keep`."""
    tensor = np.asarray(tensor, dtype=float)
    a, b = keep
    if a == b or not (0 <= a < tensor.ndim) or not (0 <= b < tensor.ndim):
        raise ValueError(f"keep modes {keep} invalid for order-{tensor.ndim} tensor")
    other = tuple(d for d in range(tensor.ndim) if d not in (a, b))
    out = tensor.sum(axis=other) if other else tensor
    # summing drops axes; make axis order (a, b)
    if a > b:
        out = out.T
    return out


def planted_marginal(truth, modalities, k):
    """The planted mean synth_generate draws modality k of a tensor over
    `modalities` from."""
    return reconstruct_marginal(truth.shared, [truth.modality_factors[m] for m in modalities], k)


def fms(fitted, planted):
    """Factor match score of fitted factors against planted ones (Tomasi &
    Bro 2006; Chi & Kolda 2012): the column congruences (cosines) of each
    factor pair, multiplied across the factors, averaged over the columns
    under the best column permutation and divided by the larger rank. A
    zero column matches nothing. Brute force, so both ranks are at most 6."""
    n = max(fitted[0].shape[1], planted[0].shape[1])
    if n > 6:
        raise ValueError(f"fms searches every column permutation; rank {n} is above 6")
    congruence = np.zeros((n, n))
    congruence[:fitted[0].shape[1], :planted[0].shape[1]] = 1.0
    for A, B in zip(fitted, planted, strict=True):
        unit = [U / np.where(norm > 0, norm, 1.0)
                for U, norm in ((A, np.linalg.norm(A, axis=0)), (B, np.linalg.norm(B, axis=0)))]
        congruence[:A.shape[1], :B.shape[1]] *= unit[0].T @ unit[1]
    return max(congruence[np.arange(n), list(perm)].sum()
               for perm in itertools.permutations(range(n))) / n


def write_labels(path, shared_ids, labels):
    """A patient_id,label CSV as load_labels reads it, ids quoted by the csv rules."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["patient_id", "label"])
        writer.writerows(zip(shared_ids, map(int, labels)))


def make_obs(name, values, distribution, datatype, shared_ids=None):
    values = np.asarray(values, dtype=float)
    shared_ids = shared_ids or [f"p{i}" for i in range(values.shape[0])]
    item_ids = [f"{name}_{j}" for j in range(values.shape[1])]
    return ObservationMatrix(name, shared_ids, item_ids,
                             ObservationKind(distribution, datatype), values)


def small_mixed_model(seed=0, n_patients=6, rank=2, gamma=1e-3, beta=0.5):
    """Two tensors over four modalities covering all four observation kinds."""
    rng = np.random.default_rng(seed)
    shared_ids = [f"p{i}" for i in range(n_patients)]
    counts = rng.poisson(2.0, size=(n_patients, 4)).astype(float)
    binar = (rng.uniform(size=(n_patients, 3)) < 0.5).astype(float)
    reals = rng.uniform(0.0, 2.0, size=(n_patients, 3))
    gbin = (rng.uniform(size=(n_patients, 2)) < 0.5).astype(float)
    observations = {
        "Rx": make_obs("Rx", counts, "poisson", "integer", shared_ids),
        "Dx": make_obs("Dx", binar, "poisson", "binary", shared_ids),
        "Fluid": make_obs("Fluid", reals, "gaussian", "real", shared_ids),
        "Gb": make_obs("Gb", gbin, "gaussian", "binary", shared_ids),
    }
    tensors = [
        InteractionTensorSpec("dx_rx", ["Dx", "Rx"], "poisson"),
        InteractionTensorSpec("gb_fluid", ["Gb", "Fluid"], "gaussian", sigma2=0.5),
    ]
    spec = ModelSpec(rank=rank, tensors=tensors,
                     regularizer=RegularizerConfig(gamma=gamma, alpha=0.7, beta=beta, theta=0.5),
                     init_seed=seed, solver=SolverConfig(max_sweeps=50, tol=1e-8))
    return build_model(spec, observations)


def poisson_pair_model(seed=0, n_patients=8, n_a=4, n_b=5, rank=2, gamma=0.0, beta=0.0,
                       max_sweeps=200, tol=1e-8):
    """Plain two-modality Poisson-count model (the single-tensor special case)."""
    rng = np.random.default_rng(seed)
    shared_ids = [f"p{i}" for i in range(n_patients)]
    observations = {
        "A": make_obs("A", rng.poisson(2.0, size=(n_patients, n_a)).astype(float),
                      "poisson", "integer", shared_ids),
        "B": make_obs("B", rng.poisson(2.0, size=(n_patients, n_b)).astype(float),
                      "poisson", "integer", shared_ids),
    }
    spec = ModelSpec(rank=rank,
                     tensors=[InteractionTensorSpec("ab", ["A", "B"], "poisson")],
                     regularizer=RegularizerConfig(gamma=gamma, alpha=0.7, beta=beta, theta=0.5),
                     init_seed=seed, solver=SolverConfig(max_sweeps=max_sweeps, tol=tol))
    return build_model(spec, observations)


def lasso_objective(X, y, lam, w, b):
    """Mean logistic loss of X @ w + b plus lam * ||w||_1."""
    z = X @ w + b
    # log(1 + e^-z) stable for both signs
    return float(np.mean(np.logaddexp(0.0, -z) + (1.0 - y) * z)) + lam * float(np.sum(np.abs(w)))


def lasso_step(X):
    """1/L for the mean logistic loss on [X, 1]: the lasso solver's step."""
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    return X.shape[0] / (0.25 * np.linalg.norm(Xa, 2) ** 2)


def lasso_prox_step(X, y, lam, w, b, step):
    """One proximal gradient step from (w, b): soft-threshold w, not b."""
    r = 1.0 / (1.0 + np.exp(-(X @ w + b))) - y
    w_new = w - step * (X.T @ r / len(y))
    w_new = np.sign(w_new) * np.maximum(0.0, np.abs(w_new) - step * lam)
    return w_new, b - step * float(np.mean(r))


def lasso_ista(X, y, lam, tol=1e-7, max_iter=10_000):
    """Plain ISTA from zero, stopped at a relative objective change of tol."""
    step = lasso_step(X)
    w, b = np.zeros(X.shape[1]), 0.0
    obj = lasso_objective(X, y, lam, w, b)
    for _ in range(max_iter):
        w, b = lasso_prox_step(X, y, lam, w, b, step)
        new = lasso_objective(X, y, lam, w, b)
        if abs(obj - new) <= tol * max(1.0, abs(obj)):
            break
        obj = new
    return w, b
