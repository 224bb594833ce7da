"""Shared builders for small synthetic models used across the test suite,
and the brute-force full-tensor oracles the marginal algebra is checked against."""

import numpy as np

from margfact import (ConfigurationError, InteractionTensorSpec, ModelSpec,
                      ObservationKind, ObservationMatrix, RegularizerConfig,
                      SolverConfig, build_model)
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
