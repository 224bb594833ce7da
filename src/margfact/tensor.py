"""Dense factor algebra: marginal reconstructions, column scales and slices.

Factor matrices are plain (I, R) numpy arrays with non-negative entries.
The full tensor is never materialized: the model works exclusively with
marginal reconstructions (the full-tensor oracle lives in the tests).
"""

import math

import numpy as np

from .errors import ConfigurationError


def check_factor(U, name="factor"):
    """Validate a factor matrix: 2-D, non-negative, at least one row/column."""
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] < 1 or U.shape[1] < 1:
        raise ConfigurationError(f"{name} must be a non-empty 2-D array, got shape {U.shape}")
    if np.any(U < 0):
        raise ConfigurationError(f"{name} has negative entries")
    return U


def _common_rank(factors):
    ranks = {U.shape[1] for U in factors}
    if len(ranks) != 1:
        raise ConfigurationError(f"factors disagree on rank: {sorted(ranks)}")
    return ranks.pop()


def marginal_scales(modality_factors, *skip):
    """Column-sum scale vector prod_{k not in skip} e^T U^(k), length R."""
    scales = None
    for k, U in enumerate(modality_factors):
        if k not in skip:
            cs = U.sum(axis=0)
            scales = cs if scales is None else scales * cs
    return np.ones(modality_factors[0].shape[1]) if scales is None else scales


def multiplicity(modality_factors, target):
    """Hidden cells summed into one marginal entry: prod_{k != target} I_k."""
    return math.prod(U.shape[0] for k, U in enumerate(modality_factors) if k != target)


def reconstruct_marginal(shared, modality_factors, target):
    """Marginal reconstruction U^(s) diag(prod_{k != n} e^T U^(k)) U^(n)^T.

    Never materializes the full tensor; returns an (I_s, I_target) matrix.
    The factors are 2-D arrays. Their signs are not checked: the objective
    calls this on every evaluation, so factors are validated where they
    enter (build_model draws them non-negative, load_model rejects negative
    or non-finite entries, and projected steps keep them non-negative).
    """
    if not (0 <= target < len(modality_factors)):
        raise ConfigurationError(f"target index {target} out of range")
    _common_rank([shared] + modality_factors)
    scales = marginal_scales(modality_factors, target)
    return (shared * scales) @ modality_factors[target].T


def reconstruct_slice(shared_row, factor_a, factor_b):
    """Per-entity interaction slice A diag(shared_row) B^T."""
    shared_row = np.asarray(shared_row, dtype=float)
    factor_a = check_factor(factor_a, "factor_a")
    factor_b = check_factor(factor_b, "factor_b")
    if np.any(shared_row < 0):
        raise ConfigurationError("shared_row has negative entries")
    if shared_row.shape != (factor_a.shape[1],) or factor_a.shape[1] != factor_b.shape[1]:
        raise ConfigurationError("rank mismatch between shared_row and factors")
    return (factor_a * shared_row) @ factor_b.T
