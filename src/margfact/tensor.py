"""Dense factor algebra: CP reconstruction, marginalization, and slices.

Factor matrices are plain (I, R) numpy arrays with non-negative entries.
Full tensors are only ever materialized at oracle scale; the model itself
works exclusively with marginal reconstructions.
"""

import math

import numpy as np

from .errors import ConfigurationError, IngestionError, OracleScaleError

#: full tensors exist only to validate the marginal algebra
DENSE_SIZE_CAP = 10_000_000


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


def write_factor_csv(path, entity_ids, U):
    """Serialize a factor matrix: header entity_id,f1,...,fR; 17 significant digits."""
    U = np.asarray(U, dtype=float)
    if len(entity_ids) != U.shape[0]:
        raise ConfigurationError("entity id count does not match factor rows")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("entity_id," + ",".join(f"f{r + 1}" for r in range(U.shape[1])) + "\n")
        for eid, row in zip(entity_ids, U):
            fh.write(str(eid) + "," + ",".join(f"{v:.17g}" for v in row) + "\n")


def read_factor_csv(path):
    """Read a factor matrix CSV; returns (entity_ids, array)."""
    ids, rows = [], []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rank = len(header) - 1
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != rank + 1:
                raise IngestionError(f"{path}: malformed row {parts!r}")
            ids.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
    return ids, np.asarray(rows, dtype=float).reshape(len(ids), rank)
