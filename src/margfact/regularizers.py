"""Sparsity (elastic net) and diversity (pairwise angular) penalties.

Both act on the modality factor matrices only; the shared entity factor
is never regularized. Gradients are analytic: the l1 term uses the
one-sided derivative from the non-negative side, and zero columns
contribute cosine 0 (no penalty, no gradient).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, Settings, check_setting


@dataclass
class RegularizerConfig(Settings):
    gamma: float = 1e-5   # elastic-net weight
    alpha: float = 0.7    # l2 / l1 mixing
    beta: float = 1.0     # angular weight
    theta: float | dict = 0.5  # angular threshold, scalar or per-modality map

    def __post_init__(self):
        check_setting("regularizer", "gamma", self.gamma, 0)
        check_setting("regularizer", "alpha", self.alpha, 0, 1)
        check_setting("regularizer", "beta", self.beta, 0)
        if isinstance(self.theta, dict):
            for modality, theta in self.theta.items():
                check_setting("regularizer", f"theta[{modality!r}]", theta, 0, 1)
        else:
            check_setting("regularizer", "theta", self.theta, 0, 1)

    def theta_for(self, modality):
        """The threshold of modality; ConfigurationError if a map does not name it."""
        if not isinstance(self.theta, dict):
            return self.theta
        if modality not in self.theta:
            raise ConfigurationError(f"regularizer: theta names no modality {modality!r}")
        return self.theta[modality]


def elastic_net_sum(U, cfg):
    """alpha ||U||_F^2 + (1 - alpha) ||U||_1: one factor's elastic net, unweighted."""
    return cfg.alpha * float(np.sum(U * U)) + (1.0 - cfg.alpha) * float(np.sum(np.abs(U)))


def elastic_net(factors, cfg):
    """gamma * the sum of elastic_net_sum over factors."""
    matrices = factors.values() if isinstance(factors, dict) else factors
    return cfg.gamma * sum(elastic_net_sum(U, cfg) for U in matrices)


def elastic_net_grad(U, cfg):
    """Gradient of the elastic net on one non-negative factor block."""
    return cfg.gamma * (2.0 * cfg.alpha * U + (1.0 - cfg.alpha))


def column_cosines(U):
    """(cosine matrix, column norms); a zero column has cosine 0 against every column."""
    norms = np.linalg.norm(U, axis=0)
    Un = U / np.where(norms > 0, norms, 1.0)
    return Un.T @ Un, norms


@lru_cache(maxsize=None)
def upper_pairs(rank):
    """np.triu_indices(rank, k=1), built once per rank and read-only."""
    pairs = np.triu_indices(rank, k=1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def angular_sum(U, cfg, modality=None):
    """sum_{r > r'} max(0, cos(u_r, u_r') - theta)^2 over the columns of one
    factor: its angular penalty, unweighted."""
    cos = column_cosines(U)[0]
    h = np.maximum(0.0, cos[upper_pairs(U.shape[1])] - cfg.theta_for(modality))
    return float(np.sum(h * h))


def angular_penalty(factors, cfg):
    """beta * the sum of angular_sum over factors."""
    items = factors.items() if isinstance(factors, dict) else ((None, U) for U in factors)
    return cfg.beta * sum(angular_sum(U, cfg, name) for name, U in items)


def angular_penalty_grad(U, cfg, modality=None):
    """Gradient of the angular penalty on one factor block.

    Pair (r, p) with h = cos(u_r, u_p) - theta > 0 adds 2 h d cos / d u_r
    = 2 h (u_p / (|u_r| |u_p|) - cos u_r / |u_r|^2) to column r. Each
    column sums its pairs in ascending order of p, and both columns of a
    pair use the one cosine below the diagonal, so the result does not
    depend on how the matrix product rounds the two triangles.
    """
    cos, norms = column_cosines(U)
    cos = np.tril(cos) + np.tril(cos, -1).T
    h = cos - cfg.theta_for(modality)
    np.fill_diagonal(h, 0.0)
    n = np.where(norms > 0, norms, 1.0)
    # scalar x ** 2 calls pow(), which can round differently from the array
    # square; the scalar form keeps fits reproducible bit for bit
    n2 = np.array([x ** 2 for x in n])
    dcos = U[:, None, :] / (n[:, None] * n) - cos * U[:, :, None] / n2[:, None]
    terms = np.where(h > 0, 2.0 * h, 0.0) * dcos  # (I, r, p)
    grad = np.zeros_like(U)
    for p in range(U.shape[1]):
        grad += terms[:, :, p]
    return cfg.beta * grad
