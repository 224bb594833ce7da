"""Collective model assembly: tensors, tied factors, objective, gradients.

A model holds one shared entity factor plus exactly one factor matrix per
modality name; tensors referencing the same modality share that storage
(the tying constraint). The objective is the sum of each tensor's
per-target-marginal NLL terms plus the two regularizers.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import likelihoods as lk
from .errors import ConfigurationError, IngestionError
from .regularizers import (RegularizerConfig, angular_penalty,
                           angular_penalty_grad, elastic_net, elastic_net_grad)
from .tensor import (marginal_scales, multiplicity, read_factor_csv,
                     reconstruct_marginal, write_factor_csv)

SHARED = "__shared__"


@dataclass
class InteractionTensorSpec:
    id: str
    modalities: list
    distribution: str  # "poisson" | "gaussian"
    sigma2: float = None

    def __post_init__(self):
        if len(self.modalities) < 1:
            raise ConfigurationError(f"tensor {self.id!r} must reference at least one modality")
        if self.distribution not in (lk.POISSON, lk.GAUSSIAN):
            raise ConfigurationError(f"tensor {self.id!r}: unknown distribution {self.distribution!r}")
        if self.distribution == lk.GAUSSIAN and (self.sigma2 is None or self.sigma2 <= 0):
            raise ConfigurationError(f"tensor {self.id!r}: gaussian tensors need sigma2 > 0")


@dataclass
class SolverConfig:
    max_sweeps: int = 5000
    tol: float = 1e-6
    step0: float = 1e-2  # the first step only: later searches start where the last one ended
    backtrack: float = 0.5
    max_halvings: int = 30
    armijo_c: float = 1e-4
    log_every: int = 10

    def __post_init__(self):
        if self.tol <= 0 or self.step0 <= 0 or not (0.0 < self.backtrack < 1.0):
            raise ConfigurationError("solver config: tol > 0, step0 > 0, 0 < backtrack < 1 required")

    def to_dict(self):
        return {"max_sweeps": self.max_sweeps, "tol": self.tol, "step0": self.step0,
                "backtrack": self.backtrack, "max_halvings": self.max_halvings,
                "armijo_c": self.armijo_c, "log_every": self.log_every}

    @classmethod
    def from_dict(cls, d):
        known = {k: d[k] for k in cls().to_dict() if k in d}
        return cls(**known)


@dataclass
class ModelSpec:
    rank: int
    tensors: list
    regularizer: RegularizerConfig = field(default_factory=RegularizerConfig)
    init_seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigurationError("rank must be >= 1")
        ids = [t.id for t in self.tensors]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("tensor ids must be unique")

    @property
    def modality_order(self):
        """Unique modality names in first-reference order."""
        seen = []
        for t in self.tensors:
            for m in t.modalities:
                if m not in seen:
                    seen.append(m)
        return seen

    def to_dict(self):
        return {"rank": self.rank, "seed": self.init_seed,
                "tensors": [{"id": t.id, "modalities": list(t.modalities),
                             "distribution": t.distribution,
                             **({"sigma2": t.sigma2} if t.sigma2 is not None else {})}
                            for t in self.tensors],
                "regularizer": self.regularizer.to_dict(),
                "solver": self.solver.to_dict()}

    @classmethod
    def from_dict(cls, d):
        tensors = [InteractionTensorSpec(t["id"], list(t["modalities"]), t["distribution"],
                                         t.get("sigma2")) for t in d["tensors"]]
        return cls(rank=d["rank"], tensors=tensors,
                   regularizer=RegularizerConfig.from_dict(d.get("regularizer", {})),
                   init_seed=d.get("seed", 0),
                   solver=SolverConfig.from_dict(d.get("solver", {})))

    def save(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class Model:
    """A (possibly unfitted) collective model bound to its observations."""

    def __init__(self, spec, observations, shared, factors):
        self.spec = spec
        self.observations = observations
        self.shared = shared
        self.factors = factors  # modality name -> (I_n, R) array, one per name
        self.trace = None

    @property
    def shared_ids(self):
        return next(iter(self.observations.values())).shared_ids

    def terms(self):
        """Yield one record per (tensor, target modality) NLL term."""
        for tensor in self.spec.tensors:
            blocks = [self.factors[m] for m in tensor.modalities]
            for k, name in enumerate(tensor.modalities):
                obs = self.observations[name]
                kind = lk.ObservationKind(tensor.distribution, obs.kind.datatype)
                params = None
                if tensor.distribution == lk.GAUSSIAN:
                    params = lk.GaussianParams(tensor.sigma2, multiplicity(blocks, k))
                yield tensor, k, name, blocks, obs.values, kind, params


def build_model(spec, observations):
    """Validate spec against observations and allocate uniform(0,1) factors."""
    shared_ids = None
    for name, obs in observations.items():
        if shared_ids is None:
            shared_ids = obs.shared_ids
        elif obs.shared_ids != shared_ids:
            raise ConfigurationError(f"modality {name!r}: shared ids differ from other modalities")
    for tensor in spec.tensors:
        for name in tensor.modalities:
            if name not in observations:
                raise ConfigurationError(f"tensor {tensor.id!r} references unknown modality {name!r}")
            pair = (tensor.distribution, observations[name].kind.datatype)
            if pair not in lk.VALID_KINDS:
                raise ConfigurationError(
                    f"modality {name!r}: datatype {pair[1]!r} incompatible with "
                    f"distribution {pair[0]!r} of tensor {tensor.id!r}")

    rng = np.random.default_rng(spec.init_seed)
    n_patients = len(shared_ids)
    shared = rng.uniform(size=(n_patients, spec.rank))
    factors = {name: rng.uniform(size=(observations[name].n_items, spec.rank))
               for name in spec.modality_order}
    return Model(spec, observations, shared, factors)


def objective(model):
    """Sum of all marginal NLL terms plus both regularizers."""
    total = 0.0
    for _, k, _, blocks, V, kind, params in model.terms():
        vhat = reconstruct_marginal(model.shared, blocks, k)
        total += lk.nll(kind, V, vhat, params)
    return total + _regularization(model)


def _regularization(model):
    cfg = model.spec.regularizer
    return elastic_net(model.factors, cfg) + angular_penalty(model.factors, cfg)


def gradient_block(model, block):
    """d objective / d block, summed over every term the block participates in."""
    if block == SHARED:
        grad = np.zeros_like(model.shared)
    elif block in model.factors:
        grad = np.zeros_like(model.factors[block])
    else:
        raise ConfigurationError(f"unknown block {block!r}")

    for tensor, k, name, blocks, V, kind, params in model.terms():
        if block != SHARED and block not in tensor.modalities:
            continue
        scales = marginal_scales(blocks, k)
        vhat = (model.shared * scales) @ blocks[k].T
        G = lk.grad_nll_wrt_reconstruction(kind, V, vhat, params)
        if block == SHARED:
            grad += (G @ blocks[k]) * scales
        elif block == name:
            grad += (G.T @ model.shared) * scales
        else:
            # non-target modality: vhat depends on it only through its column sums
            j = tensor.modalities.index(block)
            w = (marginal_scales(blocks, k, j)
                 * np.einsum("ic,il,lc->c", model.shared, G, blocks[k]))
            grad += np.broadcast_to(w, grad.shape)

    if block != SHARED:
        cfg = model.spec.regularizer
        grad = grad + elastic_net_grad(model.factors[block], cfg)
        grad = grad + angular_penalty_grad(model.factors[block], cfg, block)
    return grad


def projected_step(values, grad, eval_objective, f_current, cfg, eta=None):
    """One backtracked projected gradient step, on a block or on its rows.

    Candidate = max(0, values - eta * grad); eta starts at the given step
    (cfg.step0 when None) and is multiplied by cfg.backtrack until the
    projected-direction Armijo condition holds or the halving budget is
    spent, and then the values stay unchanged. A scalar f_current makes the
    whole block one problem, and eval_objective(candidate) returns its
    objective. A vector f_current of length n (length 1 included) makes row
    i of the block an independent problem with its own step size (eta may
    then be a vector of n steps): each halving calls
    eval_objective(trial_rows, rows) with the trial values of the rows still
    searching and their indices, and it returns one value per row, each
    depending on that row alone. A zero projected step is stationary:
    accepted, unchanged, with no evaluation. Returns (new_values,
    new_objective, accepted, next_eta), the last three shaped like
    f_current. next_eta is where the next search should start (Lin 2007):
    the accepted step / cfg.backtrack, so the step can grow; the smallest
    step tried after a rejected search, so it keeps shrinking; and the given
    step for a stationary block or row.
    """
    by_row = np.ndim(f_current) != 0
    f = np.array(f_current, dtype=float).reshape(-1)
    rows = values.reshape(f.size, -1)
    step = grad.reshape(f.size, -1)
    out = rows.copy()
    pending = np.ones(f.size, dtype=bool)
    # every pending row has halved its step the same number of times
    eta = np.array(np.broadcast_to(cfg.step0 if eta is None else eta, f.shape), dtype=float)
    next_eta = eta.copy()
    for _ in range(cfg.max_halvings + 1):
        trial = np.maximum(0.0, rows - eta[:, None] * step)
        dist2 = np.add.reduce((trial - rows) ** 2, axis=1)
        pending &= dist2 != 0.0
        if not pending.any():
            break
        if by_row:
            idx = np.flatnonzero(pending)
            f_trial = f.copy()  # settled rows keep their value and are ignored
            f_trial[idx] = eval_objective(trial[idx], idx)
        else:
            f_trial = eval_objective(trial.reshape(values.shape))
        ok = pending & (f_trial <= f - cfg.armijo_c * dist2 / eta)
        if ok.any():
            out[ok] = trial[ok]
            f = np.where(ok, f_trial, f)
            pending &= ~ok
            next_eta[ok] = eta[ok] / cfg.backtrack
        next_eta[pending] = eta[pending]
        eta *= cfg.backtrack
    if not by_row:  # plain float and bool, as the JSON step log needs
        return out.reshape(values.shape), float(f[0]), not pending[0], float(next_eta[0])
    return out.reshape(values.shape), f, ~pending, next_eta


def project_patients(model, new_obs, cfg=None):
    """Representation of new patients under frozen modality factors.

    Solves the shared-row NLL minimization per row with projected gradient
    and per-row backtracking; rows are fully independent subproblems, and
    each row's search starts from the step its last search left (cfg.step0
    at first). Cold start at the column means of the trained shared factor.
    """
    cfg = cfg or model.spec.solver
    for tensor in model.spec.tensors:
        for name in tensor.modalities:
            if name not in new_obs:
                raise ConfigurationError(f"projection input missing modality {name!r}")
            obs = new_obs[name]
            if obs.kind.datatype != model.observations[name].kind.datatype:
                raise ConfigurationError(f"modality {name!r}: datatype differs from training data")
            if obs.n_items != model.observations[name].n_items:
                raise ConfigurationError(f"modality {name!r}: item dimension differs from training data")

    n_new = len(next(iter(new_obs.values())).shared_ids)
    S = np.tile(np.maximum(model.shared.mean(axis=0), 1e-6), (n_new, 1))
    frozen = Model(model.spec, new_obs, S, model.factors)

    def row_objective(S_rows, rows):
        f = np.zeros(len(rows))
        for _, k, _, blocks, V, kind, params in frozen.terms():
            vhat = (S_rows * marginal_scales(blocks, k)) @ blocks[k].T
            f += lk.nll_cells(kind, V[rows], vhat, params).sum(axis=1)
        return f

    f = row_objective(S, np.arange(n_new))
    active = np.ones(n_new, dtype=bool)  # rows converge independently
    eta = np.full(n_new, cfg.step0)
    for _ in range(cfg.max_sweeps):
        if not active.any():
            break
        frozen.shared = S
        g = gradient_block(frozen, SHARED)
        g[~active] = 0.0  # a zero step leaves a converged row as it is
        S_new, f_new, _, eta = projected_step(S, g, row_objective, f, cfg, eta)
        rel = np.abs(f - f_new) / np.maximum(1.0, np.abs(f))
        S, f = S_new, f_new
        active &= rel >= cfg.tol
    return S


def save_model(model, out_dir):
    """Persist spec.json, shared.csv, one factor CSV per modality, trace.json."""
    os.makedirs(out_dir, exist_ok=True)
    model.spec.save(os.path.join(out_dir, "spec.json"))
    write_factor_csv(os.path.join(out_dir, "shared.csv"), model.shared_ids, model.shared)
    for name, U in model.factors.items():
        write_factor_csv(os.path.join(out_dir, f"{name}.csv"),
                         model.observations[name].item_ids, U)
    if model.trace is not None:
        with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(model.trace.to_dict(), fh, indent=2)
            fh.write("\n")


def load_model(model_dir, observations):
    """Rebuild a fitted model from a saved directory plus its observations.

    Every saved factor must list the observations' entity ids in their
    order and have spec.rank finite, non-negative columns; a model saved
    against another manifest, or a negative or non-finite entry, raises
    IngestionError.
    """
    spec = ModelSpec.load(os.path.join(model_dir, "spec.json"))
    model = build_model(spec, observations)
    model.shared = _read_factor(os.path.join(model_dir, "shared.csv"), model.shared_ids,
                                spec.rank)
    for name in model.factors:
        model.factors[name] = _read_factor(os.path.join(model_dir, f"{name}.csv"),
                                           observations[name].item_ids, spec.rank)
    return model


def _read_factor(path, expected_ids, rank):
    ids, U = read_factor_csv(path)
    if ids != list(expected_ids):
        raise IngestionError(f"{path}: its {len(ids)} entity ids do not match the "
                             f"{len(expected_ids)} ids of the observations, in order")
    if U.shape[1] != rank:
        raise IngestionError(f"{path}: rank {U.shape[1]} differs from the spec's rank {rank}")
    if not np.all(np.isfinite(U)) or np.any(U < 0):
        raise IngestionError(f"{path}: factor entries must be finite and non-negative")
    return U
