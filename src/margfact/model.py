"""Collective model assembly: tensors, tied factors, objective, gradients.

A model holds one shared entity factor plus exactly one factor matrix per
modality name; tensors referencing the same modality share that storage
(the tying constraint). The objective is the sum of each tensor's
per-target-marginal NLL terms plus the two regularizers.

The NLL terms are compiled once, on a model's first evaluation, into a
list of `Term`s; the observations are read-only from then on. A Poisson
term whose observations are nonzero on fewer than SPARSE_DENSITY of its
cells keeps those cells as index/value arrays and is evaluated on them
alone, as in CP-APR (Chi & Kolda 2012): sum(vhat) is closed-form in the
column sums, the log term and the gradient weight V / vhat live on the
observed cells. It keeps them in two orders, both built at compile time:
row by row and column by column. Every other term runs the dense kernels on
the whole matrix. objective, gradient_block and project_patients all go
through the compiled list.

Every sparse gradient is one product summed per run of cells, Gᵀ X with
G = 1 - W: the shared gradient runs it on the cells row by row (X the
scaled item factor), a modality's on the cells column by column (X = S), as
M = Gᵀ S. The target's gradient is M times the column scales; any other
modality of the tensor reaches vhat only through its column sums, so its
gradient is that column-sum scale times sum_l M_l * B_l.

The sparse kernels gather the factor rows at the cells a block of whole runs
at a time, each block holding about BLOCK_CELLS cells. So no temporary grows
with cells x rank: the fit's memory is set by the block, not by the
observations, and each block's gathers stay in cache. Per-run sums never
cross a block, and a sum over all cells runs on a whole per-cell vector, so
every block size gives the same bits.

One line search, projected_step, serves every block and the projection of
new patients, in two step forms: an additive step size per row, and a step
per entry scaled by t, which the shared block of an all-Poisson model takes
as em_step's EM update.
"""

import os
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import likelihoods as lk
from .data_io import check_modality_name, load_factors, read_json, save_factors, write_json
from .errors import ConfigurationError, Settings, check_keys, check_setting
from .regularizers import (RegularizerConfig, angular_penalty_grad, angular_sum,
                           elastic_net_grad, elastic_net_sum)
# imported only because bench/tracer.py wraps these names on this module;
# the objective adds the per-modality sums instead, so until the tracer binds
# those its two whole-penalty spans read 0 calls
from .regularizers import angular_penalty, elastic_net  # noqa: F401
from .tensor import marginal_scales, multiplicity, reconstruct_marginal

SHARED = "shared"  # the shared block's name; check_modality_name keeps it from any modality

#: Armijo sufficient-decrease constant, step shrink factor and halving budget
#: of the projected line search
ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_HALVINGS = 30

#: CP-APR's shift for inadmissible zeros (Chi & Kolda 2012): an entry of an
#: EM-stepped block below it whose gradient is negative is scaled as KAPPA
KAPPA = 1e-10

#: A Poisson term is evaluated on its observed cells alone when fewer than
#: this share of its cells are nonzero. Measured on one core for 500x30
#: (rank 5) and 9,000x500 (rank 20) matrices, objective plus gradients: the
#: cells are 1.5-12x faster at 2% nonzero, about even at 10%, and up to
#: 4.7x slower at 20-30%, where the per-cell gathers outweigh the dense
#: products.
SPARSE_DENSITY = 0.1

#: Sparse kernels gather factor rows for about this many cells at a time, in
#: whole rows (a longer row is a block alone). A one-sweep fit of the
#: benchmark's 10k-patient cohort (9,000 x 500 and 9,000 x 300 at 2-3%
#: nonzero, rank 20, one core, median of 11) took 0.252 / 0.241 / 0.246 /
#: 0.247 / 0.256 / 0.315 s with blocks of 1,024 / 2,048 / 4,096 / 8,192 /
#: 16,384 / 65,536 cells and 0.359 s in one block; its allocations peaked
#: 13.7 MB above the model at 4,096 cells (mostly compiling the terms),
#: 21.5 MB at 16,384 and 65.5 MB in one block.
BLOCK_CELLS = 1 << 12


@dataclass
class InteractionTensorSpec(Settings):
    id: str
    modalities: list
    distribution: str  # "poisson" | "gaussian"
    sigma2: float = None  # gaussian tensors only

    def __post_init__(self):
        if not (isinstance(self.id, str) and isinstance(self.modalities, list | tuple)
                and self.modalities):
            raise ConfigurationError(f"tensor {self.id!r}: the id must be a string and the "
                                     "modalities a list of at least one name")
        for m in self.modalities:
            check_modality_name(m, ConfigurationError)
        if len(set(self.modalities)) != len(self.modalities):
            raise ConfigurationError(f"tensor {self.id!r} lists a modality more than once")
        if self.distribution == lk.GAUSSIAN:
            check_setting(f"tensor {self.id!r}", "sigma2", self.sigma2, 0, open_low=True)
        elif self.distribution != lk.POISSON:
            raise ConfigurationError(f"tensor {self.id!r}: unknown distribution {self.distribution!r}")
        elif self.sigma2 is not None:
            raise ConfigurationError(f"tensor {self.id!r}: a poisson tensor takes no sigma2")


@dataclass
class SolverConfig(Settings):
    max_sweeps: int = 5000
    tol: float = 1e-6
    # the first additive step only: later searches start where the last one
    # ended, and an all-Poisson fit's shared block takes the EM step instead
    step0: float = 1e-2
    log_every: int = 10
    # settings that became the constants ARMIJO_C, BACKTRACK and MAX_HALVINGS
    RETIRED = ("armijo_c", "backtrack", "max_halvings")

    def __post_init__(self):
        check_setting("solver", "max_sweeps", self.max_sweeps, 0, integral=True)
        check_setting("solver", "tol", self.tol, 0, open_low=True)
        check_setting("solver", "step0", self.step0, 0, open_low=True)
        check_setting("solver", "log_every", self.log_every, 1, integral=True)


@dataclass
class ModelSpec:
    rank: int
    tensors: list
    regularizer: RegularizerConfig = field(default_factory=RegularizerConfig)
    init_seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        check_setting("spec", "rank", self.rank, 1, integral=True)
        check_setting("spec", "seed", self.init_seed, 0, integral=True)
        if not isinstance(self.tensors, list | tuple) or not self.tensors:
            raise ConfigurationError("spec: tensors must be a list of at least one tensor")
        ids = [t.id for t in self.tensors]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("tensor ids must be unique")
        theta = self.regularizer.theta
        if isinstance(theta, dict) and set(theta) != set(self.modality_order):
            raise ConfigurationError(f"regularizer: theta names {list(theta)}, not the spec's "
                                     f"modalities {self.modality_order}")

    @property
    def modality_order(self):
        """Unique modality names in first-reference order."""
        return list(dict.fromkeys(m for t in self.tensors for m in t.modalities))

    def to_dict(self):
        return {"rank": self.rank, "seed": self.init_seed,
                "tensors": [t.to_dict() for t in self.tensors],
                "regularizer": self.regularizer.to_dict(),
                "solver": self.solver.to_dict()}

    @classmethod
    def from_dict(cls, d, source="model spec"):
        """Inverse of to_dict; malformed input raises ConfigurationError naming source."""
        try:
            check_keys("spec", d, ("rank", "seed", "tensors", "regularizer", "solver"))
            tensors = d["tensors"]
            if isinstance(tensors, list):  # ModelSpec refuses any other value
                tensors = [InteractionTensorSpec.from_dict(t, f"tensor {i}")
                           for i, t in enumerate(tensors)]
            return cls(rank=d["rank"], tensors=tensors,
                       regularizer=RegularizerConfig.from_dict(d.get("regularizer", {}),
                                                               "regularizer"),
                       init_seed=d.get("seed", 0),
                       solver=SolverConfig.from_dict(d.get("solver", {}), "solver"))
        except KeyError as exc:
            raise ConfigurationError(f"{source}: missing key {exc}") from exc
        except ConfigurationError as exc:
            raise ConfigurationError(f"{source}: {exc}") from exc

    def save(self, path):
        write_json(path, self.to_dict(), sort_keys=True)

    @classmethod
    def load(cls, path):
        return cls.from_dict(read_json(path), source=path)


def _run_pointers(index, n):
    """Start of each of n runs of a sorted index array, plus its end."""
    return np.concatenate(([0], np.cumsum(np.bincount(index, minlength=n))))


def _run_sums(x, ptr):
    """Sums of x over the runs x[ptr[i]:ptr[i + 1]] along axis 0; 0 for an empty run."""
    out = np.zeros((ptr.size - 1,) + x.shape[1:])
    full = ptr[:-1] < ptr[1:]
    out[full] = np.add.reduceat(x, ptr[:-1][full], axis=0)
    return out


#: Cells in runs (CSR): each cell's row of Y and its value as V stores it, and
#: the runs' pointers; run i is row i of X. A run is a row of the observations
#: (X = S, Y the items) or, transposed, a column (X the items, Y = S).
Selection = namedtuple("Selection", "Y_row val ptr")

#: One block of a Selection: its runs and cells (slices), Y at the cells,
#: vhat there and the runs' pointers within the block.
Block = namedtuple("Block", "runs cells Y vhat ptr")


#: A sparse term's cells in its two orders: by_row, runs = rows (X = S, Y
#: the items), and by_col, rows and columns swapped, runs = columns.
CellOrders = namedtuple("CellOrders", "by_row by_col")


def _cells(V):
    """The nonzero cells of V in both CellOrders, by_col stably sorted by
    column; the values keep V's dtype (bool or a narrow unsigned integer),
    which the Poisson kernels promote to float64 exactly. Each order keeps an
    int32 index and a one-byte value (bool or uint8 V) a cell, and its runs'
    pointers: a 2,000 x 1,000 V at 2% holds 10.6 bytes a cell. One flat scan
    finds the cells, and rows, then columns, are cut from its index one at a
    time, so building both peaks at 22.4 bytes a cell (tracemalloc). The sort
    key is the narrowest unsigned type that holds a column, which numpy
    radix-sorts at 8 and 16 bits; a stable order is the same whatever the
    key's type."""
    n_cols = V.shape[1]
    flat = np.flatnonzero(V)
    rows = (flat // n_cols).astype(np.int32)
    cols = np.remainder(flat, n_cols, out=flat).astype(np.int32)
    del flat
    val = V[rows, cols]
    by_row = Selection(cols, val, _run_pointers(rows, V.shape[0]))
    at = np.argsort(cols.astype(np.min_scalar_type(n_cols - 1)), kind="stable")
    rows, val = rows[at], val[at]
    del at
    return CellOrders(by_row, Selection(rows, val, _run_pointers(cols, n_cols)))


def _select(sel, rows):
    """The Selection of sel's runs `rows`, in that order, with X holding those
    rows alone; sel itself when rows is None."""
    if rows is None:
        return sel
    lo = sel.ptr[rows]
    counts = sel.ptr[rows + 1] - lo
    ptr = np.concatenate(([0], np.cumsum(counts)))
    pos = np.arange(ptr[-1]) + np.repeat(lo - ptr[:-1], counts)
    return Selection(sel.Y_row[pos], sel.val[pos], ptr)


def _row_blocks(X, Y, sel):
    """The Blocks of a Selection, in order: consecutive whole runs holding at
    most BLOCK_CELLS cells, unless a block is one longer run."""
    ptr, start, n = sel.ptr, 0, sel.ptr.size - 1
    while start < n:
        stop = n if ptr[n] - ptr[start] <= BLOCK_CELLS else max(
            int(np.searchsorted(ptr, ptr[start] + BLOCK_CELLS, "right")) - 1, start + 1)
        lo, hi, counts = ptr[start], ptr[stop], np.diff(ptr[start:stop + 1])
        X_at, Y_at = np.repeat(X[start:stop], counts, axis=0), Y.take(sel.Y_row[lo:hi], axis=0)
        yield Block(slice(start, stop), slice(lo, hi), Y_at,
                    np.einsum("ij,ij->i", X_at, Y_at), ptr[start:stop + 1] - lo)
        start = stop


class Term:
    """One (tensor, target modality) NLL term, compiled once per model.

    The methods take the shared rows S and the model's factor dict, so a
    term never holds factor values. `cells` is the CellOrders of a sparse
    Poisson term's observed cells and None for a dense one. V is the
    observations as stored (bool or an unsigned integer for the binary and
    integer kinds) in a sparse term, which reads them only to build its
    cells, and as float64 in a dense one, whose kernels read every cell.
    `wide`, a dict the terms of one model share, maps each modality to that
    float64 copy, so a modality is converted once however many dense terms
    read it.
    """

    def __init__(self, tensor, k, obs, t_n, wide=None):
        self.tensor, self.k, self.name = tensor, k, tensor.modalities[k]
        self.kind = lk.tensor_kind(tensor, self.name, obs.kind.datatype)
        self.params = (lk.GaussianParams(tensor.sigma2, t_n)
                       if tensor.distribution == lk.GAUSSIAN else None)
        sparse = (tensor.distribution == lk.POISSON
                  and np.count_nonzero(obs.values) < SPARSE_DENSITY * obs.values.size)
        if sparse:
            self.V, self.cells = obs.values, _cells(obs.values)
        else:
            wide = {} if wide is None else wide
            if self.name not in wide:
                wide[self.name] = np.asarray(obs.values, dtype=float)
            self.V, self.cells = wide[self.name], None

    def blocks(self, factors):
        return [factors[m] for m in self.tensor.modalities]

    def nll(self, S, factors, rows=None):
        """The term's NLL with S the whole shared block, or, given rows, one
        value per row with S holding those shared rows."""
        blocks = self.blocks(factors)
        if self.cells is None:
            vhat = reconstruct_marginal(S, blocks, self.k)
            if rows is None:
                return lk.nll(self.kind, self.V, vhat, self.params)
            return lk.nll_cells(self.kind, self.V[rows], vhat, self.params).sum(axis=1)
        Bs = blocks[self.k] * marginal_scales(blocks, self.k)
        sel = _select(self.cells.by_row, rows)
        vhat = np.empty(sel.val.size)
        for b in _row_blocks(S, Bs, sel):
            vhat[b.cells] = b.vhat
        log_term = lk.poisson_log_term(self.kind.datatype, sel.val, vhat)
        if rows is None:  # sum(vhat) is closed-form in the column sums
            return float(S.sum(axis=0) @ Bs.sum(axis=0) - np.sum(log_term))
        return S @ Bs.sum(axis=0) - _run_sums(log_term, sel.ptr)

    def gradient(self, S, factors, block=SHARED, rows=None):
        """d NLL / d block, for SHARED (of the rows `rows` that S holds, all when
        None) or, with every row, for a modality of the tensor (a length-R
        row, the same for every item, when it is not the target)."""
        blocks = self.blocks(factors)
        B = blocks[self.k]
        scales = marginal_scales(blocks, self.k)
        j = None if block == SHARED else self.tensor.modalities.index(block)
        if self.cells is None:
            V = self.V if rows is None else self.V[rows]
            vhat = reconstruct_marginal(S, blocks, self.k)
            G = lk.grad_nll_wrt_reconstruction(self.kind, V, vhat, self.params)
            if j is None:
                return (G @ B) * scales
            if j == self.k:
                return (G.T @ S) * scales
            # non-target modality: vhat depends on it only through its column sums
            return marginal_scales(blocks, self.k, j) * np.einsum("ic,il,lc->c", S, G, B)
        Bs = B * scales
        if j is None:
            return self._g_sums(S, Bs, _select(self.cells.by_row, rows))
        M = self._g_sums(Bs, S, self.cells.by_col)  # Gᵀ S
        if j == self.k:
            return M * scales
        return marginal_scales(blocks, self.k, j) * np.einsum("lc,lc->c", M, B)

    def _g_sums(self, X, Y, sel):
        """Per run of sel, the G-weighted sum of Y's rows, G = 1 - W with W =
        poisson_weight nonzero on the observed cells only: sum(Y) less the sum
        of W * Y over the run's cells."""
        out, Y_sum = np.empty((sel.ptr.size - 1, Y.shape[1])), Y.sum(axis=0)
        for b in _row_blocks(X, Y, sel):
            W = lk.poisson_weight(self.kind.datatype, sel.val[b.cells], b.vhat)
            out[b.runs] = Y_sum - _run_sums(W[:, None] * b.Y, b.ptr)
        return out


class Model:
    """A (possibly unfitted) collective model bound to its observations.

    The observations must not change once the model has been evaluated:
    its terms are compiled from them then.
    """

    def __init__(self, spec, observations, shared, factors):
        self.spec = spec
        self.observations = observations
        self.shared = shared
        self.factors = factors  # modality name -> (I_n, R) array, one per name
        self.trace = None
        self._terms = None

    def compiled_terms(self):
        """One Term per (tensor, target modality), built on the first call; the
        dense terms of one modality read one float64 copy of it."""
        if self._terms is None:
            wide = {}
            self._terms = [
                Term(tensor, k, self.observations[name],
                     multiplicity([self.factors[m] for m in tensor.modalities], k), wide)
                for tensor in self.spec.tensors for k, name in enumerate(tensor.modalities)]
        return self._terms

    # kept only because bench/workloads.py reads it; the library uses compiled_terms()
    def terms(self):
        """Yield (tensor, k, name, blocks, values, kind, params) per compiled term."""
        for term in self.compiled_terms():
            yield (term.tensor, term.k, term.name, term.blocks(self.factors), term.V,
                   term.kind, term.params)


def _check_observations(spec, observations):
    """The patient ids all observations share; spec's modalities must be present,
    each with a datatype its tensor's distribution allows (lk.tensor_kind)."""
    shared_ids = next((obs.shared_ids for obs in observations.values()), None)
    for name, obs in observations.items():
        if obs.shared_ids != shared_ids:
            raise ConfigurationError(f"modality {name!r}: shared ids differ from other modalities")
    for tensor in spec.tensors:
        for name in tensor.modalities:
            if name not in observations:
                raise ConfigurationError(f"tensor {tensor.id!r} references unknown modality {name!r}")
            lk.tensor_kind(tensor, name, observations[name].kind.datatype)
    return shared_ids


def build_model(spec, observations):
    """Validate spec against observations and allocate uniform(0,1) factors."""
    shared_ids = _check_observations(spec, observations)
    rng = np.random.default_rng(spec.init_seed)
    shared = rng.uniform(size=(len(shared_ids), spec.rank))
    factors = {name: rng.uniform(size=(observations[name].n_items, spec.rank))
               for name in spec.modality_order}
    return Model(spec, observations, shared, factors)


def objective(model, block=None, parts=None, values=None):
    """Sum of all marginal NLL terms plus both regularizers, with block
    holding values when they are given: the model itself is never written.

    The sum is made of parts: each compiled term's NLL, added in
    compiled_terms() order, then gamma and beta times the sums of each
    modality's unweighted elastic-net and angular penalties, in factor
    order. Given a parts dict, objective stores every part it computes
    there. Given a block as well, it computes the parts that block touches
    and the parts the dict lacks, and reads the others from parts, which
    must hold them for a point that differs from the evaluated one in that
    block alone: the shared block touches every term and no penalty (it is
    never regularized), a modality the terms of the tensors that list it and
    its own two penalties. Every form returns the same float.
    """
    if block not in (None, SHARED) and block not in model.factors:
        raise ConfigurationError(f"unknown block {block!r}")
    shared, factors = model.shared, model.factors
    if values is not None:
        if block is None:
            raise ConfigurationError("values given for no block")
        shared, factors = ((values, factors) if block == SHARED
                           else (shared, {**factors, block: values}))
    parts = {} if parts is None else parts
    cfg = model.spec.regularizer
    terms = model.compiled_terms()
    for i, term in enumerate(terms):
        if block in (None, SHARED) or block in term.tensor.modalities or i not in parts:
            parts[i] = term.nll(shared, factors)
    for name, U in factors.items():
        if block in (None, name) or ("elastic_net", name) not in parts:
            parts["elastic_net", name] = elastic_net_sum(U, cfg)
            parts["angular", name] = angular_sum(U, cfg, name)
    total = 0.0
    for i in range(len(terms)):
        total += parts[i]
    return total + (cfg.gamma * sum(parts["elastic_net", name] for name in factors)
                    + cfg.beta * sum(parts["angular", name] for name in factors))


def gradient_block(model, block):
    """d objective / d block, summed over every term the block participates in."""
    if block == SHARED:
        grad = np.zeros_like(model.shared)
    elif block in model.factors:
        grad = np.zeros_like(model.factors[block])
    else:
        raise ConfigurationError(f"unknown block {block!r}")

    for term in model.compiled_terms():
        if block == SHARED or block in term.tensor.modalities:
            grad += term.gradient(model.shared, model.factors, block)

    if block != SHARED:
        cfg = model.spec.regularizer
        grad = grad + elastic_net_grad(model.factors[block], cfg)
        grad = grad + angular_penalty_grad(model.factors[block], cfg, block)
    return grad


def em_step(model, x, grad):
    """The per-entry step of an all-Poisson shared block: D = x~ / P.

    P = sum over terms of prod_m colsum(B_m) is the gradient of the terms'
    sum(vhat), one R-vector for every row, and the positive part of grad =
    P - N, N >= 0. At t = 1 the trial max(0, x - t * D * grad) is then the
    multiplicative EM/MM update x * N / P, which never raises the NLL (Lee &
    Seung 2001; CP-APR, Chi & Kolda 2012). x~ is x except KAPPA where x <
    KAPPA and grad < 0 (CP-APR's shift), so an entry at zero that the
    gradient pulls up can leave it; D is 0 where P is 0, which leaves those
    entries unmoved.
    """
    P = sum(marginal_scales(term.blocks(model.factors)) for term in model.compiled_terms())
    x_tilde = np.where((x < KAPPA) & (grad < 0), KAPPA, x)
    return np.divide(x_tilde, P, out=np.zeros_like(x_tilde), where=P > 0)


def projected_step(values, grad, eval_rows, f_current, eta):
    """One backtracked projected gradient step on each row of a block.

    Row i of values is an independent problem with objective f_current[i];
    a whole block is one row. eta is its step in one of two forms:

    - per row: eta[i] (a scalar eta serves every row). The row's candidate
      is max(0, row - eta * grad_row), and the Armijo test is f_trial <= f -
      ARMIJO_C * ||trial - row||^2 / eta;
    - per entry: a 2-D eta of values' shape, D. The candidate is max(0, row
      - t * D * grad_row) from t = 1, and the test is f_trial <= f -
      ARMIJO_C * sum over D > 0 of (trial - row)^2 / (t * D).

    The step (eta or t) is multiplied by BACKTRACK until the test holds or
    MAX_HALVINGS halvings are spent, and then the row stays unchanged. Each
    halving calls eval_rows(trial_rows, rows) with the trial values of the
    rows still searching and their indices, and it returns one value per
    row, each depending on that row alone. A zero projected step is
    stationary: accepted, unchanged, with no evaluation. Returns
    (new_values, new_objective, accepted, next_eta), the last three one
    entry per row. Per row, next_eta is where the row's next search should
    start (Lin 2007): the accepted step / BACKTRACK, so the step can grow;
    the smallest step tried after a rejected search, so it keeps shrinking;
    and the given step for a stationary row. Per entry, every search starts
    at t = 1 and next_eta is the t it ended on: the accepted t, the smallest
    t tried, or 1.
    """
    f = np.array(f_current, dtype=float)
    rows = values.reshape(f.size, -1)
    step = grad.reshape(f.size, -1)
    out = rows.copy()
    pending = np.ones(f.size, dtype=bool)
    per_entry = np.ndim(eta) == 2
    D = np.asarray(eta, dtype=float).reshape(rows.shape) if per_entry else 1.0
    # every pending row has halved its step (eta or t) the same number of times
    eta = np.ones(f.size) if per_entry else np.array(np.broadcast_to(eta, f.shape), dtype=float)
    next_eta = eta.copy()
    for _ in range(MAX_HALVINGS + 1):
        trial = np.maximum(0.0, rows - eta[:, None] * D * step)
        moved2 = (trial - rows) ** 2
        dist2 = np.add.reduce(moved2, axis=1)
        pending &= dist2 != 0.0
        if not pending.any():
            break
        idx = np.flatnonzero(pending)
        f_trial = f.copy()  # settled rows keep their value and are ignored
        f_trial[idx] = eval_rows(trial[idx], idx)
        if per_entry:
            dist2 = np.add.reduce(np.divide(moved2, D, out=np.zeros_like(D), where=D > 0), axis=1)
        ok = pending & (f_trial <= f - ARMIJO_C * dist2 / eta)
        out[ok] = trial[ok]
        f = np.where(ok, f_trial, f)
        pending &= ~ok
        next_eta[ok] = eta[ok] if per_entry else eta[ok] / BACKTRACK
        next_eta[pending] = eta[pending]
        eta *= BACKTRACK
    return out.reshape(values.shape), f, ~pending, next_eta


def project_patients(model, new_obs):
    """Representation of new patients under frozen modality factors.

    Solves the shared-row NLL minimization per row with projected gradient
    and per-row backtracking, under the model's own solver settings; rows
    are fully independent subproblems, and each row's search starts from
    the step its last search left (step0 at first). A row stops once a
    sweep lowers its NLL by less than tol (relative); each sweep
    differentiates and evaluates only the rows still active. Cold start at
    the column means of the trained shared factor. new_obs must pass
    build_model's checks and match the training datatypes and item order.
    """
    cfg = model.spec.solver
    n_new = len(_check_observations(model.spec, new_obs))
    for name in model.spec.modality_order:
        obs, trained = new_obs[name], model.observations[name]
        if (obs.kind.datatype, obs.item_ids) != (trained.kind.datatype, trained.item_ids):
            raise ConfigurationError(f"modality {name!r}: datatype or item ids (in order) "
                                     "differ from the training data")

    S = np.tile(np.maximum(model.shared.mean(axis=0), 1e-6), (n_new, 1))
    terms = Model(model.spec, new_obs, S, model.factors).compiled_terms()

    def row_objective(S_rows, rows):
        f = np.zeros(len(rows))
        for term in terms:
            f += term.nll(S_rows, model.factors, rows)
        return f

    f = row_objective(S, np.arange(n_new))
    active = np.ones(n_new, dtype=bool)  # rows converge independently
    eta = np.full(n_new, cfg.step0)
    for _ in range(cfg.max_sweeps):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        S_active = S[rows]
        g = np.zeros_like(S_active)
        for term in terms:
            g += term.gradient(S_active, model.factors, rows=rows)
        S_new, f_new, _, eta[rows] = projected_step(
            S_active, g, lambda trial, idx: row_objective(trial, rows[idx]), f[rows], eta[rows])
        rel = np.abs(f[rows] - f_new) / np.maximum(1.0, np.abs(f[rows]))
        S[rows], f[rows] = S_new, f_new
        active[rows] = rel >= cfg.tol
    return S


def save_model(model, out_dir):
    """Persist spec.json, shared.csv, one factor CSV per modality, trace.json."""
    save_factors(out_dir, model.shared, model.factors, model.observations)
    model.spec.save(os.path.join(out_dir, "spec.json"))
    if model.trace is not None:
        write_json(os.path.join(out_dir, "trace.json"), model.trace.to_dict())


def load_model(model_dir, observations):
    """Rebuild a fitted model from a saved directory plus its observations;
    a model saved against other observations raises IngestionError."""
    spec = ModelSpec.load(os.path.join(model_dir, "spec.json"))
    _check_observations(spec, observations)
    shared, factors = load_factors(model_dir, spec.modality_order, observations, spec.rank)
    return Model(spec, observations, shared, factors)
