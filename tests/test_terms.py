"""Sparse Poisson terms against the dense kernels they replace.

A Poisson term whose observations are mostly zero is evaluated on its
observed cells only (model.SPARSE_DENSITY picks which). Each case builds
the same model twice, once with every Poisson term sparse and once with
every term dense, and compares the objective, every block gradient and the
row NLL of row subsets. The one documented difference: the dense
Poisson-binary kernel floors vhat at EPS on every cell, the closed-form sum
of vhat does not, so the two differ by less than EPS on each cell with
vhat < EPS. The sparse kernels work a block of whole rows (or columns) at a
time; any block size gives the same bits.
"""

import tracemalloc

import numpy as np
import pytest

import margfact.model as mmodel
from margfact import (InteractionTensorSpec, ModelSpec, RegularizerConfig, SolverConfig,
                      build_model)
from margfact.likelihoods import BINARY, EPS
from margfact.model import SHARED, Term
from margfact.tensor import reconstruct_marginal

from helpers import make_obs

N_PATIENTS = 12
SIZES = {"A": 7, "B": 5, "C": 6}
KINDS = {"A": "integer", "B": "binary", "C": "integer"}


def random_cells(rng, shape, datatype, density=0.15):
    mask = rng.uniform(size=shape) < density
    values = rng.poisson(2.0, shape) + 1 if datatype == "integer" else np.ones(shape)
    return values * mask


def all_zero(rng, shape, datatype):
    return np.zeros(shape)


def empty_rows_and_columns(rng, shape, datatype):
    V = random_cells(rng, shape, datatype, density=0.4)
    V[[0, 3, shape[0] - 1]] = 0.0
    V[:, 1] = 0.0
    return V


def single_nonzero(rng, shape, datatype):
    V = np.zeros(shape)
    V[4, 2] = 3.0 if datatype == "integer" else 1.0
    return V


def long_row_and_column(rng, shape, datatype):
    V = random_cells(rng, shape, datatype)
    V[5] = random_cells(rng, (1, shape[1]), datatype, density=1.0)[0]
    V[:, 2] = random_cells(rng, (shape[0], 1), datatype, density=1.0)[:, 0]
    return V


CASES = {"random": random_cells, "all_zero": all_zero,
         "empty_rows_and_columns": empty_rows_and_columns, "single_nonzero": single_nonzero,
         "long_row_and_column": long_row_and_column}


def build(modalities, values, density, monkeypatch, zero_row=None, rank=3):
    spec = ModelSpec(rank=rank, tensors=[InteractionTensorSpec("t", list(modalities), "poisson")],
                     regularizer=RegularizerConfig(gamma=1e-3, beta=0.5), init_seed=5,
                     solver=SolverConfig(max_sweeps=20))  # bounds project_patients' sweeps
    obs = {m: make_obs(m, values[m], "poisson", KINDS[m]) for m in modalities}
    with monkeypatch.context() as patch:
        patch.setattr(mmodel, "SPARSE_DENSITY", density)
        model = build_model(spec, obs)
        model.compiled_terms()
    if zero_row is not None:
        model.shared[zero_row] = 0.0
    return model


def pair(modalities, case, monkeypatch, zero_row=None, rank=3):
    rng = np.random.default_rng(sorted(CASES).index(case) + 10 * len(modalities))
    values = {m: CASES[case](rng, (N_PATIENTS, SIZES[m]), KINDS[m]) for m in modalities}
    sparse = build(modalities, values, 1.01, monkeypatch, zero_row, rank)
    dense = build(modalities, values, 0.0, monkeypatch, zero_row, rank)
    assert all(t.cells is not None for t in sparse.compiled_terms())
    assert all(t.cells is None for t in dense.compiled_terms())
    return sparse, dense


def floored_cells(model, rows=None):
    """Cells per row (or in all) of Poisson-binary terms whose vhat is below EPS."""
    count = np.zeros(N_PATIENTS)
    for term in model.compiled_terms():
        if term.kind.datatype == BINARY:
            vhat = reconstruct_marginal(model.shared, term.blocks(model.factors), term.k)
            count += (vhat < EPS).sum(axis=1)
    return count.sum() if rows is None else count[rows]


def assert_rows_close(got, want):
    """Within 1e-12 of the largest entry of the same row."""
    got, want = np.atleast_2d(got), np.atleast_2d(want)
    scale = np.maximum(np.abs(want).max(axis=1, keepdims=True), 1.0)
    assert np.all(np.abs(got - want) <= 1e-12 * scale), np.max(np.abs(got - want) / scale)


MODALITY_SETS = [("A", "B"), ("A", "B", "C")]


@pytest.mark.parametrize("modalities", MODALITY_SETS, ids=["2-way", "3-way"])
@pytest.mark.parametrize("case", sorted(CASES) + ["zeroed_shared_row"])
def test_sparse_terms_match_dense(modalities, case, monkeypatch):
    zero_row = 2 if case == "zeroed_shared_row" else None
    sparse, dense = pair(modalities, "random" if zero_row is not None else case, monkeypatch,
                         zero_row)

    f_sparse, f_dense = mmodel.objective(sparse), mmodel.objective(dense)
    slack = EPS * floored_cells(dense)
    assert abs(f_sparse - f_dense) <= 1e-12 * abs(f_dense) + slack

    for block in [SHARED] + list(modalities):
        assert_rows_close(mmodel.gradient_block(sparse, block),
                          mmodel.gradient_block(dense, block))

    rng = np.random.default_rng(0)
    subsets = [np.arange(0), np.array([zero_row or 0]), rng.permutation(N_PATIENTS)[:5],
               np.arange(N_PATIENTS)]
    for rows in subsets:
        S = sparse.shared[rows]
        got = sum(t.nll(S, sparse.factors, rows) for t in sparse.compiled_terms())
        want = sum(t.nll(S, dense.factors, rows) for t in dense.compiled_terms())
        assert np.shape(got) == np.shape(want) == (rows.size,)
        slack = EPS * floored_cells(dense, rows)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + slack)
        for t_sparse, t_dense in zip(sparse.compiled_terms(), dense.compiled_terms()):
            assert_rows_close(t_sparse.gradient(S, sparse.factors, rows=rows),
                              t_dense.gradient(S, dense.factors, rows=rows))


@pytest.mark.parametrize("distribution,density,sparse", [
    ("poisson", 0.02, True), ("poisson", 0.6, False), ("gaussian", 0.02, False)])
def test_density_rule(distribution, density, sparse):
    rng = np.random.default_rng(1)
    n, m = 100, 50
    V = np.zeros(n * m)
    V[rng.choice(n * m, size=round(density * n * m), replace=False)] = 1.0
    kind = ("poisson", "integer") if distribution == "poisson" else ("gaussian", "real")
    obs = make_obs("A", V.reshape(n, m), *kind)
    tensor = InteractionTensorSpec("t", ["A"], distribution,
                                   1.0 if distribution == "gaussian" else None)
    assert (Term(tensor, 0, obs, 1).cells is not None) is sparse


@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("modalities", MODALITY_SETS, ids=["2-way", "3-way"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_blocks_give_the_one_block_result_bit_for_bit(modalities, case, rank, monkeypatch):
    sparse, _ = pair(modalities, case, monkeypatch, rank=rank)
    rows = np.random.default_rng(0).permutation(N_PATIENTS)[:7]
    block = 2
    if case == "long_row_and_column":
        cells = [t.cells for t in sparse.compiled_terms()]
        assert max(np.diff(c.indptr).max() for c in cells) > block
        assert max(np.diff(c.col_ptr).max() for c in cells) > block

    def outputs(block_cells):
        with monkeypatch.context() as patch:
            patch.setattr(mmodel, "BLOCK_CELLS", block_cells)
            patch.setattr(mmodel, "SPARSE_DENSITY", 1.01)  # the projected rows' terms too
            out = [mmodel.objective(sparse)]
            out += [mmodel.gradient_block(sparse, b) for b in [SHARED, *modalities]]
            S = sparse.shared[rows]
            for t in sparse.compiled_terms():
                out += [t.nll(S, sparse.factors, rows), t.gradient(S, sparse.factors, rows=rows)]
            out.append(mmodel.project_patients(sparse, sparse.observations))
        return out

    for got, want in zip(outputs(block), outputs(10 ** 9), strict=True):
        assert np.array_equal(got, want)


def test_shared_gradient_memory_is_bounded_by_the_block(monkeypatch):
    """The (cells x rank) temporaries of a sparse term's shared gradient are a
    few blocks' worth, however many cells the term has."""
    rank, block = 8, 512
    V = random_cells(np.random.default_rng(2), (4000, 200), "integer", density=0.08)
    spec = ModelSpec(rank=rank, tensors=[InteractionTensorSpec("t", ["A"], "poisson")])
    model = build_model(spec, {"A": make_obs("A", V, "poisson", "integer")})
    monkeypatch.setattr(mmodel, "BLOCK_CELLS", block)
    mmodel.gradient_block(model, SHARED)  # compiles the term
    assert model.compiled_terms()[0].cells is not None

    tracemalloc.start()
    try:
        mmodel.gradient_block(model, SHARED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 3 * model.shared.nbytes + 16 * block * rank * 8
    assert bound < np.count_nonzero(V) * rank * 8 / 2
    assert peak < bound
