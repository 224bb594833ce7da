"""Sparse Poisson terms against the dense kernels they replace.

A Poisson term whose observations are mostly zero is evaluated on its
observed cells only (model.SPARSE_DENSITY picks which). Each case builds
the same model twice, once with every Poisson term sparse and once with
every term dense, and compares the objective, every block gradient and the
row NLL of row subsets. Both apply the one formula of each law (an absent
cell's NLL is vhat, down to vhat = 0), so they differ only by the order of
summation. The sparse kernels work a block of whole rows (or columns) at a
time; any block size gives the same bits.
"""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

import margfact.model as mmodel
from margfact import (InteractionTensorSpec, ModelSpec, RegularizerConfig, SolverConfig,
                      build_model, synth_generate)
from margfact.model import SHARED, Term
from margfact.tensor import multiplicity

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
    assert abs(f_sparse - f_dense) <= 1e-12 * abs(f_dense)

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
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
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
        assert max(np.diff(c.by_row.ptr).max() for c in cells) > block
        assert max(np.diff(c.by_col.ptr).max() for c in cells) > block

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


@pytest.mark.parametrize("case", sorted(CASES))
def test_column_order_is_the_row_order_stably_sorted_by_column(case, monkeypatch):
    sparse, _ = pair(("A", "B", "C"), case, monkeypatch)
    for term in sparse.compiled_terms():
        by_row, by_col = term.cells.by_row, term.cells.by_col
        row_runs, col_runs = (np.repeat(np.arange(sel.ptr.size - 1), np.diff(sel.ptr))
                              for sel in (by_row, by_col))
        rows, cols = np.nonzero(term.V)
        assert np.array_equal(row_runs, rows) and np.array_equal(by_row.Y_row, cols)
        assert np.array_equal(by_row.val, term.V[rows, cols])
        assert by_row.val.dtype == by_col.val.dtype == term.V.dtype
        assert np.array_equal(np.diff(by_row.ptr), np.count_nonzero(term.V, axis=1))
        triples = list(zip(row_runs.tolist(), by_row.Y_row.tolist(), by_row.val.tolist()))
        swapped = list(zip(by_col.Y_row.tolist(), col_runs.tolist(), by_col.val.tolist()))
        assert swapped == sorted(triples, key=lambda cell: cell[1])
        assert np.array_equal(np.diff(by_col.ptr), np.count_nonzero(term.V, axis=0))
        assert {a.dtype for a in (by_row.Y_row, by_col.Y_row)} == {np.dtype(np.int32)}


def brute_cells(V):
    """_cells' two orders by np.nonzero and a stable int64 argsort of the columns."""
    rows, cols = np.nonzero(V)
    at = np.argsort(cols.astype(np.int64), kind="stable")
    by_row = (cols, V[rows, cols], np.concatenate(([0], np.cumsum(np.count_nonzero(V, axis=1)))))
    by_col = (rows[at], V[rows[at], cols[at]],
              np.concatenate(([0], np.cumsum(np.count_nonzero(V, axis=0)))))
    return by_row, by_col


def sparse_matrix(rng, shape, dtype, density=0.1):
    present = rng.uniform(size=shape) < density
    return (present * rng.integers(1, 200, size=shape)).astype(dtype)


def few_cells_wide(rng, dtype):
    """70,000 columns, past a 16-bit column key, with cells at both ends."""
    V = np.zeros((4, 70_000), dtype=dtype)
    V[[3, 0, 0, 2, 1], [69_999, 65_536, 3, 65_535, 65_536]] = 1
    return V


def columns_zeroed(rng, dtype):
    V = sparse_matrix(rng, (30, 12), dtype, density=0.5)
    V[[0, 7, 29]] = 0
    V[:, [0, 5, 11]] = 0
    return V


CELL_MATRICES = {
    "random": lambda rng, dtype: sparse_matrix(rng, (40, 25), dtype),
    "no_rows": lambda rng, dtype: np.zeros((0, 6), dtype=dtype),
    "all_zero": lambda rng, dtype: np.zeros((5, 4), dtype=dtype),
    "zero_rows_and_columns": columns_zeroed,
    "one_column": lambda rng, dtype: sparse_matrix(rng, (50, 1), dtype, density=0.5),
    "300_columns": lambda rng, dtype: sparse_matrix(rng, (20, 300), dtype, density=0.05),
    "70000_columns": few_cells_wide,
}


@pytest.mark.parametrize("dtype", [bool, np.uint8])
@pytest.mark.parametrize("case", sorted(CELL_MATRICES))
def test_cells_match_nonzero_and_a_stable_int64_sort(case, dtype):
    """The flat scan and the narrow column key give np.nonzero's cells and a
    stable int64 sort of their columns, index, value and pointer alike."""
    V = CELL_MATRICES[case](np.random.default_rng(3), dtype)
    cells = mmodel._cells(V)
    for got, want in zip(cells, brute_cells(V), strict=True):
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)
        assert got.Y_row.dtype == np.int32 and got.val.dtype == V.dtype


def test_cells_build_peak_stays_under_25_5_bytes_a_cell():
    """Rows and columns are taken from the flat index one at a time, so the
    build peaks no higher than the 2-D np.nonzero build it replaced."""
    V = random_cells(np.random.default_rng(0), (2000, 1000), "binary", density=0.02) > 0
    tracemalloc.start()
    try:
        mmodel._cells(V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25.5 * np.count_nonzero(V)


@pytest.mark.parametrize("datatype", ["binary", "integer"])
def test_sparse_cells_hold_under_12_bytes_a_cell(datatype):
    """A sparse term's two cell orders hold an int32 index and V's one-byte
    value a cell, and the runs' pointers: no run index, no float64 copy."""
    V = random_cells(np.random.default_rng(0), (2000, 1000), datatype, density=0.02)
    spec = ModelSpec(rank=3, tensors=[InteractionTensorSpec("t", ["A"], "poisson")])
    model = build_model(spec, {"A": make_obs("A", V, "poisson", datatype)})
    assert model.observations["A"].values.dtype == (bool if datatype == "binary" else np.uint8)

    tracemalloc.start()
    try:
        term, = model.compiled_terms()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert term.cells is not None
    assert held <= 12 * np.count_nonzero(V)


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


#: H's counts are scaled past 255 after they are drawn, so that it is held as uint16
FOUR_KIND_MODELS = {
    "2-way": [("p", ["B", "A"], "poisson", None), ("g", ["E", "R"], "gaussian", 0.5),
              ("h", ["A", "H"], "poisson", None)],
    "3-way": [("p", ["B", "A", "C"], "poisson", None), ("g", ["E", "R", "B"], "gaussian", 0.5),
              ("h", ["A", "H"], "poisson", None)],
}
DATATYPES = {"A": "integer", "B": "binary", "C": "integer", "E": "binary", "R": "real",
             "H": "integer"}


@pytest.mark.parametrize("density", [1.01, 0.0], ids=["sparse", "dense"])
@pytest.mark.parametrize("shape", sorted(FOUR_KIND_MODELS))
def test_compact_observations_give_the_float64_outputs_bit_for_bit(shape, density, monkeypatch):
    """A model over compact observations (bool binary kinds, uint8 and uint16
    counts) and the same model over float64 copies (assigned past
    ObservationMatrix's cast) give the same objective, block gradients and
    projection, bit for bit, over all four kinds."""
    monkeypatch.setattr(mmodel, "SPARSE_DENSITY", density)
    spec = ModelSpec(rank=3, tensors=[InteractionTensorSpec(*t) for t in FOUR_KIND_MODELS[shape]],
                     regularizer=RegularizerConfig(gamma=1e-3, beta=0.5), init_seed=2,
                     solver=SolverConfig(max_sweeps=20))
    names = spec.modality_order
    observations, _ = synth_generate(spec, dict.fromkeys(names, 5),
                                     {name: DATATYPES[name] for name in names},
                                     n_patients=N_PATIENTS, seed=4)
    observations["H"] = dataclasses.replace(observations["H"],
                                            values=observations["H"].values * 300.0)
    assert {obs.values.dtype.name for obs in observations.values()} \
        == {"bool", "uint8", "uint16", "float64"}
    compact = build_model(spec, observations)
    widened = {name: copy.copy(obs) for name, obs in observations.items()}
    for obs in widened.values():
        obs.values = obs.values.astype(float)
    wide = mmodel.Model(spec, widened, compact.shared, compact.factors)
    poisson_cells = {t.cells is None for t in compact.compiled_terms() if t.params is None}
    assert poisson_cells == {density == 0.0}

    def outputs(model):
        return [mmodel.objective(model),
                *(mmodel.gradient_block(model, block) for block in [SHARED, *names]),
                mmodel.project_patients(model, model.observations)]

    for got, want in zip(outputs(compact), outputs(wide), strict=True):
        assert np.array_equal(got, want)


def test_dense_terms_of_a_modality_share_one_float64_copy(monkeypatch):
    """A modality two tensors list is converted to float64 once for its dense
    terms, and the model gives the outputs of terms that each convert it."""
    monkeypatch.setattr(mmodel, "SPARSE_DENSITY", 0.0)
    spec = ModelSpec(rank=3, tensors=[InteractionTensorSpec("p", ["A", "B"], "poisson"),
                                      InteractionTensorSpec("q", ["A", "C"], "poisson")],
                     regularizer=RegularizerConfig(gamma=1e-3, beta=0.5), init_seed=1)
    rng = np.random.default_rng(3)
    observations = {m: make_obs(m, random_cells(rng, (N_PATIENTS, SIZES[m]), KINDS[m]),
                                "poisson", KINDS[m]) for m in "ABC"}
    shared = build_model(spec, observations)
    first, second = (t for t in shared.compiled_terms() if t.name == "A")
    assert first.V is second.V and first.V.dtype == np.float64
    assert observations["A"].values.dtype == np.uint8

    apart = mmodel.Model(spec, observations, shared.shared, shared.factors)
    apart._terms = [Term(t.tensor, t.k, observations[t.name],
                         multiplicity(t.blocks(shared.factors), t.k))
                    for t in shared.compiled_terms()]
    assert apart._terms[0].V is not apart._terms[2].V
    assert mmodel.objective(shared) == mmodel.objective(apart)
    for block in [SHARED, "A", "B", "C"]:
        assert np.array_equal(mmodel.gradient_block(shared, block),
                              mmodel.gradient_block(apart, block))
