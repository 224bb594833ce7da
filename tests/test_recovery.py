"""Planted recovery: a fit of synthetic observations finds the factors they
were drawn from, scored by the factor match score (helpers.fms) over the
shared factor and every modality factor.

The cohorts are synth_generate's: 500 patients and sparsity 0.5, seeds 0
and 1 (the seed draws both the plant and the start). Every fit must end
`converged`.
"""

import pytest

from margfact import (InteractionTensorSpec, ModelSpec, SolverConfig, build_model,
                      synth_generate, train)

from helpers import fms


def recover(tensors, datatypes, n_items, rank, seed, scale=1.0, solver=None):
    """The stop reason and FMS of a default-regularized fit to a planted cohort."""
    spec = ModelSpec(rank=rank, tensors=tensors, init_seed=seed,
                     solver=solver or SolverConfig())
    obs, truth = synth_generate(spec, dict.fromkeys(datatypes, n_items), datatypes, 500,
                                sparsity=0.5, scale=scale, seed=seed)
    model = build_model(spec, obs)
    report = train(model)
    order = spec.modality_order
    return report.stop_reason, fms([model.shared] + [model.factors[m] for m in order],
                                   [truth.shared] + [truth.modality_factors[m] for m in order])


@pytest.mark.parametrize("seed", [0, 1])
def test_poisson_pair_recovered(seed):
    # the shared block's additive step once stalled this fit after 2-3
    # sweeps at FMS 0.298 / 0.225
    stop, score = recover([InteractionTensorSpec("ab", ["A", "B"], "poisson")],
                          {"A": "integer", "B": "integer"}, 30, 5, seed)
    assert stop == "converged" and score >= 0.9, (stop, score)


@pytest.mark.parametrize("seed", [0, 1])
def test_poisson_three_way_recovered(seed):
    # the additive step once zeroed this fit's whole shared factor in 2 sweeps
    stop, score = recover([InteractionTensorSpec("abc", ["A", "B", "C"], "poisson")],
                          dict.fromkeys("ABC", "integer"), 30, 5, seed, scale=0.5)
    assert stop == "converged" and score >= 0.9, (stop, score)


#: FMS less 0.05 of the Gaussian pairs' additive-step fits, which read
#: 0.815 / 0.880 (real-real) and 0.666 / 0.697 (real-binary)
GAUSSIAN_FLOORS = {("real", 0): 0.765, ("real", 1): 0.830,
                   ("binary", 0): 0.616, ("binary", 1): 0.647}


@pytest.mark.parametrize("datatype, seed", sorted(GAUSSIAN_FLOORS))
def test_gaussian_pair_recovered(datatype, seed):
    stop, score = recover([InteractionTensorSpec("lv", ["L", "V"], "gaussian", sigma2=0.1)],
                          {"L": "real", "V": datatype}, 20, 4, seed,
                          solver=SolverConfig(step0=1e-4))
    assert stop == "converged" and score >= GAUSSIAN_FLOORS[datatype, seed], (stop, score)
