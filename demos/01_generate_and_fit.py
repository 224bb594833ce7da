"""Generate a synthetic multi-modality cohort and fit the factorization.

Two observed matrices (diagnosis counts and medication counts) are sampled
from a planted hidden patient x diagnosis x medication interaction tensor.
The model only ever sees the two marginals, yet the block coordinate
descent solver drives the joint negative log-likelihood down to the level
of the planted factors.

Equivalent batch invocation:
    margfact synth --rank 3 --patients 300 \
        --modality Dx:12:integer:poisson --modality Rx:15:integer:poisson \
        --seed 0 --out data/
    margfact train --manifest data/manifest.json --spec data/model_spec.json \
        --out model/
"""

import numpy as np

from margfact import (InteractionTensorSpec, ModelSpec, RegularizerConfig,
                      SolverConfig, build_model, objective, synth_generate,
                      train)

spec = ModelSpec(
    rank=3,
    tensors=[InteractionTensorSpec("dx_rx", ["Dx", "Rx"], "poisson")],
    regularizer=RegularizerConfig(gamma=0.0, beta=0.0),
    init_seed=0,
    solver=SolverConfig(max_sweeps=600, tol=1e-8, step0=1e-4, log_every=50),
)

observations, truth = synth_generate(
    spec, {"Dx": 12, "Rx": 15}, {"Dx": "integer", "Rx": "integer"},
    n_patients=300, sparsity=0.6, scale=1.5, seed=0)

print("observed matrices:")
for name, obs in observations.items():
    nnz = np.count_nonzero(obs.values)
    print(f"  {name}: {obs.values.shape}, {nnz} nonzero cells ({obs.kind})")

model = build_model(spec, observations)
print(f"\ninitial objective: {objective(model):.1f}")

report = train(model)
print(f"after {report.sweeps_run} sweeps ({report.stop_reason}):")
for sweep, f in report.loss_trace:
    print(f"  sweep {sweep:4d}  objective {f:.1f}")

# the planted factors give a natural yardstick for the fitted objective
from margfact import reconstruct_marginal
from margfact.likelihoods import ObservationKind, nll

kind = ObservationKind("poisson", "integer")
blocks = [truth.modality_factors["Dx"], truth.modality_factors["Rx"]]
planted = sum(nll(kind, observations[name].values,
                  reconstruct_marginal(truth.shared, blocks, k))
              for k, name in enumerate(("Dx", "Rx")))
print(f"\nfitted objective:  {objective(model):.1f}")
print(f"planted objective: {planted:.1f}")
