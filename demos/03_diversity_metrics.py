"""Phenotype diversity metrics and the effect of the angular penalty.

Three quantities summarize how distinct and compact the learned phenotypes
are: the average pairwise column cosine, the average pairwise Jaccard of
top-k item sets, and the nonzero ratio of the factor matrices; the largest
pairwise cosine shows the pair of phenotypes most alike. Fitting the same
cohort with and without the angular penalty shows the penalty pushing the
column cosines down.

The penalty is a sum of squared cosine excesses, below 1 per pair, against
an NLL of thousands of nats here: at the default beta = 1 it reads about
0.06 and leaves the cosines where the plain fit puts them. So the demo
weights it by beta = 100 and counts every cosine above theta = 0.1. The
elastic net does not change the support at this scale: gamma up to 1
leaves the nonzero ratio at the plain fit's.

Equivalent batch invocation, given a trained model directory:
    margfact metrics --manifest data/manifest.json --model model/ --k 10 \
        --out metrics.json
"""

import numpy as np

from margfact import (InteractionTensorSpec, ModelSpec, RegularizerConfig,
                      SolverConfig, build_model, cosine_similarity_metric,
                      extract_phenotypes, jaccard_at_k, sparsity,
                      synth_generate, train)
from margfact.regularizers import column_cosines, upper_pairs


def fit(regularizer, seed=0):
    spec = ModelSpec(rank=4,
                     tensors=[InteractionTensorSpec("t0", ["A", "B"], "poisson")],
                     regularizer=regularizer, init_seed=seed,
                     solver=SolverConfig(max_sweeps=400, tol=1e-7, step0=1e-4))
    observations, _ = synth_generate(spec, {"A": 20, "B": 20},
                                     {"A": "integer", "B": "integer"},
                                     150, seed=seed)
    model = build_model(spec, observations)
    train(model)
    return model


def largest_cosine(factors):
    """The largest cosine between two columns of one factor matrix."""
    return max(float(column_cosines(U)[0][upper_pairs(U.shape[1])].max())
               for U in factors.values())


def summarize(label, model):
    phenotypes = extract_phenotypes(model)
    print(f"{label}:")
    print(f"  cosine similarity : {cosine_similarity_metric(model.factors):.4f}")
    print(f"  largest cosine    : {largest_cosine(model.factors):.4f}")
    print(f"  jaccard@10        : {jaccard_at_k(phenotypes, 10):.4f}")
    print(f"  nonzero ratio     : {sparsity(model.factors):.4f}")


plain = fit(RegularizerConfig(gamma=0.0, beta=0.0))
summarize("no regularization", plain)

angular = fit(RegularizerConfig(gamma=0.0, beta=100.0, theta=0.1))
summarize("\nangular penalty (beta=100, theta=0.1)", angular)

elastic = fit(RegularizerConfig(gamma=1e-5, alpha=0.7, beta=0.0))
summarize("\nelastic net (gamma=1e-5, alpha=0.7)", elastic)
