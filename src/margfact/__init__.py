"""Non-negative factorization of hidden interaction tensors from marginal observations."""

from .analysis import (CorrespondenceRow, Phenotype, cosine_similarity_metric,
                       extract_correspondence, extract_phenotypes, jaccard_at_k,
                       meaningfulness_score, sparsity)
from .data_io import (ObservationMatrix, SyntheticTruth, binarize,
                      load_observations, save_observations, split_train_test,
                      synth_generate)
from .errors import ConfigurationError, IngestionError, MargfactError, NumericError
from .evaluate import auprc, five_fold_cv, lasso_logistic_fit
from .likelihoods import (GaussianParams, ObservationKind, erf, erf_derivative,
                          grad_nll_wrt_reconstruction, nll)
from .model import (InteractionTensorSpec, Model, ModelSpec, SolverConfig,
                    build_model, gradient_block, load_model, objective,
                    project_patients, projected_step, save_model)
from .regularizers import RegularizerConfig, angular_penalty, elastic_net
from .solver import TrainReport, train
from .tensor import reconstruct_marginal, reconstruct_slice

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
