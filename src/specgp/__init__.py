"""Sparse spectrum GP regression with stochastic variational training.

The public surface mirrors the pipeline: trigonometric features
(:mod:`~specgp.features`), per-block linear algebra
(:mod:`~specgp.localmodel`), the affine variational posterior
(:mod:`~specgp.variational`), stochastic gradients of the bound
(:mod:`~specgp.gradient`), the optimizer (:mod:`~specgp.optimizer`),
k-means partitioning (:mod:`~specgp.partition`), Monte-Carlo prediction
and metrics (:mod:`~specgp.predict`) and data/CLI plumbing
(:mod:`~specgp.data`, :mod:`~specgp.cli`).
"""

from .data import (
    Dataset,
    Standardization,
    identity_standardization,
    load_csv,
    save_csv,
    split_indices,
    synth_ssgp,
)
from .errors import (
    ContractError,
    DataError,
    ModelFormatError,
    NumericalError,
    SpecGPError,
)
from .features import (
    SpectralConfig,
    approx_kernel,
    as_frequency_matrix,
    basis_vector,
    feature_matrix,
)
from .gradient import (
    EtaGradient,
    GradientSamplePlan,
    draw_sample_sets,
    elbo_estimate,
    log_likelihood,
    partition_term,
    stochastic_gradient,
    variance_gradients,
)
from .localmodel import (
    AlphaVector,
    LocalGram,
    PredictiveMoments,
    build_local_gram,
    test_conditional,
)
from .model_io import TrainedModel, load_model, save_model
from .optimizer import (
    StepSchedule,
    TrainConfig,
    TrainResult,
    load_checkpoint,
    resume_training,
    train,
)
from .partition import PartitionedDataset, assign_blocks, kmeans_partition
from .predict import (
    PredictConfig,
    mnlp,
    mnlp_variance_floor,
    posterior_draws,
    predict_batch,
    rmse,
)
from .variational import (
    PriorSpec,
    VariationalState,
    initial_state,
    kl_term_gradient,
    log_prior,
    log_q,
    transform,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaVector",
    "ContractError",
    "DataError",
    "Dataset",
    "EtaGradient",
    "GradientSamplePlan",
    "LocalGram",
    "ModelFormatError",
    "NumericalError",
    "PartitionedDataset",
    "PredictConfig",
    "PredictiveMoments",
    "PriorSpec",
    "SpecGPError",
    "SpectralConfig",
    "Standardization",
    "StepSchedule",
    "TrainConfig",
    "TrainResult",
    "TrainedModel",
    "VariationalState",
    "approx_kernel",
    "as_frequency_matrix",
    "assign_blocks",
    "basis_vector",
    "build_local_gram",
    "draw_sample_sets",
    "elbo_estimate",
    "feature_matrix",
    "identity_standardization",
    "initial_state",
    "kl_term_gradient",
    "kmeans_partition",
    "load_csv",
    "load_checkpoint",
    "load_model",
    "log_likelihood",
    "log_prior",
    "log_q",
    "mnlp",
    "mnlp_variance_floor",
    "posterior_draws",
    "partition_term",
    "predict_batch",
    "resume_training",
    "rmse",
    "save_csv",
    "save_model",
    "split_indices",
    "stochastic_gradient",
    "synth_ssgp",
    "test_conditional",
    "train",
    "transform",
    "variance_gradients",
]
