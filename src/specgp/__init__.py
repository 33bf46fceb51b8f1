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
    basis_vector,
    feature_matrix,
)
from .gradient import (
    GradientSamplePlan,
    draw_sample_sets,
    elbo_estimate,
    log_likelihood,
    stochastic_gradient,
)
from .localmodel import build_local_gram
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
    kl_divergence,
    kl_term_gradient,
    transform,
)

__version__ = "0.1.0"

__all__ = [
    "ContractError",
    "DataError",
    "Dataset",
    "GradientSamplePlan",
    "ModelFormatError",
    "NumericalError",
    "PartitionedDataset",
    "PredictConfig",
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
    "assign_blocks",
    "basis_vector",
    "build_local_gram",
    "draw_sample_sets",
    "elbo_estimate",
    "feature_matrix",
    "identity_standardization",
    "initial_state",
    "kl_divergence",
    "kl_term_gradient",
    "kmeans_partition",
    "load_csv",
    "load_checkpoint",
    "load_model",
    "log_likelihood",
    "mnlp",
    "mnlp_variance_floor",
    "posterior_draws",
    "predict_batch",
    "resume_training",
    "rmse",
    "save_csv",
    "save_model",
    "split_indices",
    "stochastic_gradient",
    "synth_ssgp",
    "train",
    "transform",
]
