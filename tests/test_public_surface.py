"""The public names of ``specgp``, pinned: adding or removing one is a
reviewed edit of this list."""

import specgp

PUBLIC = [
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
    "load_checkpoint",
    "load_csv",
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


def test_public_surface_is_pinned():
    assert sorted(specgp.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(specgp, name), name
