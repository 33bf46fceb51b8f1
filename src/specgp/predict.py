"""Monte-Carlo prediction through the variational posterior, plus metrics.

Each test point is served by the block of its nearest centroid.  For one
predict call, ``r`` posterior draws ``alpha_i = M z_i + b`` are shared by
every test point in the batch.  Per block that the batch hits, the local
Gram matrices of a chunk of draws are factorized in one stacked call and
one batched conditional gives the moments of every (draw, point) pair of
the block; chunks hold at most ``_CHUNK_ELEMENTS`` feature entries, so
memory stays bounded for any ``r``.  The moments are mixed across draws as

    mean_hat = (1/r) sum_i mean_i
    var_hat  = (1/r) sum_i (var_i + mean_i^2) - mean_hat^2,

the plug-in mixture form (no small-sample correction).  Roundoff can push
``var_hat`` a hair below zero; it is clamped to zero, and a clamp beyond
``1e-10`` times the second-moment scale additionally raises a
``RuntimeWarning``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .features import feature_matrix
from .localmodel import build_local_gram, conditional_moments
from .model_io import TrainedModel
from .partition import assign_blocks
from .variational import transform

_NEGATIVE_VAR_TOL = 1e-10
# A chunk of r_c draws keeps r_c * 2m * (n_k + t_k), the size of its block and
# test-point feature stacks, within this many elements (512 KiB of float64).
# Stacking all r draws at once raised the peak resident memory of the
# benchmark's predicting process by about 8% for at most 16% more throughput.
_CHUNK_ELEMENTS = 2**16


@dataclass(frozen=True)
class PredictConfig:
    """Sampling and mixing choices for prediction."""

    n_samples: int = 64
    gamma_mix: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ContractError("n_samples must be >= 1")
        if not np.isfinite(self.gamma_mix) or abs(self.gamma_mix) > 1.0:
            raise ContractError(f"gamma_mix must lie in [-1, 1], got {self.gamma_mix!r}")


def posterior_draws(model: TrainedModel, pcfg: PredictConfig) -> np.ndarray:
    """The ``(r, D)`` matrix of z draws used by a predict call with this seed."""
    rng = np.random.default_rng(np.random.SeedSequence(pcfg.seed))
    return rng.standard_normal((pcfg.n_samples, model.state.dim))


def predict_batch(X_star, model: TrainedModel, pcfg: PredictConfig):
    """Predictive mean and variance for each row of ``X_star`` (model space).

    This is where test inputs enter, so their shape and finiteness are
    checked here once; the kernels below trust them.

    Returns
    -------
    (means, variances) : pair of numpy.ndarray, shape (t,)
        Variances are clamped at zero (see module docstring).
    """
    X_star = np.asarray(X_star, dtype=float)
    if X_star.ndim != 2 or X_star.shape[1] != model.spectral.d:
        raise ContractError(
            f"X_star must have shape (t, {model.spectral.d}), got {X_star.shape}"
        )
    if not np.all(np.isfinite(X_star)):
        raise ContractError("X_star contains non-finite entries")
    t = X_star.shape[0]
    if t == 0:
        return np.zeros(0), np.zeros(0)
    cfg = model.spectral
    gamma_mix = pcfg.gamma_mix
    labels = assign_blocks(X_star, model.partition)
    by_block = {int(k): np.flatnonzero(labels == k) for k in np.unique(labels)}
    r = pcfg.n_samples
    alpha = transform(model.state, posterior_draws(model, pcfg), cfg)

    sum_mean = np.zeros(t)
    sum_second = np.zeros(t)  # accumulates var_i + mean_i^2
    for k, rows in by_block.items():
        X_k, y_k = model.partition.blocks[k]
        X_rows = X_star[rows]
        chunk = max(1, _CHUNK_ELEMENTS // (cfg.num_features * (X_k.shape[0] + rows.size)))
        for start in range(0, r, chunk):
            theta = alpha.theta[start : start + chunk]
            local = build_local_gram(X_k, y_k, theta, cfg, block_id=k)
            phi_star = feature_matrix(X_rows, theta, cfg)
            mean, variance = conditional_moments(
                local, phi_star, alpha.s[start : start + chunk], gamma_mix, cfg.noise_variance
            )
            sum_mean[rows] += mean.sum(axis=0)
            sum_second[rows] += (variance + mean**2).sum(axis=0)
    mean_hat = sum_mean / r
    var_hat = sum_second / r - mean_hat**2
    scale = np.maximum(np.abs(sum_second) / r, 1.0)
    if np.any(var_hat < -_NEGATIVE_VAR_TOL * scale):
        warnings.warn(
            "mixture variance went negative beyond roundoff tolerance; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
    return mean_hat, np.maximum(var_hat, 0.0)


def rmse(predictions, targets) -> float:
    """Root mean squared error of predictive means against targets."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.ndim != 1 or predictions.size == 0:
        raise ContractError("predictions and targets must be equal-length non-empty vectors")
    return float(np.sqrt(np.mean((targets - predictions) ** 2)))


def mnlp(means, variances, targets) -> float:
    """Mean negative log probability of targets under Gaussian predictions.

    ``0.5 * mean((y - mu)^2 / var + log(2 pi var))``; every variance must
    be strictly positive.
    """
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if not (means.shape == variances.shape == targets.shape) or means.ndim != 1 or means.size == 0:
        raise ContractError("means, variances and targets must be equal-length non-empty vectors")
    if np.any(variances <= 0):
        raise ContractError("mnlp requires strictly positive variances")
    return float(
        0.5 * np.mean((targets - means) ** 2 / variances + np.log(2.0 * np.pi * variances))
    )


def mnlp_variance_floor(variances, targets) -> np.ndarray:
    """Substitute clamped-to-zero variances before an MNLP evaluation.

    Zero variances (from the clamp in :func:`predict_batch`) are replaced
    with ``1e-12 * var(targets)`` so the metric stays finite; the caller
    should surface how many were substituted.
    """
    variances = np.asarray(variances, dtype=float).copy()
    target_var = float(np.var(np.asarray(targets, dtype=float)))
    floor = 1e-12 * target_var if target_var > 0 else 1e-12
    variances[variances <= 0] = floor
    return variances
