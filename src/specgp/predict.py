"""Monte-Carlo prediction through the variational posterior, plus metrics.

Each test point is served by the block of its nearest centroid.  For one
predict call, ``r`` posterior draws ``alpha_i = M z_i + b``, taken as the
arrays ``theta`` ``(r, m d)`` and ``s`` ``(r, 2m)``, are shared by every
test point in the batch.  They depend only on the model and
``(seed, n_samples)`` (:func:`posterior_draws`), and so does each block's
identity-border factor (see :mod:`specgp.localmodel`): its rows ``w^T``
and ``L^{-T}`` per draw serve any test points of the block.

*The memo.*  A model keeps one memo entry, keyed by ``(seed, n_samples)``:
the draws ``(theta, s)`` and, per block, filled on the block's first hit,
the ``(r, 2m + 1, 2m)`` rows of its identity-border factors, built in draw
chunks of at most ``_CHUNK_ELEMENTS`` elements.  ``gamma_mix`` only enters
:func:`~specgp.localmodel.conditional_moments`, so it is not part of the
key.  A call with another key replaces the entry.  The entry is used only
when all of it, ``p r (2m + 1) 2m + r D`` elements, fits
``_MEMO_ELEMENTS``, which is decided from the model and the config alone:

* within that budget, a call featurizes its test points and reads each
  block's moments off the memo's rows with one batched ``phi_*^T L^{-T}``
  matmul per chunk of draws;
* above it, a call stores nothing, leaves the entry as it is, and per
  block that the batch hits factors the chunk's local Gram matrices
  bordered by the ``(r_c, 2m, t_k)`` features of the block's ``t_k`` test
  points (the identity when ``t_k > 2m``) in one stacked call.

A given model and config thus always take the same path with the same
chunks, so a call gives the same bits with the memo warm or cold and for a
saved-then-loaded model.  The memo trusts that nothing changes a model's
arrays in place; :class:`~specgp.model_io.TrainedModel`'s fields cannot be
reassigned.  On the per-call path, a chunk keeps
``r_c * (2m (n_k + t_k) + K^2)`` elements, its block and test-point
feature stacks and its bordered factors of order
``K = 2m + 1 + min(t_k, 2m)``, within ``_CHUNK_ELEMENTS``, so memory stays
bounded for any ``r``.  The moments are mixed across draws as

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
from .features import _is_integer, feature_matrix
from .localmodel import build_local_gram, conditional_moments, factor_order
from .model_io import TrainedModel
from .partition import assign_blocks
from .variational import transform

_NEGATIVE_VAR_TOL = 1e-10
# A chunk of r_c draws keeps r_c * (2m * (n_k + t_k) + K^2), the size of its
# block and test-point feature stacks and of its bordered factors of order K,
# within this many elements (512 KiB of float64).
# Stacking all r draws at once raised the peak resident memory of the
# benchmark's predicting process by about 8% for at most 16% more throughput.
_CHUNK_ELEMENTS = 2**16
# A model's memo entry is used only if its draws and the identity-border rows
# of every block, p * r * (2m + 1) * 2m + r * D elements, fit in this many
# (2 MiB of float64).  Uncached, the identity border costs more than the
# phi_* border for t <= 2m points (+65% on a wide-features single-row call).
_MEMO_ELEMENTS = 2**18


@dataclass(frozen=True)
class PredictConfig:
    """Sampling and mixing choices for prediction."""

    n_samples: int
    gamma_mix: float
    seed: int = 0

    def __post_init__(self):
        if not _is_integer(self.seed) or self.seed < 0:
            raise ContractError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.n_samples < 1:
            raise ContractError("n_samples must be >= 1")
        if not np.isfinite(self.gamma_mix) or abs(self.gamma_mix) > 1.0:
            raise ContractError(f"gamma_mix must lie in [-1, 1], got {self.gamma_mix!r}")


def posterior_draws(model: TrainedModel, pcfg: PredictConfig) -> np.ndarray:
    """The ``(r, D)`` matrix of z draws used by a predict call with this seed."""
    rng = np.random.default_rng(np.random.SeedSequence(pcfg.seed))
    return rng.standard_normal((pcfg.n_samples, model.state.dim))


def _memo_entry(model: TrainedModel, pcfg: PredictConfig):
    """The model's memo entry ``(theta, s, rows by block)`` for ``pcfg``,
    replacing any entry of another key, or None when the entry would not
    fit ``_MEMO_ELEMENTS`` (see the module docstring)."""
    cfg = model.spectral
    r, k = pcfg.n_samples, cfg.num_features
    if model.partition.p * r * (k + 1) * k + r * cfg.alpha_dim > _MEMO_ELEMENTS:
        return None
    key = (pcfg.seed, r)
    memo = model.predict_memo
    if key not in memo:
        memo.clear()
        theta, s = transform(model.state, posterior_draws(model, pcfg), cfg)
        memo[key] = (theta, s, {})
    return memo[key]


def _identity_rows(X_k, y_k, theta, cfg, block_id):
    """The ``(r, 2m + 1, 2m)`` identity-border rows of one block for all
    ``r`` draws, factored in chunks of at most ``_CHUNK_ELEMENTS``."""
    k = cfg.num_features
    rows = np.empty((theta.shape[0], k + 1, k))
    chunk = max(1, _CHUNK_ELEMENTS // (k * X_k.shape[0] + (2 * k + 1) ** 2))
    for start in range(0, theta.shape[0], chunk):
        c = slice(start, start + chunk)
        rows[c] = build_local_gram(X_k, y_k, theta[c], None, cfg, block_id=block_id)
    return rows


def _block_chunks(model: TrainedModel, k, X_rows, theta, memo_rows):
    """``(draw slice, factor, phi_star)`` per chunk of draws for the test
    rows ``X_rows`` of block ``k``: the memo's rows when ``memo_rows`` is a
    dict (filled for ``k`` on first use), else a per-call factor."""
    cfg = model.spectral
    X_k, y_k = model.partition.blocks[k]
    t = X_rows.shape[0]
    if memo_rows is None:
        per_draw = cfg.num_features * (X_k.shape[0] + t) + factor_order(t, cfg) ** 2
    else:
        if k not in memo_rows:
            memo_rows[k] = _identity_rows(X_k, y_k, theta, cfg, k)
        # phi_star and h^T, each 2m * t per draw
        per_draw = 2 * cfg.num_features * t
    chunk = max(1, _CHUNK_ELEMENTS // per_draw)
    for start in range(0, theta.shape[0], chunk):
        c = slice(start, start + chunk)
        phi_star = feature_matrix(X_rows, theta[c], cfg)
        if memo_rows is None:
            factor = build_local_gram(X_k, y_k, theta[c], phi_star, cfg, block_id=k)
        else:
            factor = memo_rows[k][c]
        yield c, factor, phi_star


def predict_batch(X_star, model: TrainedModel, pcfg: PredictConfig):
    """Predictive mean and variance for each row of ``X_star`` (model space).

    This is where test inputs enter, so their shape and finiteness are
    checked here once; the kernels below trust them.  Repeated calls on
    one model reuse its memo (see the module docstring).

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
    cfg = model.spectral
    labels = assign_blocks(X_star, model.partition)
    by_block = {int(k): np.flatnonzero(labels == k) for k in np.unique(labels)}
    r = pcfg.n_samples
    entry = _memo_entry(model, pcfg)
    if entry is None:
        theta, s = transform(model.state, posterior_draws(model, pcfg), cfg)
        memo_rows = None
    else:
        theta, s, memo_rows = entry

    sum_mean = np.zeros(t)
    sum_second = np.zeros(t)  # accumulates var_i + mean_i^2
    for k, rows in by_block.items():
        for c, factor, phi_star in _block_chunks(model, k, X_star[rows], theta, memo_rows):
            mean, variance = conditional_moments(
                factor, phi_star, s[c], pcfg.gamma_mix, cfg.noise_variance
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
