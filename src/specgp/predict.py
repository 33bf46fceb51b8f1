"""Monte-Carlo prediction through the variational posterior, plus metrics.

Each test point is served by the block of its nearest centroid.  For one
predict call, ``r`` posterior draws ``alpha_i = M z_i + b``, taken as the
arrays ``theta`` ``(r, m d)`` and ``s`` ``(r, 2m)``, are shared by every
test point in the batch.  They depend only on the model and the seed, and
so does each block's identity-border factor (see :mod:`specgp.localmodel`):
its rows ``w^T`` and ``L^{-T}`` per draw serve any test points of the
block.  Draw ``i`` has the same bits for every ``r > i``: the z draws are
one stream per seed (:func:`posterior_draws`), taken up to a multiple of
``DRAW_GROUP`` rows, which :func:`transform` maps a group at a time, and
cut back to ``r``.

*The border.*  Of the two borders of
:func:`~specgp.localmodel.build_local_gram`, a block's ``t_k`` test
points of a call are served by the ``phi_*`` border, with ``h^T`` read
off the factor, only when the call does not use the memo (below) and
``t_k <= 2m``; otherwise by the identity border, with
``h^T = phi_*^T L^{-T}``.  This is the one place that rule lives.

*The memo.*  A model keeps one memo entry, keyed by the seed alone: the
draws ``(theta, s)`` of the largest ``n_samples`` seen and, per block,
filled on the block's first hit, the ``(r, 2m + 1, 2m)`` rows ``w^T`` and
``L^{-T}`` of its identity-border factors for all of them, built in draw
chunks of at most ``_IDENTITY_CHUNK_ELEMENTS`` elements.  A call of
``n_samples`` up to the entry's reads its first ``n_samples`` draws and
rows.  ``gamma_mix`` only enters
:func:`~specgp.localmodel.conditional_moments`, so it is not part of the
key.  A call with another seed, or with more draws than the entry holds,
replaces the entry.  The memo is used only when an entry of the call's
``n_samples``, ``p r (2m + 1) 2m + r D`` elements, fits
``_MEMO_ELEMENTS`` (8 MiB of float64), which is decided from the model and
the config alone.  Above that budget a call stores nothing, leaves the
entry as it is, and per block that the batch hits factors each chunk's
bordered local Gram matrices in one stacked call.

A given model and config thus always take the same path with the same
chunks, so a call gives the same bits with the memo warm or cold, built
at its ``n_samples`` or at a larger one, and for a saved-then-loaded
model.  The memo trusts that nothing changes a model's arrays:
:class:`~specgp.model_io.TrainedModel`'s fields cannot be reassigned, nor
can its partition's, and the arrays of its state and partition are
read-only.  On the per-call path, a chunk keeps
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
from dataclasses import dataclass, replace

import numpy as np

from .errors import NONNEGATIVE_INT, POSITIVE_INT, ContractError, Rule, check_fields
from .features import feature_matrix
from .localmodel import build_local_gram, conditional_moments
from .model_io import TrainedModel
from .partition import assign_blocks
from .variational import DRAW_GROUP, transform

_NEGATIVE_VAR_TOL = 1e-10
# A chunk of r_c draws keeps r_c * (2m * (n_k + t_k) + K^2), the size of its
# block and test-point feature stacks and of its bordered factors of order K,
# within this many elements (512 KiB of float64).
# Stacking all r draws at once raised the peak resident memory of the
# benchmark's predicting process by about 8% for at most 16% more throughput.
_CHUNK_ELEMENTS = 2**16
# A model's memo entry is used only if its draws and the identity-border rows
# of every block, p * r * (2m + 1) * 2m + r * D elements, fit in this many
# (8 MiB of float64).  Uncached, the identity border costs more than the
# phi_* border for t <= 2m points (+65% on a wide-features single-row call).
# Small-blocks bulk predicts (r = 256, 568k elements) fit; wide-features
# calls (2.7M elements at r = 64) do not.
_MEMO_ELEMENTS = 2**20
# A chunk of the memo's identity-border build keeps its block features and
# its bordered matrices and their factors, 2m n_k + 2 (4m + 1)^2 elements
# per draw, within this many (256 KiB).  Budgeting one factor stack against
# _CHUNK_ELEMENTS instead made a cold small-blocks bulk call hand each
# chunk's temporaries back to the kernel and fault them in again: about 14k
# page faults and 48-59 ms, against 1.5k faults (mostly the memo's own
# pages) and 41-45 ms at this budget, and 34-42 ms on the per-call path.
_IDENTITY_CHUNK_ELEMENTS = 2**15


@dataclass(frozen=True)
class PredictConfig:
    """Sampling and mixing choices for prediction."""

    n_samples: int
    gamma_mix: float
    seed: int = 0

    RULES = {"n_samples": POSITIVE_INT, "gamma_mix": Rule("number", "[-1, 1]"),
             "seed": NONNEGATIVE_INT}

    def __post_init__(self):
        check_fields(self)


def posterior_draws(model: TrainedModel, pcfg: PredictConfig) -> np.ndarray:
    """The ``(r, D)`` matrix of z draws used by a predict call with this seed.

    They are the first ``r`` rows of one standard-normal stream per seed,
    so the draws of a smaller ``r`` are a prefix of those of a larger one.
    """
    rng = np.random.default_rng(np.random.SeedSequence(pcfg.seed))
    return rng.standard_normal((pcfg.n_samples, model.state.dim))


def _draws(model: TrainedModel, pcfg: PredictConfig):
    """``(theta, s)`` of the call's ``r`` draws.  The z stream is taken up to
    a multiple of ``DRAW_GROUP`` rows and cut back after :func:`transform`,
    so each draw has the same bits for every ``r`` that includes it."""
    r = pcfg.n_samples
    padded = replace(pcfg, n_samples=-(-r // DRAW_GROUP) * DRAW_GROUP)
    theta, s = transform(model.state, posterior_draws(model, padded), model.spectral)
    return theta[:r], s[:r]


def _memo_entry(model: TrainedModel, pcfg: PredictConfig):
    """The model's memo entry ``(theta, s, rows by block)`` for ``pcfg``, of
    at least ``n_samples`` draws, or None when an entry of ``n_samples``
    draws would not fit ``_MEMO_ELEMENTS`` (see the module docstring)."""
    cfg = model.spectral
    r, k = pcfg.n_samples, cfg.num_features
    if model.partition.p * r * (k + 1) * k + r * cfg.alpha_dim > _MEMO_ELEMENTS:
        return None
    memo = model.predict_memo
    entry = memo.get(pcfg.seed)
    if entry is None or entry[0].shape[0] < r:
        memo.clear()
        entry = memo[pcfg.seed] = (*_draws(model, pcfg), {})
    return entry


def _identity_rows(X_k, y_k, theta, cfg, block_id):
    """The ``(r, 2m + 1, 2m)`` identity-border rows of one block for all
    ``r`` draws, factored in chunks of at most ``_IDENTITY_CHUNK_ELEMENTS``."""
    k = cfg.num_features
    rows = np.empty((theta.shape[0], k + 1, k))
    per_draw = k * X_k.shape[0] + 2 * (2 * k + 1) ** 2
    chunk = max(1, _IDENTITY_CHUNK_ELEMENTS // per_draw)
    for start in range(0, theta.shape[0], chunk):
        c = slice(start, start + chunk)
        rows[c] = build_local_gram(X_k, y_k, theta[c], None, cfg, block_id=block_id)[:, k:, :k]
    return rows


def _block_chunks(model: TrainedModel, k, X_rows, theta, r, memo_rows):
    """``(draw slice, w, h^T, phi_star)`` per chunk of the first ``r`` draws
    for the test rows ``X_rows`` of block ``k``, on the border the module
    docstring's rule picks: the memo's rows when ``memo_rows`` is a dict
    (filled for ``k``, over all of ``theta``, on first use), else a
    per-call factor.  No slice reaches past ``r``, though the memo may
    hold more draws."""
    cfg = model.spectral
    two_m = cfg.num_features
    X_k, y_k = model.partition.blocks[k]
    t = X_rows.shape[0]
    # the border rule of the module docstring
    phi_border = memo_rows is None and t <= two_m
    if memo_rows is None:
        per_draw = two_m * (X_k.shape[0] + t) + (two_m + 1 + min(t, two_m)) ** 2
    else:
        if k not in memo_rows:
            memo_rows[k] = _identity_rows(X_k, y_k, theta, cfg, k)
        # phi_star and h^T, each 2m * t per draw
        per_draw = 2 * two_m * t
    chunk = max(1, _CHUNK_ELEMENTS // per_draw)
    for start in range(0, r, chunk):
        c = slice(start, min(start + chunk, r))
        phi_star = feature_matrix(X_rows, theta[c], cfg)
        if memo_rows is None:
            border = phi_star if phi_border else None
            rows = build_local_gram(X_k, y_k, theta[c], border, cfg, block_id=k)[:, two_m:, :two_m]
        else:
            rows = memo_rows[k][c]
        h_t = rows[:, 1:] if phi_border else np.swapaxes(phi_star, -1, -2) @ rows[:, 1:]
        yield c, rows[:, 0], h_t, phi_star


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
        theta, s = _draws(model, pcfg)
        memo_rows = None
    else:
        theta, s, memo_rows = entry

    sum_mean = np.zeros(t)
    sum_second = np.zeros(t)  # accumulates var_i + mean_i^2
    for k, rows in by_block.items():
        for c, w, h_t, phi_star in _block_chunks(model, k, X_star[rows], theta, r, memo_rows):
            mean, variance = conditional_moments(
                w, h_t, phi_star, s[c], pcfg.gamma_mix, cfg.noise_variance
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
