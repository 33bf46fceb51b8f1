"""Likelihood evaluation and unbiased stochastic gradients of the bound.

The Gaussian likelihood of a data block factorizes through the residual
``v = y - Phi(X)^T s``:

    log p(y | alpha) = -0.5 ||v||^2 / noise_variance - 0.5 n log(2 pi noise_variance).

The bound over ``p`` equally-weighted blocks is estimated doubly
stochastically from block indices ``i_1..i_a``, drawn uniformly with
replacement, and standard normal draws ``z_1..z_b``.  Both sums are linear,
so one kernel evaluates them at once: it takes the concatenated rows of the
sampled blocks (a block drawn twice appears twice) and the ``(b, D)`` stack
``A = Z M^T + b``, and returns each draw's data-term gradient ``G_j`` in
alpha and ``||v_j||^2``.  Then

    grad_M = (p / (a b)) G^T Z - mean_j kl_grad_M(z_j),
    grad_b = (p / (a b)) sum_j G_j - mean_j kl_grad_b(z_j).

:func:`partition_term`, :func:`log_likelihood` and :func:`variance_gradients`
are the same kernel for one draw on one block.  The index stream and the z
stream are split from one master seed so that tests can share z draws
across estimators while varying the index subsample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .features import TWO_PI, SpectralConfig, feature_matrix
from .localmodel import AlphaVector
from .variational import PriorSpec, VariationalState, kl_term_gradient, log_prior, log_q, transform


@dataclass
class EtaGradient:
    """Gradient with respect to the affine parameters ``(M, b)``."""

    grad_m: np.ndarray  # shape (D, D)
    grad_b: np.ndarray  # shape (D,)

    def norm(self) -> float:
        """Euclidean norm of the stacked (M, b) gradient."""
        return float(np.sqrt(np.sum(self.grad_m**2) + np.sum(self.grad_b**2)))


@dataclass(frozen=True)
class GradientSamplePlan:
    """Monte-Carlo sample sizes and master seed for one gradient estimate.

    ``n_partition_samples`` block indices are drawn uniformly with
    replacement and ``n_z_samples`` reparameterization draws are shared
    across them.
    """

    n_partition_samples: int = 4
    n_z_samples: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_partition_samples < 1:
            raise ContractError("n_partition_samples must be >= 1")
        if self.n_z_samples < 1:
            raise ContractError("n_z_samples must be >= 1")


def _data_term(y, X, alpha: AlphaVector, cfg: SpectralConfig):
    """Gradient ``g_alpha`` of ``-0.5 ||v||^2 / noise_variance`` in
    ``(theta, s)``, and ``v_sq = ||v||^2``, for one draw or a stack of draws
    (the results carry the same leading axis).  The ``s`` part is
    ``Phi v / noise_variance``.  The ``theta`` part follows from the
    feature Jacobian: with ``w_ij = -s_{2i} sin(a_ij) + s_{2i+1} cos(a_ij)``
    (the derivative of ``phi^T s`` in the angle ``a_ij``),

        d(-0.5||v||^2/noise)/d r_i = (2 pi / noise) * sum_j v_j w_ij x_j,

    assembled for all frequencies at once as ``(W * v) @ X`` without
    materializing any per-point Jacobian.

    Nothing is checked here: ``X`` ``(n, d)`` and ``y`` ``(n,)`` are rows of
    a validated partition and ``alpha`` comes from a validated state.
    """
    s = alpha.s
    phi = feature_matrix(X, alpha.theta, cfg)
    v = y - (s[..., None, :] @ phi)[..., 0, :]
    inv_noise = 1.0 / cfg.noise_variance
    g_s = inv_noise * (phi @ v[..., None])[..., 0]
    rotated = s[..., 1::2, None] * phi[..., 0::2, :] - s[..., 0::2, None] * phi[..., 1::2, :]
    g_theta = (TWO_PI * inv_noise) * ((rotated * v[..., None, :]) @ X)
    g_alpha = np.concatenate([g_theta.reshape(g_s.shape[:-1] + (-1,)), g_s], axis=-1)
    return g_alpha, np.sum(v * v, axis=-1)


def _dlog_variances(alpha: AlphaVector, v_sq, n_rows: int, cfg: SpectralConfig):
    """Per-draw derivatives of the data term in ``log noise_variance`` and of
    ``log N(s | 0, Lambda)`` in ``log signal_variance``."""
    d_noise = 0.5 * v_sq / cfg.noise_variance - 0.5 * n_rows
    d_signal = 0.5 * cfg.m * np.sum(alpha.s * alpha.s, axis=-1) / cfg.signal_variance - cfg.m
    return d_noise, d_signal


def log_likelihood(y, X, alpha: AlphaVector, cfg: SpectralConfig):
    """Gaussian log likelihood of ``(X, y)`` under the sampled weights.

    A stack of draws gives one value per draw.  Summing this over the
    blocks of a partition reproduces the full-data value exactly, because
    both the quadratic and the ``n log`` terms are additive over rows.
    """
    _, v_sq = _data_term(y, X, alpha, cfg)
    return -0.5 * v_sq / cfg.noise_variance - 0.5 * len(y) * np.log(
        2.0 * np.pi * cfg.noise_variance
    )


def variance_gradients(y_i, X_i, alpha: AlphaVector, cfg: SpectralConfig):
    """Derivatives of one sample's objective pieces in the log variances.

    Returns ``(d_log_noise, d_log_signal)``: the derivative of the block
    log likelihood with respect to ``log noise_variance`` and of the
    weight-prior term ``log N(s | 0, Lambda)`` with respect to
    ``log signal_variance``.  Neither term depends on the other variance.
    """
    _, v_sq = _data_term(y_i, X_i, alpha, cfg)
    return _dlog_variances(alpha, v_sq, len(y_i), cfg)


def partition_term(
    y_i, X_i, alpha: AlphaVector, state: VariationalState, z, cfg: SpectralConfig
) -> EtaGradient:
    """Single-block contribution to the data-term gradient in ``(M, b)``.

    The caller guarantees ``alpha = transform(state, z, cfg)``; under that
    coupling the chain rule through ``alpha = M z + b`` gives
    ``grad_m = g_alpha z^T`` and ``grad_b = g_alpha``.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (state.dim,):
        raise ContractError(f"z must have shape ({state.dim},), got {z.shape}")
    if alpha.flat.size != state.dim or state.dim != cfg.alpha_dim:
        raise ContractError("alpha, state and config dimensions disagree")
    g_alpha, _ = _data_term(y_i, X_i, alpha, cfg)
    return EtaGradient(grad_m=np.outer(g_alpha, z), grad_b=g_alpha)


def draw_sample_sets(plan: GradientSamplePlan, n_blocks: int, dim: int):
    """Materialize the index and z draws for one estimate.

    One master seed is split into two independent substreams, so the z
    draws do not depend on how many indices are consumed.
    """
    if n_blocks < 1:
        raise ContractError("the partition must contain at least one block")
    root = np.random.SeedSequence(plan.rng_seed)
    index_seq, z_seq = root.spawn(2)
    indices = np.random.default_rng(index_seq).integers(
        0, n_blocks, size=plan.n_partition_samples
    )
    z_draws = np.random.default_rng(z_seq).standard_normal((plan.n_z_samples, dim))
    return indices, z_draws


def stochastic_gradient(
    plan: GradientSamplePlan,
    data,
    state: VariationalState,
    prior: PriorSpec,
    cfg: SpectralConfig,
    return_variance_grads: bool = False,
):
    """Unbiased estimate of the bound's gradient in ``(M, b)``.

    Parameters
    ----------
    plan : GradientSamplePlan
    data : PartitionedDataset
        Only the sampled blocks are touched, so the cost per call is
        independent of the total number of points.
    state, prior, cfg
        Current variational state, prior and spectral configuration.
    return_variance_grads : bool, optional
        When true, additionally return ``(d_log_noise, d_log_signal)``,
        the matching stochastic derivatives of the bound in the log
        variance hyperparameters (same sample set).

    Returns
    -------
    EtaGradient or (EtaGradient, (float, float))
    """
    indices, z_draws = draw_sample_sets(plan, data.p, state.dim)
    X = np.concatenate([data.blocks[i][0] for i in indices])
    y = np.concatenate([data.blocks[i][1] for i in indices])
    alpha = transform(state, z_draws, cfg)
    g_alpha, v_sq = _data_term(y, X, alpha, cfg)
    scale = data.p / (plan.n_partition_samples * plan.n_z_samples)
    kl_m, kl_b = kl_term_gradient(state, z_draws, prior, cfg)
    grad = EtaGradient(
        grad_m=scale * (g_alpha.T @ z_draws) - kl_m,
        grad_b=scale * g_alpha.sum(axis=0) - kl_b,
    )
    if not return_variance_grads:
        return grad
    d_noise, d_signal = _dlog_variances(alpha, v_sq, y.size, cfg)
    return grad, (scale * float(np.sum(d_noise)), float(np.mean(d_signal)))


def elbo_estimate(
    n_z: int,
    data,
    state: VariationalState,
    prior: PriorSpec,
    cfg: SpectralConfig,
    seed: int = 0,
    return_parts: bool = False,
):
    """Monte-Carlo estimate of the evidence lower bound.

    Averages ``log p(y | alpha) + log p(alpha) - log q(alpha)`` over
    ``n_z`` reparameterization draws; two calls with the same seed agree
    bit for bit.  With ``return_parts`` the per-component means are also
    returned for monitoring.
    """
    if n_z < 1:
        raise ContractError("n_z must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z_draws = rng.standard_normal((n_z, state.dim))
    alpha = transform(state, z_draws, cfg)
    parts = {
        "log_likelihood": sum(log_likelihood(y_i, X_i, alpha, cfg) for X_i, y_i in data.blocks),
        "log_prior": log_prior(alpha, prior, cfg),
        "log_q": log_q(state, z_draws),
    }
    elbo = float(np.mean(parts["log_likelihood"] + parts["log_prior"] - parts["log_q"]))
    if return_parts:
        return elbo, {k: float(np.mean(val)) for k, val in parts.items()}
    return elbo
