"""Likelihood evaluation and unbiased stochastic gradients of the bound.

The bound is ``E_q[log p(y | alpha)] - KL(q || p)``.  The divergence and
its gradients are exact (:mod:`~specgp.variational`); only the likelihood
is estimated by Monte Carlo.  The Gaussian likelihood of a data block
factorizes through the residual ``v = y - Phi(X)^T s``:

    log p(y | alpha) = -0.5 ||v||^2 / noise_variance - 0.5 n log(2 pi noise_variance).

The likelihood term over ``p`` equally-weighted blocks is estimated doubly
stochastically from block indices ``i_1..i_a``, drawn uniformly with
replacement, and standard normal draws ``z_1..z_b``.  Both sums are linear,
so one kernel evaluates them at once: it takes the concatenated rows of the
sampled blocks (a block drawn twice appears twice) and the ``(b, D)`` stack
``A = Z M^T + b``, split by :func:`~specgp.variational.transform` into the
pair of arrays ``(theta, s)``, and returns each draw's data-term gradient
``G_j`` in alpha and ``||v_j||^2``.  Past the feature map its work is three
products with the ``(b, 2m, n)`` features, whose rows run in the order of
the weights (cosines, then sines): the residual ``v = y - Phi^T s`` and,
for the gradient, ``Phi v`` and ``Phi (v * X)``.  Then

    grad_M = (p / (a b)) G^T Z - d KL/dM,
    grad_b = (p / (a b)) sum_j G_j - d KL/db.

:func:`stochastic_gradient` returns the bound's gradient as one flat
vector in the layout of everything training learns, ``[vec(M) row-major,
b, log noise_variance, log signal_variance]``; :func:`eta_views` reads its
``(M, b)`` part.  It is the only gradient estimator: a block's own term is
the estimate on a one-block dataset plus the KL gradient, and
:mod:`~specgp.gradcheck` differentiates the whole vector against the
sampled bound.  :func:`log_likelihood` runs only the kernel's residual
step.  The index stream and the z stream are split from one master seed,
so the z draws do not depend on how many blocks there are or how many
indices are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NONNEGATIVE_INT, POSITIVE_INT, check_fields, checked
from .features import TWO_PI, SpectralConfig, feature_matrix
from .variational import (
    PriorSpec,
    VariationalState,
    kl_divergence,
    kl_term_gradient,
    second_moments,
    transform,
)


def eta_views(flat, dim: int):
    """Views of ``M`` ``(dim, dim)`` and ``b`` ``(dim,)`` in a flat vector laid
    out as ``[vec(M) row-major, b, ...]``."""
    return flat[: dim * dim].reshape(dim, dim), flat[dim * dim : dim * dim + dim]


@dataclass(frozen=True)
class GradientSamplePlan:
    """Monte-Carlo sample sizes and master seed for one gradient estimate.

    ``n_partition_samples`` block indices are drawn uniformly with
    replacement and ``n_z_samples`` reparameterization draws are shared
    across them.
    """

    n_partition_samples: int
    n_z_samples: int
    rng_seed: int = 0

    RULES = {"n_partition_samples": POSITIVE_INT, "n_z_samples": POSITIVE_INT,
             "rng_seed": NONNEGATIVE_INT}

    def __post_init__(self):
        check_fields(self)


def _residuals(y, X, theta, s, cfg: SpectralConfig):
    """Features ``Phi(X)`` ``([b,] 2m, n)`` and residuals
    ``v = y - Phi^T s`` for one draw or a stack of draws.  Nothing
    is checked: ``X`` ``(n, d)`` and ``y`` ``(n,)`` are rows of a validated
    partition, ``theta`` ``([b,] m d)`` and ``s`` ``([b,] 2m)`` come from
    :func:`~specgp.variational.transform`."""
    phi = feature_matrix(X, theta, cfg)
    v = y - (s[..., None, :] @ phi)[..., 0, :]
    return phi, v


def _data_term(y, X, theta, s, cfg: SpectralConfig):
    """Gradient ``g_alpha`` of ``-0.5 ||v||^2 / noise_variance`` in
    ``(theta, s)``, and ``v_sq = ||v||^2``, for one draw or a stack of draws
    (the results carry the same leading axis).  The ``s`` part is
    ``Phi v / noise_variance``.  The ``theta`` part follows from the
    feature Jacobian: with ``w_ij = -s_i sin(a_ij) + s_{m+i} cos(a_ij)``
    (the derivative of ``phi^T s`` in the angle ``a_ij``),

        d(-0.5||v||^2/noise)/d r_i = (2 pi / noise) * sum_j v_j w_ij x_j
                                   = (2 pi / noise) * (s_{m+i} P_i - s_i P_{m+i}),

    where ``P = Phi (v * X)`` holds ``sum_j cos(a_ij) v_j x_j`` in row ``i``
    and ``sum_j sin(a_ij) v_j x_j`` in row ``m + i``.  The two products
    ``Phi v`` and ``P`` are all the work on the features; no per-point
    Jacobian is materialized.
    Inputs are trusted as in :func:`_residuals`."""
    phi, v = _residuals(y, X, theta, s, cfg)
    inv_noise = 1.0 / cfg.noise_variance
    P = phi @ (v[..., None] * X)
    m = cfg.m
    g_theta = (TWO_PI * inv_noise) * (
        s[..., m:, None] * P[..., :m, :] - s[..., :m, None] * P[..., m:, :]
    )
    g_s = inv_noise * (phi @ v[..., None])[..., 0]
    g_alpha = np.concatenate([g_theta.reshape(v.shape[:-1] + (-1,)), g_s], axis=-1)
    return g_alpha, np.sum(v * v, axis=-1)


def _dlog_variances(state: VariationalState, v_sq, n_rows: int, cfg: SpectralConfig):
    """Per-draw derivative of the data term in ``log noise_variance``, and the
    exact derivative of ``-KL(q || p)`` in ``log signal_variance``:
    ``0.5 m sum_i E_q[s_i^2] / signal_variance - m`` over the weights."""
    d_noise = 0.5 * v_sq / cfg.noise_variance - 0.5 * n_rows
    s_sq = second_moments(state)[cfg.theta_dim :]
    return d_noise, 0.5 * cfg.m * float(np.sum(s_sq)) / cfg.signal_variance - cfg.m


def log_likelihood(y, X, theta, s, cfg: SpectralConfig):
    """Gaussian log likelihood of ``(X, y)`` under sampled frequencies
    ``theta`` ``([b,] m d)`` and weights ``s`` ``([b,] 2m)``.

    A stack of draws gives one value per draw.  Summing this over the
    blocks of a partition reproduces the full-data value exactly, because
    both the quadratic and the ``n log`` terms are additive over rows.
    """
    _, v = _residuals(y, X, theta, s, cfg)
    return -0.5 * np.sum(v * v, axis=-1) / cfg.noise_variance - 0.5 * len(y) * np.log(
        2.0 * np.pi * cfg.noise_variance
    )


def draw_sample_sets(plan: GradientSamplePlan, n_blocks: int, dim: int):
    """Materialize the index and z draws for one estimate.

    One master seed is split into two independent substreams, so the z
    draws do not depend on how many indices are consumed.
    """
    n_blocks = checked("n_blocks", n_blocks, POSITIVE_INT)
    # The two children that ``SeedSequence(plan.rng_seed).spawn(2)`` would
    # give, built directly: the same streams without the parent's own cost.
    index_seq, z_seq = (np.random.SeedSequence(plan.rng_seed, spawn_key=(i,)) for i in (0, 1))
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
) -> np.ndarray:
    """Unbiased estimate of the bound's gradient in everything training learns.

    Parameters
    ----------
    plan : GradientSamplePlan
    data : PartitionedDataset
        Only the sampled blocks are touched, so the cost per call is
        independent of the total number of points.
    state, prior, cfg
        Current variational state, prior and spectral configuration.

    Returns
    -------
    ndarray, shape (D * D + D + 2,)
        ``[vec(grad_M) row-major, grad_b, d_log_noise, d_log_signal]``.
        The noise derivative is estimated from the same sample set; the
        signal derivative is exact.
    """
    indices, z_draws = draw_sample_sets(plan, data.p, state.dim)
    X = np.concatenate([data.blocks[i][0] for i in indices])
    y = np.concatenate([data.blocks[i][1] for i in indices])
    theta, s = transform(state, z_draws, cfg)
    g_alpha, v_sq = _data_term(y, X, theta, s, cfg)
    scale = data.p / (plan.n_partition_samples * plan.n_z_samples)
    kl_m, kl_b = kl_term_gradient(state, prior, cfg)
    n_eta = state.dim * (state.dim + 1)
    grad = np.empty(n_eta + 2)
    grad_m, grad_b = eta_views(grad, state.dim)
    np.subtract(scale * (g_alpha.T @ z_draws), kl_m, out=grad_m)
    np.subtract(scale * g_alpha.sum(axis=0), kl_b, out=grad_b)
    d_noise, d_signal = _dlog_variances(state, v_sq, y.size, cfg)
    grad[n_eta:] = scale * float(np.sum(d_noise)), d_signal
    return grad


def elbo_estimate(
    n_z: int,
    data,
    state: VariationalState,
    prior: PriorSpec,
    cfg: SpectralConfig,
    seed: int = 0,
    return_parts: bool = False,
):
    """Estimate of the evidence lower bound.

    The mean of ``log p(y | alpha)`` over ``n_z`` reparameterization draws,
    minus the exact ``KL(q || p)``; two calls with the same seed agree bit
    for bit.  With ``return_parts`` the two parts, ``"log_likelihood"`` and
    ``"kl"``, are also returned for monitoring.
    """
    n_z, seed = checked("n_z", n_z, POSITIVE_INT), checked("seed", seed, NONNEGATIVE_INT)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z_draws = rng.standard_normal((n_z, state.dim))
    theta, s = transform(state, z_draws, cfg)
    ll = sum(log_likelihood(y_i, X_i, theta, s, cfg) for X_i, y_i in data.blocks)
    parts = {"log_likelihood": float(np.mean(ll)), "kl": kl_divergence(state, prior, cfg)}
    elbo = parts["log_likelihood"] - parts["kl"]
    if return_parts:
        return elbo, parts
    return elbo
