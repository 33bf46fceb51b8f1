"""Per-block Gaussian linear algebra and the mixed test conditional.

For a data block ``(X_k, y_k)`` and frequencies ``theta`` the regularized
local Gram matrix is

    Gamma_k = Phi(X_k) Phi(X_k)^T + noise_variance * Lambda^{-1},

a ``2m x 2m`` symmetric positive definite matrix.  Everything here takes
one ``theta`` or a stack of ``b`` of them (one per posterior draw): a
block's Gram matrices for the whole stack are formed and Cholesky-factored
in one call, and one batched conditional serves every (draw, test point)
pair of the block.  Given a joint vector ``alpha = (theta, s)`` the
predictive conditional at a test point blends the explicit-weight mean
``phi^T s`` with the local data-driven mean through a mixing coefficient
``gamma_mix`` in [-1, 1]:

    mean     = gamma_mix * phi^T s + (1 - gamma_mix) * phi^T Gamma_k^{-1} Phi y_k
    variance = (1 - gamma_mix^2) * noise_variance * phi^T Gamma_k^{-1} phi.

``gamma_mix = 0`` recovers the standard low-rank GP posterior restricted
to the block; ``|gamma_mix| = 1`` collapses the variance to zero because
the conditional then degenerates onto the sampled weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError
from .features import SpectralConfig, basis_vector, feature_matrix

# Jitter escalation for the rare case where accumulated roundoff makes the
# Cholesky of Gamma fail: start at 1e-10 * trace/(2m) and multiply by 10
# until 1e-4 * trace/(2m), then give up.
_JITTER_START_FRACTION = 1e-10
_JITTER_MAX_FRACTION = 1e-4


@dataclass(frozen=True)
class AlphaVector:
    """Joint latent vector: frequencies ``theta`` followed by weights ``s``."""

    theta: np.ndarray  # shape (m * d,) or (b, m * d)
    s: np.ndarray  # shape (2 m,) or (b, 2 m)

    @classmethod
    def from_flat(cls, flat, cfg: SpectralConfig) -> "AlphaVector":
        """Split a flat length ``m d + 2 m`` vector (or a stack of rows) into (theta, s)."""
        flat = np.asarray(flat, dtype=float)
        if flat.ndim not in (1, 2) or flat.shape[-1] != cfg.alpha_dim:
            raise ContractError(
                f"alpha must have shape ([b,] {cfg.alpha_dim}), got {flat.shape}"
            )
        return cls(theta=flat[..., : cfg.theta_dim].copy(), s=flat[..., cfg.theta_dim :].copy())

    @property
    def flat(self) -> np.ndarray:
        """Concatenated (theta, s) vector, one row per draw for a stack."""
        return np.concatenate([self.theta, self.s], axis=-1)


@dataclass(frozen=True)
class PredictiveMoments:
    """Mean and non-negative variance of a univariate predictive law."""

    mean: float
    variance: float


class LocalGram:
    """Cholesky-backed view of one block's regularized Gram matrix, for one
    ``theta`` or a stack of ``b`` of them.

    Attributes
    ----------
    gamma : numpy.ndarray, shape (2m, 2m) or (b, 2m, 2m)
        The (possibly jittered) matrices that were factorized, so
        ``chol @ chol^T`` reproduces each to roundoff.
    chol : numpy.ndarray, shape (2m, 2m) or (b, 2m, 2m)
        Lower-triangular Cholesky factors.
    phi_y : numpy.ndarray, shape (2m,) or (b, 2m)
        ``Phi(X_k) @ y_k``, the only data statistic needed by the mean.
    block_id : int
        Identifier used in numerical error reports.
    n_points : int
        Number of data points in the block (zero is allowed).
    """

    __slots__ = ("gamma", "chol", "phi_y", "block_id", "n_points")

    def __init__(self, gamma, chol, phi_y, block_id, n_points):
        self.gamma = gamma
        self.chol = chol
        self.phi_y = phi_y
        self.block_id = block_id
        self.n_points = n_points

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``gamma @ out = rhs`` for a single-``theta`` view."""
        return np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, rhs))

    def quad_form(self, vec: np.ndarray) -> float:
        """``vec^T gamma^{-1} vec`` as a sum of squares (always >= 0), single ``theta``."""
        half = np.linalg.solve(self.chol, vec)
        return float(np.dot(half, half))


def _jittered_cholesky(gamma: np.ndarray, block_id: int):
    """Cholesky with escalating diagonal jitter; returns (chol, jittered gamma)."""
    try:
        return np.linalg.cholesky(gamma), gamma
    except np.linalg.LinAlgError:
        pass
    base = np.trace(gamma) / gamma.shape[0]
    fraction = _JITTER_START_FRACTION
    while fraction <= _JITTER_MAX_FRACTION:
        jittered = gamma + (fraction * base) * np.eye(gamma.shape[0])
        try:
            return np.linalg.cholesky(jittered), jittered
        except np.linalg.LinAlgError:
            fraction *= 10.0
    raise NumericalError(
        f"Cholesky of local Gram matrix failed for block {block_id} even with "
        f"jitter up to {_JITTER_MAX_FRACTION:g} * trace/(2m)",
        block_id=block_id,
    )


def _stacked_cholesky(gamma: np.ndarray, block_id: int):
    """Factor one matrix or a ``(b, k, k)`` stack in one call; if that fails,
    factor each member with :func:`_jittered_cholesky`, so only the members
    that need it are jittered.  Returns (chol, possibly jittered gamma)."""
    try:
        return np.linalg.cholesky(gamma), gamma
    except np.linalg.LinAlgError:
        pass
    pairs = [_jittered_cholesky(g, block_id) for g in gamma.reshape((-1,) + gamma.shape[-2:])]
    chol = np.stack([c for c, _ in pairs]).reshape(gamma.shape)
    return chol, np.stack([g for _, g in pairs]).reshape(gamma.shape)


def build_local_gram(X_k, y_k, theta, cfg: SpectralConfig, block_id: int = 0) -> LocalGram:
    """Assemble and factorize ``Gamma_k`` for one data block, per ``theta`` of a stack.

    The inputs are trusted: the block comes from a validated partition
    (``kmeans_partition`` or a loaded model) and ``theta`` from a validated
    state, so all of them are finite and of the shapes below.

    Parameters
    ----------
    X_k : numpy.ndarray, shape (n_k, d)
        Block inputs; ``n_k = 0`` leaves the pure regularizer
        ``noise_variance * Lambda^{-1}``, which is diagonal and always
        factorizable.
    y_k : numpy.ndarray, shape (n_k,)
        Block targets.
    theta : numpy.ndarray, shape (m * d,) or (b, m * d)
        Frequencies used to evaluate the features, or a stack of ``b`` of
        them; the stack is factorized in one call.
    cfg : SpectralConfig
    block_id : int, optional
        Identifier forwarded to error reports.

    Returns
    -------
    LocalGram
        With a leading axis of length ``b`` for a stack.
    """
    phi = feature_matrix(X_k, theta, cfg)
    gamma = phi @ np.swapaxes(phi, -1, -2)
    # noise_variance * Lambda^{-1} with Lambda = (signal_variance/m) * I.
    ridge = cfg.noise_variance * cfg.m / cfg.signal_variance
    diag = np.arange(cfg.num_features)
    gamma[..., diag, diag] += ridge
    chol, gamma = _stacked_cholesky(gamma, block_id)
    phi_y = phi @ y_k
    return LocalGram(gamma=gamma, chol=chol, phi_y=phi_y, block_id=block_id, n_points=X_k.shape[0])


def conditional_moments(local: LocalGram, phi_star, s, gamma_mix: float, noise_variance: float):
    """Mixed predictive moments at ``t`` test points, per ``theta`` of ``local``.

    One solve gives ``[w | h] = L^{-1} [Phi y | phi_*]`` for every factor
    ``L`` of the stack; then

        mean     = gamma_mix * phi_*^T s + (1 - gamma_mix) * h^T w
        variance = (1 - gamma_mix^2) * noise_variance * ||h||^2,

    so the variance is a sum of squares.  ``gamma_mix`` is not checked here.

    Parameters
    ----------
    local : LocalGram
        Built from the same ``theta`` (or stack) that gave ``phi_star``.
    phi_star : numpy.ndarray, shape (2m, t) or (b, 2m, t)
        Test-point features.
    s : numpy.ndarray, shape (2m,) or (b, 2m)
        Weight draws.

    Returns
    -------
    (mean, variance) : pair of numpy.ndarray, shape (t,) or (b, t)
    """
    rhs = np.concatenate([local.phi_y[..., :, None], phi_star], axis=-1)
    # A general solve on the triangular factors: on a (65, 10, 10) stack it
    # ran 4.6x faster than scipy 1.17's stacked solve_triangular (on par at
    # (13, 32, 32)), with results equal to roundoff.
    half = np.linalg.solve(local.chol, rhs)
    w, h = half[..., :1], half[..., 1:]
    basis_mean = (s[..., None, :] @ phi_star)[..., 0, :]
    mean = gamma_mix * basis_mean + (1.0 - gamma_mix) * np.sum(h * w, axis=-2)
    variance = (1.0 - gamma_mix**2) * noise_variance * np.sum(h * h, axis=-2)
    return mean, variance


def test_conditional(
    x_star, local: LocalGram, alpha: AlphaVector, gamma_mix: float, cfg: SpectralConfig
) -> PredictiveMoments:
    """Predictive mean and variance at ``x_star`` for one latent sample: the
    one-draw, one-point view of :func:`conditional_moments`.

    The caller must pass the same ``theta`` (inside ``alpha``) that was
    used to build ``local``; the function cannot verify that.

    Raises
    ------
    ContractError
        If ``|gamma_mix| > 1``, which would produce a negative variance.
    """
    if not np.isfinite(gamma_mix) or abs(gamma_mix) > 1.0:
        raise ContractError(f"gamma_mix must lie in [-1, 1], got {gamma_mix!r}")
    phi = basis_vector(x_star, alpha.theta, cfg)
    mean, variance = conditional_moments(
        local, phi[:, None], alpha.s, gamma_mix, cfg.noise_variance
    )
    return PredictiveMoments(mean=float(mean[0]), variance=float(variance[0]))
