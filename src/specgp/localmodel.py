"""Per-block Gaussian linear algebra and the mixed test conditional.

For a data block ``(X_k, y_k)`` and frequencies ``theta`` the regularized
local Gram matrix is

    Gamma_k = Phi(X_k) Phi(X_k)^T + noise_variance * Lambda^{-1},

a ``2m x 2m`` symmetric positive definite matrix.  Its Cholesky factor is
computed once per (block, theta) pair and reused for every solve.  Given a
joint vector ``alpha = (theta, s)`` the predictive conditional at a test
point blends the explicit-weight mean ``phi^T s`` with the local
data-driven mean through a mixing coefficient ``gamma_mix`` in [-1, 1]:

    mean     = gamma_mix * phi^T s + (1 - gamma_mix) * phi^T Gamma_k^{-1} Phi y_k
    variance = (1 - gamma_mix^2) * noise_variance * phi^T Gamma_k^{-1} phi.

``gamma_mix = 0`` recovers the standard low-rank GP posterior restricted
to the block; ``|gamma_mix| = 1`` collapses the variance to zero because
the conditional then degenerates onto the sampled weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
        if not np.all(np.isfinite(flat)):
            raise ContractError("alpha contains non-finite entries")
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
    """Cholesky-backed view of one block's regularized Gram matrix.

    Attributes
    ----------
    gamma : numpy.ndarray, shape (2m, 2m)
        The (possibly jittered) matrix that was factorized, so
        ``chol @ chol.T`` reproduces it to roundoff.
    chol : numpy.ndarray, shape (2m, 2m)
        Lower-triangular Cholesky factor.
    phi_y : numpy.ndarray, shape (2m,)
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
        """Solve ``gamma @ out = rhs`` using the cached factor."""
        return scipy.linalg.cho_solve((self.chol, True), rhs)

    def quad_form(self, vec: np.ndarray) -> float:
        """``vec^T gamma^{-1} vec`` computed as a sum of squares (always >= 0)."""
        half = scipy.linalg.solve_triangular(self.chol, vec, lower=True)
        return float(np.dot(half, half))


def _jittered_cholesky(gamma: np.ndarray, block_id: int):
    """Cholesky with escalating diagonal jitter; returns (chol, jittered gamma)."""
    try:
        return scipy.linalg.cholesky(gamma, lower=True), gamma
    except scipy.linalg.LinAlgError:
        pass
    base = np.trace(gamma) / gamma.shape[0]
    fraction = _JITTER_START_FRACTION
    while fraction <= _JITTER_MAX_FRACTION:
        jittered = gamma + (fraction * base) * np.eye(gamma.shape[0])
        try:
            return scipy.linalg.cholesky(jittered, lower=True), jittered
        except scipy.linalg.LinAlgError:
            fraction *= 10.0
    raise NumericalError(
        f"Cholesky of local Gram matrix failed for block {block_id} even with "
        f"jitter up to {_JITTER_MAX_FRACTION:g} * trace/(2m)",
        block_id=block_id,
    )


def build_local_gram(X_k, y_k, theta, cfg: SpectralConfig, block_id: int = 0) -> LocalGram:
    """Assemble and factorize ``Gamma_k`` for one data block.

    Parameters
    ----------
    X_k : array_like, shape (n_k, d)
        Block inputs; ``n_k = 0`` leaves the pure regularizer
        ``noise_variance * Lambda^{-1}``, which is diagonal and always
        factorizable.
    y_k : array_like, shape (n_k,)
        Block targets.
    theta : array_like, shape (m * d,)
        Frequencies used to evaluate the features.
    cfg : SpectralConfig
    block_id : int, optional
        Identifier forwarded to error reports.

    Returns
    -------
    LocalGram
    """
    X_k = np.asarray(X_k, dtype=float)
    if X_k.ndim != 2:
        raise ContractError(f"X_k must be 2-d, got shape {X_k.shape}")
    y_k = np.asarray(y_k, dtype=float)
    if y_k.shape != (X_k.shape[0],):
        raise ContractError(
            f"y_k must have shape ({X_k.shape[0]},) to match X_k, got {y_k.shape}"
        )
    if y_k.size and not np.all(np.isfinite(y_k)):
        raise ContractError("y_k contains non-finite entries")

    phi = feature_matrix(X_k, theta, cfg)
    gamma = phi @ phi.T
    # noise_variance * Lambda^{-1} with Lambda = (signal_variance/m) * I.
    ridge = cfg.noise_variance * cfg.m / cfg.signal_variance
    gamma[np.diag_indices_from(gamma)] += ridge
    chol, gamma = _jittered_cholesky(gamma, block_id)
    phi_y = phi @ y_k
    return LocalGram(gamma=gamma, chol=chol, phi_y=phi_y, block_id=block_id, n_points=X_k.shape[0])


def test_conditional(
    x_star, local: LocalGram, alpha: AlphaVector, gamma_mix: float, cfg: SpectralConfig
) -> PredictiveMoments:
    """Predictive mean and variance at ``x_star`` for one latent sample.

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
    local_mean = float(phi @ local.solve(local.phi_y))
    mean = gamma_mix * float(phi @ alpha.s) + (1.0 - gamma_mix) * local_mean
    variance = (1.0 - gamma_mix**2) * cfg.noise_variance * local.quad_form(phi)
    return PredictiveMoments(mean=mean, variance=variance)
