"""Trigonometric feature maps and the low-rank kernel they induce.

A stack of ``m`` frequency vectors ``r_1, ..., r_m`` (each in R^d,
flattened into a single vector ``theta``) defines ``2m`` basis functions
per input, interleaved as

    phi(x) = (cos(2 pi r_1.x), sin(2 pi r_1.x), ..., cos(2 pi r_m.x), sin(2 pi r_m.x)).

With the diagonal weight matrix ``Lambda = (signal_variance / m) * I`` the
features induce the stationary covariance

    k(x, x') = phi(x)^T Lambda phi(x')
             = (signal_variance / m) * sum_i cos(2 pi r_i.(x - x')),

whose expectation over frequencies drawn from
``N(0, (4 pi^2 diag(l^2))^{-1})`` is the squared-exponential kernel with
lengthscales ``l``.  Everything downstream (local Gram matrices,
likelihood gradients) is built from the dense primitives here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SpectralConfig:
    """Dimensions and variance hyperparameters of the feature model.

    Parameters
    ----------
    d : int
        Input dimension, at least 1.
    m : int
        Number of spectral frequencies, at least 1.  The feature map has
        ``2 m`` entries (a cosine and a sine per frequency).
    signal_variance : float
        Prior variance of the latent function, ``> 0``.
    noise_variance : float
        Observation noise variance, ``> 0``.
    """

    d: int
    m: int
    signal_variance: float
    noise_variance: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise ContractError(f"input dimension must be an integer >= 1, got {self.d!r}")
        if int(self.m) != self.m or self.m < 1:
            raise ContractError(f"frequency count must be an integer >= 1, got {self.m!r}")
        if not (np.isfinite(self.signal_variance) and self.signal_variance > 0):
            raise ContractError(f"signal_variance must be positive, got {self.signal_variance!r}")
        if not (np.isfinite(self.noise_variance) and self.noise_variance > 0):
            raise ContractError(f"noise_variance must be positive, got {self.noise_variance!r}")

    @property
    def num_features(self) -> int:
        """Length of the feature vector, ``2 m``."""
        return 2 * self.m

    @property
    def theta_dim(self) -> int:
        """Length of the flattened frequency vector, ``m * d``."""
        return self.m * self.d

    @property
    def alpha_dim(self) -> int:
        """Length of the joint (theta, s) vector, ``m d + 2 m``."""
        return self.m * self.d + 2 * self.m

    @property
    def lambda_diag(self) -> float:
        """Diagonal entry of the feature weight matrix Lambda."""
        return self.signal_variance / self.m


def as_frequency_matrix(theta, cfg: SpectralConfig) -> np.ndarray:
    """Validate ``theta`` and reshape it to ``(m, d)`` rows ``r_i`` (``(b, m, d)`` for a stack)."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != cfg.theta_dim:
        raise ContractError(
            f"theta must have shape ([b,] {cfg.theta_dim}) for m={cfg.m}, d={cfg.d}; "
            f"got {theta.shape}"
        )
    if not np.all(np.isfinite(theta)):
        raise ContractError("theta contains non-finite entries")
    return theta.reshape(theta.shape[:-1] + (cfg.m, cfg.d))


def _check_input(x, cfg: SpectralConfig) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (cfg.d,):
        raise ContractError(f"input point must have shape ({cfg.d},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ContractError("input point contains non-finite entries")
    return x


def basis_vector(x, theta, cfg: SpectralConfig) -> np.ndarray:
    """Evaluate the ``2m`` interleaved cos/sin features at a single input.

    Entry ``2i`` is ``cos(2 pi r_i . x)`` and entry ``2i + 1`` is
    ``sin(2 pi r_i . x)`` (0-based), so every feature lies in [-1, 1].
    """
    x = _check_input(x, cfg)
    angles = TWO_PI * (as_frequency_matrix(theta, cfg) @ x)
    out = np.empty(cfg.num_features)
    out[0::2] = np.cos(angles)
    out[1::2] = np.sin(angles)
    return out


def feature_matrix(X, theta, cfg: SpectralConfig) -> np.ndarray:
    """Feature vectors for each row of ``X``, stacked as columns.

    This is the hot kernel of training and prediction, so it checks
    nothing: ``X`` and ``theta`` must be finite and of the shapes below,
    which the entry points (CSV loading, partition construction, model
    load, ``predict_batch``) have already validated.

    Parameters
    ----------
    X : numpy.ndarray, shape (n, d)
        Input points, one per row.  ``n = 0`` is allowed and produces an
        empty ``(2m, 0)`` matrix.
    theta : numpy.ndarray, shape (m * d,) or (b, m * d)
        Flattened frequency vectors, or a stack of ``b`` of them.
    cfg : SpectralConfig

    Returns
    -------
    numpy.ndarray, shape (2m, n) or (b, 2m, n)
        Column ``j`` equals ``basis_vector(X[j], theta, cfg)``, per vector of a stack.
    """
    X = np.asarray(X, dtype=float)
    theta = np.asarray(theta, dtype=float)
    angles = TWO_PI * (theta.reshape(theta.shape[:-1] + (cfg.m, cfg.d)) @ X.T)
    phi = np.empty(angles.shape[:-2] + (cfg.num_features, X.shape[0]))
    phi[..., 0::2, :] = np.cos(angles)
    phi[..., 1::2, :] = np.sin(angles)
    return phi


def approx_kernel(x, x2, theta, cfg: SpectralConfig) -> float:
    """Low-rank kernel value ``phi(x)^T Lambda phi(x')``.

    Equals ``(signal_variance / m) * sum_i cos(2 pi r_i . (x - x'))`` and
    is therefore bounded by ``signal_variance`` in absolute value.
    """
    phi_a = basis_vector(x, theta, cfg)
    phi_b = basis_vector(x2, theta, cfg)
    return float(cfg.lambda_diag * np.dot(phi_a, phi_b))
