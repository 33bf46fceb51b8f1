"""Affine reparameterization of the variational posterior.

The posterior over the joint vector ``alpha = (theta, s)`` is a full
Gaussian parameterized through an affine map of a standard normal draw:

    z ~ N(0, I),   alpha = M z + b,   q(alpha) = N(z | 0, I) / |det M|.

``M`` must stay invertible.  Each state inverts it once, for the exact
condition number that guards against singular states and for the
divergence gradient

    d/dM log(q/p) = -(M^{-1})^T + g_p z^T,    d/db log(q/p) = g_p,
    g_p = Sigma_prior^{-1} (M z + b),

where the prior over ``alpha`` is the diagonal Gaussian with the ``theta``
variances first and the config's weight variance ``signal_variance / m``
repeated ``2m`` times.  ``log |det M|`` is computed on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError
from .features import SpectralConfig
from .localmodel import AlphaVector

FOUR_PI_SQ = 4.0 * np.pi**2

# A state whose reciprocal condition number falls at or below this is
# considered numerically singular and may not be constructed.
RCOND_MIN = 1e-14


@dataclass(frozen=True)
class PriorSpec:
    """Diagonal Gaussian prior over the joint vector ``alpha``.

    ``theta_prior_variance`` holds one variance per frequency coordinate
    (length ``m * d``).  The shared variance of the ``2m`` trigonometric
    weights is not stored here: it is ``SpectralConfig.lambda_diag``, so it
    follows the signal variance when that is learned.
    """

    theta_prior_variance: np.ndarray

    def __post_init__(self):
        var = np.atleast_1d(np.asarray(self.theta_prior_variance, dtype=float))
        if var.ndim != 1 or var.size == 0:
            raise ContractError("theta_prior_variance must be a non-empty vector")
        if not np.all(np.isfinite(var)) or np.any(var <= 0):
            raise ContractError("theta_prior_variance entries must be positive and finite")
        object.__setattr__(self, "theta_prior_variance", var)

    @property
    def theta_dim(self) -> int:
        return self.theta_prior_variance.size

    def variances(self, cfg: SpectralConfig) -> np.ndarray:
        """Full diagonal of the prior covariance, length ``alpha_dim``; the
        caller guarantees ``theta_dim == cfg.theta_dim``."""
        return np.concatenate(
            [self.theta_prior_variance, np.full(cfg.num_features, cfg.lambda_diag)]
        )

    def sample_theta(self, rng: np.random.Generator) -> np.ndarray:
        """One draw of the flattened frequency vector from N(0, Theta)."""
        return rng.standard_normal(self.theta_dim) * np.sqrt(self.theta_prior_variance)

    @classmethod
    def from_lengthscales(cls, lengthscales, cfg: SpectralConfig) -> "PriorSpec":
        """Frequency prior ``N(0, (4 pi^2 diag(l^2))^{-1})`` tiled over the m frequencies."""
        ls = np.asarray(lengthscales, dtype=float)
        if ls.shape != (cfg.d,):
            raise ContractError(f"need {cfg.d} lengthscales, got shape {ls.shape}")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0):
            raise ContractError("lengthscales must be positive and finite")
        per_dim = 1.0 / (FOUR_PI_SQ * ls**2)
        return cls(theta_prior_variance=np.tile(per_dim, cfg.m))

    @classmethod
    def for_inputs(cls, X, cfg: SpectralConfig) -> "PriorSpec":
        """Data-scaled default: lengthscale = per-dimension standard deviation.

        Constant columns (zero spread) fall back to a lengthscale of 1 so
        the prior stays proper.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != cfg.d:
            raise ContractError(f"X must have shape (n, {cfg.d}), got {X.shape}")
        spread = X.std(axis=0) if X.shape[0] else np.zeros(cfg.d)
        spread = np.where(spread > 0, spread, 1.0)
        return cls.from_lengthscales(spread, cfg)


class VariationalState:
    """Invertible affine map ``z -> M z + b`` with its inverse, computed once.

    ``rcond`` is the exact ``1 / (||M||_1 ||M^{-1}||_1)``, 0 if a norm
    overflows; a zero pivot or ``rcond <= 1e-14`` raises
    :class:`NumericalError`.  ``log_abs_det`` is computed on first use."""

    __slots__ = ("M", "b", "rcond", "inverse_transpose", "_log_abs_det")

    def __init__(self, M, b):
        M = np.array(M, dtype=float)
        b = np.array(b, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ContractError(f"M must be square, got shape {M.shape}")
        if b.shape != (M.shape[0],):
            raise ContractError(f"b must have shape ({M.shape[0]},), got {b.shape}")
        if not (np.all(np.isfinite(M)) and np.all(np.isfinite(b))):
            raise ContractError("M and b must be finite")
        self.M = M
        self.b = b
        try:
            inv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            raise NumericalError("M is numerically singular (zero LU pivot)") from None
        with np.errstate(all="ignore"):
            rcond = 1.0 / (np.linalg.norm(M, 1) * np.linalg.norm(inv, 1))
        self.rcond = float(rcond) if np.isfinite(rcond) else 0.0
        if self.rcond <= RCOND_MIN:
            raise NumericalError(
                f"M is numerically singular (rcond={self.rcond:.3e} <= {RCOND_MIN:g})"
            )
        self.inverse_transpose = inv.T
        self._log_abs_det = None

    @property
    def dim(self) -> int:
        return self.b.size

    @property
    def log_abs_det(self) -> float:
        """``log |det M|``, computed once on first use."""
        if self._log_abs_det is None:
            self._log_abs_det = float(np.linalg.slogdet(self.M)[1])
        return self._log_abs_det


def initial_state(prior: PriorSpec, cfg: SpectralConfig, seed: int = 0) -> VariationalState:
    """Default starting point: ``M = 0.1 I``; ``b`` has a fresh prior draw in
    its frequency block and zeros for the weights."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    b = np.concatenate([prior.sample_theta(rng), np.zeros(cfg.num_features)])
    if b.size != cfg.alpha_dim:
        raise ContractError("prior dimensions do not match the spectral config")
    return VariationalState(0.1 * np.eye(cfg.alpha_dim), b)


def _check_z(state: VariationalState, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != state.dim:
        raise ContractError(f"z must have shape ([b,] {state.dim}), got {z.shape}")
    return z


def transform(state: VariationalState, z, cfg: SpectralConfig) -> AlphaVector:
    """Map a standard normal draw (or a stack) to the joint vector ``alpha = M z + b``."""
    z = _check_z(state, z)
    return AlphaVector.from_flat((state.M @ z.T).T + state.b, cfg)


def log_q(state: VariationalState, z):
    """Log density of ``alpha = M z + b`` under q, evaluated via ``z``.

    Change of variables gives ``log N(z | 0, I) - log |det M|``; a stack of
    draws gives one value per draw.
    """
    z = _check_z(state, z)
    return -0.5 * np.sum(z * z, axis=-1) - 0.5 * state.dim * np.log(2.0 * np.pi) - state.log_abs_det


def log_prior(alpha: AlphaVector, prior: PriorSpec, cfg: SpectralConfig):
    """Log density of ``alpha`` (per draw of a stack) under the diagonal Gaussian prior."""
    var = prior.variances(cfg)
    return -0.5 * np.sum(np.log(2.0 * np.pi * var) + alpha.flat**2 / var, axis=-1)


def kl_term_gradient(state: VariationalState, z, prior: PriorSpec, cfg: SpectralConfig):
    """Gradient of ``log q(alpha) - log p(alpha)`` with respect to (M, b) at fixed z.

    Returns
    -------
    (grad_m, grad_b) : tuple of numpy.ndarray
        ``grad_m = -(M^{-1})^T + g_p z^T`` and ``grad_b = g_p`` with
        ``g_p = Sigma_prior^{-1} (M z + b)``.  For a ``(b, D)`` stack of
        draws both are averaged over the draws.  The prior must cover the
        state's dimension, which ``train`` and model loading check once.
    """
    z = _check_z(state, z)
    var = prior.variances(cfg)
    zs = np.atleast_2d(z)
    g_p = ((state.M @ zs.T).T + state.b) / var
    grad_m = g_p.T @ zs / zs.shape[0] - state.inverse_transpose
    return grad_m, g_p.mean(axis=0)
