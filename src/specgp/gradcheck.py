"""Finite-difference verification of every analytic gradient.

Each check builds random small instances, evaluates the analytic gradient
and compares it against central differences of the matching scalar
objective.  The error metric is

    max |analytic - numeric| / max(1, max |numeric|)

over all coordinates, aggregated over instances.  The same routines back
the ``specgp gradcheck`` CLI command and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import SpectralConfig, basis_vector
from .gradient import partition_term, variance_gradients
from .localmodel import AlphaVector
from .variational import PriorSpec, VariationalState, kl_term_gradient, log_prior, log_q, transform

DEFAULT_TOL = 1e-5
DEFAULT_STEP = 1e-6


@dataclass
class CheckResult:
    name: str
    instances: int
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def central_difference(func, x0: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a time."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.empty(x0.size)
    for i in range(x0.size):
        bumped = x0.copy()
        bumped[i] = x0[i] + step
        upper = func(bumped)
        bumped[i] = x0[i] - step
        lower = func(bumped)
        grad[i] = (upper - lower) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.asarray(numeric, dtype=float).ravel()
    scale = max(1.0, float(np.max(np.abs(numeric))) if numeric.size else 0.0)
    return float(np.max(np.abs(analytic - numeric))) / scale if numeric.size else 0.0


def _random_problem(rng, max_m=3, max_d=2, max_points=15):
    """A small random (cfg, prior, state, block) instance with D <= 12."""
    d = int(rng.integers(1, max_d + 1))
    m = int(rng.integers(1, max_m + 1))
    while m * d + 2 * m > 12:
        m -= 1
    cfg = SpectralConfig(
        d=d,
        m=m,
        signal_variance=float(rng.uniform(0.5, 2.0)),
        noise_variance=float(rng.uniform(0.2, 1.0)),
    )
    prior = PriorSpec.from_lengthscales(rng.uniform(0.3, 2.0, size=d), cfg)
    dim = cfg.alpha_dim
    # Keep M far from singular: the KL objective contains log|det M|, whose
    # curvature grows like 1/sigma_min(M)^2 and would swamp any central
    # difference long before the analytic gradient could be at fault.  With
    # dim <= 12 the random part has spectral norm <= ~0.7 < 1.
    M = np.eye(dim) + 0.1 * rng.standard_normal((dim, dim))
    b = 0.5 * rng.standard_normal(dim)
    state = VariationalState(M, b)
    n_k = int(rng.integers(1, max_points + 1))
    X_i = rng.uniform(-1.0, 1.0, size=(n_k, d))
    y_i = rng.standard_normal(n_k)
    z = rng.standard_normal(dim)
    return cfg, prior, state, X_i, y_i, z


def _pack(M, b):
    return np.concatenate([M.ravel(), b])


def _unpack(flat, dim):
    return flat[: dim * dim].reshape(dim, dim), flat[dim * dim :]


def check_partition_term(seed=0, instances=20, step=DEFAULT_STEP) -> CheckResult:
    """partition_term against differences of the block data term in (M, b)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = 0.0
    for _ in range(instances):
        cfg, _, state, X_i, y_i, z = _random_problem(rng)
        dim = state.dim

        def objective(flat):
            M, b = _unpack(flat, dim)
            alpha = AlphaVector.from_flat(M @ z + b, cfg)
            phi = np.asarray(
                [basis_vector(x, alpha.theta, cfg) for x in X_i]
            ).T
            v = y_i - phi.T @ alpha.s
            return -0.5 * float(v @ v) / cfg.noise_variance

        alpha = transform(state, z, cfg)
        grad = partition_term(y_i, X_i, alpha, state, z, cfg)
        numeric = central_difference(objective, _pack(state.M, state.b), step)
        analytic = _pack(grad.grad_m, grad.grad_b)
        worst = max(worst, relative_error(analytic, numeric))
    return CheckResult("partition_term", instances, worst, DEFAULT_TOL)


def check_kl_gradient(seed=0, instances=20, step=DEFAULT_STEP) -> CheckResult:
    """kl_term_gradient against differences of log q - log p in (M, b)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = 0.0
    for _ in range(instances):
        cfg, prior, state, _, _, z = _random_problem(rng)
        dim = state.dim

        def objective(flat):
            M, b = _unpack(flat, dim)
            trial = VariationalState(M, b)
            alpha = transform(trial, z, cfg)
            return log_q(trial, z) - log_prior(alpha, prior, cfg)

        grad_m, grad_b = kl_term_gradient(state, z, prior, cfg)
        numeric = central_difference(objective, _pack(state.M, state.b), step)
        analytic = _pack(grad_m, grad_b)
        worst = max(worst, relative_error(analytic, numeric))
    return CheckResult("kl_term_gradient", instances, worst, DEFAULT_TOL)


def check_variance_gradients(seed=0, instances=20, step=DEFAULT_STEP) -> CheckResult:
    """variance_gradients against differences in the log variances."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = 0.0
    for _ in range(instances):
        cfg, _, state, X_i, y_i, z = _random_problem(rng)
        alpha = transform(state, z, cfg)

        def data_term(log_noise):
            trial = SpectralConfig(
                cfg.d, cfg.m, cfg.signal_variance, float(np.exp(log_noise[0]))
            )
            phi = np.asarray([basis_vector(x, alpha.theta, trial) for x in X_i]).T
            v = y_i - phi.T @ alpha.s
            return (
                -0.5 * float(v @ v) / trial.noise_variance
                - 0.5 * y_i.size * np.log(2.0 * np.pi * trial.noise_variance)
            )

        def weight_prior_term(log_signal):
            lam = float(np.exp(log_signal[0])) / cfg.m
            return -0.5 * float(
                np.sum(alpha.s**2 / lam + np.log(2.0 * np.pi * lam))
            )

        d_noise, d_signal = variance_gradients(y_i, X_i, alpha, cfg)
        fd_noise = central_difference(data_term, np.array([np.log(cfg.noise_variance)]), step)
        fd_signal = central_difference(
            weight_prior_term, np.array([np.log(cfg.signal_variance)]), step
        )
        worst = max(worst, relative_error(np.array([d_noise]), fd_noise))
        worst = max(worst, relative_error(np.array([d_signal]), fd_signal))
    return CheckResult("variance_gradients", instances, worst, DEFAULT_TOL)


def run_all(seed=0, instances=20):
    """Run every gradient check; returns the list of results."""
    return [
        check_partition_term(seed, instances),
        check_kl_gradient(seed, instances),
        check_variance_gradients(seed, instances),
    ]
