"""Finite-difference verification of every analytic gradient.

Each check builds random small instances, evaluates the analytic gradient
and compares it against central differences of the matching scalar
objective.  The error metric is

    max |analytic - numeric| / max(1, max |numeric|)

over the coordinates of one part of the gradient, aggregated over parts
and instances.  :func:`check_stochastic_gradient` differentiates the
estimator that trains, :func:`~specgp.gradient.stochastic_gradient`, in
every flat entry: its oracle is the sampled bound for the plan's own
(block, z) draws, with features from libm ``cos`` and ``sin`` of each row's
angles.  That shares no code with :func:`~specgp.features.feature_matrix`
(a half-angle tangent), so the oracle stays an independent reference for
the feature map that trains.  The same routines back the ``specgp
gradcheck`` CLI command and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NONNEGATIVE_INT, POSITIVE_INT, checked
from .features import SpectralConfig
from .gradient import GradientSamplePlan, draw_sample_sets, eta_views, stochastic_gradient
from .partition import PartitionedDataset
from .variational import PriorSpec, VariationalState, kl_divergence, kl_term_gradient

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


def _random_problem(rng, max_m=3, max_d=2):
    """A small random (cfg, prior, state) instance with D <= 12."""
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
    prior = PriorSpec(rng.uniform(0.3, 2.0, size=d))
    dim = cfg.alpha_dim
    # Keep M far from singular: the KL objective contains log|det M|, whose
    # curvature grows like 1/sigma_min(M)^2 and would swamp any central
    # difference long before the analytic gradient could be at fault.  With
    # dim <= 12 the random part has spectral norm <= ~0.7 < 1.
    M = np.eye(dim) + 0.1 * rng.standard_normal((dim, dim))
    b = 0.5 * rng.standard_normal(dim)
    return cfg, prior, VariationalState(M, b)


def _random_blocks(rng, d, max_blocks=3, max_points=15):
    """1 to ``max_blocks`` blocks of 1 to ``max_points`` rows each."""
    blocks = []
    for _ in range(int(rng.integers(1, max_blocks + 1))):
        n_k = int(rng.integers(1, max_points + 1))
        blocks.append((rng.uniform(-1.0, 1.0, size=(n_k, d)), rng.standard_normal(n_k)))
    centroids = np.array([X_k.mean(axis=0) for X_k, _ in blocks])
    return PartitionedDataset(blocks=blocks, centroids=centroids)


def _block_log_likelihood(X_k, y_k, alpha, cfg: SpectralConfig) -> float:
    """Gaussian log likelihood of one block under one flat ``alpha``, with
    ``cos`` and ``sin`` of the ``(n_k, m)`` angles ``2 pi X_k r^T``."""
    theta, s = alpha[: cfg.theta_dim], alpha[cfg.theta_dim :]
    angles = 2.0 * np.pi * (X_k @ theta.reshape(cfg.m, cfg.d).T)
    v = y_k - np.cos(angles) @ s[: cfg.m] - np.sin(angles) @ s[cfg.m :]
    return -0.5 * float(v @ v) / cfg.noise_variance - 0.5 * y_k.size * np.log(
        2.0 * np.pi * cfg.noise_variance
    )


def _sampled_bound(flat, plan: GradientSamplePlan, data, prior: PriorSpec, cfg: SpectralConfig):
    """The bound that :func:`~specgp.gradient.stochastic_gradient` estimates the
    gradient of, at ``flat = [vec(M) row-major, b, log noise, log signal]``:
    ``p / (a b)`` times the block log likelihood summed over the plan's
    (index, z) pairs, minus the exact ``KL(q || p)``."""
    dim = cfg.alpha_dim
    M, b = eta_views(np.asarray(flat, dtype=float), dim)
    trial = replace(
        cfg,
        noise_variance=float(np.exp(flat[-2])),
        signal_variance=float(np.exp(flat[-1])),
    )
    indices, z_draws = draw_sample_sets(plan, data.p, dim)
    total = sum(
        _block_log_likelihood(*data.blocks[i], M @ z + b, trial)
        for i in indices
        for z in z_draws
    )
    scale = data.p / (plan.n_partition_samples * plan.n_z_samples)
    return scale * total - kl_divergence(VariationalState(M, b), prior, trial)


def check_stochastic_gradient(seed=0, instances=20, step=DEFAULT_STEP) -> CheckResult:
    """stochastic_gradient against differences of the sampled bound in all
    D^2 + D + 2 flat entries.  The error is normalized separately for the
    ``(M, b)`` part and for each log variance, so that a large noise
    derivative cannot hide an error elsewhere."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = 0.0
    for _ in range(instances):
        cfg, prior, state = _random_problem(rng)
        data = _random_blocks(rng, cfg.d)
        plan = GradientSamplePlan(
            n_partition_samples=int(rng.integers(1, 3)),
            n_z_samples=int(rng.integers(1, 3)),
            rng_seed=int(rng.integers(0, 2**31)),
        )
        x0 = np.concatenate(
            [state.M.ravel(), state.b, np.log([cfg.noise_variance, cfg.signal_variance])]
        )
        analytic = stochastic_gradient(plan, data, state, prior, cfg)
        numeric = central_difference(lambda x: _sampled_bound(x, plan, data, prior, cfg), x0, step)
        n_eta = state.dim * (state.dim + 1)
        for part in (slice(0, n_eta), slice(n_eta, n_eta + 1), slice(n_eta + 1, None)):
            worst = max(worst, relative_error(analytic[part], numeric[part]))
    return CheckResult("stochastic_gradient", instances, worst, DEFAULT_TOL)


def check_kl_gradient(seed=0, instances=20, step=DEFAULT_STEP) -> CheckResult:
    """kl_term_gradient against differences of kl_divergence in (M, b)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = 0.0
    for _ in range(instances):
        cfg, prior, state = _random_problem(rng)
        dim = state.dim

        def objective(flat):
            return kl_divergence(VariationalState(*eta_views(flat, dim)), prior, cfg)

        analytic = np.concatenate([part.ravel() for part in kl_term_gradient(state, prior, cfg)])
        numeric = central_difference(objective, np.concatenate([state.M.ravel(), state.b]), step)
        worst = max(worst, relative_error(analytic, numeric))
    return CheckResult("kl_term_gradient", instances, worst, DEFAULT_TOL)


def run_all(seed=0, instances=20):
    """Run every gradient check; returns the list of results."""
    seed = checked("seed", seed, NONNEGATIVE_INT)
    instances = checked("instances", instances, POSITIVE_INT)
    return [
        check_stochastic_gradient(seed, instances),
        check_kl_gradient(seed, instances),
    ]
