"""Stochastic gradient ascent on the bound, with checkpoints.

Updates follow a Robbins-Monro schedule ``rho_t = base_step / (1 + t)^q``
with ``q`` in (0.5, 1]; the optional adaptive mode rescales each
coordinate by the square root of its accumulated squared gradients
(floored at 1e-8), which makes the step size insensitive to the raw
gradient magnitude.  An update that would push the reciprocal condition
estimate of ``M`` below 1e-13 is rejected and retried with half the step,
up to five times, after which training aborts.

Every iteration draws its Monte-Carlo sample seed deterministically from
``(seed, iteration)``, so a run is bit-reproducible and a checkpoint can
resume mid-stream with nothing but the master seed and the iteration
counter (plus the adaptive accumulators).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ContractError, ModelFormatError, NumericalError
from .features import SpectralConfig
from .gradient import GradientSamplePlan, elbo_estimate, stochastic_gradient
from .model_io import TrainedModel, model_from_doc, model_to_doc, write_json_atomic
from .variational import PriorSpec, VariationalState

RCOND_GUARD = 1e-13
MAX_STEP_RETRIES = 5
_ADAPTIVE_FLOOR = 1e-8

CHECKPOINT_FORMAT = "specgp-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class StepSchedule:
    """Robbins-Monro step schedule, optionally with per-coordinate scaling."""

    base_step: float = 0.25
    decay_power: float = 0.7
    adaptive: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.base_step) and self.base_step > 0):
            raise ContractError(f"base_step must be positive, got {self.base_step!r}")
        if not 0.5 < self.decay_power <= 1.0:
            raise ContractError(
                f"decay_power must lie in (0.5, 1], got {self.decay_power!r}"
            )

    def step_size(self, t: int) -> float:
        return self.base_step / (1.0 + t) ** self.decay_power


@dataclass(frozen=True)
class TrainConfig:
    iterations: int
    plan: GradientSamplePlan = GradientSamplePlan()
    schedule: StepSchedule = StepSchedule()
    learn_variances: bool = False
    checkpoint_every: int = 0
    checkpoint_path: Optional[str] = None
    seed: int = 0
    elbo_every: int = 0
    elbo_samples: int = 16

    def __post_init__(self):
        if self.iterations < 1:
            raise ContractError("iterations must be >= 1")
        if self.checkpoint_every < 0 or self.elbo_every < 0:
            raise ContractError("checkpoint_every and elbo_every must be >= 0")
        if self.checkpoint_every > 0 and not self.checkpoint_path:
            raise ContractError("checkpoint_every > 0 requires a checkpoint_path")
        if self.elbo_samples < 1:
            raise ContractError("elbo_samples must be >= 1")


@dataclass
class IterationRecord:
    iteration: int
    step_size: float
    gradient_norm: float
    elbo: Optional[float]
    wall_clock_ms: float


@dataclass
class TrainResult:
    """Final state plus the per-iteration trace and (possibly updated)
    hyperparameters.  When ``learn_variances`` is off, ``spectral`` and
    ``prior`` are the ones passed in."""

    state: VariationalState
    trace: list
    spectral: SpectralConfig
    prior: PriorSpec

    def model(self, partition, standardization=None, feature_names=None, target_name="y"):
        """Package the result for serialization or prediction."""
        return TrainedModel(
            state=self.state,
            prior=self.prior,
            spectral=self.spectral,
            partition=partition,
            standardization=standardization,
            feature_names=feature_names,
            target_name=target_name,
        )


@dataclass
class _OptState:
    """Mutable optimizer internals that must survive a checkpoint."""

    accumulator: Optional[np.ndarray] = None
    variance_accumulator: Optional[np.ndarray] = None
    trace: list = field(default_factory=list)
    iteration: int = 0


def _iteration_seed(seed: int, t: int, stream: int = 0) -> int:
    parts = [seed, t] if stream == 0 else [seed, t, stream]
    return int(np.random.SeedSequence(parts).generate_state(1, dtype=np.uint64)[0])


def _attempt_update(state, direction_m, direction_b, rho, iteration):
    """Apply the step, halving it while the new M looks singular."""
    step = rho
    for _ in range(MAX_STEP_RETRIES + 1):
        try:
            candidate = VariationalState(
                state.M + step * direction_m, state.b + step * direction_b
            )
        except NumericalError:
            step *= 0.5
            continue
        if candidate.rcond < RCOND_GUARD:
            step *= 0.5
            continue
        return candidate, step
    raise NumericalError(
        f"iteration {iteration}: update kept M numerically singular "
        f"(rcond < {RCOND_GUARD:g}) after {MAX_STEP_RETRIES} halvings"
    )


def train(
    data,
    init: VariationalState,
    prior: PriorSpec,
    cfg: SpectralConfig,
    tcfg: TrainConfig,
    gradient_fn=None,
) -> TrainResult:
    """Run stochastic gradient ascent from ``init``.

    ``gradient_fn`` defaults to :func:`specgp.gradient.stochastic_gradient`
    and exists as a seam for surrogate objectives in tests; it must accept
    the same arguments and honor ``return_variance_grads``.
    """
    if init.dim != cfg.alpha_dim:
        raise ContractError("initial state does not match the spectral config")
    if prior.theta_dim != cfg.theta_dim:
        raise ContractError("prior does not match the spectral config")
    opt = _OptState()
    return _run(data, init, prior, cfg, tcfg, opt, gradient_fn)


def _run(data, state, prior, cfg, tcfg, opt, gradient_fn=None) -> TrainResult:
    grad_source = gradient_fn if gradient_fn is not None else stochastic_gradient
    dim = state.dim
    if tcfg.schedule.adaptive:
        if opt.accumulator is None:
            opt.accumulator = np.zeros(dim * dim + dim)
        if tcfg.learn_variances and opt.variance_accumulator is None:
            opt.variance_accumulator = np.zeros(2)

    for t in range(opt.iteration, tcfg.iterations):
        started = time.perf_counter()
        plan_t = replace(tcfg.plan, rng_seed=_iteration_seed(tcfg.seed, t))
        if tcfg.learn_variances:
            grad, (g_noise, g_signal) = grad_source(
                plan_t, data, state, prior, cfg, return_variance_grads=True
            )
        else:
            grad = grad_source(plan_t, data, state, prior, cfg)
        rho = tcfg.schedule.step_size(t)
        flat = np.concatenate([grad.grad_m.ravel(), grad.grad_b])
        gradient_norm = float(np.linalg.norm(flat))
        if tcfg.schedule.adaptive:
            opt.accumulator += flat**2
            flat = flat / np.maximum(np.sqrt(opt.accumulator), _ADAPTIVE_FLOOR)
        direction_m = flat[: dim * dim].reshape(dim, dim)
        direction_b = flat[dim * dim :]
        state, step_used = _attempt_update(state, direction_m, direction_b, rho, t)

        if tcfg.learn_variances:
            var_grad = np.array([g_noise, g_signal])
            if tcfg.schedule.adaptive:
                opt.variance_accumulator += var_grad**2
                var_grad = var_grad / np.maximum(
                    np.sqrt(opt.variance_accumulator), _ADAPTIVE_FLOOR
                )
            log_noise = np.log(cfg.noise_variance) + step_used * var_grad[0]
            log_signal = np.log(cfg.signal_variance) + step_used * var_grad[1]
            cfg = replace(
                cfg,
                noise_variance=float(np.exp(log_noise)),
                signal_variance=float(np.exp(log_signal)),
            )

        elbo = None
        if tcfg.elbo_every > 0 and (t + 1) % tcfg.elbo_every == 0:
            elbo = elbo_estimate(
                tcfg.elbo_samples, data, state, prior, cfg,
                seed=_iteration_seed(tcfg.seed, t, stream=1),
            )
        opt.trace.append(
            IterationRecord(
                iteration=t,
                step_size=step_used,
                gradient_norm=gradient_norm,
                elbo=elbo,
                wall_clock_ms=(time.perf_counter() - started) * 1e3,
            )
        )
        opt.iteration = t + 1
        if (
            tcfg.checkpoint_every > 0
            and tcfg.checkpoint_path
            and (t + 1) % tcfg.checkpoint_every == 0
        ):
            save_checkpoint(tcfg.checkpoint_path, data, state, prior, cfg, tcfg, opt)
    return TrainResult(state=state, trace=opt.trace, spectral=cfg, prior=prior)


# ---------------------------------------------------------------------------
# checkpointing


def _trace_rows(trace):
    return [
        [r.iteration, r.step_size, r.gradient_norm, r.elbo, r.wall_clock_ms]
        for r in trace
    ]


def _trace_from_rows(rows):
    return [
        IterationRecord(
            iteration=int(row[0]),
            step_size=float(row[1]),
            gradient_norm=float(row[2]),
            elbo=None if row[3] is None else float(row[3]),
            wall_clock_ms=float(row[4]),
        )
        for row in rows
    ]


def _tcfg_to_doc(tcfg: TrainConfig) -> dict:
    return {
        "iterations": tcfg.iterations,
        "plan": {
            "n_partition_samples": tcfg.plan.n_partition_samples,
            "n_z_samples": tcfg.plan.n_z_samples,
        },
        "schedule": {
            "base_step": tcfg.schedule.base_step,
            "decay_power": tcfg.schedule.decay_power,
            "adaptive": tcfg.schedule.adaptive,
        },
        "learn_variances": tcfg.learn_variances,
        "checkpoint_every": tcfg.checkpoint_every,
        "checkpoint_path": tcfg.checkpoint_path,
        "seed": tcfg.seed,
        "elbo_every": tcfg.elbo_every,
        "elbo_samples": tcfg.elbo_samples,
    }


def _tcfg_from_doc(doc: dict) -> TrainConfig:
    return TrainConfig(
        iterations=int(doc["iterations"]),
        plan=GradientSamplePlan(
            n_partition_samples=int(doc["plan"]["n_partition_samples"]),
            n_z_samples=int(doc["plan"]["n_z_samples"]),
        ),
        schedule=StepSchedule(
            base_step=float(doc["schedule"]["base_step"]),
            decay_power=float(doc["schedule"]["decay_power"]),
            adaptive=bool(doc["schedule"]["adaptive"]),
        ),
        learn_variances=bool(doc["learn_variances"]),
        checkpoint_every=int(doc["checkpoint_every"]),
        checkpoint_path=doc["checkpoint_path"],
        seed=int(doc["seed"]),
        elbo_every=int(doc["elbo_every"]),
        elbo_samples=int(doc["elbo_samples"]),
    )


def save_checkpoint(path, data, state, prior, cfg, tcfg, opt: _OptState) -> None:
    """Write everything needed to resume training at ``opt.iteration``."""
    model = TrainedModel(state=state, prior=prior, spectral=cfg, partition=data)
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "iteration": opt.iteration,
        "model": model_to_doc(model),
        "train_config": _tcfg_to_doc(tcfg),
        "optimizer": {
            "accumulator": None if opt.accumulator is None else opt.accumulator.tolist(),
            "variance_accumulator": (
                None
                if opt.variance_accumulator is None
                else opt.variance_accumulator.tolist()
            ),
        },
        "trace": _trace_rows(opt.trace),
    }
    write_json_atomic(path, doc)


def load_checkpoint(path):
    """Read a checkpoint back into (model, train config, optimizer state)."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise ModelFormatError(f"model: checkpoint file not found: {path}") from None
    except json.JSONDecodeError as bad:
        raise ModelFormatError(f"model: invalid checkpoint JSON ({bad})") from None
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ModelFormatError(
            f"model: format mismatch (expected {CHECKPOINT_FORMAT!r}, got {doc.get('format')!r})"
        )
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ModelFormatError(
            f"model: version mismatch (expected {CHECKPOINT_VERSION}, got {doc.get('version')!r})"
        )
    try:
        model = model_from_doc(doc["model"])
        tcfg = _tcfg_from_doc(doc["train_config"])
        opt_doc = doc["optimizer"]
        opt = _OptState(
            accumulator=(
                None
                if opt_doc["accumulator"] is None
                else np.asarray(opt_doc["accumulator"], dtype=float)
            ),
            variance_accumulator=(
                None
                if opt_doc["variance_accumulator"] is None
                else np.asarray(opt_doc["variance_accumulator"], dtype=float)
            ),
            trace=_trace_from_rows(doc["trace"]),
            iteration=int(doc["iteration"]),
        )
    except KeyError as missing:
        raise ModelFormatError(f"model: checkpoint missing field {missing}") from None
    return model, tcfg, opt


def resume_training(path, iterations: Optional[int] = None, gradient_fn=None) -> TrainResult:
    """Continue a checkpointed run to ``iterations`` (default: original target).

    The checkpoint is self-contained (it embeds the partitioned data), so
    resuming reproduces the uninterrupted trajectory bit for bit.
    """
    model, tcfg, opt = load_checkpoint(path)
    if iterations is not None:
        tcfg = replace(tcfg, iterations=iterations)
    return _run(model.partition, model.state, model.prior, model.spectral, tcfg, opt, gradient_fn)
