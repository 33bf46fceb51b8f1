"""Stochastic gradient ascent on the bound, with checkpoints.

Training moves one flat parameter vector, laid out as the gradient that
:func:`specgp.gradient.stochastic_gradient` returns: ``[vec(M) row-major,
b, log noise_variance, log signal_variance]``.  The two log variances move
only under ``learn_variances``.  The update is AdaGrad: the Robbins-Monro
base step ``rho_t = base_step / (1 + t)^q``, ``q`` in (0.5, 1], divided per
coordinate by the root of its accumulated squared gradients (floored at
1e-8).  A step whose ``(M, b)`` is non-finite or has ``rcond(M) <=
RCOND_MIN``, the one singularity threshold, is retried at half size up to
five times, then training aborts.  So does, at once, a non-finite gradient
or accumulator, or a log-variance update that does not give a positive
finite variance; every abort is a :class:`~specgp.errors.NumericalError`
naming the iteration.

Every iteration draws its Monte-Carlo sample seed deterministically from
``(seed, iteration)``, so a run is bit-reproducible and a checkpoint can
resume mid-stream with nothing but the master seed, the iteration counter
and the AdaGrad accumulator.

A checkpoint comes in two files.  The first checkpoint of a run writes the
partitioned training data once, to ``<checkpoint>.<digest16>.data.json``
beside the checkpoint, named by the first 16 hex digits of the sha256 of
its bytes.  Every checkpoint then holds only what changes or what resuming
needs besides the data: the iteration, the data file's full digest, the
posterior and hyperparameters, the train config, the accumulator and the
trace.  So its size does not grow with n.  A new run on the same path
removes the older runs' data files beside it once its own first checkpoint
has replaced theirs, so the old checkpoint stays resumable until then.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .errors import FLAG, NONNEGATIVE_INT, POSITIVE, POSITIVE_INT, Rule, check_fields
from .errors import ContractError, ModelFormatError, NumericalError
from .features import SpectralConfig
from .gradient import GradientSamplePlan, elbo_estimate, eta_views, stochastic_gradient
from .model_io import (
    TrainedModel,
    array_from_doc,
    array_to_doc,
    field_errors,
    partition_from_doc,
    partition_to_doc,
    posterior_from_doc,
    posterior_to_doc,
    read_document,
    write_json_atomic,
)
from .variational import RCOND_MIN, PriorSpec, VariationalState

MAX_STEP_RETRIES = 5
_ADAPTIVE_FLOOR = 1e-8

CHECKPOINT_FORMAT = "specgp-checkpoint"
# 8 stores arrays as base64 float64; 7 stored them as float text, 6 also
# the prior's m·d tiled variances in place of its lengthscales; 5 and
# earlier embedded a model, data included
CHECKPOINT_VERSION = 8


@dataclass(frozen=True)
class StepSchedule:
    """Robbins-Monro base step, which training rescales per coordinate (AdaGrad)."""

    base_step: float
    decay_power: float
    adaptive: bool = True  # read by nothing; only True, kept for existing callers

    RULES = {"base_step": POSITIVE, "decay_power": Rule("number", "(0.5, 1]")}

    def __post_init__(self):
        if self.adaptive is not True:
            raise ContractError("adaptive must be True: AdaGrad is the only step rule")
        check_fields(self)

    def step_size(self, t: int) -> float:
        return self.base_step / (1.0 + t) ** self.decay_power


@dataclass(frozen=True)
class TrainConfig:
    iterations: int
    plan: GradientSamplePlan
    schedule: StepSchedule
    learn_variances: bool = False
    checkpoint_every: int = 0
    checkpoint_path: Optional[str] = None
    seed: int = 0
    elbo_every: int = 0
    elbo_samples: int = 16

    RULES = {"iterations": POSITIVE_INT, "learn_variances": FLAG,
             "checkpoint_every": NONNEGATIVE_INT, "checkpoint_path": Rule("string or null"),
             "seed": NONNEGATIVE_INT, "elbo_every": NONNEGATIVE_INT, "elbo_samples": POSITIVE_INT}

    def __post_init__(self):
        check_fields(self)
        if self.checkpoint_every > 0 and not self.checkpoint_path:
            raise ContractError("checkpoint_every > 0 requires a checkpoint_path")


@dataclass
class IterationRecord:
    iteration: int
    step_size: float
    gradient_norm: float
    elbo: Optional[float]
    wall_clock_ms: float


# The --trace CSV columns and the checkpoint trace rows, in field order.
TRACE_COLUMNS = tuple(f.name for f in fields(IterationRecord))


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

    accumulator: np.ndarray
    trace: list = field(default_factory=list)
    iteration: int = 0
    data_digest: Optional[str] = None  # sha256 of the run's data file, once written


def _iteration_seed(seed: int, t: int, stream: int = 0) -> int:
    parts = [seed, t] if stream == 0 else [seed, t, stream]
    return int(np.random.SeedSequence(parts).generate_state(1, dtype=np.uint64)[0])


def _moved_size(dim: int, tcfg: TrainConfig) -> int:
    """Leading entries of the gradient that training moves: ``(M, b)``, and
    the two log variances under ``learn_variances``."""
    return dim * (dim + 1) + (2 if tcfg.learn_variances else 0)


def _gradient_norm(grad) -> float:
    """``np.linalg.norm(grad)``, rescaled by the max-abs entry only when the
    plain sum of squares overflows, so it is finite wherever the norm is."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(grad))
        if norm == np.inf:
            scale = np.max(np.abs(grad))
            norm = float(scale * np.linalg.norm(grad / scale))
    return norm


def _attempt_update(state, direction_m, direction_b, rho, iteration):
    """Apply the step, halving it while the state constructor refuses the
    new (M, b)."""
    step = rho
    for _ in range(MAX_STEP_RETRIES + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            M = state.M + step * direction_m
            b = state.b + step * direction_b
        try:
            return VariationalState(M, b), step
        except (ContractError, NumericalError):  # non-finite (M, b), or M singular
            step *= 0.5
    raise NumericalError(
        f"iteration {iteration}: update kept (M, b) non-finite or M numerically "
        f"singular (rcond <= {RCOND_MIN:g}) after {MAX_STEP_RETRIES} halvings"
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
    the same arguments and return the gradient as one flat vector in the
    same layout, ``[vec(M) row-major, b, d_log_noise, d_log_signal]``.
    """
    if init.dim != cfg.alpha_dim:
        raise ContractError("initial state does not match the spectral config")
    if prior.d != cfg.d:
        raise ContractError("prior does not match the spectral config")
    opt = _OptState(accumulator=np.zeros(_moved_size(init.dim, tcfg)))
    return _run(data, init, prior, cfg, tcfg, opt, gradient_fn)


def _run(data, state, prior, cfg, tcfg, opt, gradient_fn=None) -> TrainResult:
    grad_source = gradient_fn if gradient_fn is not None else stochastic_gradient
    n_eta = state.dim * (state.dim + 1)
    n_moved = _moved_size(state.dim, tcfg)

    for t in range(opt.iteration, tcfg.iterations):
        started = time.perf_counter()
        plan_t = replace(tcfg.plan, rng_seed=_iteration_seed(tcfg.seed, t))
        grad = grad_source(plan_t, data, state, prior, cfg)
        with np.errstate(over="ignore"):
            opt.accumulator += grad[:n_moved] ** 2
        if not np.all(np.isfinite(opt.accumulator)):
            raise NumericalError(
                f"iteration {t}: the stochastic gradient is not finite, or its squares overflow"
            )
        rho = tcfg.schedule.step_size(t)
        gradient_norm = _gradient_norm(grad[:n_eta])
        direction = grad[:n_moved] / np.maximum(np.sqrt(opt.accumulator), _ADAPTIVE_FLOOR)
        direction_m, direction_b = eta_views(direction, state.dim)
        state, step_used = _attempt_update(state, direction_m, direction_b, rho, t)
        if tcfg.learn_variances:
            log_noise = np.log(cfg.noise_variance) + step_used * direction[n_eta]
            log_signal = np.log(cfg.signal_variance) + step_used * direction[n_eta + 1]
            with np.errstate(over="ignore"):
                noise, signal = float(np.exp(log_noise)), float(np.exp(log_signal))
            if not (0.0 < noise < np.inf and 0.0 < signal < np.inf):
                raise NumericalError(
                    f"iteration {t}: the log-variance update gave noise_variance={noise!r}, "
                    f"signal_variance={signal!r}"
                )
            cfg = replace(cfg, noise_variance=noise, signal_variance=signal)

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
        if tcfg.checkpoint_every > 0 and (t + 1) % tcfg.checkpoint_every == 0:
            save_checkpoint(tcfg.checkpoint_path, data, state, prior, cfg, tcfg, opt)
    return TrainResult(state=state, trace=opt.trace, spectral=cfg, prior=prior)


# ---------------------------------------------------------------------------
# checkpointing


# How a checkpoint trace cell is read back, by the field's declared type.
_TRACE_CELL = {
    "int": int,
    "float": float,
    "Optional[float]": lambda value: None if value is None else float(value),
}


def _trace_rows(trace):
    return [[getattr(rec, name) for name in TRACE_COLUMNS] for rec in trace]


def _trace_from_rows(rows):
    if any(len(row) != len(TRACE_COLUMNS) for row in rows):
        raise ModelFormatError(
            f"model: every checkpoint trace row needs {len(TRACE_COLUMNS)} fields"
        )
    cells = [_TRACE_CELL[f.type] for f in fields(IterationRecord)]
    return [IterationRecord(*(cell(v) for cell, v in zip(cells, row))) for row in rows]


def _accumulator_from_doc(value, size: int):
    """A stored AdaGrad accumulator: ``size`` finite values >= 0."""
    acc = array_from_doc(value, "optimizer.accumulator", 1)
    if acc.shape != (size,) or not np.all(np.isfinite(acc)) or np.any(acc < 0):
        raise ModelFormatError(f"model: checkpoint accumulator needs {size} finite values >= 0")
    return acc


def data_file_path(path, digest: str) -> str:
    """Where the data file with sha256 ``digest`` sits beside checkpoint ``path``."""
    return f"{path}.{digest[:16]}.data.json"


def _remove_other_data_files(path, digest: str) -> None:
    """Remove the data files beside checkpoint ``path`` other than the one
    with ``digest``: after the checkpoint names that one, no file names them."""
    directory, base = os.path.split(path)
    directory = directory or os.curdir
    keep = os.path.basename(data_file_path(path, digest))
    pattern = re.compile(re.escape(base) + r"\.[0-9a-f]{16}\.data\.json")
    for name in os.listdir(directory):
        if name != keep and pattern.fullmatch(name):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(directory, name))


def _read_data_file(path, digest, d: int):
    """The partition in the data file of checkpoint ``path``, after checking
    that its bytes hash to ``digest``."""
    data_path = data_file_path(path, digest)
    try:
        with open(data_path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        raise ModelFormatError(f"model: checkpoint data file not found: {data_path}") from None
    if hashlib.sha256(raw).hexdigest() != digest:
        raise ModelFormatError(
            f"model: checkpoint data file {data_path} does not match the checkpoint's data_digest"
        )
    return partition_from_doc(json.loads(raw), d)


def save_checkpoint(path, data, state, prior, cfg, tcfg, opt: _OptState) -> None:
    """Write everything needed to resume training at ``opt.iteration``.

    The data file is written on the first call of a run, while
    ``opt.data_digest`` is unset, and only named by the checkpoint after.
    Once that first checkpoint is in place, the data files of earlier runs
    on ``path`` are removed; if it fails, so is the data file, unless a run
    on the same data had written it before.
    The train config is stored in its run-config form, ``{"seed", "train"}``.
    """
    from .config import train_config_doc  # config imports this module

    new_data = opt.data_digest is None
    if new_data:
        names_before = set(os.listdir(os.path.dirname(path) or os.curdir))
        opt.data_digest = write_json_atomic(
            path, partition_to_doc(data), final_path=lambda digest: data_file_path(path, digest)
        )
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "iteration": opt.iteration,
        "data_digest": opt.data_digest,
        **posterior_to_doc(state, prior, cfg),
        "train_config": train_config_doc(tcfg),
        "optimizer": {"accumulator": array_to_doc(opt.accumulator)},
        "trace": _trace_rows(opt.trace),
    }
    try:
        write_json_atomic(path, doc)
    except BaseException:
        data_path = data_file_path(path, opt.data_digest)
        if new_data and os.path.basename(data_path) not in names_before:
            os.remove(data_path)
        raise
    if new_data:
        _remove_other_data_files(path, opt.data_digest)


def load_checkpoint(path):
    """Read a checkpoint and its data file into (model, train config,
    optimizer state), validating every field that resuming reads; a fault
    is a :class:`ModelFormatError`.  The data file must hash to the
    checkpoint's ``data_digest``.  The train config passes the same key
    checks as a run-config file, and every one of its keys must be present.
    The model carries no standardization or names, which resuming does not
    read."""
    from .config import train_config_read  # config imports this module

    doc = read_document(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, kind="checkpoint")
    with field_errors("checkpoint"):
        digest = doc["data_digest"]
        if type(digest) is not str or not re.fullmatch("[0-9a-f]{64}", digest):
            raise ModelFormatError("model: checkpoint data_digest must be 64 hex digits")
        spectral, prior, state = posterior_from_doc(doc)
        model = TrainedModel(
            state=state,
            prior=prior,
            spectral=spectral,
            partition=_read_data_file(path, digest, spectral.d),
        )
        tcfg = train_config_read(doc["train_config"])
        opt = _OptState(
            accumulator=_accumulator_from_doc(
                doc["optimizer"]["accumulator"], _moved_size(model.state.dim, tcfg)
            ),
            trace=_trace_from_rows(doc["trace"]),
            iteration=doc["iteration"],
            data_digest=digest,
        )
    if type(opt.iteration) is not int or opt.iteration != len(opt.trace):
        raise ModelFormatError(
            f"model: checkpoint iteration {opt.iteration!r} does not match "
            f"its {len(opt.trace)} trace rows"
        )
    if opt.iteration > tcfg.iterations:
        raise ModelFormatError(
            f"model: checkpoint iteration {opt.iteration} is past its "
            f"train.iterations {tcfg.iterations}"
        )
    return model, tcfg, opt


def resume_training(path, iterations: Optional[int] = None, gradient_fn=None) -> TrainResult:
    """Continue a checkpointed run to ``iterations`` (default: original target).

    The checkpoint and its data file hold the partitioned data, the state
    and the optimizer's internals, so resuming reproduces the uninterrupted
    trajectory bit for bit.  Later checkpoints go to ``path``, beside the
    data file just read, which is not written again.  A target below the
    checkpoint's iteration is a :class:`ContractError`.
    """
    model, tcfg, opt = load_checkpoint(path)
    tcfg = replace(tcfg, checkpoint_path=path)
    if iterations is not None:
        tcfg = replace(tcfg, iterations=iterations)
    if tcfg.iterations < opt.iteration:
        raise ContractError(
            f"cannot resume to {tcfg.iterations} iterations: the checkpoint is "
            f"already at iteration {opt.iteration}"
        )
    return _run(model.partition, model.state, model.prior, model.spectral, tcfg, opt, gradient_fn)
