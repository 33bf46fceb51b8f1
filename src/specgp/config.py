"""Run configuration: one JSON document covering the whole pipeline.

Every key is defined once, in ``KEYS``: its section, name, default, JSON
type and bound.  The defaults, the document check and the CLI overrides
(each config flag's argparse ``dest`` is its key) all come from that
table.  A document is checked before any data or model file is read:
unknown keys, non-object sections, a missing or wrong ``version``, wrong
types (a boolean is never a number, an integer key takes JSON integers
only) and values out of bounds are usage errors.  The component
constructors check their own arguments as well, for Python callers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ContractError, DataError
from .gradient import GradientSamplePlan
from .optimizer import StepSchedule, TrainConfig
from .predict import PredictConfig

CONFIG_VERSION = 1

_IS_TYPE = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "string or null": lambda v: v is None or isinstance(v, str),
}


@dataclass(frozen=True)
class Key:
    """One config key; ``bound`` is an interval such as ``"(0, 1]"``."""

    section: str | None
    name: str
    default: object
    type: str
    bound: str | None = None

    @property
    def path(self) -> str:
        return f"{self.section}.{self.name}" if self.section else self.name

    def check(self, value):
        if not _IS_TYPE[self.type](value):
            raise ContractError(f"config: {self.path}: expected {self.type}, got {value!r}")
        if self.bound is not None:
            low, high = (float(end) for end in self.bound[1:-1].split(","))
            above = value > low if self.bound[0] == "(" else value >= low
            below = value < high if self.bound[-1] == ")" else value <= high
            if not (above and below):
                raise ContractError(
                    f"config: {self.path}: must be in {self.bound}, got {value!r}"
                )
        return value


KEYS = {
    key.path: key
    for key in (
        Key(None, "seed", 0, "integer", "[0, inf)"),
        Key(None, "split_fraction", 0.95, "number", "(0, 1]"),
        Key(None, "standardize", True, "boolean"),
        Key("spectral", "m", 10, "integer", "[1, inf)"),
        Key("spectral", "signal_variance", 1.0, "number", "(0, inf)"),
        Key("spectral", "noise_variance", 0.01, "number", "(0, inf)"),
        Key("partition", "p", 8, "integer", "[1, inf)"),
        Key("partition", "balance", False, "boolean"),
        Key("partition", "max_iters", 100, "integer", "[1, inf)"),
        Key("train", "iterations", 300, "integer", "[1, inf)"),
        Key("train", "partition_samples", 4, "integer", "[1, inf)"),
        Key("train", "z_samples", 8, "integer", "[1, inf)"),
        Key("train", "base_step", 0.1, "number", "(0, inf)"),
        Key("train", "decay_power", 0.51, "number", "(0.5, 1]"),
        Key("train", "learn_variances", False, "boolean"),
        Key("train", "checkpoint_every", 0, "integer", "[0, inf)"),
        Key("train", "checkpoint_path", None, "string or null"),
        Key("train", "elbo_every", 0, "integer", "[0, inf)"),
        Key("train", "elbo_samples", 16, "integer", "[1, inf)"),
        Key("predict", "samples", 64, "integer", "[1, inf)"),
        Key("predict", "gamma", 0.0, "number", "[-1, 1]"),
        Key("predict", "mnlp_observed", True, "boolean"),
    )
}
_SECTIONS = {key.section for key in KEYS.values()} - {None}


def _check(path, value):
    if path not in KEYS:
        raise ContractError(f"config: {path}: unknown key")
    return KEYS[path].check(value)


def validate_config(doc) -> dict:
    """Check a user document; returns its values keyed by config path."""
    if not isinstance(doc, dict):
        raise ContractError("config: document must be a JSON object")
    if "version" not in doc:
        raise ContractError(f"config: version: missing, expected {CONFIG_VERSION}")
    version = doc["version"]
    if isinstance(version, bool) or version != CONFIG_VERSION:
        raise ContractError(f"config: version: expected {CONFIG_VERSION}, got {version!r}")
    values = {}
    for name, value in doc.items():
        if name == "version":
            continue
        if name not in _SECTIONS:
            values[name] = _check(name, value)
            continue
        if not isinstance(value, dict):
            raise ContractError(f"config: {name}: expected object, got {value!r}")
        for inner, inner_value in value.items():
            values[f"{name}.{inner}"] = _check(f"{name}.{inner}", inner_value)
    return values


def load_run_config(path=None, overrides=None) -> dict:
    """Defaults, overlaid with the JSON file at ``path``, overlaid with
    ``overrides`` (config path such as ``"train.iterations"`` to value)."""
    values = {key: spec.default for key, spec in KEYS.items()}
    if path is not None:
        try:
            with open(path) as handle:
                user = json.load(handle)
        except FileNotFoundError:
            raise DataError(f"config file not found: {path}") from None
        except json.JSONDecodeError as bad:
            raise DataError(f"config file is not valid JSON: {bad}") from None
        values.update(validate_config(user))
    for key, value in (overrides or {}).items():
        values[key] = _check(key, value)
    doc = {"version": CONFIG_VERSION}
    for key, value in values.items():
        spec = KEYS[key]
        (doc.setdefault(spec.section, {}) if spec.section else doc)[spec.name] = value
    return doc


def train_config_from(doc: dict) -> TrainConfig:
    train = doc["train"]
    return TrainConfig(
        iterations=train["iterations"],
        plan=GradientSamplePlan(
            n_partition_samples=train["partition_samples"],
            n_z_samples=train["z_samples"],
        ),
        schedule=StepSchedule(
            base_step=train["base_step"],
            decay_power=train["decay_power"],
        ),
        learn_variances=train["learn_variances"],
        checkpoint_every=train["checkpoint_every"],
        checkpoint_path=train["checkpoint_path"],
        seed=doc["seed"],
        elbo_every=train["elbo_every"],
        elbo_samples=train["elbo_samples"],
    )


def train_config_doc(tcfg: TrainConfig) -> dict:
    """The run-config form ``{"seed", "train"}`` of ``tcfg``, the inverse of
    :func:`train_config_from`; checkpoints store it."""
    return {
        "seed": tcfg.seed,
        "train": {
            "iterations": tcfg.iterations,
            "partition_samples": tcfg.plan.n_partition_samples,
            "z_samples": tcfg.plan.n_z_samples,
            "base_step": tcfg.schedule.base_step,
            "decay_power": tcfg.schedule.decay_power,
            "learn_variances": tcfg.learn_variances,
            "checkpoint_every": tcfg.checkpoint_every,
            "checkpoint_path": tcfg.checkpoint_path,
            "elbo_every": tcfg.elbo_every,
            "elbo_samples": tcfg.elbo_samples,
        },
    }


_TRAIN_PATHS = {path for path, key in KEYS.items() if key.section == "train"} | {"seed"}


def train_config_read(doc) -> TrainConfig:
    """Read the form that :func:`train_config_doc` writes.  Each value passes
    its ``KEYS`` check, and every key must be present."""
    if not isinstance(doc, dict) or set(doc) != {"seed", "train"}:
        raise ContractError("config: expected an object with exactly seed and train")
    missing = _TRAIN_PATHS - set(validate_config({"version": CONFIG_VERSION, **doc}))
    if missing:
        raise ContractError(f"config: {min(missing)}: missing")
    return train_config_from(doc)


# Prediction uses its own substream so it never aliases training draws.
PREDICT_SEED_OFFSET = 1


def predict_config_from(doc: dict) -> PredictConfig:
    return PredictConfig(
        n_samples=doc["predict"]["samples"],
        gamma_mix=doc["predict"]["gamma"],
        seed=doc["seed"] + PREDICT_SEED_OFFSET,
    )
