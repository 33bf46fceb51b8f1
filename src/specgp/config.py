"""Run configuration: one JSON document covering the whole pipeline.

Every key is defined once, in ``KEYS``: its section, name, default and the
component field it sets, whose :class:`~specgp.errors.Rule` it reads (a
key that sets no such field states its own).  The defaults, the document
check and the CLI overrides (each config flag's argparse ``dest`` is its
key) all come from that table.  A document is checked before any data or
model file is read: unknown keys, non-object sections, a missing or wrong
``version``, wrong types (a boolean is never a number, an integer key takes
JSON integers only) and values out of bounds are usage errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .data import TRAIN_FRACTION
from .errors import FLAG, POSITIVE_INT, ContractError, DataError, Rule, checked
from .features import SpectralConfig
from .gradient import GradientSamplePlan
from .optimizer import StepSchedule, TrainConfig
from .predict import PredictConfig

CONFIG_VERSION = 1


@dataclass(frozen=True)
class Key:
    """One config key.  A key that sets a field of the component ``owner``
    (the field named ``field``, or else ``name``) reads that field's rule from
    ``owner.RULES``; a key with no owner states its own ``rule``."""

    section: str | None
    name: str
    default: object
    owner: type | None = None
    field: str | None = None
    rule: Rule | None = None

    def __post_init__(self):
        if self.owner is not None:
            object.__setattr__(self, "field", self.field or self.name)
            object.__setattr__(self, "rule", self.owner.RULES[self.field])

    @property
    def path(self) -> str:
        return f"{self.section}.{self.name}" if self.section else self.name


KEYS = {
    key.path: key
    for key in (
        Key(None, "seed", 0, TrainConfig),
        Key(None, "split_fraction", 0.95, rule=TRAIN_FRACTION),
        Key(None, "standardize", True, rule=FLAG),
        Key("spectral", "m", 10, SpectralConfig),
        Key("spectral", "signal_variance", 1.0, SpectralConfig),
        Key("spectral", "noise_variance", 0.01, SpectralConfig),
        # the rules of kmeans_partition's arguments
        Key("partition", "p", 8, rule=POSITIVE_INT),
        Key("partition", "balance", False, rule=FLAG),
        Key("partition", "max_iters", 100, rule=POSITIVE_INT),
        Key("train", "iterations", 300, TrainConfig),
        Key("train", "partition_samples", 4, GradientSamplePlan, "n_partition_samples"),
        Key("train", "z_samples", 8, GradientSamplePlan, "n_z_samples"),
        Key("train", "base_step", 0.1, StepSchedule),
        Key("train", "decay_power", 0.51, StepSchedule),
        Key("train", "learn_variances", False, TrainConfig),
        Key("train", "checkpoint_every", 0, TrainConfig),
        Key("train", "checkpoint_path", None, TrainConfig),
        Key("train", "elbo_every", 0, TrainConfig),
        Key("train", "elbo_samples", 16, TrainConfig),
        Key("predict", "samples", 64, PredictConfig, "n_samples"),
        Key("predict", "gamma", 0.0, PredictConfig, "gamma_mix"),
        Key("predict", "mnlp_observed", True, rule=FLAG),
    )
}
_SECTIONS = {key.section for key in KEYS.values()} - {None}


def _check(path, value):
    if path not in KEYS:
        raise ContractError(f"config: {path}: unknown key")
    return checked(f"config: {path}", value, KEYS[path].rule)


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
    return {"version": CONFIG_VERSION, **_nested(values)}


def _nested(values: dict) -> dict:
    """The document form, in sections, of ``values`` keyed by config path."""
    doc = {}
    for path, value in values.items():
        key = KEYS[path]
        (doc.setdefault(key.section, {}) if key.section else doc)[key.name] = value
    return doc


def _fields(doc: dict, owner: type) -> dict:
    """The fields of ``owner`` that the keys of the document ``doc`` set."""
    return {
        key.field: (doc[key.section] if key.section else doc)[key.name]
        for key in KEYS.values()
        if key.owner is owner
    }


def spectral_config_from(doc: dict, d: int) -> SpectralConfig:
    return SpectralConfig(d=d, **_fields(doc, SpectralConfig))


def train_config_from(doc: dict) -> TrainConfig:
    return TrainConfig(
        plan=GradientSamplePlan(**_fields(doc, GradientSamplePlan)),
        schedule=StepSchedule(**_fields(doc, StepSchedule)),
        **_fields(doc, TrainConfig),
    )


_TRAIN_OWNERS = (TrainConfig, GradientSamplePlan, StepSchedule)
_TRAIN_KEYS = [key for key in KEYS.values() if key.owner in _TRAIN_OWNERS]


def train_config_doc(tcfg: TrainConfig) -> dict:
    """The run-config form ``{"seed", "train"}`` of ``tcfg``, the inverse of
    :func:`train_config_from`; checkpoints store it."""
    parts = dict(zip(_TRAIN_OWNERS, (tcfg, tcfg.plan, tcfg.schedule)))
    return _nested({key.path: getattr(parts[key.owner], key.field) for key in _TRAIN_KEYS})


def train_config_read(doc) -> TrainConfig:
    """Read the form that :func:`train_config_doc` writes.  Each value passes
    its ``KEYS`` rule, and every key must be present."""
    if not isinstance(doc, dict) or set(doc) != {"seed", "train"}:
        raise ContractError("config: expected an object with exactly seed and train")
    given = validate_config({"version": CONFIG_VERSION, **doc})
    missing = {key.path for key in _TRAIN_KEYS} - set(given)
    if missing:
        raise ContractError(f"config: {min(missing)}: missing")
    return train_config_from(doc)


# Prediction uses its own substream so it never aliases training draws.
PREDICT_SEED_OFFSET = 1


def predict_config_from(doc: dict) -> PredictConfig:
    return PredictConfig(**_fields(doc, PredictConfig), seed=doc["seed"] + PREDICT_SEED_OFFSET)
