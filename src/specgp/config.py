"""Run configuration: one JSON document covering the whole pipeline.

The document is validated against a strict schema (unknown keys are
rejected), merged over defaults, and individual keys can be overridden by
command-line flags.  Semantic checks beyond the schema (positivity and so
on) happen in the component constructors.
"""

from __future__ import annotations

import copy
import json

import jsonschema

from .errors import ContractError, DataError
from .gradient import GradientSamplePlan
from .optimizer import StepSchedule, TrainConfig
from .predict import PredictConfig

CONFIG_VERSION = 1

DEFAULTS = {
    "version": CONFIG_VERSION,
    "seed": 0,
    "split_fraction": 0.95,
    "standardize": True,
    "spectral": {"m": 10, "signal_variance": 1.0, "noise_variance": 0.01},
    "partition": {"p": 8, "balance": False, "max_iters": 100},
    "train": {
        "iterations": 300,
        "partition_samples": 4,
        "z_samples": 8,
        "base_step": 0.1,
        "decay_power": 0.51,
        "adaptive": True,
        "learn_variances": False,
        "checkpoint_every": 0,
        "checkpoint_path": None,
        "elbo_every": 0,
        "elbo_samples": 16,
    },
    "predict": {"samples": 64, "gamma": 0.0, "mnlp_observed": True},
}

_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["version"],
    "properties": {
        "version": {"const": CONFIG_VERSION},
        "seed": {"type": "integer", "minimum": 0},
        "split_fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "standardize": {"type": "boolean"},
        "spectral": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "m": {"type": "integer", "minimum": 1},
                "signal_variance": {"type": "number", "exclusiveMinimum": 0},
                "noise_variance": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "partition": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "p": {"type": "integer", "minimum": 1},
                "balance": {"type": "boolean"},
                "max_iters": {"type": "integer", "minimum": 1},
            },
        },
        "train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "iterations": {"type": "integer", "minimum": 1},
                "partition_samples": {"type": "integer", "minimum": 1},
                "z_samples": {"type": "integer", "minimum": 1},
                "base_step": {"type": "number", "exclusiveMinimum": 0},
                "decay_power": {"type": "number", "exclusiveMinimum": 0.5, "maximum": 1},
                "adaptive": {"type": "boolean"},
                "learn_variances": {"type": "boolean"},
                "checkpoint_every": {"type": "integer", "minimum": 0},
                "checkpoint_path": {"type": ["string", "null"]},
                "elbo_every": {"type": "integer", "minimum": 0},
                "elbo_samples": {"type": "integer", "minimum": 1},
            },
        },
        "predict": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "samples": {"type": "integer", "minimum": 1},
                "gamma": {"type": "number", "minimum": -1, "maximum": 1},
                "mnlp_observed": {"type": "boolean"},
            },
        },
    },
}


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def validate_config(doc: dict) -> None:
    try:
        jsonschema.validate(doc, _SCHEMA)
    except jsonschema.ValidationError as bad:
        path = ".".join(str(p) for p in bad.absolute_path) or "<root>"
        raise ContractError(f"config: {path}: {bad.message}") from None


def load_run_config(path=None, overrides=None) -> dict:
    """Defaults, overlaid with the JSON file at ``path``, overlaid with
    ``overrides`` (a possibly-nested dict from CLI flags)."""
    merged = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as handle:
                user = json.load(handle)
        except FileNotFoundError:
            raise DataError(f"config file not found: {path}") from None
        except json.JSONDecodeError as bad:
            raise DataError(f"config file is not valid JSON: {bad}") from None
        if not isinstance(user, dict):
            raise ContractError("config: document must be a JSON object")
        validate_config(user)
        merged = _merge(merged, user)
    if overrides:
        merged = _merge(merged, overrides)
    validate_config(merged)
    return merged


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
            adaptive=train["adaptive"],
        ),
        learn_variances=train["learn_variances"],
        checkpoint_every=train["checkpoint_every"],
        checkpoint_path=train["checkpoint_path"],
        seed=doc["seed"],
        elbo_every=train["elbo_every"],
        elbo_samples=train["elbo_samples"],
    )


def predict_config_from(doc: dict, seed_offset: int = 1) -> PredictConfig:
    # Prediction uses its own substream so it never aliases training draws.
    return PredictConfig(
        n_samples=doc["predict"]["samples"],
        gamma_mix=doc["predict"]["gamma"],
        seed=doc["seed"] + seed_offset,
    )
