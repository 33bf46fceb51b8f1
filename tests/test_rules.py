"""One rule per scalar setting: every scalar field of the component configs
refuses what its rule excludes, and the run-config keys share the rules."""

import dataclasses
import pathlib

import numpy as np
import pytest

from specgp import (
    ContractError,
    GradientSamplePlan,
    PredictConfig,
    SpectralConfig,
    StepSchedule,
    TrainConfig,
)
from specgp.config import KEYS
from specgp.errors import FLAG, POSITIVE, POSITIVE_INT, Rule, checked

VALID = {
    SpectralConfig: {"d": 2, "m": 3, "signal_variance": 1.0, "noise_variance": 0.1},
    StepSchedule: {"base_step": 0.1, "decay_power": 0.51},
    GradientSamplePlan: {"n_partition_samples": 4, "n_z_samples": 8},
    PredictConfig: {"n_samples": 4, "gamma_mix": 0.0},
    TrainConfig: {
        "iterations": 5, "plan": GradientSamplePlan(4, 8), "schedule": StepSchedule(0.1, 0.51)
    },
}
ABOVE_ONE, BELOW_MINUS_ONE = np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)
INF = float("inf")

# Every scalar field: its JSON kind and the values just outside its bound.
FIELDS = {
    (SpectralConfig, "d"): ("integer", [0]),
    (SpectralConfig, "m"): ("integer", [0]),
    (SpectralConfig, "signal_variance"): ("number", [0.0, INF]),
    (SpectralConfig, "noise_variance"): ("number", [0.0, INF]),
    (StepSchedule, "base_step"): ("number", [0.0, INF]),
    (StepSchedule, "decay_power"): ("number", [0.5, ABOVE_ONE]),
    (StepSchedule, "adaptive"): ("boolean", [False]),
    (GradientSamplePlan, "n_partition_samples"): ("integer", [0]),
    (GradientSamplePlan, "n_z_samples"): ("integer", [0]),
    (GradientSamplePlan, "rng_seed"): ("integer", [-1]),
    (PredictConfig, "n_samples"): ("integer", [0]),
    (PredictConfig, "gamma_mix"): ("number", [BELOW_MINUS_ONE, ABOVE_ONE]),
    (PredictConfig, "seed"): ("integer", [-1]),
    (TrainConfig, "iterations"): ("integer", [0]),
    (TrainConfig, "learn_variances"): ("boolean", []),
    (TrainConfig, "checkpoint_every"): ("integer", [-1]),
    (TrainConfig, "checkpoint_path"): ("string or null", []),
    (TrainConfig, "seed"): ("integer", [-1]),
    (TrainConfig, "elbo_every"): ("integer", [-1]),
    (TrainConfig, "elbo_samples"): ("integer", [0]),
}

WRONG_TYPE = {
    "integer": [True, "1", 2.0, np.float64(2.0), None],
    "number": [True, np.bool_(True), "1", float("nan"), None],
    "boolean": [1, "1", None],
    "string or null": [True, 1, b"ck.json"],
}


def _field_cases():
    for (owner, name), (kind, outside) in FIELDS.items():
        for value in WRONG_TYPE[kind] + outside:
            yield pytest.param(owner, name, value, id=f"{owner.__name__}.{name}={value!r}")


@pytest.mark.parametrize("owner, name, value", list(_field_cases()))
def test_each_scalar_field_refuses_what_its_rule_excludes(owner, name, value):
    with pytest.raises(ContractError, match=name):
        owner(**{**VALID[owner], name: value})


def test_the_field_table_is_complete():
    # every scalar field has a row, and a rule beside its type
    scalar = {
        (owner, f.name)
        for owner in VALID
        for f in dataclasses.fields(owner)
        if f.name not in ("plan", "schedule")
    }
    assert set(FIELDS) == scalar
    ruled = {(owner, name) for owner in VALID for name in owner.RULES}
    assert ruled == scalar - {(StepSchedule, "adaptive")}


@pytest.mark.parametrize(
    "value, rule, plain",
    [
        (np.int64(3), POSITIVE_INT, 3),
        (np.uint8(3), POSITIVE_INT, 3),
        (np.float32(0.5), POSITIVE, 0.5),
        (2, POSITIVE, 2.0),
        (np.bool_(False), FLAG, False),
        (pathlib.Path("ck.json"), Rule("string or null"), "ck.json"),
        (None, Rule("string or null"), None),
        (np.float32(0.5), Rule("number or null"), 0.5),
        (2, Rule("number or null"), 2.0),
        (None, Rule("number or null"), None),
    ],
    ids=[
        "int64", "uint8", "float32", "int-as-number", "bool_", "path", "null",
        "float32-or-null", "int-as-number-or-null", "number-or-null-null",
    ],
)
def test_checked_returns_plain_python_values(value, rule, plain):
    got = checked("x", value, rule)
    assert got == plain and type(got) is type(plain)


@pytest.mark.parametrize(
    "rule, value, message",
    [
        (Rule("number", "(0.5, 1]"), 0.5, r"^x: must be in \(0\.5, 1\], got 0\.5$"),
        (Rule("number", "[-1, 1]"), float("nan"), r"^x: must be in \[-1, 1\], got nan$"),
        (POSITIVE, 10**400, r"^x: must be in \(0, inf\), got 1000"),
        (POSITIVE_INT, 2.0, r"^x: expected integer, got 2\.0$"),
        (FLAG, 1, r"^x: expected boolean, got 1$"),
        (Rule("number or null"), "1e3", r"^x: expected number or null, got '1e3'$"),
        (Rule("number or null"), True, r"^x: expected number or null, got True$"),
    ],
    ids=["open-low", "nan", "overflow", "float-integer", "int-boolean", "string-number-or-null",
         "bool-number-or-null"],
)
def test_checked_names_the_setting_and_its_rule(rule, value, message):
    with pytest.raises(ContractError, match=message):
        checked("x", value, rule)


# Each run-config key that sets a component field, and that field.
MIRRORS = {
    "seed": (TrainConfig, "seed"),
    "spectral.m": (SpectralConfig, "m"),
    "spectral.signal_variance": (SpectralConfig, "signal_variance"),
    "spectral.noise_variance": (SpectralConfig, "noise_variance"),
    "train.iterations": (TrainConfig, "iterations"),
    "train.partition_samples": (GradientSamplePlan, "n_partition_samples"),
    "train.z_samples": (GradientSamplePlan, "n_z_samples"),
    "train.base_step": (StepSchedule, "base_step"),
    "train.decay_power": (StepSchedule, "decay_power"),
    "train.learn_variances": (TrainConfig, "learn_variances"),
    "train.checkpoint_every": (TrainConfig, "checkpoint_every"),
    "train.checkpoint_path": (TrainConfig, "checkpoint_path"),
    "train.elbo_every": (TrainConfig, "elbo_every"),
    "train.elbo_samples": (TrainConfig, "elbo_samples"),
    "predict.samples": (PredictConfig, "n_samples"),
    "predict.gamma": (PredictConfig, "gamma_mix"),
}


def test_config_keys_read_the_rules_of_the_fields_they_set():
    for path, (owner, name) in MIRRORS.items():
        assert KEYS[path].rule is owner.RULES[name], path
