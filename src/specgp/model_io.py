"""Versioned JSON model files.

A model file carries everything prediction needs: the spectral
configuration, the prior, the affine posterior parameters ``(M, b)``, the
partition (centroids plus per-block row indices) and the training data the
blocks refer to, along with the standardization fitted on that data.
Floats are written with Python's shortest round-trip representation, so a
save/load cycle is lossless at double precision.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Standardization, identity_standardization
from .errors import ContractError, ModelFormatError
from .features import SpectralConfig
from .partition import PartitionedDataset
from .variational import PriorSpec, VariationalState

MODEL_FORMAT = "specgp-model"
MODEL_VERSION = 1


@dataclass
class TrainedModel:
    """Bundle of everything needed to predict: posterior, prior, config,
    partition and the standardization of the training pipeline.

    Construction checks that the parts agree in dimension, so the kernels
    that later use them together need not."""

    state: VariationalState
    prior: PriorSpec
    spectral: SpectralConfig
    partition: PartitionedDataset
    standardization: Optional[Standardization] = None
    feature_names: Optional[list] = None
    target_name: str = "y"

    def __post_init__(self):
        spectral = self.spectral
        if self.state.dim != spectral.alpha_dim:
            raise ContractError(
                f"state has dimension {self.state.dim}, the config needs {spectral.alpha_dim}"
            )
        if self.prior.theta_dim != spectral.theta_dim:
            raise ContractError(
                f"prior covers {self.prior.theta_dim} frequency coordinates, "
                f"the config needs {spectral.theta_dim}"
            )
        if self.partition.d != spectral.d:
            raise ContractError(
                f"partition has input dimension {self.partition.d}, the config needs {spectral.d}"
            )
        if self.standardization is None:
            self.standardization = identity_standardization(spectral.d)


def _array(a):
    return np.asarray(a, dtype=float).tolist()


def model_to_doc(model: TrainedModel) -> dict:
    """Plain-dict form of a model, ready for ``json.dump``."""
    part = model.partition
    X_rows = []
    y_rows = []
    block_indices = []
    offset = 0
    for X_i, y_i in part.blocks:
        X_rows.append(X_i)
        y_rows.append(y_i)
        block_indices.append(list(range(offset, offset + X_i.shape[0])))
        offset += X_i.shape[0]
    X_all = np.vstack(X_rows) if X_rows else np.zeros((0, part.d))
    y_all = np.concatenate(y_rows) if y_rows else np.zeros(0)
    std = model.standardization
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "spectral": {
            "d": model.spectral.d,
            "m": model.spectral.m,
            "signal_variance": model.spectral.signal_variance,
            "noise_variance": model.spectral.noise_variance,
        },
        "prior": {
            "theta_prior_variance": _array(model.prior.theta_prior_variance),
            # Written for readers of the format; loading derives it from "spectral".
            "lambda_diag": model.spectral.lambda_diag,
        },
        "state": {"M": _array(model.state.M), "b": _array(model.state.b)},
        "partition": {
            "centroids": _array(part.centroids),
            "block_indices": [list(map(int, idx)) for idx in block_indices],
        },
        "data": {"X": _array(X_all), "y": _array(y_all)},
        "standardization": {
            "x_mean": _array(std.x_mean),
            "x_scale": _array(std.x_scale),
            "y_mean": std.y_mean,
            "y_scale": std.y_scale,
            "constant_columns": [bool(c) for c in std.constant_columns],
        },
        "feature_names": model.feature_names,
        "target_name": model.target_name,
    }


def _block_rows(idx) -> np.ndarray:
    """One block's row indices; a float or boolean entry is rejected, not
    truncated to an integer."""
    if not isinstance(idx, list) or not all(type(i) is int for i in idx):
        raise ModelFormatError("model: partition.block_indices entries must be integers")
    return np.asarray(idx, dtype=int)


def _check_partition(X_all, y_all, centroids, block_indices, d) -> None:
    """Reject non-finite data or centroids, mismatched shapes, and block
    indices that are not a disjoint cover of the data rows."""
    n = y_all.shape[0] if y_all.ndim == 1 else -1
    p = len(block_indices)
    if X_all.shape != (n, d) or centroids.shape != (p, d):
        raise ModelFormatError(
            f"model: need data.X ({n}, {d}) and partition.centroids ({p}, {d}) for "
            f"{n} targets and {p} blocks, got {X_all.shape} and {centroids.shape}"
        )
    if not all(np.all(np.isfinite(a)) for a in (X_all, y_all, centroids)):
        raise ModelFormatError("model: data.X, data.y or partition.centroids is not finite")
    rows = np.concatenate(block_indices) if block_indices else np.zeros(0, dtype=int)
    if not np.array_equal(np.sort(rows), np.arange(n)):
        raise ModelFormatError("model: partition.block_indices must list each data row once")


def model_from_doc(doc: dict) -> TrainedModel:
    """Rebuild a :class:`TrainedModel`, validating format and version."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model: document is not a JSON object")
    if doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError(
            f"model: format mismatch (expected {MODEL_FORMAT!r}, got {doc.get('format')!r})"
        )
    if doc.get("version") != MODEL_VERSION:
        raise ModelFormatError(
            f"model: version mismatch (expected {MODEL_VERSION}, got {doc.get('version')!r})"
        )
    try:
        spectral = SpectralConfig(
            d=doc["spectral"]["d"],
            m=doc["spectral"]["m"],
            signal_variance=doc["spectral"]["signal_variance"],
            noise_variance=doc["spectral"]["noise_variance"],
        )
        prior = PriorSpec(
            theta_prior_variance=np.asarray(doc["prior"]["theta_prior_variance"], dtype=float)
        )
        state = VariationalState(
            np.asarray(doc["state"]["M"], dtype=float),
            np.asarray(doc["state"]["b"], dtype=float),
        )
        X_all = np.asarray(doc["data"]["X"], dtype=float)
        if X_all.size == 0:
            X_all = X_all.reshape(0, spectral.d)
        y_all = np.asarray(doc["data"]["y"], dtype=float)
        centroids = np.asarray(doc["partition"]["centroids"], dtype=float)
        block_indices = [_block_rows(idx) for idx in doc["partition"]["block_indices"]]
        _check_partition(X_all, y_all, centroids, block_indices, spectral.d)
        blocks = [(X_all[idx], y_all[idx]) for idx in block_indices]
        partition = PartitionedDataset(
            blocks=blocks, centroids=centroids, block_indices=block_indices
        )
        std_doc = doc["standardization"]
        standardization = Standardization(
            x_mean=np.asarray(std_doc["x_mean"], dtype=float),
            x_scale=np.asarray(std_doc["x_scale"], dtype=float),
            y_mean=float(std_doc["y_mean"]),
            y_scale=float(std_doc["y_scale"]),
            constant_columns=np.asarray(std_doc["constant_columns"], dtype=bool),
        )
        # A ContractError from the dimension check is a ValueError, so a
        # state or prior that does not fit "spectral" is a format error here.
        return TrainedModel(
            state=state,
            prior=prior,
            spectral=spectral,
            partition=partition,
            standardization=standardization,
            feature_names=doc.get("feature_names"),
            target_name=doc.get("target_name") or "y",
        )
    except KeyError as missing:
        raise ModelFormatError(f"model: missing field {missing}") from None
    except (TypeError, ValueError) as bad:
        raise ModelFormatError(f"model: malformed field ({bad})") from None


def write_json_atomic(path, doc) -> None:
    """Write ``doc`` as JSON so that ``path`` holds its old or its new
    contents, never a partial file: the text goes to a temporary file in the
    same directory, which then replaces ``path`` in one rename.  There is no
    fsync, so this survives an interrupted process, not a power loss."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as handle:
            json.dump(doc, handle)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_model(path, model: TrainedModel) -> None:
    write_json_atomic(path, model_to_doc(model))


def load_model(path) -> TrainedModel:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise ModelFormatError(f"model: file not found: {path}") from None
    except json.JSONDecodeError as bad:
        raise ModelFormatError(f"model: invalid JSON ({bad})") from None
    return model_from_doc(doc)
