"""Versioned JSON model files.

A model file carries everything prediction needs and nothing loading does
not read: the spectral configuration, the prior's ``d`` lengthscales, the
affine posterior parameters ``(M, b)``, the partition (centroids plus the
row count of each block) and the training data in block order, along with
the standardization fitted on that data.  Every float array is stored as
``{"shape": [...], "base64": "..."}``: the base64 text of its raw
little-endian float64 bytes in row-major order, so a save/load cycle is
lossless bit for bit and costs no float formatting or parsing.  Scalars
stay JSON numbers.  A file of another version is refused as a version
mismatch: version 1 stored row-index lists instead of block sizes,
version 2 interleaved the weight entries of ``M`` and ``b`` as cos_1,
sin_1, ... instead of all cosines, then all sines, version 3 stored the
m·d tiled frequency variances instead of the lengthscales, and version 4
stored every array as nested lists of float text.

Checkpoints (:mod:`specgp.optimizer`) share the posterior fields and, in
their data file, the partition fields.  Every file is written by
:func:`write_json_atomic`.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .data import Standardization, identity_standardization
from .errors import ContractError, ModelFormatError, NumericalError
from .features import SpectralConfig
from .partition import PartitionedDataset
from .variational import PriorSpec, VariationalState

MODEL_FORMAT = "specgp-model"
MODEL_VERSION = 5


@dataclass(frozen=True)
class TrainedModel:
    """Bundle of everything needed to predict: posterior, prior, config,
    partition and the standardization of the training pipeline.

    Construction checks that the parts agree in dimension, so the kernels
    that later use them together need not.  The fields cannot be
    reassigned and the arrays of the state and the partition are
    read-only, so ``predict_memo``, the factors that
    :func:`~specgp.predict.predict_batch` keeps across calls, always
    belongs to the parts it was built from."""

    state: VariationalState
    prior: PriorSpec
    spectral: SpectralConfig
    partition: PartitionedDataset
    standardization: Optional[Standardization] = None
    feature_names: Optional[list] = None
    target_name: str = "y"
    predict_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        spectral = self.spectral
        if self.state.dim != spectral.alpha_dim:
            raise ContractError(
                f"state has dimension {self.state.dim}, the config needs {spectral.alpha_dim}"
            )
        if self.prior.d != spectral.d:
            raise ContractError(
                f"prior has {self.prior.d} lengthscales, the config needs {spectral.d}"
            )
        if self.partition.d != spectral.d:
            raise ContractError(
                f"partition has input dimension {self.partition.d}, the config needs {spectral.d}"
            )
        if self.standardization is None:
            object.__setattr__(self, "standardization", identity_standardization(spectral.d))


def array_to_doc(a) -> dict:
    """The stored form of a float array: its shape and the base64 text of
    its little-endian float64 bytes in row-major order."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "base64": base64.b64encode(a).decode("ascii")}


def array_from_doc(value, name: str, ndim: int) -> np.ndarray:
    """The ``ndim``-dimensional float array that :func:`array_to_doc` stored
    as field ``name``, as an owned, writable copy.  A shape that is not a
    list of ``ndim`` integers >= 0, base64 text that is not strict, or a
    byte count other than 8 per entry is a :class:`ModelFormatError` naming
    the field; a missing key is a ``KeyError`` for :func:`field_errors`."""
    if not isinstance(value, dict):
        raise ModelFormatError(f"model: {name} must be an object with shape and base64")
    shape, text = value["shape"], value["base64"]
    if not (
        isinstance(shape, list)
        and len(shape) == ndim
        and all(type(k) is int and k >= 0 for k in shape)
    ):
        raise ModelFormatError(f"model: {name}.shape must be a list of {ndim} integers >= 0")
    if not isinstance(text, str):
        raise ModelFormatError(f"model: {name}.base64 must be a string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise ModelFormatError(f"model: {name}.base64 is not strict base64 text") from None
    need = 8 * math.prod(shape)
    if len(raw) != need:
        raise ModelFormatError(
            f"model: {name} holds {len(raw)} bytes, its shape {shape} needs {need}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)


def partition_to_doc(partition: PartitionedDataset) -> dict:
    """The ``partition`` and ``data`` fields that model files and checkpoint
    data files share: centroids, the row count of each block, and the
    training rows in block order."""
    X_rows = [X_i for X_i, _ in partition.blocks]
    y_rows = [y_i for _, y_i in partition.blocks]
    X_all = np.vstack(X_rows) if X_rows else np.zeros((0, partition.d))
    y_all = np.concatenate(y_rows) if y_rows else np.zeros(0)
    return {
        "partition": {
            "centroids": array_to_doc(partition.centroids),
            "block_sizes": partition.block_sizes().tolist(),
        },
        "data": {"X": array_to_doc(X_all), "y": array_to_doc(y_all)},
    }


def posterior_to_doc(state: VariationalState, prior: PriorSpec, spectral: SpectralConfig) -> dict:
    """The ``spectral``, ``prior`` and ``state`` fields that model files and
    checkpoints share."""
    return {
        "spectral": asdict(spectral),
        "prior": {"lengthscales": array_to_doc(prior.lengthscales)},
        "state": {"M": array_to_doc(state.M), "b": array_to_doc(state.b)},
    }


def model_to_doc(model: TrainedModel) -> dict:
    """Plain-dict form of a model, ready for :func:`write_json_atomic`."""
    std = model.standardization
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        **posterior_to_doc(model.state, model.prior, model.spectral),
        **partition_to_doc(model.partition),
        "standardization": {
            "x_mean": array_to_doc(std.x_mean),
            "x_scale": array_to_doc(std.x_scale),
            "y_mean": std.y_mean,
            "y_scale": std.y_scale,
        },
        "feature_names": model.feature_names,
        "target_name": model.target_name,
    }


def _check_partition(X_all, y_all, centroids, sizes, d) -> None:
    """Reject non-finite data or centroids, mismatched shapes, and block
    sizes that are not integers >= 0 summing to the number of data rows.
    A float or boolean size is rejected, not truncated to an integer."""
    if not isinstance(sizes, list) or not all(type(k) is int and k >= 0 for k in sizes):
        raise ModelFormatError("model: partition.block_sizes must be a list of integers >= 0")
    n, p = y_all.shape[0], len(sizes)
    if X_all.shape != (n, d) or centroids.shape != (p, d):
        raise ModelFormatError(
            f"model: need data.X ({n}, {d}) and partition.centroids ({p}, {d}) for "
            f"{n} targets and {p} blocks, got {X_all.shape} and {centroids.shape}"
        )
    if not all(np.all(np.isfinite(a)) for a in (X_all, y_all, centroids)):
        raise ModelFormatError("model: data.X, data.y or partition.centroids is not finite")
    if sum(sizes) != n:
        raise ModelFormatError(
            f"model: partition.block_sizes sum to {sum(sizes)}, data.y has {n} rows"
        )


def _check_standardization(std: Standardization, d) -> None:
    """Reject a standardization that does not fit ``d`` input columns or is
    not a finite transform with positive scales."""
    if std.x_mean.shape != (d,) or std.x_scale.shape != (d,):
        raise ModelFormatError(f"model: standardization vectors need {d} entries")
    values = np.concatenate([std.x_mean, std.x_scale, [std.y_mean, std.y_scale]])
    if not np.all(np.isfinite(values)) or np.any(std.x_scale <= 0) or std.y_scale <= 0:
        raise ModelFormatError("model: standardization is not finite with positive scales")


def _check_names(feature_names, target_name, d) -> None:
    """Reject feature names that are not null or ``d`` distinct strings, and
    a target name that is not a string."""
    if feature_names is not None and not (
        isinstance(feature_names, list)
        and all(isinstance(name, str) for name in feature_names)
        and len(set(feature_names)) == len(feature_names) == d
    ):
        raise ModelFormatError(f"model: feature_names must be null or {d} distinct strings")
    if not isinstance(target_name, str):
        raise ModelFormatError("model: target_name must be a string")


def _check_header(doc, fmt, version, noun) -> None:
    """Reject a document that is not a JSON object of format ``fmt`` at
    ``version``, which must be a JSON integer (``3.0`` is not ``3``)."""
    if not isinstance(doc, dict):
        raise ModelFormatError(f"model: {noun} is not a JSON object")
    if doc.get("format") != fmt:
        raise ModelFormatError(
            f"model: format mismatch (expected {fmt!r}, got {doc.get('format')!r})"
        )
    if type(doc.get("version")) is not int or doc["version"] != version:
        raise ModelFormatError(
            f"model: version mismatch (expected {version}, got {doc.get('version')!r})"
        )


def read_document(path, fmt, version, kind=None) -> dict:
    """The JSON object in the file at ``path``, checked to be of format ``fmt``
    at ``version``.  A missing file, invalid JSON or a wrong header is a
    :class:`ModelFormatError` whose message names the file's ``kind``
    (``"checkpoint"``) when one is given; any other ``OSError``, such as a
    directory at ``path``, propagates."""
    label = f"{kind} " if kind else ""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise ModelFormatError(f"model: {label}file not found: {path}") from None
    except json.JSONDecodeError as bad:
        raise ModelFormatError(f"model: invalid {label}JSON ({bad})") from None
    _check_header(doc, fmt, version, kind or "document")
    return doc


@contextlib.contextmanager
def field_errors(kind=None):
    """Turn a missing or malformed field met while rebuilding a document into
    a :class:`ModelFormatError` whose message names the file's ``kind``
    (``"checkpoint"``) when one is given."""
    label = f"{kind} " if kind else ""
    try:
        yield
    except KeyError as missing:
        raise ModelFormatError(f"model: {label}missing field {missing}") from None
    except ModelFormatError:
        raise
    except (TypeError, ValueError, NumericalError) as bad:
        # a ContractError from a dimension check is a ValueError, and a
        # NumericalError can only come from a state whose M is singular
        raise ModelFormatError(f"model: malformed {label}field ({bad})") from None


def posterior_from_doc(doc: dict):
    """``(spectral, prior, state)`` from the fields that
    :func:`posterior_to_doc` writes; call it under :func:`field_errors`."""
    names = (f.name for f in fields(SpectralConfig))
    spectral = SpectralConfig(**{name: doc["spectral"][name] for name in names})
    prior = PriorSpec(array_from_doc(doc["prior"]["lengthscales"], "prior.lengthscales", 1))
    state = VariationalState(
        array_from_doc(doc["state"]["M"], "state.M", 2),
        array_from_doc(doc["state"]["b"], "state.b", 1),
    )
    return spectral, prior, state


def partition_from_doc(doc: dict, d: int) -> PartitionedDataset:
    """The partition of ``d``-column rows that :func:`partition_to_doc`
    writes, checked; call it under :func:`field_errors`."""
    X_all = array_from_doc(doc["data"]["X"], "data.X", 2)
    y_all = array_from_doc(doc["data"]["y"], "data.y", 1)
    centroids = array_from_doc(doc["partition"]["centroids"], "partition.centroids", 2)
    sizes = doc["partition"]["block_sizes"]
    _check_partition(X_all, y_all, centroids, sizes, d)
    # Each block is a view of the one decoded array.
    ends = np.cumsum(sizes, dtype=int)
    block_indices = [np.arange(end - size, end) for size, end in zip(sizes, ends)]
    blocks = [(X_all[end - size : end], y_all[end - size : end]) for size, end in zip(sizes, ends)]
    return PartitionedDataset(blocks=blocks, centroids=centroids, block_indices=block_indices)


def model_from_doc(doc: dict) -> TrainedModel:
    """Rebuild a :class:`TrainedModel`, validating format and version."""
    _check_header(doc, MODEL_FORMAT, MODEL_VERSION, "document")
    with field_errors():
        spectral, prior, state = posterior_from_doc(doc)
        partition = partition_from_doc(doc, spectral.d)
        std_doc = doc["standardization"]
        standardization = Standardization(
            x_mean=array_from_doc(std_doc["x_mean"], "standardization.x_mean", 1),
            x_scale=array_from_doc(std_doc["x_scale"], "standardization.x_scale", 1),
            y_mean=float(std_doc["y_mean"]),
            y_scale=float(std_doc["y_scale"]),
        )
        _check_standardization(standardization, spectral.d)
        feature_names = doc.get("feature_names")
        target_name = doc.get("target_name", "y")
        _check_names(feature_names, target_name, spectral.d)
        return TrainedModel(
            state=state,
            prior=prior,
            spectral=spectral,
            partition=partition,
            standardization=standardization,
            feature_names=feature_names,
            target_name=target_name,
        )


def write_json_atomic(path, doc, final_path=None) -> str:
    """Write ``doc`` as the bytes of ``json.dumps(doc)`` and return their
    sha256 hex digest.

    The file holds its old or its new contents, never a partial file: the
    text goes to the temporary file ``<path>.<pid>.tmp``, which then replaces
    ``path``, or ``final_path(digest)`` when that function is given, in one
    rename.  There is no fsync, so this survives an interrupted process,
    not a power loss."""
    tmp = f"{path}.{os.getpid()}.tmp"
    raw = json.dumps(doc).encode()
    hexdigest = hashlib.sha256(raw).hexdigest()
    try:
        with open(tmp, "wb") as handle:
            handle.write(raw)
        os.replace(tmp, path if final_path is None else final_path(hexdigest))
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return hexdigest


def save_model(path, model: TrainedModel) -> None:
    write_json_atomic(path, model_to_doc(model))


def load_model(path) -> TrainedModel:
    return model_from_doc(read_document(path, MODEL_FORMAT, MODEL_VERSION))
