"""The model, checkpoint and checkpoint data file formats: every stored
field is one that loading reads, a save/load cycle reproduces the file byte
for byte, files of earlier versions are refused, and the writer's bytes are
those of ``json.dumps``."""

import hashlib
import json

import numpy as np
import pytest

from specgp import (
    GradientSamplePlan,
    PartitionedDataset,
    PriorSpec,
    SpectralConfig,
    Standardization,
    StepSchedule,
    TrainConfig,
    TrainedModel,
    initial_state,
    kmeans_partition,
    load_model,
    save_model,
    train,
)
from specgp.errors import ModelFormatError
from specgp.model_io import PIECE_NUMBERS, model_to_doc, partition_to_doc, write_json_atomic
from specgp.optimizer import data_file_path, load_checkpoint

from conftest import (
    as_tiled_prior,
    as_version_one_model,
    as_version_three_model,
    as_version_two_model,
)

MODEL_KEYS = [
    "data.X",
    "data.y",
    "feature_names",
    "format",
    "partition.block_sizes",
    "partition.centroids",
    "prior.lengthscales",
    "spectral.d",
    "spectral.m",
    "spectral.noise_variance",
    "spectral.signal_variance",
    "standardization.x_mean",
    "standardization.x_scale",
    "standardization.y_mean",
    "standardization.y_scale",
    "state.M",
    "state.b",
    "target_name",
    "version",
]

PARTITION_KEYS = ["data.X", "data.y", "partition.block_sizes", "partition.centroids"]

CHECKPOINT_KEYS = [
    "data_digest",
    "format",
    "iteration",
    "optimizer.accumulator",
    "prior.lengthscales",
    "spectral.d",
    "spectral.m",
    "spectral.noise_variance",
    "spectral.signal_variance",
    "state.M",
    "state.b",
    "trace",
    "train_config.seed",
    "train_config.train.base_step",
    "train_config.train.checkpoint_every",
    "train_config.train.checkpoint_path",
    "train_config.train.decay_power",
    "train_config.train.elbo_every",
    "train_config.train.elbo_samples",
    "train_config.train.iterations",
    "train_config.train.learn_variances",
    "train_config.train.partition_samples",
    "train_config.train.z_samples",
    "version",
]


def key_paths(doc, prefix=""):
    """Sorted dotted paths of the leaves of nested JSON objects; a list is a leaf."""
    paths = []
    for key, value in doc.items():
        path = prefix + key
        paths += key_paths(value, path + ".") if isinstance(value, dict) else [path]
    return sorted(paths)


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """Paths of a saved model, and of the checkpoint and data file its
    training run wrote."""
    root = tmp_path_factory.mktemp("formats")
    rng = np.random.default_rng(5)
    cfg = SpectralConfig(d=2, m=2, signal_variance=1.0, noise_variance=0.25)
    X = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    part = kmeans_partition(X, y, p=3, seed=0)
    prior = PriorSpec.for_inputs(X, cfg)
    checkpoint = root / "checkpoint.json"
    tcfg = TrainConfig(
        iterations=2,
        plan=GradientSamplePlan(2, 2),
        schedule=StepSchedule(base_step=0.05, decay_power=0.6),
        checkpoint_every=2,
        checkpoint_path=str(checkpoint),
    )
    result = train(part, initial_state(prior, cfg, seed=0), prior, cfg, tcfg)
    model = root / "model.json"
    save_model(model, result.model(part, standardization=Standardization.fit(X, y)))
    data = data_file_path(checkpoint, load_checkpoint(checkpoint)[2].data_digest)
    return model, checkpoint, data


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def test_files_hold_exactly_the_fields_loading_reads(saved_files):
    model, checkpoint, data = saved_files
    model_doc, checkpoint_doc = read_json(model), read_json(checkpoint)
    assert (model_doc["version"], checkpoint_doc["version"]) == (4, 7)
    assert key_paths(model_doc) == MODEL_KEYS
    assert key_paths(checkpoint_doc) == CHECKPOINT_KEYS
    assert key_paths(read_json(data)) == PARTITION_KEYS
    assert set(PARTITION_KEYS) < set(MODEL_KEYS)


def test_saving_a_loaded_model_reproduces_the_file(tmp_path):
    # the middle block holds no rows, which sizes over block-ordered rows
    # express as a 0
    rng = np.random.default_rng(6)
    cfg = SpectralConfig(d=2, m=2, signal_variance=1.3, noise_variance=0.2)
    X = rng.normal(size=(9, 2))
    y = rng.normal(size=9)
    prior = PriorSpec.for_inputs(X, cfg)
    rows = [np.arange(4), np.arange(4, 4), np.arange(4, 9)]
    partition = PartitionedDataset(
        blocks=[(X[idx], y[idx]) for idx in rows],
        centroids=rng.normal(size=(3, 2)),
        block_indices=rows,
    )
    model = TrainedModel(
        state=initial_state(prior, cfg, seed=0),
        prior=prior,
        spectral=cfg,
        partition=partition,
        standardization=Standardization.fit(X, y),
        feature_names=["a", "b"],
        target_name="t",
    )
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(first, model)
    assert read_json(first)["partition"]["block_sizes"] == [4, 0, 5]
    loaded = load_model(first)
    save_model(second, loaded)
    assert second.read_bytes() == first.read_bytes()
    assert [idx.tolist() for idx in loaded.partition.block_indices] == [
        idx.tolist() for idx in rows
    ]


def test_save_and_load_keep_the_lengthscales_bit_for_bit(tmp_path):
    # lengthscales whose shortest round-trip text is long, and whose derived
    # frequency variances 1 / (4 pi^2 l^2) could not give them back exactly
    rng = np.random.default_rng(8)
    cfg = SpectralConfig(d=3, m=2, signal_variance=1.0, noise_variance=0.25)
    lengthscales = np.array([0.1 + 0.2, np.nextafter(1.0, 2.0), 1e-3]) * rng.uniform(0.5, 2.0, 3)
    prior = PriorSpec(lengthscales)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    part = kmeans_partition(X, y, p=2, seed=0)
    model_path, checkpoint = tmp_path / "model.json", str(tmp_path / "checkpoint.json")
    tcfg = TrainConfig(
        iterations=2,
        plan=GradientSamplePlan(1, 2),
        schedule=StepSchedule(base_step=0.05, decay_power=0.6),
        checkpoint_every=2,
        checkpoint_path=checkpoint,
    )
    result = train(part, initial_state(prior, cfg, seed=0), prior, cfg, tcfg)
    save_model(model_path, result.model(part))
    for loaded in (load_model(model_path).prior, load_checkpoint(checkpoint)[0].prior):
        assert loaded.lengthscales.tobytes() == lengthscales.tobytes()
        assert loaded.variances(cfg).tobytes() == prior.variances(cfg).tobytes()


def test_files_of_earlier_versions_are_a_version_mismatch(saved_files, tmp_path):
    # version 3 models (in version 5 checkpoints, and version 6 checkpoints)
    # stored the m·d tiled frequency variances; version 2 models (in version
    # 4 checkpoints) also interleaved the weights; version 1 models (in
    # version 3 checkpoints) also stored row-index lists; version 5
    # checkpoints embedded a version 3 model, data included
    model, checkpoint, _ = saved_files
    for version, as_old in (
        (1, as_version_one_model), (2, as_version_two_model), (3, as_version_three_model),
    ):
        old_model = tmp_path / f"model-v{version}.json"
        old_model.write_text(json.dumps(as_old(read_json(model))))
        with pytest.raises(
            ModelFormatError, match=rf"version mismatch \(expected 4, got {version}\)"
        ):
            load_model(old_model)
    old_checkpoint = tmp_path / "checkpoint-v6.json"
    old_checkpoint.write_text(json.dumps(as_tiled_prior(read_json(checkpoint), 6)))
    with pytest.raises(ModelFormatError, match=r"version mismatch \(expected 7, got 6\)"):
        load_checkpoint(old_checkpoint)
    for version, model_doc in (
        (3, as_version_one_model(read_json(model))),
        (4, as_version_two_model(read_json(model))),
        (5, as_version_three_model(read_json(model))),
    ):
        doc = read_json(checkpoint)
        for key in ("data_digest", "spectral", "prior", "state"):
            del doc[key]
        doc["version"] = version
        doc["model"] = model_doc
        old_checkpoint = tmp_path / f"checkpoint-v{version}.json"
        old_checkpoint.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="version mismatch"):
            load_checkpoint(old_checkpoint)


def test_a_float_version_is_a_version_mismatch(saved_files, tmp_path):
    # 4.0 == 4 in Python, but a file's version must be a JSON integer
    model, checkpoint, _ = saved_files
    doc = read_json(model)
    doc["version"] = 4.0
    path = tmp_path / "model-float.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=r"version mismatch \(expected 4, got 4\.0\)"):
        load_model(path)
    doc = read_json(checkpoint)
    doc["version"] = 7.0
    path = tmp_path / "checkpoint-float.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=r"version mismatch \(expected 7, got 7\.0\)"):
        load_checkpoint(path)


def written_as_dumps(path, doc):
    """Whether ``write_json_atomic`` writes exactly ``json.dumps(doc)`` and
    returns the sha256 of the file's bytes."""
    digest = write_json_atomic(path, doc)
    raw = path.read_bytes()
    return raw == json.dumps(doc).encode() and digest == hashlib.sha256(raw).hexdigest()


def test_writer_bytes_are_those_of_json_dumps(saved_files, tmp_path):
    model, checkpoint, data = saved_files
    path = tmp_path / "written.json"
    for doc in (read_json(model), read_json(checkpoint), read_json(data), [], {}, None):
        assert written_as_dumps(path, doc)
    rng = np.random.default_rng(7)
    long_rows = rng.normal(size=(3 * PIECE_NUMBERS + 5, 3)).tolist()
    long_row = rng.normal(size=PIECE_NUMBERS + 1).tolist()
    nested = {
        "rows": long_rows,
        "flat": long_row,
        "wider_than_a_piece": [long_row, long_row[:3], [long_row, []]],
        "mixed": [1, None, "x", True, {"a": []}] * PIECE_NUMBERS,
        "empty": {"list": [], "object": {}, "rows": [[]] * (PIECE_NUMBERS + 1)},
    }
    assert written_as_dumps(path, nested)
    assert [p.name for p in tmp_path.iterdir()] == ["written.json"]


def test_writer_bytes_for_a_zero_row_block_and_non_ascii_names(tmp_path):
    rng = np.random.default_rng(8)
    cfg = SpectralConfig(d=2, m=2, signal_variance=1.0, noise_variance=0.2)
    X = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    prior = PriorSpec.for_inputs(X, cfg)
    rows = [np.arange(0), np.arange(5)]
    model = TrainedModel(
        state=initial_state(prior, cfg, seed=0),
        prior=prior,
        spectral=cfg,
        partition=PartitionedDataset(
            blocks=[(X[idx], y[idx]) for idx in rows],
            centroids=rng.normal(size=(2, 2)),
            block_indices=rows,
        ),
        feature_names=["température °C", "数量"],
        target_name="ÿ",
    )
    doc = model_to_doc(model)
    assert doc["partition"]["block_sizes"] == [0, 5]
    path = tmp_path / "model.json"
    assert written_as_dumps(path, doc)
    assert load_model(path).feature_names == ["température °C", "数量"]
    empty = PartitionedDataset(
        blocks=[(X[:0], y[:0])], centroids=X[:1], block_indices=[np.arange(0)]
    )
    assert written_as_dumps(path, partition_to_doc(empty))
