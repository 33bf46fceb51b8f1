"""The model, checkpoint and checkpoint data file formats: every stored
field is one that loading reads, a save/load cycle reproduces the file and
every array bit for bit, a malformed stored array is refused naming its
field, files of earlier versions are refused, and the writer's bytes are
those of ``json.dumps``."""

import base64
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from specgp import (
    GradientSamplePlan,
    PartitionedDataset,
    PredictConfig,
    PriorSpec,
    SpectralConfig,
    Standardization,
    StepSchedule,
    TrainConfig,
    TrainedModel,
    VariationalState,
    initial_state,
    kmeans_partition,
    load_model,
    predict_batch,
    save_model,
    train,
)
from specgp.errors import ModelFormatError
from specgp.model_io import model_to_doc, partition_to_doc, write_json_atomic
from specgp.optimizer import _OptState, data_file_path, load_checkpoint, save_checkpoint

from conftest import (
    as_float_text,
    as_tiled_prior,
    as_version_one_model,
    as_version_three_model,
    as_version_two_model,
    stored_array,
    storing,
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
    """Sorted dotted paths of the leaves of nested JSON objects; a list or a
    stored array is a leaf."""
    paths = []
    for key, value in doc.items():
        path = prefix + key
        nested = isinstance(value, dict) and set(value) != {"shape", "base64"}
        paths += key_paths(value, path + ".") if nested else [path]
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
    assert (model_doc["version"], checkpoint_doc["version"]) == (5, 8)
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


def test_model_fields_cannot_be_reassigned():
    # predict_batch keeps factors in predict_memo, so a swapped field must not
    # meet a memo built from the old one
    rng = np.random.default_rng(9)
    cfg = SpectralConfig(d=2, m=2, signal_variance=1.0, noise_variance=0.2)
    X, y = rng.normal(size=(12, 2)), rng.normal(size=12)
    prior = PriorSpec.for_inputs(X, cfg)
    model = TrainedModel(
        state=initial_state(prior, cfg, seed=0), prior=prior, spectral=cfg,
        partition=kmeans_partition(X, y, p=2, seed=0),
    )
    # the default standardization is set once, at construction
    assert model.standardization.x_mean.tolist() == [0.0, 0.0]
    other = initial_state(prior, cfg, seed=1)
    for name, value in (
        ("state", other), ("partition", model.partition), ("spectral", cfg),
        ("prior", prior), ("standardization", None), ("predict_memo", {}),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, value)
    predict_batch(X[:3], model, PredictConfig(n_samples=4, gamma_mix=0.0))
    assert model.predict_memo
    assert "predict_memo" not in repr(model)
    # a model built from another's parts starts with an empty memo
    assert dataclasses.replace(model, state=other).predict_memo == {}


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
    # version 4 models and version 7 checkpoints stored arrays as float
    # text; version 3 models (in version 5 checkpoints, and version 6 checkpoints)
    # stored the m·d tiled frequency variances; version 2 models (in version
    # 4 checkpoints) also interleaved the weights; version 1 models (in
    # version 3 checkpoints) also stored row-index lists; version 5
    # checkpoints embedded a version 3 model, data included
    model, checkpoint, _ = saved_files
    for version, as_old in (
        (1, as_version_one_model),
        (2, as_version_two_model),
        (3, as_version_three_model),
        (4, lambda doc: as_float_text(doc, 4)),
    ):
        old_model = tmp_path / f"model-v{version}.json"
        old_model.write_text(json.dumps(as_old(read_json(model))))
        with pytest.raises(
            ModelFormatError, match=rf"version mismatch \(expected 5, got {version}\)"
        ):
            load_model(old_model)
    for version, as_old in ((6, as_tiled_prior), (7, as_float_text)):
        old_checkpoint = tmp_path / f"checkpoint-v{version}.json"
        old_checkpoint.write_text(json.dumps(as_old(read_json(checkpoint), version)))
        with pytest.raises(
            ModelFormatError, match=rf"version mismatch \(expected 8, got {version}\)"
        ):
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
    # 5.0 == 5 in Python, but a file's version must be a JSON integer
    model, checkpoint, _ = saved_files
    doc = read_json(model)
    doc["version"] = 5.0
    path = tmp_path / "model-float.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=r"version mismatch \(expected 5, got 5\.0\)"):
        load_model(path)
    doc = read_json(checkpoint)
    doc["version"] = 8.0
    path = tmp_path / "checkpoint-float.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=r"version mismatch \(expected 8, got 8\.0\)"):
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
    long_rows = rng.normal(size=(6149, 3)).tolist()
    long_row = rng.normal(size=2049).tolist()
    nested = {
        "rows": long_rows,
        "flat": long_row,
        "wider_than_a_piece": [long_row, long_row[:3], [long_row, []]],
        "mixed": [1, None, "x", True, {"a": []}] * 2048,
        "empty": {"list": [], "object": {}, "rows": [[]] * 2049},
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


EDGE = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2])


def test_edge_values_round_trip_bit_for_bit(tmp_path):
    # a negative zero, the smallest subnormal, the largest finite magnitudes
    # and a sum whose shortest text is 17 digits, in every array field that
    # admits them
    cfg = SpectralConfig(d=2, m=1, signal_variance=1.0, noise_variance=0.25)
    X = np.column_stack([EDGE, EDGE[::-1]])
    rows = [np.arange(3), np.arange(3, 5)]
    partition = PartitionedDataset(
        blocks=[(X[idx], EDGE[idx]) for idx in rows],
        centroids=np.vstack([EDGE[:2], EDGE[2:4]]),
        block_indices=rows,
    )
    M = np.eye(4)
    M[0, 1], M[1, 0], M[2, 3], M[3, 2] = EDGE[[0, 1, 4, 0]]
    state = VariationalState(M, EDGE[:4])
    prior = PriorSpec([0.1 + 0.2, 1.0])
    std = Standardization(
        x_mean=EDGE[2:4], x_scale=np.array([5e-324, 1.7976931348623157e308]),
        y_mean=-0.0, y_scale=0.1 + 0.2,
    )
    model = TrainedModel(state, prior, cfg, partition, standardization=std)
    model_path, checkpoint = tmp_path / "model.json", str(tmp_path / "checkpoint.json")
    save_model(model_path, model)
    tcfg = TrainConfig(
        iterations=2,
        plan=GradientSamplePlan(1, 2),
        schedule=StepSchedule(base_step=0.05, decay_power=0.6),
        checkpoint_every=2,
        checkpoint_path=checkpoint,
    )
    accumulator = np.resize(np.abs(EDGE), 20)
    accumulator[0] = -0.0
    save_checkpoint(checkpoint, partition, state, prior, cfg, tcfg, _OptState(accumulator))
    loaded, resumed = load_model(model_path), load_checkpoint(checkpoint)
    for got in (loaded, resumed[0]):
        assert got.state.M.tobytes() == M.tobytes()
        assert got.state.b.tobytes() == EDGE[:4].tobytes()
        assert got.prior.lengthscales.tobytes() == prior.lengthscales.tobytes()
        assert got.partition.centroids.tobytes() == partition.centroids.tobytes()
        for (X_k, y_k), idx in zip(got.partition.blocks, rows):
            assert X_k.tobytes() == X[idx].tobytes() and y_k.tobytes() == EDGE[idx].tobytes()
    got = loaded.standardization
    assert got.x_mean.tobytes() == std.x_mean.tobytes()
    assert got.x_scale.tobytes() == std.x_scale.tobytes()
    assert np.signbit(got.y_mean) and got.y_scale == 0.1 + 0.2
    assert resumed[2].accumulator.tobytes() == accumulator.tobytes()
    # read without specgp, the stored arrays are the same bytes
    assert stored_array(read_json(model_path)["data"]["X"]).tobytes() == X.tobytes()


def test_loaded_arrays_are_owned_float64(saved_files):
    # the state's and the partition's arrays are read-only, as for any
    # model, and view memory the model owns; the others are writable
    model = load_model(saved_files[0])
    frozen = [model.state.M, model.state.b, model.partition.centroids]
    frozen += [a for block in model.partition.blocks for a in block]
    free = [model.prior.lengthscales, model.standardization.x_mean]
    free += [model.standardization.x_scale]
    for a in frozen + free:
        assert a.dtype == np.float64
        assert (a if a.base is None else a.base).flags.owndata
    assert not any(a.flags.writeable for a in frozen)
    assert all(a.flags.writeable for a in free)
    X_0 = model.partition.blocks[0][0]
    assert all(X_k.base is X_0.base for X_k, _ in model.partition.blocks)
    assert X_0.base.flags.owndata


def _bad_character(value):
    value["base64"] = "!" + value["base64"][1:]


def _embedded_newline(value):
    # a lenient decoder would skip it and read the same bytes
    value["base64"] = value["base64"][:4] + "\n" + value["base64"][4:]


def _non_ascii_character(value):
    value["base64"] = "é" + value["base64"][1:]


def _truncated_text(value):
    value["base64"] = value["base64"].rstrip("=")[:-1]


def _one_row_too_many(value):
    value["shape"][0] += 1


def _one_entry_short(value):
    value["base64"] = base64.b64encode(base64.b64decode(value["base64"])[:-8]).decode()


def _negative_shape(value):
    value["shape"][0] = -value["shape"][0]


def _float_shape(value):
    value["shape"][0] = float(value["shape"][0])


def _boolean_shape(value):
    value["shape"] = [True] + value["shape"][1:]


def _shape_not_a_list(value):
    value["shape"] = str(value["shape"])


def _wrong_rank(value):
    value["shape"] = value["shape"] + [1]


def _numbers_not_text(value):
    value["base64"] = 5


ARRAY_FAULTS = [
    (_bad_character, "base64 is not strict base64 text"),
    (_embedded_newline, "base64 is not strict base64 text"),
    (_non_ascii_character, "base64 is not strict base64 text"),
    (_truncated_text, "base64 is not strict base64 text"),
    (_one_row_too_many, "holds .* bytes, its shape"),
    (_one_entry_short, "holds .* bytes, its shape"),
    (_negative_shape, "shape must be a list of [12] integers >= 0"),
    (_float_shape, "shape must be a list of [12] integers >= 0"),
    (_boolean_shape, "shape must be a list of [12] integers >= 0"),
    (_shape_not_a_list, "shape must be a list of [12] integers >= 0"),
    (_wrong_rank, "shape must be a list of [12] integers >= 0"),
    (_numbers_not_text, "base64 must be a string"),
]

MODEL_ARRAYS = [
    "data.X", "data.y", "partition.centroids", "prior.lengthscales",
    "standardization.x_mean", "standardization.x_scale", "state.M", "state.b",
]


def field(doc, name):
    for key in name.split("."):
        doc = doc[key]
    return doc


@pytest.mark.parametrize(
    "fault, message", ARRAY_FAULTS, ids=[fault.__name__[1:] for fault, _ in ARRAY_FAULTS]
)
def test_malformed_arrays_are_format_errors_naming_the_field(saved_files, tmp_path, fault, message):
    model, checkpoint, data = saved_files
    for name in MODEL_ARRAYS:
        doc = read_json(model)
        fault(field(doc, name))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"^model: {re.escape(name)}.*{message}"):
            load_model(path)
    doc = read_json(checkpoint)
    fault(doc["optimizer"]["accumulator"])
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(doc))
    with open(data_file_path(path, doc["data_digest"]), "wb") as handle:
        with open(data, "rb") as original:
            handle.write(original.read())
    with pytest.raises(ModelFormatError, match=f"^model: optimizer.accumulator.*{message}"):
        load_checkpoint(path)
    # a data file is checked once its digest matches
    for name in PARTITION_KEYS:
        if name == "partition.block_sizes":
            continue
        data_doc = read_json(data)
        fault(field(data_doc, name))
        raw = json.dumps(data_doc).encode()
        digest = hashlib.sha256(raw).hexdigest()
        with open(data_file_path(path, digest), "wb") as handle:
            handle.write(raw)
        doc = read_json(checkpoint)
        doc["data_digest"] = digest
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"^model: {re.escape(name)}.*{message}"):
            load_checkpoint(path)


def test_a_model_file_stores_each_float_in_at_most_eleven_bytes(tmp_path):
    # wide-features sizes: 5700 rows of d = 4 in 40 blocks, posterior
    # dimension 96; base64 float64 is 32/3 bytes per float, float text
    # about 19, so a return to float text fails this
    rng = np.random.default_rng(9)
    cfg = SpectralConfig(d=4, m=16, signal_variance=1.0, noise_variance=0.01)
    X = rng.uniform(size=(5700, 4))
    y = rng.normal(size=5700)
    prior = PriorSpec.for_inputs(X, cfg)
    rows = np.array_split(np.arange(5700), 40)
    partition = PartitionedDataset(
        blocks=[(X[idx], y[idx]) for idx in rows],
        centroids=rng.uniform(size=(40, 4)),
        block_indices=rows,
    )
    state = VariationalState(np.eye(96) + 0.01 * rng.normal(size=(96, 96)), rng.normal(size=96))
    model = TrainedModel(state, prior, cfg, partition, standardization=Standardization.fit(X, y))
    path = tmp_path / "model.json"
    save_model(path, model)
    floats = X.size + y.size + 40 * 4 + 96 * 96 + 96 + 4 + 2 * 4
    assert path.stat().st_size <= 11 * floats + 4096
