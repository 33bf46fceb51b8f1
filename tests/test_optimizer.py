import hashlib
import json
import os
import pathlib
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from specgp import (
    ContractError,
    GradientSamplePlan,
    ModelFormatError,
    NumericalError,
    PriorSpec,
    SpectralConfig,
    StepSchedule,
    TrainConfig,
    VariationalState,
    feature_matrix,
    initial_state,
    kmeans_partition,
    load_checkpoint,
    log_likelihood,
    resume_training,
    stochastic_gradient,
    train,
    transform,
)
from specgp.config import KEYS, train_config_doc, train_config_read
from specgp.gradient import draw_sample_sets
from specgp.model_io import model_to_doc
from specgp.optimizer import TRACE_COLUMNS, data_file_path

from conftest import (
    as_float_text,
    as_tiled_prior,
    as_version_one_model,
    as_version_three_model,
    as_version_two_model,
    fail_writes,
    stored_array,
    storing,
)


def tiny_problem(seed=0, n=30, d=1, m=1, p=3):
    rng = np.random.default_rng(seed)
    cfg = SpectralConfig(d=d, m=m, signal_variance=1.0, noise_variance=0.25)
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    data = kmeans_partition(X, y, p=p, seed=seed)
    prior = PriorSpec.for_inputs(X, cfg)
    return cfg, data, prior


def flat_gradient(grad_m, grad_b):
    """A surrogate gradient in the layout of stochastic_gradient, with zero
    log-variance entries."""
    return np.concatenate([grad_m.ravel(), grad_b, [0.0, 0.0]])


def zero_gradient(plan, data, state, prior, cfg):
    return np.zeros(state.dim * (state.dim + 1) + 2)


def train_config(iterations, base_step=None, **options):
    """A TrainConfig with the run config's defaults (``config.KEYS``) for the
    sample plan and the step schedule, unless given."""
    default = {path.removeprefix("train."): key.default for path, key in KEYS.items()}
    options.setdefault(
        "plan", GradientSamplePlan(default["partition_samples"], default["z_samples"])
    )
    options.setdefault(
        "schedule", StepSchedule(base_step or default["base_step"], default["decay_power"])
    )
    return TrainConfig(iterations=iterations, **options)


def test_step_schedule_values_and_validation():
    sched = StepSchedule(base_step=0.5, decay_power=0.8)
    for t in (0, 1, 7, 100):
        assert sched.step_size(t) == pytest.approx(0.5 / (1 + t) ** 0.8, rel=1e-15)
    assert sched.adaptive is True
    with pytest.raises(ContractError, match="AdaGrad is the only step rule"):
        StepSchedule(base_step=0.5, decay_power=0.8, adaptive=False)
    with pytest.raises(ContractError):
        StepSchedule(base_step=0.0, decay_power=0.8)
    with pytest.raises(ContractError):
        StepSchedule(base_step=0.5, decay_power=0.5)
    with pytest.raises(ContractError):
        StepSchedule(base_step=0.5, decay_power=1.2)
    StepSchedule(base_step=0.5, decay_power=1.0)  # boundary is allowed


def test_sample_plan_and_step_schedule_have_no_defaults():
    # config.KEYS is the one definition of the training defaults
    with pytest.raises(TypeError):
        StepSchedule()
    with pytest.raises(TypeError):
        GradientSamplePlan()
    with pytest.raises(TypeError):
        TrainConfig(iterations=5)


def test_train_config_validation():
    with pytest.raises(ContractError):
        train_config(0)
    with pytest.raises(ContractError):
        train_config(5, checkpoint_every=2)  # no path
    with pytest.raises(ContractError):
        train_config(5, elbo_every=-1)
    with pytest.raises(ContractError):
        train_config(5, elbo_samples=0)


@pytest.mark.parametrize("name", ["iterations", "checkpoint_every", "elbo_every", "elbo_samples"])
@pytest.mark.parametrize("value", [2.5, True, np.float64(2.0), "2", None])
def test_train_config_refuses_counts_that_are_not_integers(name, value):
    options = {"iterations": 5, "checkpoint_path": "unused.json", name: value}
    with pytest.raises(ContractError, match=name):
        train_config(**options)


def test_train_config_stores_numpy_integer_counts_as_int():
    counts = {"iterations": 5, "checkpoint_every": 2, "elbo_every": 3, "elbo_samples": 4}
    tcfg = train_config(
        checkpoint_path="unused.json", **{name: np.int64(v) for name, v in counts.items()}
    )
    assert {name: getattr(tcfg, name) for name in counts} == counts
    assert all(type(getattr(tcfg, name)) is int for name in counts)
    plan = GradientSamplePlan(np.int64(2), np.uint8(3))
    assert (plan.n_partition_samples, plan.n_z_samples) == (2, 3)
    assert type(plan.n_partition_samples) is int and type(plan.n_z_samples) is int


@pytest.mark.parametrize("counts", [(2, 2.5), (2.0, 2), (True, 2), (2, False), (2, "2"), (0, 2)])
def test_gradient_sample_plan_refuses_counts_that_are_not_integers_at_least_one(counts):
    with pytest.raises(ContractError, match="n_"):
        GradientSamplePlan(*counts)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(2.0), "3", None])
def test_train_config_refuses_a_seed_that_is_not_an_integer_at_least_zero(seed):
    with pytest.raises(ContractError, match="seed"):
        train_config(5, seed=seed)


def test_train_config_takes_numpy_integer_seeds(tmp_path):
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=1)
    path = str(tmp_path / "checkpoint.json")
    options = {"checkpoint_every": 2, "checkpoint_path": path}
    states = [
        train(data, init, prior, cfg, train_config(3, seed=seed, **options)).state
        for seed in (np.int64(4), np.uint16(4), 4)
    ]
    assert type(train_config(3, seed=np.int64(4)).seed) is int
    for state in states[:2]:
        np.testing.assert_array_equal(state.M, states[2].M)
        np.testing.assert_array_equal(state.b, states[2].b)


def test_zero_gradient_is_fixed_point():
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=1)
    result = train(
        data, init, prior, cfg, train_config(25), gradient_fn=zero_gradient
    )
    np.testing.assert_array_equal(result.state.M, init.M)
    np.testing.assert_array_equal(result.state.b, init.b)
    assert len(result.trace) == 25
    assert all(r.gradient_norm == 0.0 for r in result.trace)


def test_quadratic_surrogate_converges_to_target():
    cfg, data, prior = tiny_problem()
    D = cfg.alpha_dim
    target_m = np.eye(D)
    rng = np.random.default_rng(2)
    target_b = rng.uniform(-2, 2, size=D)

    def quadratic(plan, data, state, prior, cfg):
        return flat_gradient(2 * (target_m - state.M), 2 * (target_b - state.b))

    init = VariationalState(0.1 * np.eye(D), np.zeros(D))
    result = train(
        data, init, prior, cfg,
        # AdaGrad divides by the root of the accumulated squares, so the
        # run config's base step of 0.1 stalls short of the target
        train_config(1000, base_step=1.0),
        gradient_fn=quadratic,
    )
    assert np.abs(result.state.M - target_m).max() <= 1e-3
    assert np.abs(result.state.b - target_b).max() <= 1e-3


def test_thirty_iterations_halve_training_rmse(synthetic_problem):
    prob = synthetic_problem
    before = prob.rmse_at(prob.train_idx, prob.initial_state(0), prob.cfg)
    result = prob.train(0, iterations=30)
    after = prob.rmse_at(prob.train_idx, result.state, result.spectral)
    assert after <= 0.5 * before


def test_training_is_deterministic():
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=3)
    tcfg = TrainConfig(
        iterations=12, plan=GradientSamplePlan(2, 3, 0),
        schedule=StepSchedule(0.1, 0.6), seed=9, elbo_every=4,
    )
    a = train(data, init, prior, cfg, tcfg)
    b = train(data, init, prior, cfg, tcfg)
    np.testing.assert_array_equal(a.state.M, b.state.M)
    np.testing.assert_array_equal(a.state.b, b.state.b)
    assert [r.iteration for r in a.trace] == list(range(12))
    for ra, rb in zip(a.trace, b.trace):
        assert ra.step_size == rb.step_size
        assert ra.gradient_norm == rb.gradient_norm
        assert ra.elbo == rb.elbo


def test_step_sizes_follow_schedule():
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=0)
    # at base_step 0.05 AdaGrad's first, sign-sized step turns M = 0.1 I
    # into an exactly singular 0.1 I + 0.05 sign(G) and is halved
    sched = StepSchedule(base_step=0.1, decay_power=0.9)
    result = train(
        data, init, prior, cfg, train_config(8, schedule=sched)
    )
    for record in result.trace:
        assert record.step_size == sched.step_size(record.iteration)


def test_elbo_recorded_on_requested_cadence():
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=0)
    result = train(
        data, init, prior, cfg,
        train_config(7, elbo_every=3, elbo_samples=4),
    )
    recorded = [r.iteration for r in result.trace if r.elbo is not None]
    assert recorded == [2, 5]
    assert all(np.isfinite(r.elbo) for r in result.trace if r.elbo is not None)


@pytest.mark.parametrize(
    "learn_variances", [False, True], ids=["fixed_variances", "learned_variances"]
)
def test_checkpoint_roundtrip_matches_uninterrupted_run(tmp_path, learn_variances):
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=4)
    path = str(tmp_path / "checkpoint.json")
    sched = StepSchedule(0.1, 0.6)

    straight = train(
        data, init, prior, cfg,
        train_config(40, schedule=sched, seed=5, learn_variances=learn_variances),
    )
    _ = train(
        data, init, prior, cfg,
        train_config(
            20, schedule=sched, seed=5, learn_variances=learn_variances,
            checkpoint_every=20, checkpoint_path=path,
        ),
    )
    resumed = resume_training(path, iterations=40)

    np.testing.assert_array_equal(resumed.state.M, straight.state.M)
    np.testing.assert_array_equal(resumed.state.b, straight.state.b)
    assert resumed.spectral.noise_variance == straight.spectral.noise_variance
    assert resumed.spectral.signal_variance == straight.spectral.signal_variance
    assert (resumed.spectral.noise_variance != cfg.noise_variance) == learn_variances
    assert len(resumed.trace) == len(straight.trace) == 40
    for ra, rb in zip(resumed.trace, straight.trace):
        assert (ra.iteration, ra.step_size, ra.gradient_norm, ra.elbo) == (
            rb.iteration, rb.step_size, rb.gradient_norm, rb.elbo,
        )


def numpy_train_config(path):
    """20 iterations, checkpointed every 10 at ``path``, from numpy scalars
    and a path-like path."""
    return TrainConfig(
        iterations=np.int64(20),
        plan=GradientSamplePlan(np.int32(2), np.uint8(3)),
        schedule=StepSchedule(np.float32(0.125), np.float64(0.6)),
        learn_variances=np.bool_(True),
        checkpoint_every=np.int64(10),
        checkpoint_path=pathlib.Path(path),
        seed=np.uint16(5),
        elbo_every=np.int16(4),
        elbo_samples=np.int64(3),
    )


def test_a_numpy_train_config_round_trips_through_its_json_form(tmp_path):
    tcfg = numpy_train_config(tmp_path / "ck.json")
    assert train_config_read(json.loads(json.dumps(train_config_doc(tcfg)))) == tcfg


def test_a_run_from_a_numpy_train_config_resumes_from_its_checkpoint(tmp_path):
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=4)
    tcfg = numpy_train_config(tmp_path / "ck.json")
    straight = train(
        data, init, prior, cfg,
        replace(tcfg, iterations=30, checkpoint_every=0, checkpoint_path=None),
    )
    train(data, init, prior, cfg, tcfg)
    resumed = resume_training(tmp_path / "ck.json", iterations=30)
    np.testing.assert_array_equal(resumed.state.M, straight.state.M)
    np.testing.assert_array_equal(resumed.state.b, straight.state.b)
    assert resumed.spectral == straight.spectral
    assert [rec.elbo for rec in resumed.trace] == [rec.elbo for rec in straight.trace]


def test_checkpoint_version_mismatch(tmp_path):
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=0)
    path = str(tmp_path / "checkpoint.json")
    train(
        data, init, prior, cfg,
        train_config(2, checkpoint_every=2, checkpoint_path=path),
    )
    with open(path) as handle:
        doc = json.load(handle)
    doc["version"] = 999
    with open(path, "w") as handle:
        json.dump(doc, handle)
    with pytest.raises(ModelFormatError, match="version mismatch"):
        load_checkpoint(path)
    with pytest.raises(ModelFormatError):
        load_checkpoint(str(tmp_path / "absent.json"))


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def corrupt(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value(doc[keys[-1]]) if callable(value) else value

    return corrupt


def _set_array(*keys_and_edit):
    """:func:`_set` of a stored array to ``edit`` of its values."""
    *keys, edit = keys_and_edit
    return _set(*keys, lambda value: storing(edit(stored_array(value))))


def _set_cell(position, name, value):
    """:func:`_set` of trace row ``position``'s cell in column ``name``."""
    return _set("trace", position, TRACE_COLUMNS.index(name), value)


def _drop(*keys):
    def corrupt(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _set("iteration", "abc"),
        _set("iteration", 2.0),
        _set("iteration", -1),
        _set("iteration", 3),
        _set("train_config", "train", "iterations", 1),
        _set("trace", lambda rows: [rows[0][:4]] + rows[1:]),
        _set_cell(0, "iteration", 2.7),
        _set_cell(1, "iteration", True),
        _set_cell(0, "step_size", "0.05"),
        _set_cell(1, "elbo", "1e3"),
        _set_cell(0, "wall_clock_ms", True),
        _set_cell(1, "iteration", 0),
        _set_array("optimizer", "accumulator", lambda acc: acc[:-1]),
        _set_array("optimizer", "accumulator", lambda acc: np.r_[np.nan, acc[1:]]),
        _set_array("optimizer", "accumulator", lambda acc: np.r_[-1.0, acc[1:]]),
        # the log-variance entries sit at the end of the one accumulator
        _set_array("optimizer", "accumulator", lambda acc: np.r_[acc, 0.5]),
        _set("optimizer", "accumulator", None),
        _set_array("optimizer", "accumulator", lambda acc: acc[:-2]),
        _set("train_config", "train", "iterations", 0),
        _set("train_config", "seed", "abc"),
        _set("train_config", "plan", "abc"),
        _set("train_config", "train", "abc"),
        _set("train_config", "train", "iterations", 40.7),
        _set("train_config", "seed", True),
        _set("train_config", "train", "decay_power", True),
        _set("train_config", "train", "elbo_samples", 2.9),
        _set("train_config", "train", "checkpoint_path", 5),
        _set("train_config", "seed", -3),
        _set("train_config", "train", "learn_variances", "false"),
        _drop("train_config", "train", "elbo_every"),
        _drop("train_config", "seed"),
        _drop("data_digest"),
        _set("data_digest", 5),
        _set("data_digest", lambda digest: digest[:16]),
    ],
    ids=[
        "iteration_not_a_number", "iteration_float", "iteration_negative",
        "iteration_past_trace", "iteration_past_target", "trace_row_short",
        "trace_iteration_float", "trace_iteration_bool", "trace_step_size_string",
        "trace_elbo_string", "trace_wall_clock_bool", "trace_iteration_not_its_row",
        "accumulator_short",
        "accumulator_nan", "accumulator_negative", "variance_accumulator_long",
        "accumulator_missing", "variance_accumulator_missing",
        "train_config_zero_iterations", "train_config_bad_seed", "train_config_bad_plan",
        "train_config_train_not_object", "train_config_float_iterations",
        "train_config_bool_seed", "train_config_bool_decay_power",
        "train_config_float_elbo_samples", "train_config_int_checkpoint_path",
        "train_config_negative_seed", "train_config_string_boolean",
        "train_config_missing_key", "train_config_missing_seed",
        "data_digest_missing", "data_digest_not_a_string", "data_digest_short",
    ],
)
def test_corrupt_checkpoint_is_a_format_error(tmp_path, corrupt):
    cfg, data, prior = tiny_problem()
    path = str(tmp_path / "checkpoint.json")
    train(
        data, initial_state(prior, cfg, seed=0), prior, cfg,
        train_config(2, learn_variances=True, checkpoint_every=2, checkpoint_path=path),
    )
    load_checkpoint(path)  # the untouched file loads
    with open(path) as handle:
        doc = json.load(handle)
    corrupt(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle)
    with pytest.raises(ModelFormatError):
        load_checkpoint(path)


def test_the_data_file_is_named_by_the_sha256_of_its_own_bytes(tmp_path):
    cfg, data, prior = tiny_problem()
    path = str(tmp_path / "checkpoint.json")
    train(
        data, initial_state(prior, cfg, seed=0), prior, cfg,
        train_config(2, checkpoint_every=1, checkpoint_path=path),
    )
    [name] = [name for name in os.listdir(tmp_path) if name != "checkpoint.json"]
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert name == f"checkpoint.json.{digest[:16]}.data.json"
    assert load_checkpoint(path)[2].data_digest == digest


def test_resume_below_the_checkpoint_is_refused(tmp_path):
    cfg, data, prior = tiny_problem()
    path = str(tmp_path / "checkpoint.json")
    train(
        data, initial_state(prior, cfg, seed=0), prior, cfg,
        train_config(20, checkpoint_every=20, checkpoint_path=path),
    )
    with pytest.raises(ContractError, match="resume to 5 iterations.* at iteration 20"):
        resume_training(path, iterations=5)
    assert len(resume_training(path, iterations=20).trace) == 20


def test_interrupted_checkpoint_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=4)
    path = str(tmp_path / "checkpoint.json")
    sched = StepSchedule(0.1, 0.6)
    straight = train(data, init, prior, cfg, train_config(40, schedule=sched, seed=5))

    # temporary files: the data file and the checkpoints at 10, 20 and 30
    with monkeypatch.context() as patch:
        fail_writes(patch, at=4)
        with pytest.raises(OSError, match="disk full"):
            train(
                data, init, prior, cfg,
                train_config(
                    40, schedule=sched, seed=5, checkpoint_every=10, checkpoint_path=path,
                ),
            )
    _, _, opt = load_checkpoint(path)
    assert opt.iteration == 20
    assert sorted(os.listdir(tmp_path)) == [
        "checkpoint.json", os.path.basename(data_file_path(path, opt.data_digest)),
    ]
    resumed = resume_training(path)
    np.testing.assert_array_equal(resumed.state.M, straight.state.M)
    np.testing.assert_array_equal(resumed.state.b, straight.state.b)
    assert [r.gradient_norm for r in resumed.trace] == [r.gradient_norm for r in straight.trace]


def test_interrupted_data_file_write_keeps_previous_run_resumable(tmp_path, monkeypatch):
    # a second run on the same path, with other data, fails while writing
    # its data file: the first run's checkpoint still names its own data file
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=4)
    path = str(tmp_path / "checkpoint.json")
    sched = StepSchedule(0.1, 0.6)
    straight = train(data, init, prior, cfg, train_config(40, schedule=sched, seed=5))
    first = train_config(20, schedule=sched, seed=5, checkpoint_every=10, checkpoint_path=path)
    train(data, init, prior, cfg, first)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert len(before) == 2

    _, other_data, _ = tiny_problem(seed=1)
    with monkeypatch.context() as patch:
        fail_writes(patch, at=1)
        with pytest.raises(OSError, match="disk full"):
            train(other_data, init, prior, cfg, first)
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
    resumed = resume_training(path, iterations=40)
    np.testing.assert_array_equal(resumed.state.M, straight.state.M)
    np.testing.assert_array_equal(resumed.state.b, straight.state.b)


def test_new_run_on_a_checkpoint_path_removes_the_old_data_file(tmp_path):
    # a second run on the same path with other data leaves one checkpoint and
    # its own data file; files of other checkpoints beside it stay
    cfg, data, prior = tiny_problem()
    _, other_data, _ = tiny_problem(seed=1)
    init = initial_state(prior, cfg, seed=4)
    path = str(tmp_path / "checkpoint.json")
    sched = StepSchedule(0.1, 0.6)
    straight = train(other_data, init, prior, cfg, train_config(40, schedule=sched, seed=5))
    bystanders = ["other.json.0123456789abcdef.data.json", "checkpoint.json.notes.data.json"]
    for name in bystanders:
        (tmp_path / name).write_text("{}")
    first = train_config(20, schedule=sched, seed=5, checkpoint_every=10, checkpoint_path=path)
    train(data, init, prior, cfg, first)
    train(other_data, init, prior, cfg, first)
    _, _, opt = load_checkpoint(path)
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["checkpoint.json", os.path.basename(data_file_path(path, opt.data_digest)), *bystanders]
    )
    resumed = resume_training(path, iterations=40)
    np.testing.assert_array_equal(resumed.state.M, straight.state.M)
    np.testing.assert_array_equal(resumed.state.b, straight.state.b)
    assert [r.gradient_norm for r in resumed.trace] == [r.gradient_norm for r in straight.trace]


def test_interrupted_checkpoint_of_a_new_run_keeps_the_old_data_file(tmp_path, monkeypatch):
    # the second run writes its data file, then fails writing its first
    # checkpoint: the first run's checkpoint and data file are untouched and
    # resume bit for bit
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=4)
    path = str(tmp_path / "checkpoint.json")
    sched = StepSchedule(0.1, 0.6)
    straight = train(data, init, prior, cfg, train_config(40, schedule=sched, seed=5))
    first = train_config(20, schedule=sched, seed=5, checkpoint_every=10, checkpoint_path=path)
    train(data, init, prior, cfg, first)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert len(before) == 2

    _, other_data, _ = tiny_problem(seed=1)
    with monkeypatch.context() as patch:
        fail_writes(patch, at=2)
        with pytest.raises(OSError, match="disk full"):
            train(other_data, init, prior, cfg, first)
    # the new run's data file, which no checkpoint names, is removed
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
    resumed = resume_training(path, iterations=40)
    np.testing.assert_array_equal(resumed.state.M, straight.state.M)
    np.testing.assert_array_equal(resumed.state.b, straight.state.b)


def test_interrupted_checkpoint_of_a_same_data_rerun_keeps_the_shared_data_file(
    tmp_path, monkeypatch
):
    # a rerun on the same data rewrites the data file the old checkpoint
    # names, then fails writing its first checkpoint: that file stays
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=4)
    path = str(tmp_path / "checkpoint.json")
    sched = StepSchedule(0.1, 0.6)
    straight = train(data, init, prior, cfg, train_config(40, schedule=sched, seed=5))
    first = train_config(20, schedule=sched, seed=5, checkpoint_every=10, checkpoint_path=path)
    train(data, init, prior, cfg, first)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert len(before) == 2

    with monkeypatch.context() as patch:
        fail_writes(patch, at=2)
        with pytest.raises(OSError, match="disk full"):
            train(data, init, prior, cfg, first)
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
    resumed = resume_training(path, iterations=40)
    np.testing.assert_array_equal(resumed.state.M, straight.state.M)
    np.testing.assert_array_equal(resumed.state.b, straight.state.b)
    assert [r.gradient_norm for r in resumed.trace] == [r.gradient_norm for r in straight.trace]


def test_resuming_a_moved_checkpoint_writes_beside_it(tmp_path):
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=4)
    sched = StepSchedule(0.1, 0.6)
    straight = train(data, init, prior, cfg, train_config(40, schedule=sched, seed=5))
    old_dir, new_dir = tmp_path / "a", tmp_path / "b"
    old_dir.mkdir()
    new_dir.mkdir()
    old_path = str(old_dir / "ck.json")
    train(
        data, init, prior, cfg,
        train_config(20, schedule=sched, seed=5, checkpoint_every=10, checkpoint_path=old_path),
    )
    for name in os.listdir(old_dir):
        shutil.move(old_dir / name, new_dir / name)
    old_dir.rmdir()

    new_path = str(new_dir / "ck.json")
    resumed = resume_training(new_path, iterations=40)
    np.testing.assert_array_equal(resumed.state.M, straight.state.M)
    np.testing.assert_array_equal(resumed.state.b, straight.state.b)
    assert [r.gradient_norm for r in resumed.trace] == [r.gradient_norm for r in straight.trace]
    assert not old_dir.exists()
    model, tcfg, opt = load_checkpoint(new_path)
    assert (opt.iteration, tcfg.checkpoint_path) == (40, new_path)
    assert len(os.listdir(new_dir)) == 2
    np.testing.assert_array_equal(model.state.M, straight.state.M)


def test_checkpoint_size_is_flat_in_n(tmp_path):
    # the data file holds the rows; the checkpoint holds what does not grow with n
    sizes = []
    for n in (200, 800):
        cfg, data, prior = tiny_problem(n=n, d=2, m=2, p=4)
        path = str(tmp_path / f"checkpoint-{n}.json")
        train(
            data, initial_state(prior, cfg, seed=0), prior, cfg,
            train_config(5, checkpoint_every=5, checkpoint_path=path),
        )
        digest = load_checkpoint(path)[2].data_digest
        sizes.append((os.path.getsize(path), os.path.getsize(data_file_path(path, digest))))
    (checkpoint_n, data_n), (checkpoint_4n, data_4n) = sizes
    assert abs(checkpoint_4n / checkpoint_n - 1) < 0.05
    assert 3.5 < data_4n / data_n < 4.5


def test_data_file_faults_are_format_errors_naming_the_file(tmp_path):
    cfg, data, prior = tiny_problem()
    path = str(tmp_path / "checkpoint.json")
    other = str(tmp_path / "other.json")
    for partition, checkpoint in ((data, path), (tiny_problem(seed=1)[1], other)):
        train(
            partition, initial_state(prior, cfg, seed=0), prior, cfg,
            train_config(2, checkpoint_every=2, checkpoint_path=checkpoint),
        )
    data_path = data_file_path(path, load_checkpoint(path)[2].data_digest)
    other_data_path = data_file_path(other, load_checkpoint(other)[2].data_digest)
    data_file, other_data_file = (
        tmp_path / os.path.basename(name) for name in (data_path, other_data_path)
    )
    original = data_file.read_bytes()

    # one float edited, keeping the file valid JSON of the same shape
    doc = json.loads(original)
    y = stored_array(doc["data"]["y"])
    y[0] += 1.0
    doc["data"]["y"] = storing(y)
    for contents in (json.dumps(doc).encode(), other_data_file.read_bytes()):
        data_file.write_bytes(contents)
        with pytest.raises(ModelFormatError, match=f"data file {re.escape(data_path)} does not"):
            load_checkpoint(path)
    data_file.unlink()
    with pytest.raises(ModelFormatError, match=f"data file not found: {re.escape(data_path)}"):
        load_checkpoint(path)
    data_file.write_bytes(original)
    load_checkpoint(path)


def test_version_one_checkpoint_is_a_version_mismatch(tmp_path):
    # version 1 kept a second accumulator for the log variances and its own
    # train-config layout (with the ignored plan.rng_seed); version 2 kept a
    # train.adaptive key and an empty accumulator for plain Robbins-Monro
    # runs; version 3 keeps one full accumulator and no adaptive key; all
    # three embed a version 1 model; version 4 embeds a version 2 model,
    # whose weights are interleaved; version 5 embeds a version 3 model with
    # the data, which version 6 keeps in its own file; version 6 stores the
    # m·d tiled frequency variances, version 7 the lengthscales; version 7
    # and all before it stored arrays as float text, version 8 as base64
    # float64; so files of every older version are refused
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=0)
    path = str(tmp_path / "checkpoint.json")
    train(
        data, init, prior, cfg,
        train_config(2, learn_variances=True, checkpoint_every=2, checkpoint_path=path),
    )
    with open(path) as handle:
        doc = json.load(handle)
    assert doc["version"] == 8 and "model" not in doc
    assert doc["prior"]["lengthscales"]["shape"] == [cfg.d]
    version_six = as_tiled_prior(doc, 6)
    assert set(doc["train_config"]) == {"seed", "train"}
    assert "adaptive" not in doc["train_config"]["train"]
    assert set(doc["optimizer"]) == {"accumulator"}
    assert doc["optimizer"]["accumulator"]["shape"] == [init.dim * (init.dim + 1) + 2]
    version_seven = as_float_text(doc, 7)
    doc = as_float_text(doc, 7)
    accumulator = doc["optimizer"]["accumulator"]
    model_doc = model_to_doc(load_checkpoint(path)[0])
    for key in ("data_digest", "spectral", "prior", "state"):
        del doc[key]
    doc["model"] = model_doc
    version_five = json.loads(json.dumps(doc))
    version_five["version"] = 5
    version_five["model"] = as_version_three_model(model_doc)
    version_four = json.loads(json.dumps(doc))
    version_four["version"] = 4
    version_four["model"] = as_version_two_model(model_doc)
    doc["model"] = as_version_one_model(model_doc)
    version_three = json.loads(json.dumps(doc))
    version_three["version"] = 3
    version_two = json.loads(json.dumps(doc))
    version_two["version"] = 2
    version_two["train_config"]["train"]["adaptive"] = True
    version_one = doc
    version_one["version"] = 1
    version_one["optimizer"] = {
        "accumulator": accumulator[:-2], "variance_accumulator": accumulator[-2:],
    }
    version_one["train_config"]["plan"] = {
        "n_partition_samples": 4, "n_z_samples": 4, "rng_seed": 7,
    }
    for old in (
        version_seven, version_six, version_five, version_four,
        version_three, version_two, version_one,
    ):
        with open(path, "w") as handle:
            json.dump(old, handle)
        with pytest.raises(ModelFormatError, match="version mismatch"):
            load_checkpoint(path)


def test_singular_update_halves_step():
    cfg, data, prior = tiny_problem()
    D = cfg.alpha_dim

    def annihilating(plan, data, state, prior, cfg):
        # a full step of 1.0 would zero out M entirely
        return flat_gradient(-state.M, np.zeros(D))

    init = VariationalState(np.eye(D), np.zeros(D))
    result = train(
        data, init, prior, cfg,
        train_config(1, base_step=1.0),
        gradient_fn=annihilating,
    )
    assert result.trace[0].step_size == 0.5
    np.testing.assert_allclose(result.state.M, 0.5 * np.eye(D), rtol=1e-15)


def test_unrecoverable_singularity_aborts():
    cfg, data, prior = tiny_problem()
    D = cfg.alpha_dim
    spike = np.zeros((D, D))
    spike[0, 0] = 1e30

    def exploding(plan, data, state, prior, cfg):
        # AdaGrad's first step moves M[0, 0] by the whole base step; even
        # after five halvings M stays catastrophically ill-conditioned
        return flat_gradient(spike, np.zeros(D))

    init = VariationalState(np.eye(D), np.zeros(D))
    with pytest.raises(NumericalError, match="halvings"):
        train(
            data, init, prior, cfg, train_config(1, base_step=1e30), gradient_fn=exploding,
        )


def test_overflowing_update_is_a_rejected_step():
    # a finite step that overflows (M, b) halves like a singular one; the
    # first AdaGrad step moves each b entry by the base step, so b starts
    # near the largest float
    cfg, data, prior = tiny_problem()
    D = cfg.alpha_dim

    def huge(plan, data, state, prior, cfg):
        return flat_gradient(np.zeros((D, D)), np.full(D, 1e150))

    init = VariationalState(np.eye(D), np.full(D, 1.79e308))
    with pytest.raises(NumericalError, match="iteration 0: .*non-finite.*halvings"):
        train(data, init, prior, cfg, train_config(1, base_step=1e308), gradient_fn=huge)
    # one halving brings it back into range
    result = train(data, init, prior, cfg, train_config(1, base_step=1e306), gradient_fn=huge)
    assert result.trace[0].step_size == 5e305
    assert np.all(np.isfinite(result.state.b))


def test_accumulator_overflow_aborts():
    # the square of a finite 1e160 entry overflows the AdaGrad accumulator;
    # unchecked, that entry's step would be 0 and b would never move
    cfg, data, prior = tiny_problem()
    D = cfg.alpha_dim

    def huge(plan, data, state, prior, cfg):
        return flat_gradient(np.zeros((D, D)), np.full(D, 1e160))

    with pytest.raises(NumericalError, match="iteration 0: .*squares overflow"):
        train(
            data, initial_state(prior, cfg, seed=0), prior, cfg,
            train_config(3), gradient_fn=huge,
        )


def test_gradient_norm_is_finite_when_its_sum_of_squares_overflows():
    # each square of 1e154 is finite, but their sum over the D^2 + D entries is not
    cfg, data, prior = tiny_problem()
    D = cfg.alpha_dim
    n_eta = D * (D + 1)
    init = VariationalState(np.eye(D), np.zeros(D))
    grad = flat_gradient(np.full((D, D), 1e154), np.full(D, 1e154))
    result = train(data, init, prior, cfg, train_config(1), gradient_fn=lambda *_: grad)
    norm = result.trace[0].gradient_norm
    assert np.isfinite(norm)
    assert norm == 1e154 * np.linalg.norm(grad[:n_eta] / 1e154)
    # where the plain norm is finite, the trace holds it bit for bit
    grad = grad / 1e150
    result = train(data, init, prior, cfg, train_config(1), gradient_fn=lambda *_: grad)
    assert result.trace[0].gradient_norm == np.linalg.norm(grad[:n_eta])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_aborts(bad):
    cfg, data, prior = tiny_problem()
    D = cfg.alpha_dim

    def broken(plan, data, state, prior, cfg):
        grad = flat_gradient(np.zeros((D, D)), np.zeros(D))
        grad[1] = bad
        return grad

    with pytest.raises(NumericalError, match="iteration 0: the stochastic gradient is not finite"):
        train(
            data, initial_state(prior, cfg, seed=0), prior, cfg,
            train_config(3), gradient_fn=broken,
        )


def one_block_variance_gradients(X, y, state, prior, cfg, plan):
    """``(d_log_noise, d_log_signal)`` of the estimate on one block with one
    draw, and that draw's ``(theta, s)`` pair."""
    data = kmeans_partition(X, y, p=1, seed=0)
    d_noise, d_signal = stochastic_gradient(plan, data, state, prior, cfg)[-2:]
    alpha = transform(state, draw_sample_sets(plan, 1, state.dim)[1][0], cfg)
    return d_noise, d_signal, alpha


def test_variance_gradients_zero_residual():
    cfg = SpectralConfig(d=2, m=3, signal_variance=1.5, noise_variance=0.3)
    rng = np.random.default_rng(6)
    state = VariationalState(np.eye(cfg.alpha_dim), rng.normal(size=cfg.alpha_dim))
    X = rng.normal(size=(11, 2))
    prior = PriorSpec.for_inputs(X, cfg)
    plan = GradientSamplePlan(1, 1, rng_seed=6)
    theta, s = transform(state, draw_sample_sets(plan, 1, state.dim)[1][0], cfg)
    y = feature_matrix(X, theta, cfg).T @ s
    d_noise, _, _ = one_block_variance_gradients(X, y, state, prior, cfg, plan)
    assert d_noise == pytest.approx(-0.5 * 11, rel=1e-12)


def test_variance_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    step = 1e-6
    for trial in range(5):
        cfg = SpectralConfig(
            d=2, m=2,
            signal_variance=float(rng.uniform(0.5, 2.0)),
            noise_variance=float(rng.uniform(0.1, 0.8)),
        )
        X = rng.normal(size=(9, 2))
        y = rng.normal(size=9)
        D = cfg.alpha_dim
        state = VariationalState(
            0.5 * np.eye(D) + 0.1 * rng.normal(size=(D, D)), rng.normal(size=D)
        )
        plan = GradientSamplePlan(1, 1, rng_seed=trial)
        d_noise, d_signal, alpha = one_block_variance_gradients(
            X, y, state, PriorSpec.for_inputs(X, cfg), cfg, plan
        )

        def loglik_at(log_sn2):
            from dataclasses import replace

            return log_likelihood(y, X, *alpha, replace(cfg, noise_variance=float(np.exp(log_sn2))))

        base = np.log(cfg.noise_variance)
        fd_noise = (loglik_at(base + step) - loglik_at(base - step)) / (2 * step)
        assert d_noise == pytest.approx(fd_noise, rel=1e-5, abs=1e-5)

        # E_q[log N(s | 0, lam)], the only part of -KL that moves with the
        # signal variance, from the dense covariance of q
        s_sq = (np.diag(state.M @ state.M.T) + state.b**2)[cfg.theta_dim :]

        def weight_prior_at(log_ss2):
            lam = np.exp(log_ss2) / cfg.m
            return float(
                np.sum(stats.norm.logpdf(0.0, scale=np.sqrt(lam)) - 0.5 * s_sq / lam)
            )

        base = np.log(cfg.signal_variance)
        fd_signal = (weight_prior_at(base + step) - weight_prior_at(base - step)) / (
            2 * step
        )
        assert d_signal == pytest.approx(fd_signal, rel=1e-5, abs=1e-5)


def test_variance_learning_gate():
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=8)
    frozen = train(data, init, prior, cfg, train_config(10, seed=2))
    assert frozen.spectral.noise_variance == cfg.noise_variance
    assert frozen.spectral.signal_variance == cfg.signal_variance
    learned = train(
        data, init, prior, cfg,
        train_config(10, seed=2, learn_variances=True),
    )
    assert learned.spectral.noise_variance != cfg.noise_variance
    assert learned.spectral.noise_variance > 0
    assert learned.spectral.signal_variance > 0
    np.testing.assert_allclose(
        learned.prior.variances(learned.spectral)[cfg.theta_dim :],
        np.full(cfg.num_features, learned.spectral.signal_variance / cfg.m),
        rtol=1e-12,
    )
