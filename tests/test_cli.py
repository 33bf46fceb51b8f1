import csv
import json

import numpy as np
import pytest

import specgp.cli as cli
import specgp.config as run_config
from specgp import GradientSamplePlan, StepSchedule, TrainConfig, load_model, save_model
from specgp.gradcheck import CheckResult

from conftest import as_float_text, as_version_three_model, fail_writes, stored_array, storing


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def make_synth_csv(tmp_path, capsys, name="data.csv", n=200, d=2, m_true=2, seed=0):
    path = str(tmp_path / name)
    code, out, _ = run_cli(
        [
            "synth", "--n", str(n), "--d", str(d), "--m-true", str(m_true),
            "--noise", "0.1", "--seed", str(seed), "--output", path,
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out.strip())["n"] == n
    return path


def test_synth_writes_data_and_truth(tmp_path, capsys):
    path = make_synth_csv(tmp_path, capsys, n=50, d=1, m_true=2, seed=3)
    rows = read_csv_rows(path)
    assert rows[0] == ["x1", "y"]
    assert len(rows) == 51
    truth = json.loads((tmp_path / "data.csv.truth.json").read_text())
    assert len(truth["theta"]) == 2 and len(truth["s"]) == 4
    assert truth["seed"] == 3


def test_train_evaluate_pipeline_learns_synthetic_function(tmp_path, capsys):
    # the full command-line path: synthesize, train, evaluate held-out
    # RMSE against the generator's noise floor, predict, inspect blocks
    data = str(tmp_path / "data.csv")
    model_path = str(tmp_path / "model.json")
    trace_path = str(tmp_path / "trace.csv")
    test_path = str(tmp_path / "test.csv")
    code, out, _ = run_cli(
        [
            "synth", "--n", "2000", "--d", "2", "--m-true", "5",
            "--noise", "0.1", "--seed", "10", "--output", data,
        ],
        capsys,
    )
    assert code == 0

    code, out, err = run_cli(
        [
            "train", "--data", data, "--model", model_path,
            "--trace", trace_path, "--test-output", test_path,
            "--m", "5", "--p", "20", "--iterations", "1500", "--seed", "0",
        ],
        capsys,
    )
    assert code == 0, err
    summary = json.loads(out.strip())
    assert summary["n_train"] == 1900 and summary["n_test"] == 100
    assert summary["iterations"] == 1500

    trace_rows = read_csv_rows(trace_path)
    assert trace_rows[0] == [
        "iteration", "step_size", "gradient_norm", "elbo", "wall_clock_ms"
    ]
    assert len(trace_rows) == 1501

    model = load_model(model_path)
    assert model.spectral.m == 5
    assert model.partition.p == 20

    code, out, err = run_cli(
        [
            "evaluate", "--model", model_path, "--data", test_path,
            "--samples", "256", "--seed", "0",
        ],
        capsys,
    )
    assert code == 0, err
    metrics = json.loads(out.strip())
    assert metrics["n_test"] == 100
    assert metrics["rmse"] <= 0.15  # within 1.5x the generator noise
    assert np.isfinite(metrics["mnlp"])

    # scoring against latent-only variances changes the calibration metric
    code, out, _ = run_cli(
        [
            "evaluate", "--model", model_path, "--data", test_path,
            "--samples", "256", "--seed", "0", "--no-mnlp-observed",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out.strip())["mnlp"] != metrics["mnlp"]

    pred_path = str(tmp_path / "predictions.csv")
    code, out, err = run_cli(
        [
            "predict", "--model", model_path, "--data", test_path,
            "--output", pred_path, "--samples", "64", "--seed", "0",
        ],
        capsys,
    )
    assert code == 0, err
    rows = read_csv_rows(pred_path)
    assert rows[0] == ["x1", "x2", "mean", "variance"]
    assert len(rows) == 101
    variances = np.array([float(r[-1]) for r in rows[1:]])
    assert np.all(variances >= 0)

    code, out, _ = run_cli(["partition-info", "--model", model_path], capsys)
    assert code == 0
    info = json.loads(out.strip())
    assert info["p"] == 20 and info["total_n"] == 1900
    assert info["min"] >= 1


def test_config_file_with_flag_precedence(tmp_path, capsys):
    data = make_synth_csv(tmp_path, capsys, n=150, d=1, m_true=2, seed=1)
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "version": 1,
                "spectral": {"m": 2},
                "partition": {"p": 3},
                "train": {"iterations": 5},
            }
        )
    )
    model_path = str(tmp_path / "model.json")
    code, out, _ = run_cli(
        ["train", "--config", str(config_path), "--data", data, "--model", model_path],
        capsys,
    )
    assert code == 0
    assert json.loads(out.strip())["iterations"] == 5  # file beats defaults
    assert load_model(model_path).spectral.m == 2

    code, out, _ = run_cli(
        [
            "train", "--config", str(config_path), "--data", data,
            "--model", model_path, "--iterations", "7",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out.strip())["iterations"] == 7  # flag beats file


def test_train_runs_are_reproducible(tmp_path, capsys):
    data = make_synth_csv(tmp_path, capsys, n=80, d=1, m_true=2, seed=2)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for model_path, test_path in ((out_a, "ta.csv"), (out_b, "tb.csv")):
        code, _, _ = run_cli(
            [
                "train", "--data", data, "--model", str(model_path),
                "--test-output", str(tmp_path / test_path),
                "--m", "2", "--p", "3", "--iterations", "4", "--seed", "5",
            ],
            capsys,
        )
        assert code == 0
    model_a, model_b = load_model(str(out_a)), load_model(str(out_b))
    np.testing.assert_array_equal(model_a.state.M, model_b.state.M)
    np.testing.assert_array_equal(model_a.state.b, model_b.state.b)
    assert (tmp_path / "ta.csv").read_text() == (tmp_path / "tb.csv").read_text()


def test_standardized_and_prestandardized_pipelines_agree(tmp_path, capsys):
    # pipeline A standardizes internally; pipeline B feeds the same
    # standardized values with --no-standardize; raw-unit predictions match
    from specgp import Dataset, Standardization, load_csv, save_csv, split_indices

    data = make_synth_csv(tmp_path, capsys, n=200, d=2, m_true=2, seed=4)
    dataset = load_csv(data, "y")
    train_idx, _ = split_indices(dataset.n, 0.95, seed=6)
    std = Standardization.fit(dataset.X[train_idx], dataset.y[train_idx])
    pre = Dataset(
        X=std.apply_x(dataset.X), y=std.apply_y(dataset.y),
        feature_names=dataset.feature_names, target_name="y",
    )
    pre_path = str(tmp_path / "standardized.csv")
    save_csv(pre_path, pre)

    outputs = {}
    for tag, path, extra in (("a", data, []), ("b", pre_path, ["--no-standardize"])):
        model_path = str(tmp_path / f"model_{tag}.json")
        code, _, err = run_cli(
            [
                "train", "--data", path, "--model", model_path,
                "--m", "2", "--p", "4", "--iterations", "30", "--seed", "6",
            ]
            + extra,
            capsys,
        )
        assert code == 0, err
        pred_path = str(tmp_path / f"pred_{tag}.csv")
        code, _, err = run_cli(
            [
                "predict", "--model", model_path, "--data", path,
                "--output", pred_path, "--samples", "16", "--seed", "6",
            ],
            capsys,
        )
        assert code == 0, err
        rows = read_csv_rows(pred_path)[1:]
        outputs[tag] = np.array([[float(r[-2]), float(r[-1])] for r in rows])

    raw_means = outputs["b"][:, 0] * std.y_scale + std.y_mean
    raw_variances = outputs["b"][:, 1] * std.y_scale**2
    np.testing.assert_allclose(outputs["a"][:, 0], raw_means, atol=1e-10)
    np.testing.assert_allclose(outputs["a"][:, 1], raw_variances, atol=1e-10)


def test_gradcheck_command_passes(capsys):
    code, out, err = run_cli(["gradcheck", "--instances", "5", "--seed", "0"], capsys)
    assert code == 0, err
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 2
    assert all(line.startswith("PASS") for line in lines)
    names = {line.split()[1].rstrip(":") for line in lines}
    assert names == {"stochastic_gradient", "kl_term_gradient"}


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_gradcheck_rejects_instance_count_below_one(capsys, instances):
    # with no instances nothing is checked, so a PASS line would mean nothing
    code, out, err = run_cli(["gradcheck", "--instances", instances], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("specgp: usage:")


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_synth_rejects_non_finite_noise(tmp_path, capsys, noise):
    path = tmp_path / "data.csv"
    code, out, err = run_cli(
        [
            "synth", "--n", "20", "--d", "1", "--m-true", "1",
            "--noise", noise, "--output", str(path),
        ],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "noise" in err
    assert not path.exists()


def test_gradcheck_failure_exits_numerical(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_all",
        lambda seed, instances: [CheckResult("stub", instances, 1.0, 1e-5)],
    )
    code, out, err = run_cli(["gradcheck", "--instances", "1"], capsys)
    assert code == 4
    assert out.startswith("FAIL")
    assert err.strip() == "specgp: numerical: gradient check failed"


def test_learned_variance_overflow_exits_numerical(tmp_path, capsys):
    # the first AdaGrad step moves log noise_variance by the whole base step,
    # and a base step of 1000 overflows its exp at once
    data = make_synth_csv(tmp_path, capsys, n=2000, d=2, m_true=5, seed=10)
    model_path = tmp_path / "model.json"
    code, out, err = run_cli(
        [
            "train", "--data", data, "--model", str(model_path),
            "--learn-variances", "--base-step", "1000",
            "--m", "5", "--p", "20", "--iterations", "200",
        ],
        capsys,
    )
    assert code == 4
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("specgp: numerical: iteration 0:")
    assert "noise_variance=inf" in err
    assert not model_path.exists()


def test_overflowing_step_exits_numerical(tmp_path, capsys):
    # a base step of 1e300 leaves M numerically singular however often the
    # first step is halved
    data = make_synth_csv(tmp_path, capsys, n=2000, d=2, m_true=5, seed=10)
    model_path = tmp_path / "model.json"
    code, out, err = run_cli(
        [
            "train", "--data", data, "--model", str(model_path), "--base-step", "1e300",
            "--iterations", "50", "--m", "5", "--p", "20",
        ],
        capsys,
    )
    assert code == 4, err
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("specgp: numerical: iteration ")
    assert lines[0].endswith("after 5 halvings")
    assert not model_path.exists()


def test_usage_errors_exit_two(tmp_path, capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 2
    code, _, _ = run_cli(["train", "--model", "m.json"], capsys)  # --data missing
    assert code == 2

    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps({"version": 1, "bogus": 1}))
    code, _, err = run_cli(
        [
            "train", "--config", str(bad_config),
            "--data", "whatever.csv", "--model", "m.json",
        ],
        capsys,
    )
    assert code == 2
    assert err.startswith("specgp: usage: config:")

    code, _, err = run_cli(
        ["evaluate", "--model", "m.json", "--data", "d.csv", "--gamma", "1.5"],
        capsys,
    )
    assert code == 2
    assert "gamma" in err

    code, _, err = run_cli(
        [
            "train", "--data", "d.csv", "--model", "m.json",
            "--iterations", "0",
        ],
        capsys,
    )
    assert code == 2

    # AdaGrad is the only step rule: the key and flag that chose it are gone
    adaptive_config = tmp_path / "adaptive.json"
    adaptive_config.write_text(json.dumps({"version": 1, "train": {"adaptive": True}}))
    code, _, err = run_cli(
        ["train", "--config", str(adaptive_config), "--data", "d.csv", "--model", "m.json"],
        capsys,
    )
    assert code == 2
    assert err == "specgp: usage: config: train.adaptive: unknown key\n"
    code, _, err = run_cli(
        ["train", "--data", "d.csv", "--model", "m.json", "--no-adaptive"], capsys
    )
    assert code == 2
    assert "unrecognized arguments: --no-adaptive" in err


# The run config as the package has always defaulted it, written out so a
# change to any default shows here.
DEFAULT_CONFIG = {
    "version": 1,
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
        "learn_variances": False,
        "checkpoint_every": 0,
        "checkpoint_path": None,
        "elbo_every": 0,
        "elbo_samples": 16,
    },
    "predict": {"samples": 64, "gamma": 0.0, "mnlp_observed": True},
}

# Every config key: its JSON type and the values just outside its bound.
CONFIG_KEYS = {
    "seed": ("integer", [-1]),
    "split_fraction": ("number", [0, 1.5]),
    "standardize": ("boolean", []),
    "spectral.m": ("integer", [0]),
    "spectral.signal_variance": ("number", [0, -1.0]),
    "spectral.noise_variance": ("number", [0.0]),
    "partition.p": ("integer", [0]),
    "partition.balance": ("boolean", []),
    "partition.max_iters": ("integer", [0]),
    "train.iterations": ("integer", [0]),
    "train.partition_samples": ("integer", [0]),
    "train.z_samples": ("integer", [0]),
    "train.base_step": ("number", [0]),
    "train.decay_power": ("number", [0.5, 1.01]),
    "train.learn_variances": ("boolean", []),
    "train.checkpoint_every": ("integer", [-1]),
    "train.checkpoint_path": ("string or null", []),
    "train.elbo_every": ("integer", [-1]),
    "train.elbo_samples": ("integer", [0]),
    "predict.samples": ("integer", [0]),
    "predict.gamma": ("number", [-1.01, 1.5]),
    "predict.mnlp_observed": ("boolean", []),
}

WRONG_TYPE = {
    "integer": [True, "3", 2.5, None],
    "number": [True, "0.5", None],
    "boolean": [1, "true", None],
    "string or null": [5, False],
}


def _bad_config_cases():
    for key, (kind, outside) in CONFIG_KEYS.items():
        values = WRONG_TYPE[kind] + outside + ([2.0] if kind == "integer" else [])
        for value in values:  # 2.0 is in range, but integer keys take JSON integers only
            yield pytest.param(key, value, id=f"{key}={value!r}")


def _config_doc(key, value):
    section, _, name = key.rpartition(".")
    return {"version": 1, section: {name: value}} if section else {"version": 1, key: value}


def _run_with_config(tmp_path, capsys, doc):
    # the data and model paths do not exist: the check must come first
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    command = "evaluate" if "predict" in doc else "train"
    return run_cli(
        [
            command, "--config", str(config), "--data", str(tmp_path / "absent.csv"),
            "--model", str(tmp_path / "absent.json"),
        ],
        capsys,
    )


def test_config_key_table_is_complete():
    # every defaulted key has its bad-value cases in CONFIG_KEYS
    paths = []
    for name, value in DEFAULT_CONFIG.items():
        if isinstance(value, dict):
            paths += [f"{name}.{inner}" for inner in value]
        elif name != "version":
            paths.append(name)
    assert paths == list(CONFIG_KEYS)


def test_checkpoint_train_config_round_trips():
    # checkpoints store the train config in its run-config form
    tcfg = TrainConfig(
        iterations=7, plan=GradientSamplePlan(3, 5),
        schedule=StepSchedule(0.2, 0.9), learn_variances=True,
        checkpoint_every=7, checkpoint_path="ck.json", seed=11, elbo_every=2, elbo_samples=3,
    )
    doc = json.loads(json.dumps(run_config.train_config_doc(tcfg)))
    assert set(doc) == {"seed", "train"}
    assert {f"train.{name}" for name in doc["train"]} == {
        path for path, key in run_config.KEYS.items() if key.section == "train"
    }
    assert run_config.train_config_read(doc) == tcfg


def test_config_defaults_are_pinned():
    assert run_config.load_run_config() == DEFAULT_CONFIG


@pytest.mark.parametrize("key, value", list(_bad_config_cases()))
def test_config_rejects_bad_values_before_reading_files(tmp_path, capsys, key, value):
    code, out, err = _run_with_config(tmp_path, capsys, _config_doc(key, value))
    assert code == 2, err
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"specgp: usage: config: {key}: "), err


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"version": 1, "bogus": 1}, "bogus"),
        ({"version": 1, "train": {"bogus": 1}}, "train.bogus"),
        ({"version": 1, "predict": {"gamma": 0.0, "samples_": 4}}, "predict.samples_"),
        ({"version": 1, "train": [1]}, "train"),
        ({"version": 1, "spectral": None}, "spectral"),
        ({"seed": 1}, "version"),
        ({"version": 2}, "version"),
        ({"version": "1"}, "version"),
        ({"version": True}, "version"),
    ],
    ids=[
        "unknown-top-level", "unknown-in-section", "unknown-beside-known", "list-section",
        "null-section", "missing-version", "version-2", "version-string", "version-true",
    ],
)
def test_config_rejects_bad_documents(tmp_path, capsys, doc, key):
    code, out, err = _run_with_config(tmp_path, capsys, doc)
    assert code == 2, err
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"specgp: usage: config: {key}: "), err


def test_config_number_keys_accept_integers(tmp_path):
    # an integer is a number, and the merged document keeps the value as given
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"version": 1, "spectral": {"signal_variance": 2}, "predict": {"gamma": -1}})
    )
    doc = run_config.load_run_config(str(config))
    assert doc["spectral"]["signal_variance"] == 2 and doc["predict"]["gamma"] == -1
    assert doc["spectral"]["noise_variance"] == 0.01


# Each config flag and the key it overrides, per subcommand.
CONFIG_FLAGS = {
    "train": [
        (["--seed", "3"], "seed", 3),
        (["--split", "0.5"], "split_fraction", 0.5),
        (["--no-standardize"], "standardize", False),
        (["--m", "3"], "spectral.m", 3),
        (["--signal-variance", "2.5"], "spectral.signal_variance", 2.5),
        (["--noise-variance", "0.2"], "spectral.noise_variance", 0.2),
        (["--p", "5"], "partition.p", 5),
        (["--balance"], "partition.balance", True),
        (["--iterations", "7"], "train.iterations", 7),
        (["--base-step", "0.3"], "train.base_step", 0.3),
        (["--partition-samples", "2"], "train.partition_samples", 2),
        (["--z-samples", "6"], "train.z_samples", 6),
        (["--learn-variances"], "train.learn_variances", True),
        (["--checkpoint-every", "9"], "train.checkpoint_every", 9),
        (["--checkpoint-path", "ck.json"], "train.checkpoint_path", "ck.json"),
    ],
    "predict": [
        (["--seed", "3"], "seed", 3),
        (["--samples", "12"], "predict.samples", 12),
        (["--gamma", "0.4"], "predict.gamma", 0.4),
    ],
    "evaluate": [
        (["--seed", "3"], "seed", 3),
        (["--samples", "12"], "predict.samples", 12),
        (["--gamma", "0.4"], "predict.gamma", 0.4),
        (["--no-mnlp-observed"], "predict.mnlp_observed", False),
    ],
}


class _Stop(Exception):
    pass


@pytest.mark.parametrize(
    "command, flag, key, value",
    [
        pytest.param(command, *case, id=" ".join([command, *case[0]]))
        for command, cases in CONFIG_FLAGS.items()
        for case in cases
    ],
)
def test_config_flags_override_their_keys(monkeypatch, command, flag, key, value):
    seen = []

    def capture(path=None, overrides=None):
        seen.append(load(path, overrides))
        raise _Stop

    load = run_config.load_run_config
    monkeypatch.setattr(run_config, "load_run_config", capture)
    argv = [command, "--data", "d.csv", "--model", "m.json", *flag]
    if command == "predict":
        argv += ["--output", "o.csv"]
    with pytest.raises(_Stop):
        cli.main(argv)
    expected = json.loads(json.dumps(DEFAULT_CONFIG))
    section, _, name = key.rpartition(".")
    (expected[section] if section else expected)[name] = value
    assert seen == [expected]


@pytest.mark.parametrize(
    "argv",
    [
        ["gradcheck", "--seed", "-1", "--instances", "1"],
        ["synth", "--n", "5", "--d", "1", "--m-true", "1", "--noise", "0.1", "--seed", "-1"],
    ],
    ids=["gradcheck", "synth"],
)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "data.csv"
    if argv[0] == "synth":
        argv = argv + ["--output", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("specgp: usage:") and "seed" in err
    assert not path.exists()


def test_data_errors_exit_three(tmp_path, capsys):
    code, _, err = run_cli(
        ["train", "--data", str(tmp_path / "absent.csv"), "--model", "m.json"],
        capsys,
    )
    assert code == 3
    assert err.startswith("specgp: data: file not found")

    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"format": "specgp-model", "version": 999}))
    code, _, err = run_cli(
        ["predict", "--model", str(stale), "--data", "d.csv", "--output", "o.csv"],
        capsys,
    )
    assert code == 3
    assert "model: version mismatch" in err

    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json {")
    code, _, err = run_cli(
        ["evaluate", "--model", str(garbage), "--data", "d.csv"], capsys
    )
    assert code == 3
    assert "model: invalid JSON" in err


def test_version_three_model_exits_three(trained_model_doc, tmp_path, capsys):
    # version 3 stored the m·d tiled frequency variances, not the lengthscales
    doc, data = trained_model_doc
    old = tmp_path / "model-v3.json"
    old.write_text(json.dumps(as_version_three_model(doc)))
    code, out, err = run_cli(["evaluate", "--model", str(old), "--data", data], capsys)
    assert (code, out) == (3, "")
    assert err == "specgp: data: model: version mismatch (expected 5, got 3)\n"


def test_version_four_model_exits_three(trained_model_doc, tmp_path, capsys):
    # version 4 stored every array as nested lists of float text
    doc, data = trained_model_doc
    old = tmp_path / "model-v4.json"
    old.write_text(json.dumps(as_float_text(doc, 4)))
    code, out, err = run_cli(["evaluate", "--model", str(old), "--data", data], capsys)
    assert (code, out) == (3, "")
    assert err == "specgp: data: model: version mismatch (expected 5, got 4)\n"


def test_predict_rejects_mismatched_columns(tmp_path, capsys):
    data = make_synth_csv(tmp_path, capsys, n=60, d=2, m_true=1, seed=7)
    model_path = str(tmp_path / "model.json")
    code, _, _ = run_cli(
        [
            "train", "--data", data, "--model", model_path,
            "--m", "1", "--p", "2", "--iterations", "2", "--seed", "0",
        ],
        capsys,
    )
    assert code == 0
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b\n1,2\n")
    code, _, err = run_cli(
        ["predict", "--model", model_path, "--data", str(wrong), "--output", "o.csv"],
        capsys,
    )
    assert code == 3
    assert "lacks feature columns" in err


def test_prediction_csv_target_column_is_optional(trained_model_doc, tmp_path, capsys):
    # the model's target column may sit anywhere in the header or be absent:
    # predict ignores it, evaluate needs it, and it cannot be the only column
    doc, data = trained_model_doc
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    header, *rows = read_csv_rows(data)
    assert header == ["x1", "x2", "y"]

    def write(name, order, extra=()):
        path = tmp_path / name
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([header[i] for i in order])
            writer.writerows([[row[i] for i in order] for row in rows] + list(extra))
        return str(path)

    def predict(path):
        out = str(tmp_path / "predictions.csv")
        code, _, err = run_cli(
            ["predict", "--model", str(model_path), "--data", path, "--output", out], capsys
        )
        return code, err, read_csv_rows(out) if code == 0 else None

    code, _, as_trained = predict(data)
    assert code == 0
    code, err, moved = predict(write("moved.csv", [2, 1, 0], extra=[["", "0.1", "0.2"]]))
    assert (code, moved) == (0, as_trained)
    assert "dropped 1 rows" in err
    code, _, features_only = predict(write("features.csv", [0, 1]))
    assert (code, features_only) == (0, as_trained)

    code, _, err = run_cli(
        ["evaluate", "--model", str(model_path), "--data", str(tmp_path / "features.csv")],
        capsys,
    )
    assert code == 3
    assert "needs the target column 'y'" in err
    code, err, _ = predict(write("target.csv", [2]))
    assert code == 3
    assert "no feature columns besides the target" in err


def test_dropped_row_warning_reaches_stderr(tmp_path, capsys):
    path = tmp_path / "holes.csv"
    path.write_text("x1,y\n0.1,1\nnan,2\n0.3,3\n0.4,4\n")
    model_path = str(tmp_path / "model.json")
    code, _, err = run_cli(
        [
            "train", "--data", str(path), "--model", model_path,
            "--m", "1", "--p", "1", "--iterations", "1", "--split", "1.0",
        ],
        capsys,
    )
    assert code == 0
    assert "dropped 1 rows" in err


@pytest.fixture(scope="module")
def trained_model_doc(tmp_path_factory):
    """A small trained model's JSON document and the CSV it was trained on."""
    root = tmp_path_factory.mktemp("model")
    data, model_path = str(root / "data.csv"), str(root / "model.json")
    assert cli.main(
        ["synth", "--n", "60", "--d", "2", "--m-true", "1", "--noise", "0.1", "--output", data]
    ) == 0
    assert cli.main(
        [
            "train", "--data", data, "--model", model_path,
            "--m", "1", "--p", "3", "--iterations", "2", "--seed", "0",
        ]
    ) == 0
    with open(model_path) as handle:
        return json.load(handle), data


def _edit_array(doc, section, key, edit):
    """Replace the stored array ``doc[section][key]`` by ``edit`` of it."""
    doc[section][key] = storing(edit(stored_array(doc[section][key])))


def _set(a, index, value):
    a[index] = value
    return a


def _nan_x(doc):
    _edit_array(doc, "data", "X", lambda X: _set(X, (0, 1), float("nan")))


def _nan_y(doc):
    _edit_array(doc, "data", "y", lambda y: _set(y, -1, float("nan")))


def _nan_centroid(doc):
    _edit_array(doc, "partition", "centroids", lambda c: _set(c, (1, 0), float("nan")))


def _too_few_centroids(doc):
    _edit_array(doc, "partition", "centroids", lambda c: c[:-1])


def _bad_base64_x(doc):
    doc["data"]["X"]["base64"] = "*" + doc["data"]["X"]["base64"][1:]


def _y_one_row_beyond_its_bytes(doc):
    doc["data"]["y"]["shape"][0] += 1


def _negative_centroids_shape(doc):
    doc["partition"]["centroids"]["shape"][1] = -2


def _flat_state_m(doc):
    doc["state"]["M"]["shape"] = [doc["state"]["M"]["shape"][0] ** 2]


def _sizes_one_row_short(doc):
    doc["partition"]["block_sizes"][0] -= 1


def _negative_size(doc):
    # the sizes still sum to the number of rows
    sizes = doc["partition"]["block_sizes"]
    sizes[1] += sizes[0] + 1
    sizes[0] = -1


def _fractional_size(doc):
    # the sizes still sum to the number of rows
    sizes = doc["partition"]["block_sizes"]
    sizes[1] += sizes[0] - 1.5
    sizes[0] = 1.5


def _boolean_size(doc):
    # True reads as 1, so with the rest moved to the next block the sum holds
    sizes = doc["partition"]["block_sizes"]
    sizes[1] += sizes[0] - 1
    sizes[0] = True


def _sizes_one_short_of_centroids(doc):
    # the sizes still sum to the number of rows
    sizes = doc["partition"]["block_sizes"]
    sizes[0] += sizes.pop()


def _singular_state(doc):
    _edit_array(doc, "state", "M", np.zeros_like)


def _state_one_short(doc):
    # still square, finite and nonsingular, but one dimension short of the config
    _edit_array(doc, "state", "M", lambda M: M[:-1, :-1])
    _edit_array(doc, "state", "b", lambda b: b[:-1])


def _prior_one_short(doc):
    _edit_array(doc, "prior", "lengthscales", lambda ls: ls[:-1])


def _x_mean_one_short(doc):
    # would broadcast the remaining mean over every input column
    _edit_array(doc, "standardization", "x_mean", lambda mean: mean[:-1])


def _zero_x_scale(doc):
    _edit_array(doc, "standardization", "x_scale", lambda scale: _set(scale, 0, 0.0))


def _m_float(doc):
    # loads as a frequency count of 1.0, which then fails in slicing
    doc["spectral"]["m"] = float(doc["spectral"]["m"])


def _d_float(doc):
    doc["spectral"]["d"] = float(doc["spectral"]["d"])


def _one_feature_name(doc):
    # the one named column would be broadcast over both inputs
    doc["feature_names"] = ["x1"]


def _repeated_feature_name(doc):
    doc["feature_names"] = ["x1", "x1"]


def _feature_names_number(doc):
    doc["feature_names"] = 5


def _target_name_number(doc):
    doc["target_name"] = 5


@pytest.mark.parametrize(
    "corrupt",
    [
        _nan_x, _nan_y, _nan_centroid, _too_few_centroids, _bad_base64_x,
        _y_one_row_beyond_its_bytes, _negative_centroids_shape, _flat_state_m, _sizes_one_row_short,
        _negative_size, _fractional_size, _boolean_size, _sizes_one_short_of_centroids,
        _state_one_short, _singular_state, _prior_one_short, _x_mean_one_short,
        _zero_x_scale, _m_float, _d_float, _one_feature_name, _repeated_feature_name,
        _feature_names_number, _target_name_number,
    ],
)
def test_malformed_model_files_exit_three(trained_model_doc, tmp_path, capsys, corrupt):
    doc, data = trained_model_doc
    doc = json.loads(json.dumps(doc))
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(["evaluate", "--model", str(bad), "--data", data], capsys)
    assert code == 3
    assert err.startswith("specgp: data: model: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_sizes_one_row_short, "partition.block_sizes sum to {short}, data.y has {n} rows"),
        (_zero_x_scale, "standardization is not finite with positive scales"),
        (_repeated_feature_name, "feature_names must be null or 2 distinct strings"),
    ],
    ids=["partition", "standardization", "names"],
)
def test_loader_check_messages_are_not_wrapped_again(
    trained_model_doc, tmp_path, capsys, corrupt, message
):
    doc, data = trained_model_doc
    doc = json.loads(json.dumps(doc))
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    n = doc["data"]["y"]["shape"][0]
    code, _, err = run_cli(["evaluate", "--model", str(bad), "--data", data], capsys)
    assert code == 3
    assert err == "specgp: data: model: " + message.format(short=n - 1, n=n) + "\n"


def _no_blocks(doc):
    # no rows, in no blocks
    doc["partition"]["block_sizes"] = []
    d = doc["spectral"]["d"]
    doc["data"]["X"], doc["data"]["y"] = storing(np.empty((0, d))), storing(np.empty(0))
    doc["partition"]["centroids"] = storing(np.empty((0, d)))


@pytest.mark.parametrize("command", ["predict", "partition-info"])
def test_a_model_with_no_blocks_exits_three(trained_model_doc, tmp_path, capsys, command):
    doc, data = trained_model_doc
    doc = json.loads(json.dumps(doc))
    _no_blocks(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = [command, "--model", str(bad)]
    if command == "predict":
        argv += ["--data", data, "--output", str(tmp_path / "out.csv")]
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("specgp: data: model: ") and err.count("\n") == 1
    assert "at least one block" in err


def test_train_refuses_a_repeated_column_name(tmp_path, capsys):
    # a model trained on such a file could never be loaded, so nothing is
    # trained and no model is written
    data = tmp_path / "data.csv"
    data.write_text("x,x,y\n" + "".join(f"{i},{-i},{i % 3}\n" for i in range(12)))
    model_path = tmp_path / "model.json"
    code, stdout, err = run_cli(
        ["train", "--data", str(data), "--model", str(model_path), "--iterations", "2"], capsys
    )
    assert code == 3
    assert stdout == ""
    assert err.startswith("specgp: data: repeated column names ['x']")
    assert err.count("\n") == 1
    assert not model_path.exists()


MISSING_OUTPUT_ARGV = {
    "predict": ["predict", "--model", "{model}", "--data", "{data}", "--output", "{out}"],
    "evaluate": ["evaluate", "--model", "{model}", "--data", "{data}", "--output", "{out}"],
    "train-model": ["train", "--data", "{data}", "--model", "{out}"],
    "train-trace": ["train", "--data", "{data}", "--model", "{new}", "--trace", "{out}"],
    "train-test-output": [
        "train", "--data", "{data}", "--model", "{new}", "--test-output", "{out}",
    ],
    "train-checkpoint": [
        "train", "--data", "{data}", "--model", "{new}",
        "--checkpoint-every", "1", "--checkpoint-path", "{out}",
    ],
    "synth-output": [
        "synth", "--n", "20", "--d", "1", "--m-true", "1", "--noise", "0.1", "--output", "{out}",
    ],
    "synth-truth": [
        "synth", "--n", "20", "--d", "1", "--m-true", "1", "--noise", "0.1",
        "--output", "{new}", "--truth-output", "{out}",
    ],
}


@pytest.mark.parametrize("case", list(MISSING_OUTPUT_ARGV))
def test_missing_output_directory_exits_three(
    trained_model_doc, tmp_path, capsys, monkeypatch, case
):
    # every output is checked before training, prediction or synthesis
    # starts, so nothing reaches stdout and no file is created
    def must_not_run(*args, **kwargs):
        raise AssertionError("work ran although an output directory is missing")

    for name in ("train", "predict_batch", "synth_ssgp"):
        monkeypatch.setattr(cli, name, must_not_run)
    doc, data = trained_model_doc
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    out = tmp_path / "absent" / "output"
    paths = {"model": model_path, "data": data, "new": tmp_path / "new.json", "out": out}
    argv = [arg.format(**paths) for arg in MISSING_OUTPUT_ARGV[case]]
    before = sorted(tmp_path.rglob("*"))
    code, stdout, err = run_cli(argv, capsys)
    assert code == 3
    assert stdout == ""
    assert err.startswith("specgp: data: ") and str(out) in err
    assert err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_data_naming_a_directory_exits_three(tmp_path, capsys):
    code, stdout, err = run_cli(
        ["train", "--data", str(tmp_path), "--model", str(tmp_path / "model.json")], capsys
    )
    assert code == 3
    assert stdout == ""
    assert err.startswith("specgp: data: ") and str(tmp_path) in err
    assert err.count("\n") == 1
    assert not (tmp_path / "model.json").exists()


def test_interrupted_model_save_keeps_previous_file(trained_model_doc, tmp_path, monkeypatch):
    doc, _ = trained_model_doc
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    model = load_model(str(path))
    before = path.read_bytes()
    fail_writes(monkeypatch, at=1)
    with pytest.raises(OSError, match="disk full"):
        save_model(str(path), model)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
