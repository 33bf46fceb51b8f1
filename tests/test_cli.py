import csv
import json

import numpy as np
import pytest

import specgp.cli as cli
from specgp import load_model, save_model
from specgp.gradcheck import CheckResult


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
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)
    names = {line.split()[1].rstrip(":") for line in lines}
    assert names == {"partition_term", "kl_term_gradient", "variance_gradients"}


def test_gradcheck_failure_exits_numerical(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_all",
        lambda seed, instances: [CheckResult("stub", instances, 1.0, 1e-5)],
    )
    code, out, err = run_cli(["gradcheck", "--instances", "1"], capsys)
    assert code == 4
    assert out.startswith("FAIL")
    assert err.strip() == "specgp: numerical: gradient check failed"


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


def _nan_x(doc):
    doc["data"]["X"][0][1] = float("nan")


def _nan_y(doc):
    doc["data"]["y"][-1] = float("nan")


def _nan_centroid(doc):
    doc["partition"]["centroids"][1][0] = float("nan")


def _too_few_centroids(doc):
    doc["partition"]["centroids"].pop()


def _index_out_of_range(doc):
    doc["partition"]["block_indices"][0][0] = len(doc["data"]["y"])


def _overlapping_blocks(doc):
    indices = doc["partition"]["block_indices"]
    indices[1][0] = indices[0][0]


def _fractional_index(doc):
    # truncation would map the entry back to its own row, so the cover would hold
    doc["partition"]["block_indices"][0][0] += 0.5


def _boolean_index(doc):
    # True reads as row 1, so the cover would still look complete
    for indices in doc["partition"]["block_indices"]:
        if 1 in indices:
            indices[indices.index(1)] = True


def _state_one_short(doc):
    # still square, finite and nonsingular, but one dimension short of the config
    state = doc["state"]
    state["M"] = [row[:-1] for row in state["M"][:-1]]
    state["b"].pop()


def _prior_one_short(doc):
    doc["prior"]["theta_prior_variance"].pop()


@pytest.mark.parametrize(
    "corrupt",
    [
        _nan_x, _nan_y, _nan_centroid, _too_few_centroids, _index_out_of_range,
        _overlapping_blocks, _fractional_index, _boolean_index, _state_one_short,
        _prior_one_short,
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


def test_interrupted_model_save_keeps_previous_file(trained_model_doc, tmp_path, monkeypatch):
    doc, _ = trained_model_doc
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    model = load_model(str(path))
    before = path.read_bytes()

    def dump_fails(obj, handle):
        handle.write(json.dumps(obj)[:100])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_fails)
    with pytest.raises(OSError, match="disk full"):
        save_model(str(path), model)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
