"""Self-test of the benchmark harness at toy sizes.

    python3 -m pytest -q perfbench/test_harness.py

Checks that every metric named in BENCHMARK.json is produced with its
unit for every workload, that corrupted predictions (corrupted here, in
the test, never in the program) are counted as failed operations, and
that the benchmark refuses to run without the package source.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

bench.import_package()

from workloads import WORKLOADS, make_inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def toy(name):
    w = WORKLOADS[name]
    return dataclasses.replace(
        w,
        n=300,
        p=6,
        iterations=12,
        elbo_every=5 if w.elbo_every else 0,
        checkpoint_every=4 if w.checkpoint_every else 0,
        predict_points=8,
        predict_draws=3,
        one_calls=6,
        one_draws=2,
        io_reps=1,
        check_rows=3,
    )


def expected(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def printed(run, correct, metrics):
    doc = json.loads(bench.result_line(run, correct, metrics))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(name, trace):
    run, correct, metrics, _ = bench.execute(toy(name), seed=3, seconds=0.0, trace=trace)
    doc = printed(run, correct, metrics)
    want = expected("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(np.isfinite(v["value"]) for v in doc["metrics"].values())
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    assert doc["correct"], run.ledger.notes


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    w = toy("small-blocks")
    a, b, c = make_inputs(w, 5), make_inputs(w, 5), make_inputs(w, 6)
    assert np.array_equal(a.x_train, b.x_train) and np.array_equal(a.x_one, b.x_one)
    assert not np.array_equal(a.x_train, c.x_train)


def _corrupt_first_mean(predict):
    def corrupted(x, model, pcfg):
        means, variances = predict(x, model, pcfg)
        means = means.copy()
        means[0] = np.nan
        return means, variances

    return corrupted


def _corrupt_variance(predict):
    def corrupted(x, model, pcfg):
        means, variances = predict(x, model, pcfg)
        return means, variances - 1.0

    return corrupted


def _perturb_other_models(predict):
    """Leaves the first model's predictions alone and nudges every other
    model's, so only the saved-then-loaded comparison can notice."""
    seen = []

    def corrupted(x, model, pcfg):
        means, variances = predict(x, model, pcfg)
        if not seen:
            seen.append(model)
        if model is not seen[0]:
            means = np.nextafter(means, np.inf)
        return means, variances

    return corrupted


@pytest.mark.parametrize("corrupt", [_corrupt_first_mean, _corrupt_variance, _perturb_other_models])
@pytest.mark.parametrize("trace", [0, 1])
def test_corrupted_predictions_count_as_failures(corrupt, trace):
    import specgp as sg

    run, correct, metrics, _ = bench.execute(
        toy("small-blocks"), seed=3, seconds=0.0, trace=trace,
        predict=corrupt(sg.predict_batch),
    )
    doc = printed(run, correct, metrics)
    assert doc["failed"] >= 1
    assert doc["correct"] is False


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "small-blocks", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
