"""Command-line interface.

Subcommands: ``train``, ``predict``, ``evaluate``, ``gradcheck``,
``synth`` and ``partition-info``.  Exit codes: 0 on success, 2 for usage
or configuration errors, 3 for data errors, 4 for numerical failures.
Every failure prints a single machine-parseable line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import config as run_config
from .data import (
    Dataset,
    Standardization,
    identity_standardization,
    load_csv,
    save_csv,
    split_indices,
    synth_ssgp,
)
from .errors import ContractError, DataError, NumericalError
from .features import SpectralConfig
from .gradcheck import run_all
from .model_io import load_model, save_model
from .optimizer import train
from .partition import kmeans_partition
from .predict import mnlp, mnlp_variance_floor, predict_batch, rmse
from .variational import PriorSpec, initial_state

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _add_config_overrides(parser):
    parser.add_argument("--config", help="JSON run configuration file")
    parser.add_argument("--seed", type=int, help="master seed override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgp",
        description="Sparse spectrum GP regression with stochastic variational training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model from a CSV file")
    _add_config_overrides(p_train)
    p_train.add_argument("--data", required=True, help="training CSV (header required)")
    p_train.add_argument("--target", default="y", help="target column name")
    p_train.add_argument("--model", required=True, help="output model file (JSON)")
    p_train.add_argument("--trace", help="optional per-iteration trace CSV")
    p_train.add_argument(
        "--test-output", help="write the held-out split to this CSV (raw units)"
    )
    p_train.add_argument("--iterations", type=int)
    p_train.add_argument("--m", type=int, help="number of spectral frequencies")
    p_train.add_argument("--p", type=int, help="number of data blocks")
    p_train.add_argument("--signal-variance", type=float)
    p_train.add_argument("--noise-variance", type=float)
    p_train.add_argument("--split", type=float, help="training fraction in (0, 1]")
    p_train.add_argument("--base-step", type=float)
    p_train.add_argument("--partition-samples", type=int)
    p_train.add_argument("--z-samples", type=int)
    p_train.add_argument("--adaptive", action=argparse.BooleanOptionalAction)
    p_train.add_argument("--standardize", action=argparse.BooleanOptionalAction)
    p_train.add_argument("--balance", action=argparse.BooleanOptionalAction)
    p_train.add_argument("--learn-variances", action=argparse.BooleanOptionalAction)
    p_train.add_argument("--checkpoint-every", type=int)
    p_train.add_argument("--checkpoint-path")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="predict means/variances for a CSV")
    _add_config_overrides(p_pred)
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--output", required=True, help="predictions CSV path")
    p_pred.add_argument("--samples", type=int, help="posterior draws per prediction")
    p_pred.add_argument("--gamma", type=float, help="mixing coefficient in [-1, 1]")
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="RMSE and MNLP on a labelled CSV")
    _add_config_overrides(p_eval)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--output", help="also write the metrics JSON here")
    p_eval.add_argument("--samples", type=int)
    p_eval.add_argument("--gamma", type=float)
    p_eval.add_argument(
        "--mnlp-observed",
        action=argparse.BooleanOptionalAction,
        help="add the noise variance to predictive variances for MNLP (default on)",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_check = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--instances", type=int, default=20)
    p_check.set_defaults(func=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="draw a synthetic dataset from the model class")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--d", type=int, required=True)
    p_synth.add_argument("--m-true", type=int, required=True)
    p_synth.add_argument("--noise", type=float, required=True, help="noise standard deviation")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--signal-variance", type=float, default=1.0)
    p_synth.add_argument("--lengthscale", type=float, default=None)
    p_synth.add_argument("--output", required=True, help="CSV path")
    p_synth.add_argument(
        "--truth-output", help="ground truth JSON path (default: <output>.truth.json)"
    )
    p_synth.set_defaults(func=cmd_synth)

    p_info = sub.add_parser("partition-info", help="block-size summary of a model")
    p_info.add_argument("--model", required=True)
    p_info.set_defaults(func=cmd_partition_info)

    return parser


# ---------------------------------------------------------------------------
# command implementations


def _nested_overrides(args) -> dict:
    """Map CLI flags onto config keys; only flags the user set are applied."""
    top = {}
    spectral = {}
    partition = {}
    training = {}
    predicting = {}
    mapping = [
        (spectral, "m", "m"),
        (spectral, "signal_variance", "signal_variance"),
        (spectral, "noise_variance", "noise_variance"),
        (partition, "p", "p"),
        (partition, "balance", "balance"),
        (training, "iterations", "iterations"),
        (training, "base_step", "base_step"),
        (training, "partition_samples", "partition_samples"),
        (training, "z_samples", "z_samples"),
        (training, "adaptive", "adaptive"),
        (training, "learn_variances", "learn_variances"),
        (training, "checkpoint_every", "checkpoint_every"),
        (training, "checkpoint_path", "checkpoint_path"),
        (predicting, "samples", "samples"),
        (predicting, "gamma", "gamma"),
        (predicting, "mnlp_observed", "mnlp_observed"),
    ]
    for bucket, attr, key in mapping:
        value = getattr(args, attr, None)
        if value is not None:
            bucket[key] = value
    for attr, key in [("seed", "seed"), ("split", "split_fraction"), ("standardize", "standardize")]:
        value = getattr(args, attr, None)
        if value is not None:
            top[key] = value
    if spectral:
        top["spectral"] = spectral
    if partition:
        top["partition"] = partition
    if training:
        top["train"] = training
    if predicting:
        top["predict"] = predicting
    return top


def _report_dropped(dataset):
    if dataset.dropped_rows:
        print(
            f"specgp: warning: dropped {dataset.dropped_rows} rows with missing values",
            file=sys.stderr,
        )


def cmd_train(args) -> int:
    doc = run_config.load_run_config(args.config, _nested_overrides(args))
    dataset = load_csv(args.data, args.target)
    _report_dropped(dataset)
    train_idx, test_idx = split_indices(dataset.n, doc["split_fraction"], seed=doc["seed"])
    X_train_raw, y_train_raw = dataset.X[train_idx], dataset.y[train_idx]

    if doc["standardize"]:
        std = Standardization.fit(X_train_raw, y_train_raw)
    else:
        std = identity_standardization(dataset.d)
    X_train = std.apply_x(X_train_raw)
    y_train = std.apply_y(y_train_raw)

    cfg = SpectralConfig(
        d=dataset.d,
        m=doc["spectral"]["m"],
        signal_variance=doc["spectral"]["signal_variance"],
        noise_variance=doc["spectral"]["noise_variance"],
    )
    part = kmeans_partition(
        X_train,
        y_train,
        p=doc["partition"]["p"],
        seed=doc["seed"],
        max_iters=doc["partition"]["max_iters"],
        balance=doc["partition"]["balance"],
    )
    prior = PriorSpec.for_inputs(X_train, cfg)
    init = initial_state(prior, cfg, seed=doc["seed"])
    tcfg = run_config.train_config_from(doc)
    result = train(part, init, prior, cfg, tcfg)

    model = result.model(
        part, std, feature_names=dataset.feature_names, target_name=dataset.target_name
    )
    save_model(args.model, model)
    if args.trace:
        _write_trace(args.trace, result.trace)
    if args.test_output:
        held_out = Dataset(
            X=dataset.X[test_idx],
            y=dataset.y[test_idx],
            feature_names=dataset.feature_names,
            target_name=dataset.target_name,
        )
        save_csv(args.test_output, held_out)
    summary = {
        "model": args.model,
        "n_train": int(train_idx.size),
        "n_test": int(test_idx.size),
        "iterations": len(result.trace),
        "final_gradient_norm": result.trace[-1].gradient_norm if result.trace else None,
        "noise_variance": result.spectral.noise_variance,
        "signal_variance": result.spectral.signal_variance,
    }
    print(json.dumps(summary))
    return EXIT_OK


def _write_trace(path, trace):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "step_size", "gradient_norm", "elbo", "wall_clock_ms"])
        for rec in trace:
            writer.writerow(
                [
                    rec.iteration,
                    repr(rec.step_size),
                    repr(rec.gradient_norm),
                    "" if rec.elbo is None else repr(rec.elbo),
                    repr(rec.wall_clock_ms),
                ]
            )


def _load_features(path, model):
    """Read a CSV for prediction, aligning columns with the trained model."""
    target = model.target_name
    try:
        dataset = load_csv(path, target)
        has_target = True
    except DataError as err:
        if "target column" not in str(err):
            raise
        dataset = load_csv(path, None)
        has_target = False
    _report_dropped(dataset)
    if model.feature_names:
        missing = [c for c in model.feature_names if c not in dataset.feature_names]
        if missing:
            raise DataError(f"prediction CSV lacks feature columns {missing}")
        order = [dataset.feature_names.index(c) for c in model.feature_names]
        X = dataset.X[:, order]
        names = list(model.feature_names)
    else:
        if dataset.d != model.spectral.d:
            raise DataError(
                f"prediction CSV has {dataset.d} feature columns, model expects "
                f"{model.spectral.d}"
            )
        X = dataset.X
        names = dataset.feature_names
    return X, (dataset.y if has_target else None), names


def cmd_predict(args) -> int:
    doc = run_config.load_run_config(args.config, _nested_overrides(args))
    model = load_model(args.model)
    X_raw, _, names = _load_features(args.data, model)
    pcfg = run_config.predict_config_from(doc)
    std = model.standardization
    means_std, vars_std = predict_batch(std.apply_x(X_raw), model, pcfg)
    means, variances = std.invert_mean(means_std), std.invert_variance(vars_std)
    with open(args.output, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(names) + ["mean", "variance"])
        for row, mu, var in zip(X_raw, means, variances):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(mu)), repr(float(var))])
    print(json.dumps({"predictions": args.output, "n": int(X_raw.shape[0])}))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    doc = run_config.load_run_config(args.config, _nested_overrides(args))
    model = load_model(args.model)
    X_raw, y_raw, _ = _load_features(args.data, model)
    if y_raw is None:
        raise DataError(f"evaluation CSV needs the target column {model.target_name!r}")
    if y_raw.size == 0:
        raise DataError("evaluation CSV has no usable rows")
    pcfg = run_config.predict_config_from(doc)
    std = model.standardization
    means_std, vars_std = predict_batch(std.apply_x(X_raw), model, pcfg)
    if doc["predict"]["mnlp_observed"]:
        vars_std = vars_std + model.spectral.noise_variance
    means, variances = std.invert_mean(means_std), std.invert_variance(vars_std)
    floored = int(np.count_nonzero(variances <= 0))
    if floored:
        variances = mnlp_variance_floor(variances, y_raw)
    metrics = {
        "rmse": rmse(means, y_raw),
        "mnlp": mnlp(means, variances, y_raw),
        "n_test": int(y_raw.size),
    }
    if floored:
        metrics["variance_floored"] = floored
    print(json.dumps(metrics))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(metrics, handle)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_all(seed=args.seed, instances=args.instances)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} {res.name}: max_rel_err={res.max_rel_err:.3e} "
            f"tol={res.tol:.1e} ({res.instances} instances)"
        )
        failed = failed or not res.passed
    if failed:
        print("specgp: numerical: gradient check failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_synth(args) -> int:
    kwargs = {}
    if args.lengthscale is not None:
        kwargs["lengthscale"] = args.lengthscale
    dataset, truth = synth_ssgp(
        n=args.n,
        d=args.d,
        m_true=args.m_true,
        noise=args.noise,
        seed=args.seed,
        signal_variance=args.signal_variance,
        **kwargs,
    )
    save_csv(args.output, dataset)
    truth_path = args.truth_output or f"{args.output}.truth.json"
    serializable = {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in truth.items()
    }
    with open(truth_path, "w") as handle:
        json.dump(serializable, handle)
    print(json.dumps({"data": args.output, "truth": truth_path, "n": args.n}))
    return EXIT_OK


def cmd_partition_info(args) -> int:
    model = load_model(args.model)
    sizes = model.partition.block_sizes()
    counts, edges = np.histogram(sizes, bins=min(10, max(1, sizes.size)))
    info = {
        "p": int(sizes.size),
        "total_n": int(sizes.sum()),
        "min": int(sizes.min()),
        "max": int(sizes.max()),
        "mean": float(sizes.mean()),
        "histogram": {
            "bin_edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        },
    }
    print(json.dumps(info))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_info:  # argparse already printed the usage line
        return EXIT_USAGE if exit_info.code else EXIT_OK
    try:
        return args.func(args)
    except ContractError as err:
        print(f"specgp: usage: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as err:
        print(f"specgp: data: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as err:
        print(f"specgp: numerical: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
