"""Command-line interface.

Subcommands: ``train``, ``predict``, ``evaluate``, ``gradcheck``,
``synth`` and ``partition-info``.  Exit codes: 0 on success, 2 for usage
or configuration errors, 3 for data or file-system errors (an ``OSError``
such as a missing output directory), 4 for numerical failures.
Every failure prints a single machine-parseable line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import config as run_config
from .data import (
    DEFAULT_SYNTH_LENGTHSCALE,
    Dataset,
    Standardization,
    identity_standardization,
    load_csv,
    save_csv,
    split_indices,
    synth_ssgp,
)
from .errors import ContractError, DataError, NumericalError
from .gradcheck import run_all
from .model_io import load_model, save_model
from .optimizer import TRACE_COLUMNS, train
from .partition import kmeans_partition
from .predict import mnlp, mnlp_variance_floor, predict_batch, rmse
from .variational import PriorSpec, initial_state

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _config_flag(parser, flag, key, **kwargs):
    """Add a flag whose argparse dest is the run-config key it overrides."""
    metavar = flag[2:].replace("-", "_").upper()
    parser.add_argument(flag, dest=key, metavar=metavar, **kwargs)


def _add_config_overrides(parser):
    parser.add_argument("--config", help="JSON run configuration file")
    _config_flag(parser, "--seed", "seed", type=int, help="master seed override")


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
    boolean = argparse.BooleanOptionalAction
    _config_flag(p_train, "--iterations", "train.iterations", type=int)
    _config_flag(p_train, "--m", "spectral.m", type=int, help="number of spectral frequencies")
    _config_flag(p_train, "--p", "partition.p", type=int, help="number of data blocks")
    _config_flag(p_train, "--signal-variance", "spectral.signal_variance", type=float)
    _config_flag(p_train, "--noise-variance", "spectral.noise_variance", type=float)
    _config_flag(
        p_train, "--split", "split_fraction", type=float, help="training fraction in (0, 1]"
    )
    _config_flag(p_train, "--base-step", "train.base_step", type=float)
    _config_flag(p_train, "--partition-samples", "train.partition_samples", type=int)
    _config_flag(p_train, "--z-samples", "train.z_samples", type=int)
    _config_flag(p_train, "--standardize", "standardize", action=boolean)
    _config_flag(p_train, "--balance", "partition.balance", action=boolean)
    _config_flag(p_train, "--learn-variances", "train.learn_variances", action=boolean)
    _config_flag(p_train, "--checkpoint-every", "train.checkpoint_every", type=int)
    _config_flag(p_train, "--checkpoint-path", "train.checkpoint_path")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="predict means/variances for a CSV")
    _add_config_overrides(p_pred)
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--output", required=True, help="predictions CSV path")
    _config_flag(
        p_pred, "--samples", "predict.samples", type=int, help="posterior draws per prediction"
    )
    _config_flag(
        p_pred, "--gamma", "predict.gamma", type=float, help="mixing coefficient in [-1, 1]"
    )
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="RMSE and MNLP on a labelled CSV")
    _add_config_overrides(p_eval)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--output", help="also write the metrics JSON here")
    _config_flag(p_eval, "--samples", "predict.samples", type=int)
    _config_flag(p_eval, "--gamma", "predict.gamma", type=float)
    _config_flag(
        p_eval,
        "--mnlp-observed",
        "predict.mnlp_observed",
        action=boolean,
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
    p_synth.add_argument("--lengthscale", type=float, default=DEFAULT_SYNTH_LENGTHSCALE)
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


def _config_overrides(args) -> dict:
    """The config keys the user set by flag; a config flag's dest is its key."""
    flags = vars(args).items()
    return {key: value for key, value in flags if key in run_config.KEYS and value is not None}


def _report_dropped(dataset):
    if dataset.dropped_rows:
        print(
            f"specgp: warning: dropped {dataset.dropped_rows} rows with missing values",
            file=sys.stderr,
        )


def _check_output_directories(*paths):
    """Raise before any work when the directory an output file would be
    written into does not exist; ``None`` is an output not asked for."""
    for path in paths:
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise DataError(f"cannot write {path}: its directory does not exist")


def cmd_train(args) -> int:
    doc = run_config.load_run_config(args.config, _config_overrides(args))
    tcfg = run_config.train_config_from(doc)
    checkpoint = tcfg.checkpoint_path if tcfg.checkpoint_every else None
    _check_output_directories(args.model, args.trace, args.test_output, checkpoint)
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

    cfg = run_config.spectral_config_from(doc, dataset.d)
    # the partition keys are kmeans_partition's arguments
    part = kmeans_partition(X_train, y_train, seed=doc["seed"], **doc["partition"])
    prior = PriorSpec.for_inputs(X_train, cfg)
    init = initial_state(prior, cfg, seed=doc["seed"])
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
        writer.writerow(TRACE_COLUMNS)
        for rec in trace:
            cells = (getattr(rec, name) for name in TRACE_COLUMNS)
            writer.writerow(["" if cell is None else repr(cell) for cell in cells])


def _load_features(path, model):
    """Read a CSV for prediction, aligning columns with the trained model.
    The model's target column, when the header has it, is split out."""
    dataset = load_csv(path, None)
    X, names, y = dataset.X, list(dataset.feature_names), None
    if model.target_name in names:
        if len(names) == 1:
            raise DataError("no feature columns besides the target")
        target = names.index(model.target_name)
        y = X[:, target]
        X = np.delete(X, target, axis=1)
        del names[target]
    _report_dropped(dataset)
    if model.feature_names:
        missing = [c for c in model.feature_names if c not in names]
        if missing:
            raise DataError(f"prediction CSV lacks feature columns {missing}")
        X = X[:, [names.index(c) for c in model.feature_names]]
        names = list(model.feature_names)
    elif X.shape[1] != model.spectral.d:
        raise DataError(
            f"prediction CSV has {X.shape[1]} feature columns, model expects "
            f"{model.spectral.d}"
        )
    return X, y, names


def cmd_predict(args) -> int:
    _check_output_directories(args.output)
    doc = run_config.load_run_config(args.config, _config_overrides(args))
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
    _check_output_directories(args.output)
    doc = run_config.load_run_config(args.config, _config_overrides(args))
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
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(metrics, handle)
    print(json.dumps(metrics))
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
    truth_path = args.truth_output or f"{args.output}.truth.json"
    _check_output_directories(args.output, truth_path)
    dataset, truth = synth_ssgp(
        n=args.n,
        d=args.d,
        m_true=args.m_true,
        noise=args.noise,
        seed=args.seed,
        signal_variance=args.signal_variance,
        lengthscale=args.lengthscale,
    )
    save_csv(args.output, dataset)
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
    except (DataError, OSError) as err:
        print(f"specgp: data: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as err:
        print(f"specgp: numerical: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
