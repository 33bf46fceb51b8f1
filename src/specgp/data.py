"""Dataset ingestion, standardization, splitting and synthetic data.

CSV files must carry a header row; every non-target column is treated as a
numeric feature.  Rows with missing cells (empty or ``nan``) are dropped
and counted, so no NaN survives ingestion; any other non-numeric cell is a
hard error.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import NONNEGATIVE_INT, POSITIVE, POSITIVE_INT, DataError, Rule, checked
from .features import SpectralConfig, feature_matrix
from .variational import PriorSpec

_MISSING_TOKENS = {"", "nan", "na", "null", "none"}
TRAIN_FRACTION = Rule("number", "(0, 1]")  # split_indices and the split_fraction key


@dataclass
class Dataset:
    """In-memory numeric dataset with named columns.

    ``y`` is ``None`` for feature-only files (prediction inputs).
    """

    X: np.ndarray
    y: np.ndarray | None
    feature_names: list
    target_name: str = "y"
    dropped_rows: int = 0

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass
class Standardization:
    """Per-column affine normalization fitted on the training portion only.

    Constant columns, and a constant target, keep scale 1 so the transform
    stays invertible.
    """

    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    y_scale: float

    @classmethod
    def fit(cls, X, y) -> "Standardization":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.shape[0] == 0:
            raise DataError("cannot fit standardization on an empty training set")
        # Peak-to-peak is exact on bit-identical values, unlike std, whose
        # mean step leaves ~1 ulp of roundoff on non-dyadic constants.
        constant = np.ptp(X, axis=0) == 0
        x_std = X.std(axis=0)
        y_std = float(y.std())
        return cls(
            x_mean=X.mean(axis=0),
            x_scale=np.where(constant | (x_std == 0), 1.0, x_std),
            y_mean=float(y.mean()),
            y_scale=y_std if np.ptp(y) > 0 and y_std > 0 else 1.0,
        )

    def apply_x(self, X) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.x_mean) / self.x_scale

    def apply_y(self, y) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.y_mean) / self.y_scale

    def invert_mean(self, mean):
        return np.asarray(mean, dtype=float) * self.y_scale + self.y_mean

    def invert_variance(self, variance):
        return np.asarray(variance, dtype=float) * self.y_scale**2


def identity_standardization(d: int) -> Standardization:
    """No-op transform used when standardization is disabled."""
    return Standardization(x_mean=np.zeros(d), x_scale=np.ones(d), y_mean=0.0, y_scale=1.0)


def load_csv(path, target_column) -> Dataset:
    """Read a headered numeric CSV into a :class:`Dataset`.

    ``target_column = None`` treats every column as a feature and leaves
    ``y`` as ``None`` (useful for prediction inputs).  Raises
    :class:`DataError` for a missing file, an empty file, a missing target
    column, a repeated column name, ragged rows or non-numeric cells.  Rows
    containing missing values are dropped and counted in ``dropped_rows``.
    """
    try:
        handle = open(path, "r", newline="")
    except FileNotFoundError:
        raise DataError(f"file not found: {path}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        header = [name.strip() for name in header]
        repeated = sorted({name for name in header if header.count(name) > 1})
        if repeated:
            raise DataError(f"repeated column names {repeated} in header {header}")
        if target_column is None:
            target_idx = None
            feature_names = list(header)
        else:
            if target_column not in header:
                raise DataError(f"target column {target_column!r} not in header {header}")
            target_idx = header.index(target_column)
            feature_names = [name for i, name in enumerate(header) if i != target_idx]
        if not feature_names:
            raise DataError("no feature columns besides the target")
        rows = []
        dropped = 0
        for line_no, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(header):
                raise DataError(
                    f"row {line_no} has {len(raw)} cells, expected {len(header)}"
                )
            values = []
            missing = False
            for col, cell in zip(header, raw):
                text = cell.strip()
                if text.lower() in _MISSING_TOKENS:
                    missing = True
                    break
                try:
                    value = float(text)
                except ValueError:
                    raise DataError(
                        f"non-numeric cell in row {line_no}, column {col!r}: {text!r}"
                    ) from None
                if not np.isfinite(value):
                    missing = True
                    break
                values.append(value)
            if missing:
                dropped += 1
                continue
            rows.append(values)
    if not rows:
        raise DataError(f"no usable data rows in {path}")
    table = np.asarray(rows, dtype=float)
    if target_idx is None:
        return Dataset(
            X=table,
            y=None,
            feature_names=feature_names,
            target_name="",
            dropped_rows=dropped,
        )
    mask = np.ones(len(header), dtype=bool)
    mask[target_idx] = False
    return Dataset(
        X=table[:, mask],
        y=table[:, target_idx],
        feature_names=feature_names,
        target_name=target_column,
        dropped_rows=dropped,
    )


def save_csv(path, dataset: Dataset) -> None:
    """Write a dataset back to CSV with round-trip exact floats."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(dataset.feature_names) + [dataset.target_name])
        for row, target in zip(dataset.X, dataset.y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])


def split_indices(n: int, train_fraction: float, seed: int = 0):
    """Deterministic shuffled split into train and test index arrays.

    The two arrays are disjoint and together cover ``range(n)``.  The
    train side always keeps at least one row; ``train_fraction = 1``
    leaves the test side empty.
    """
    n, seed = checked("n", n, POSITIVE_INT), checked("seed", seed, NONNEGATIVE_INT)
    train_fraction = checked("train_fraction", train_fraction, TRAIN_FRACTION)
    order = np.random.default_rng(np.random.SeedSequence(seed)).permutation(n)
    n_train = max(1, int(round(train_fraction * n)))
    return np.sort(order[:n_train]), np.sort(order[n_train:])


DEFAULT_SYNTH_LENGTHSCALE = 0.055


def synth_ssgp(
    n: int,
    d: int,
    m_true: int,
    noise: float,
    seed: int = 0,
    signal_variance: float = 1.0,
    lengthscale: float = DEFAULT_SYNTH_LENGTHSCALE,
):
    """Draw a dataset from the trigonometric feature model itself.

    Inputs are uniform on the unit cube; frequencies are drawn from the
    matching prior ``N(0, (4 pi^2 lengthscale^2)^{-1})`` per dimension,
    weights from ``N(0, (signal_variance / m_true) I)``, and targets are
    ``Phi^T s`` plus Gaussian noise with standard deviation ``noise``
    (``noise = 0`` gives exact function values).

    Returns
    -------
    (Dataset, dict)
        The dataset plus ground truth: theta, s, and the generating
        hyperparameters.  ``s`` is in the order of the weights of the joint
        vector ``alpha`` (cosines, then sines), so ``y`` equals
        ``feature_matrix(X, theta, cfg).T @ s`` up to roundoff.
    """
    n, seed = checked("n", n, POSITIVE_INT), checked("seed", seed, NONNEGATIVE_INT)
    noise = checked("noise", noise, Rule("number", "[0, inf)"))
    lengthscale = checked("lengthscale", lengthscale, POSITIVE)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # noise_variance is irrelevant to feature evaluation; 1.0 is a placeholder.
    cfg = SpectralConfig(d=d, m=m_true, signal_variance=signal_variance, noise_variance=1.0)
    theta_true = PriorSpec(np.full(d, lengthscale)).sample_theta(rng, m_true)
    # The generator draws and sums the weights as cos_1, sin_1, ..., cos_m,
    # sin_m, so every dataset keeps the bytes it was first made with.
    s_drawn = rng.standard_normal(cfg.num_features) * np.sqrt(cfg.lambda_diag)
    X = rng.random((n, d))
    phi = feature_matrix(X, theta_true, cfg).reshape(2, m_true, n)
    y = np.swapaxes(phi, 0, 1).reshape(cfg.num_features, n).T @ s_drawn
    if noise > 0:
        y = y + noise * rng.standard_normal(n)
    dataset = Dataset(
        X=X,
        y=y,
        feature_names=[f"x{i + 1}" for i in range(d)],
        target_name="y",
    )
    truth = {
        "theta": theta_true,
        "s": np.concatenate([s_drawn[0::2], s_drawn[1::2]]),
        "m": cfg.m,
        "signal_variance": cfg.signal_variance,
        "noise": noise,
        "lengthscale": lengthscale,
        "seed": seed,
    }
    return dataset, truth
