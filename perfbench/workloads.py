"""Workload definitions and seeded input generation.

Every input a run uses is drawn here from the workload seed, before any
timer starts: the synthetic dataset, its train/test split, the training
standardization and the single-point query rows.  The program under test
only ever receives the resulting arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import specgp as sg

DEFAULT_SEED = 10  # with this seed small-blocks is the conftest / ac5 problem
TRAIN_SEED = 0
PREDICT_SEED = 123
NOISE_SD = 0.1
LENGTHSCALE = 0.055
TRAIN_FRACTION = 0.95


@dataclass(frozen=True)
class Workload:
    name: str
    # data
    n: int
    d: int
    m_true: int
    # partition
    p: int
    # model and training
    m: int
    iterations: int
    learn_variances: bool
    elbo_every: int
    checkpoint_every: int
    # prediction
    predict_points: int
    predict_draws: int
    gamma_mix: float
    one_calls: int = 200
    one_draws: int = 64
    # save/load repetitions inside one cycle
    io_reps: int = 10
    check_rows: int = 10


WORKLOADS = {
    w.name: w
    for w in (
        # Per-call overhead bound: 32 feature_matrix calls per iteration and
        # 5120 Gram factorizations per bulk predict.  Partition and IO cost
        # almost nothing, so changes there should not move this workload.
        Workload(
            name="small-blocks", n=2000, d=2, m_true=5, p=20,
            m=5, iterations=1500, learn_variances=False,
            elbo_every=0, checkpoint_every=0,
            predict_points=100, predict_draws=256, gamma_mix=0.0,
        ),
        # Arithmetic-bound blocks (~142 rows, posterior dimension 96); the
        # only workload with checkpoints, full-data ELBO passes, learned
        # variances and gamma != 0.  elbo_every=250 keeps ELBO iterations
        # below 1% of a train call, so p99 reads ordinary iterations.
        Workload(
            name="wide-features", n=6000, d=4, m_true=8, p=40,
            m=16, iterations=1000, learn_variances=True,
            elbo_every=250, checkpoint_every=200,
            predict_points=250, predict_draws=64, gamma_mix=0.3,
        ),
    )
}


@dataclass
class Inputs:
    """Arrays handed to the program, all in model (standardized) space
    except the raw test targets used for scoring."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test_raw: np.ndarray
    x_one: np.ndarray
    std: sg.Standardization
    cfg: sg.SpectralConfig


def make_inputs(w: Workload, seed: int) -> Inputs:
    dataset, _ = sg.synth_ssgp(
        n=w.n, d=w.d, m_true=w.m_true, noise=NOISE_SD, seed=seed,
        lengthscale=LENGTHSCALE,
    )
    train_idx, test_idx = sg.split_indices(dataset.n, TRAIN_FRACTION, seed=seed)
    test_idx = test_idx[: w.predict_points]
    std = sg.Standardization.fit(dataset.X[train_idx], dataset.y[train_idx])
    # Single-point queries: fresh rows from the generator's input law
    # (uniform on the unit cube), so there are always one_calls distinct rows.
    query_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    x_one = query_rng.random((w.one_calls, w.d))
    return Inputs(
        x_train=std.apply_x(dataset.X[train_idx]),
        y_train=std.apply_y(dataset.y[train_idx]),
        x_test=std.apply_x(dataset.X[test_idx]),
        y_test_raw=dataset.y[test_idx],
        x_one=std.apply_x(x_one),
        std=std,
        cfg=sg.SpectralConfig(d=w.d, m=w.m, signal_variance=1.0, noise_variance=0.01),
    )
