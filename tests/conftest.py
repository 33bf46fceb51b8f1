"""Shared fixtures: a synthetic regression problem whose training dynamics
are verified end to end (RMSE halving, gamma sweep), built once per session
because training runs take seconds."""

import base64
import itertools
import json

import numpy as np
import pytest

import specgp as sg

SYNTH_SEED = 10
NOISE_SD = 0.1
LENGTHSCALE = 0.055


def stored_array(value):
    """The float array that a model, checkpoint or data file stores as
    ``value``, read as the README reads one, without specgp."""
    raw = base64.b64decode(value["base64"], validate=True)
    return np.frombuffer(raw, "<f8").reshape(value["shape"]).copy()


def storing(a):
    """The stored form of the float array ``a``, written without specgp."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "base64": base64.b64encode(a.tobytes()).decode()}


def as_float_text(doc, version):
    """A copy of the model or checkpoint document ``doc`` at ``version``,
    with every array stored as files of model version 4 and checkpoint
    version 7 stored it: nested lists of JSON numbers."""

    def lists(value):
        if isinstance(value, dict):
            if set(value) == {"shape", "base64"}:
                return stored_array(value).tolist()
            return {key: lists(item) for key, item in value.items()}
        return value

    old = lists(json.loads(json.dumps(doc)))
    old["version"] = version
    return old


def as_tiled_prior(doc, version):
    """A copy of the model or checkpoint document ``doc`` at ``version``, with
    the arrays as float text and the prior stored as files of model version
    3 and checkpoint version 6 stored it: the m·d frequency variances
    ``1 / (4 pi^2 l^2)``, tiled over the m frequencies, in place of the
    ``d`` lengthscales ``l``."""
    old = as_float_text(doc, version)
    lengthscales = np.asarray(old["prior"].pop("lengthscales"))
    per_dim = 1.0 / (4.0 * np.pi**2 * lengthscales**2)
    old["prior"]["theta_prior_variance"] = np.tile(per_dim, old["spectral"]["m"]).tolist()
    return old


def as_version_three_model(doc):
    """A copy of the model document ``doc`` laid out as model files of
    version 3 were: the prior as its tiled frequency variances."""
    return as_tiled_prior(doc, 3)


def as_version_two_model(doc):
    """A copy of the model document ``doc`` laid out as model files of
    version 2 were: as version 3, with the weight entries of ``state.b``
    and the matching rows and columns of ``state.M`` interleaved as
    ``cos_1, sin_1, ..., cos_m, sin_m``."""
    old = as_version_three_model(doc)
    old["version"] = 2
    m, d = old["spectral"]["m"], old["spectral"]["d"]
    weights = m * d + np.arange(2 * m).reshape(2, m).T.ravel()
    order = np.concatenate([np.arange(m * d), weights])
    old["state"]["M"] = np.asarray(old["state"]["M"])[np.ix_(order, order)].tolist()
    old["state"]["b"] = np.asarray(old["state"]["b"])[order].tolist()
    return old


def as_version_one_model(doc):
    """A copy of the model document ``doc`` laid out as model files of
    version 1 were: per-block row-index lists over the block-ordered data in
    place of block sizes, plus the ``lambda_diag`` echo and the
    ``constant_columns`` flags, all false as for data with no constant
    column; like version 2, it interleaved the weights."""
    old = as_version_two_model(doc)
    old["version"] = 1
    old["prior"]["lambda_diag"] = old["spectral"]["signal_variance"] / old["spectral"]["m"]
    sizes = old["partition"].pop("block_sizes")
    ends = itertools.accumulate(sizes)
    old["partition"]["block_indices"] = [list(range(e - k, e)) for k, e in zip(sizes, ends)]
    old["standardization"]["constant_columns"] = [False] * old["spectral"]["d"]
    return old


def fail_writes(monkeypatch, at, after=100):
    """Make the ``at``-th temporary file that ``specgp.model_io`` opens from
    now on (counting from 1) take ``after`` bytes, then fail its write with
    ``OSError("disk full")``, as a full disk would part-way through a file."""
    opened = 0

    class FailingHandle:
        def __init__(self, handle):
            self.handle, self.budget = handle, after

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.handle.__exit__(*exc)

        def write(self, raw):
            if len(raw) > self.budget:
                self.handle.write(raw[: self.budget])
                raise OSError("disk full")
            self.budget -= len(raw)
            return self.handle.write(raw)

    def failing_open(path, *args, **kwargs):
        nonlocal opened
        handle = open(path, *args, **kwargs)
        if str(path).endswith(".tmp"):
            opened += 1
            if opened == at:
                return FailingHandle(handle)
        return handle

    monkeypatch.setattr("specgp.model_io.open", failing_open, raising=False)


class SyntheticProblem:
    """A 2-d, five-frequency dataset with a fixed split, standardization,
    partition, and prior; trains and scores models with pinned seeds."""

    def __init__(self):
        self.dataset, self.truth = sg.synth_ssgp(
            n=2000, d=2, m_true=5, noise=NOISE_SD, seed=SYNTH_SEED,
            lengthscale=LENGTHSCALE,
        )
        self.train_idx, self.test_idx = sg.split_indices(
            self.dataset.n, 0.95, seed=SYNTH_SEED
        )
        self.std = sg.Standardization.fit(
            self.dataset.X[self.train_idx], self.dataset.y[self.train_idx]
        )
        x_std = self.std.apply_x(self.dataset.X[self.train_idx])
        y_std = self.std.apply_y(self.dataset.y[self.train_idx])
        self.cfg = sg.SpectralConfig(
            d=2, m=5, signal_variance=1.0, noise_variance=0.01
        )
        self.partition = sg.kmeans_partition(x_std, y_std, p=20, seed=SYNTH_SEED)
        self.prior = sg.PriorSpec.for_inputs(x_std, self.cfg)
        self._trained = {}

    def initial_state(self, train_seed):
        return sg.initial_state(self.prior, self.cfg, seed=train_seed)

    def train(self, train_seed, iterations):
        key = (train_seed, iterations)
        if key not in self._trained:
            tcfg = sg.TrainConfig(
                iterations=iterations,
                plan=sg.GradientSamplePlan(4, 8, train_seed),
                schedule=sg.StepSchedule(base_step=0.1, decay_power=0.51),
                seed=train_seed,
            )
            self._trained[key] = sg.train(
                self.partition, self.initial_state(train_seed),
                self.prior, self.cfg, tcfg,
            )
        return self._trained[key]

    def rmse_at(self, idx, state, spectral, gamma=0.0, n_samples=256):
        model = sg.TrainedModel(
            state=state, prior=self.prior, spectral=spectral,
            partition=self.partition, standardization=self.std,
        )
        pcfg = sg.PredictConfig(n_samples=n_samples, gamma_mix=gamma, seed=123)
        means, _ = sg.predict_batch(
            self.std.apply_x(self.dataset.X[idx]), model, pcfg
        )
        return sg.rmse(self.std.invert_mean(means), self.dataset.y[idx])


@pytest.fixture(scope="session")
def synthetic_problem():
    return SyntheticProblem()
