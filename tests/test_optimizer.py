import json
import os

import numpy as np
import pytest
from scipy import stats

from specgp import (
    ContractError,
    EtaGradient,
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
    train,
    transform,
    variance_gradients,
)
from specgp.localmodel import AlphaVector


def tiny_problem(seed=0, n=30, d=1, m=1, p=3):
    rng = np.random.default_rng(seed)
    cfg = SpectralConfig(d=d, m=m, signal_variance=1.0, noise_variance=0.25)
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    data = kmeans_partition(X, y, p=p, seed=seed)
    prior = PriorSpec.for_inputs(X, cfg)
    return cfg, data, prior


def zero_gradient(plan, data, state, prior, cfg):
    return EtaGradient(
        grad_m=np.zeros((state.dim, state.dim)), grad_b=np.zeros(state.dim)
    )


def test_step_schedule_values_and_validation():
    sched = StepSchedule(base_step=0.5, decay_power=0.8)
    for t in (0, 1, 7, 100):
        assert sched.step_size(t) == pytest.approx(0.5 / (1 + t) ** 0.8, rel=1e-15)
    assert StepSchedule() == StepSchedule(base_step=0.25, decay_power=0.7, adaptive=False)
    with pytest.raises(ContractError):
        StepSchedule(base_step=0.0)
    with pytest.raises(ContractError):
        StepSchedule(decay_power=0.5)
    with pytest.raises(ContractError):
        StepSchedule(decay_power=1.2)
    StepSchedule(decay_power=1.0)  # boundary is allowed


def test_train_config_validation():
    with pytest.raises(ContractError):
        TrainConfig(iterations=0)
    with pytest.raises(ContractError):
        TrainConfig(iterations=5, checkpoint_every=2)  # no path
    with pytest.raises(ContractError):
        TrainConfig(iterations=5, elbo_every=-1)
    with pytest.raises(ContractError):
        TrainConfig(iterations=5, elbo_samples=0)


def test_zero_gradient_is_fixed_point():
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=1)
    result = train(
        data, init, prior, cfg, TrainConfig(iterations=25), gradient_fn=zero_gradient
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
        return EtaGradient(
            grad_m=2 * (target_m - state.M), grad_b=2 * (target_b - state.b)
        )

    init = VariationalState(0.1 * np.eye(D), np.zeros(D))
    result = train(
        data, init, prior, cfg,
        TrainConfig(iterations=1000),  # default schedule
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
        schedule=StepSchedule(0.1, 0.6, adaptive=True), seed=9, elbo_every=4,
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
    sched = StepSchedule(base_step=0.05, decay_power=0.9)
    result = train(
        data, init, prior, cfg, TrainConfig(iterations=8, schedule=sched)
    )
    for record in result.trace:
        assert record.step_size == sched.step_size(record.iteration)


def test_elbo_recorded_on_requested_cadence():
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=0)
    result = train(
        data, init, prior, cfg,
        TrainConfig(iterations=7, elbo_every=3, elbo_samples=4),
    )
    recorded = [r.iteration for r in result.trace if r.elbo is not None]
    assert recorded == [2, 5]
    assert all(np.isfinite(r.elbo) for r in result.trace if r.elbo is not None)


def test_checkpoint_roundtrip_matches_uninterrupted_run(tmp_path):
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=4)
    path = str(tmp_path / "checkpoint.json")
    sched = StepSchedule(0.1, 0.6, adaptive=True)

    straight = train(
        data, init, prior, cfg,
        TrainConfig(iterations=40, schedule=sched, seed=5),
    )
    _ = train(
        data, init, prior, cfg,
        TrainConfig(
            iterations=20, schedule=sched, seed=5,
            checkpoint_every=20, checkpoint_path=path,
        ),
    )
    resumed = resume_training(path, iterations=40)

    np.testing.assert_array_equal(resumed.state.M, straight.state.M)
    np.testing.assert_array_equal(resumed.state.b, straight.state.b)
    assert len(resumed.trace) == len(straight.trace) == 40
    for ra, rb in zip(resumed.trace, straight.trace):
        assert (ra.iteration, ra.step_size, ra.gradient_norm, ra.elbo) == (
            rb.iteration, rb.step_size, rb.gradient_norm, rb.elbo,
        )


def test_checkpoint_version_mismatch(tmp_path):
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=0)
    path = str(tmp_path / "checkpoint.json")
    train(
        data, init, prior, cfg,
        TrainConfig(iterations=2, checkpoint_every=2, checkpoint_path=path),
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


def test_interrupted_checkpoint_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=4)
    path = str(tmp_path / "checkpoint.json")
    sched = StepSchedule(0.1, 0.6, adaptive=True)
    straight = train(data, init, prior, cfg, TrainConfig(iterations=40, schedule=sched, seed=5))

    real_dump = json.dump

    def dump_fails_at_30(doc, handle):
        if doc["iteration"] == 30:
            handle.write(json.dumps(doc)[:100])
            raise OSError("disk full")
        real_dump(doc, handle)

    with monkeypatch.context() as patch:
        patch.setattr(json, "dump", dump_fails_at_30)
        with pytest.raises(OSError, match="disk full"):
            train(
                data, init, prior, cfg,
                TrainConfig(
                    iterations=40, schedule=sched, seed=5,
                    checkpoint_every=10, checkpoint_path=path,
                ),
            )
    assert os.listdir(tmp_path) == ["checkpoint.json"]
    assert load_checkpoint(path)[2].iteration == 20
    resumed = resume_training(path)
    np.testing.assert_array_equal(resumed.state.M, straight.state.M)
    np.testing.assert_array_equal(resumed.state.b, straight.state.b)
    assert [r.gradient_norm for r in resumed.trace] == [r.gradient_norm for r in straight.trace]


def test_checkpoint_with_plan_seed_still_resumes(tmp_path):
    # checkpoints once stored the per-iteration plan seed, which training ignores
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=0)
    path = str(tmp_path / "checkpoint.json")
    train(
        data, init, prior, cfg,
        TrainConfig(iterations=2, checkpoint_every=2, checkpoint_path=path),
    )
    with open(path) as handle:
        doc = json.load(handle)
    assert "rng_seed" not in doc["train_config"]["plan"]
    doc["train_config"]["plan"]["rng_seed"] = 7
    with open(path, "w") as handle:
        json.dump(doc, handle)
    straight = train(data, init, prior, cfg, TrainConfig(iterations=4))
    resumed = resume_training(path, iterations=4)
    np.testing.assert_array_equal(resumed.state.M, straight.state.M)


def test_singular_update_halves_step():
    cfg, data, prior = tiny_problem()
    D = cfg.alpha_dim

    def annihilating(plan, data, state, prior, cfg):
        # a full step of 1.0 would zero out M entirely
        return EtaGradient(grad_m=-state.M.copy(), grad_b=np.zeros(D))

    init = VariationalState(np.eye(D), np.zeros(D))
    result = train(
        data, init, prior, cfg,
        TrainConfig(iterations=1, schedule=StepSchedule(base_step=1.0)),
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
        # even after five halvings M stays catastrophically ill-conditioned
        return EtaGradient(grad_m=spike, grad_b=np.zeros(D))

    init = VariationalState(np.eye(D), np.zeros(D))
    with pytest.raises(NumericalError, match="halvings"):
        train(
            data, init, prior, cfg,
            TrainConfig(iterations=1, schedule=StepSchedule(base_step=1.0)),
            gradient_fn=exploding,
        )


def test_variance_gradients_zero_residual():
    cfg = SpectralConfig(d=2, m=3, signal_variance=1.5, noise_variance=0.3)
    rng = np.random.default_rng(6)
    alpha = AlphaVector(
        theta=rng.normal(size=cfg.theta_dim), s=rng.normal(size=cfg.num_features)
    )
    X = rng.normal(size=(11, 2))
    y = feature_matrix(X, alpha.theta, cfg).T @ alpha.s
    d_noise, _ = variance_gradients(y, X, alpha, cfg)
    assert d_noise == pytest.approx(-0.5 * 11, rel=1e-12)


def test_variance_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    step = 1e-6
    for _ in range(5):
        cfg = SpectralConfig(
            d=2, m=2,
            signal_variance=float(rng.uniform(0.5, 2.0)),
            noise_variance=float(rng.uniform(0.1, 0.8)),
        )
        alpha = AlphaVector(
            theta=rng.normal(size=cfg.theta_dim), s=rng.normal(size=cfg.num_features)
        )
        X = rng.normal(size=(9, 2))
        y = rng.normal(size=9)
        d_noise, d_signal = variance_gradients(y, X, alpha, cfg)

        def loglik_at(log_sn2):
            from dataclasses import replace

            return log_likelihood(y, X, alpha, replace(cfg, noise_variance=float(np.exp(log_sn2))))

        base = np.log(cfg.noise_variance)
        fd_noise = (loglik_at(base + step) - loglik_at(base - step)) / (2 * step)
        assert d_noise == pytest.approx(fd_noise, rel=1e-5, abs=1e-5)

        def weight_prior_at(log_ss2):
            lam = np.exp(log_ss2) / cfg.m
            return float(
                np.sum(stats.norm.logpdf(alpha.s, scale=np.sqrt(lam)))
            )

        base = np.log(cfg.signal_variance)
        fd_signal = (weight_prior_at(base + step) - weight_prior_at(base - step)) / (
            2 * step
        )
        assert d_signal == pytest.approx(fd_signal, rel=1e-5, abs=1e-5)


def test_variance_learning_gate():
    cfg, data, prior = tiny_problem()
    init = initial_state(prior, cfg, seed=8)
    frozen = train(data, init, prior, cfg, TrainConfig(iterations=10, seed=2))
    assert frozen.spectral.noise_variance == cfg.noise_variance
    assert frozen.spectral.signal_variance == cfg.signal_variance
    learned = train(
        data, init, prior, cfg,
        TrainConfig(iterations=10, seed=2, learn_variances=True),
    )
    assert learned.spectral.noise_variance != cfg.noise_variance
    assert learned.spectral.noise_variance > 0
    assert learned.spectral.signal_variance > 0
    np.testing.assert_allclose(
        learned.prior.variances(learned.spectral)[cfg.theta_dim :],
        np.full(cfg.num_features, learned.spectral.signal_variance / cfg.m),
        rtol=1e-12,
    )
