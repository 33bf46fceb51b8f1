import numpy as np
import pytest

import specgp
import specgp.predict as predict_module
from specgp import (
    ContractError,
    PredictConfig,
    PriorSpec,
    SpectralConfig,
    TrainedModel,
    VariationalState,
    assign_blocks,
    build_local_gram,
    kmeans_partition,
    mnlp,
    mnlp_variance_floor,
    posterior_draws,
    predict_batch,
    rmse,
    transform,
)
from specgp import test_conditional as conditional


def make_model(seed=0, n=24, d=2, m=2, p=3, m_scale=0.4):
    rng = np.random.default_rng(seed)
    cfg = SpectralConfig(d=d, m=m, signal_variance=1.2, noise_variance=0.3)
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    partition = kmeans_partition(X, y, p=p, seed=seed)
    prior = PriorSpec.for_inputs(X, cfg)
    D = cfg.alpha_dim
    state = VariationalState(
        m_scale * np.eye(D) + 0.05 * rng.normal(size=(D, D)), 0.5 * rng.normal(size=D)
    )
    return TrainedModel(state=state, prior=prior, spectral=cfg, partition=partition)


def loop_reference(X_star, model, pcfg):
    """Re-derive the batch output one sample and one point at a time."""
    cfg = model.spectral
    z_draws = posterior_draws(model, pcfg)
    means = np.zeros(len(X_star))
    seconds = np.zeros(len(X_star))
    for j, x in enumerate(X_star):
        k = assign_blocks(x[None, :], model.partition)[0]
        X_k, y_k = model.partition.blocks[k]
        for z in z_draws:
            alpha = transform(model.state, z, cfg)
            local = build_local_gram(X_k, y_k, alpha.theta, cfg, block_id=k)
            mom = conditional(x, local, alpha, pcfg.gamma_mix, cfg)
            means[j] += mom.mean
            seconds[j] += mom.variance + mom.mean**2
    means /= pcfg.n_samples
    variances = np.maximum(seconds / pcfg.n_samples - means**2, 0.0)
    return means, variances


def test_predict_config_validation():
    with pytest.raises(ContractError):
        PredictConfig(n_samples=0)
    with pytest.raises(ContractError):
        PredictConfig(gamma_mix=1.5)
    with pytest.raises(ContractError):
        PredictConfig(gamma_mix=float("nan"))
    assert PredictConfig().gamma_mix == 0.0


def test_batch_matches_independent_loop():
    model = make_model(seed=1)
    rng = np.random.default_rng(2)
    X_star = rng.normal(size=(6, 2))
    for gamma in (0.0, 0.4, -0.3):
        pcfg = PredictConfig(n_samples=1000, gamma_mix=gamma, seed=17)
        means, variances = predict_batch(X_star, model, pcfg)
        ref_means, ref_variances = loop_reference(X_star, model, pcfg)
        np.testing.assert_allclose(means, ref_means, atol=1e-12, rtol=0)
        np.testing.assert_allclose(variances, ref_variances, atol=1e-12, rtol=0)


@pytest.mark.parametrize(
    "p, draws_per_chunk, chunk_sizes", [(3, 1, [1] * 10), (1, 3, [3, 3, 3, 1])]
)
def test_chunked_prediction_matches_unchunked(monkeypatch, p, draws_per_chunk, chunk_sizes):
    # r = 10 is not a multiple of 3, so the last 3-draw chunk is short
    model = make_model(seed=14, p=p)
    X_star = np.random.default_rng(15).normal(size=(5, 2))
    r = 10
    calls = {}
    build = predict_module.build_local_gram

    def recording_build(X_k, y_k, theta, cfg, block_id=0):
        calls.setdefault(block_id, []).append(len(theta))
        return build(X_k, y_k, theta, cfg, block_id=block_id)

    monkeypatch.setattr(predict_module, "build_local_gram", recording_build)
    # a draw's buffer holds 2m * (n_k + t_k) elements; at p=1 that is 2m * (n + t)
    per_draw = model.spectral.num_features * (model.partition.blocks[0][0].shape[0] + 5)
    cap = draws_per_chunk * per_draw if p == 1 else 1
    for gamma in (0.0, 0.4, -0.3):
        pcfg = PredictConfig(n_samples=r, gamma_mix=gamma, seed=19)
        calls.clear()
        whole = predict_batch(X_star, model, pcfg)
        assert all(sizes == [r] for sizes in calls.values())
        with monkeypatch.context() as patch:
            patch.setattr(predict_module, "_CHUNK_ELEMENTS", cap)
            calls.clear()
            chunked = predict_batch(X_star, model, pcfg)
        assert all(sizes == chunk_sizes for sizes in calls.values())
        reference = loop_reference(X_star, model, pcfg)
        for got, want, ref in zip(chunked, whole, reference):
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
            np.testing.assert_allclose(got, ref, atol=1e-12, rtol=0)


def test_predict_point_matches_batch():
    model = make_model(seed=3)
    rng = np.random.default_rng(4)
    X_star = rng.normal(size=(4, 2))
    pcfg = PredictConfig(n_samples=32, gamma_mix=0.2, seed=5)
    means, variances = predict_batch(X_star, model, pcfg)
    for j, x in enumerate(X_star):
        mean, variance = predict_batch(x[None, :], model, pcfg)
        assert mean[0] == pytest.approx(means[j], abs=1e-12)
        assert variance[0] == pytest.approx(variances[j], abs=1e-12)
    with pytest.raises(ContractError):
        predict_batch(np.zeros(3), model, pcfg)
    with pytest.raises(ContractError):
        predict_batch(np.zeros((2, 5)), model, pcfg)
    for bad in (np.nan, np.inf):
        X_bad = X_star.copy()
        X_bad[1, 0] = bad
        with pytest.raises(ContractError):
            predict_batch(X_bad, model, pcfg)


def test_collapsed_posterior_recovers_offset_prediction():
    # M ~ 0: every sample equals b, so the Monte-Carlo mean reproduces the
    # deterministic conditional at alpha = b regardless of r
    base = make_model(seed=6)
    D = base.state.dim
    model = TrainedModel(
        state=VariationalState(1e-8 * np.eye(D), base.state.b),
        prior=base.prior, spectral=base.spectral, partition=base.partition,
    )
    rng = np.random.default_rng(7)
    X_star = rng.normal(size=(5, 2))
    cfg = model.spectral
    alpha_b = transform(model.state, np.zeros(D), cfg)
    for r in (1, 8, 64):
        pcfg = PredictConfig(n_samples=r, gamma_mix=0.3, seed=r)
        means, _ = predict_batch(X_star, model, pcfg)
        for j, x in enumerate(X_star):
            k = assign_blocks(x[None, :], model.partition)[0]
            X_k, y_k = model.partition.blocks[k]
            local = build_local_gram(X_k, y_k, alpha_b.theta, cfg, block_id=k)
            expected = conditional(x, local, alpha_b, 0.3, cfg).mean
            assert abs(means[j] - expected) <= 1e-4


def test_gamma_one_variance_is_sample_variance_of_basis_mean():
    model = make_model(seed=8)
    rng = np.random.default_rng(9)
    X_star = rng.normal(size=(4, 2))
    pcfg = PredictConfig(n_samples=200, gamma_mix=1.0, seed=11)
    means, variances = predict_batch(X_star, model, pcfg)
    cfg = model.spectral
    draws = np.empty((pcfg.n_samples, len(X_star)))
    for i, z in enumerate(posterior_draws(model, pcfg)):
        alpha = transform(model.state, z, cfg)
        for j, x in enumerate(X_star):
            phi = specgp.basis_vector(x, alpha.theta, cfg)
            draws[i, j] = phi @ alpha.s
    np.testing.assert_allclose(means, draws.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(variances, draws.var(axis=0), atol=1e-12)


def test_variances_nonnegative_across_gamma():
    model = make_model(seed=10)
    rng = np.random.default_rng(11)
    X_star = rng.normal(size=(10, 2))
    for gamma in (-1.0, -0.5, 0.0, 0.5, 1.0):
        _, variances = predict_batch(
            X_star, model, PredictConfig(n_samples=64, gamma_mix=gamma, seed=12)
        )
        assert np.all(variances >= 0.0)


def test_monte_carlo_error_scales_with_root_r():
    # the spread of the predictive mean over independent seeds should drop
    # by about 2x when r quadruples
    model = make_model(seed=13, n=8, d=1, m=1, p=1)
    x_star = np.array([[0.2]])
    reps = 20

    def spread(r, seed_base):
        values = [
            predict_batch(
                x_star, model, PredictConfig(n_samples=r, gamma_mix=0.0, seed=seed_base + i)
            )[0][0]
            for i in range(reps)
        ]
        return np.std(values, ddof=1)

    ratio = spread(4096, 100) / spread(16384, 900)
    assert 1.0 <= ratio <= 3.0


def test_rmse_values():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([0.0], [3.0]) == pytest.approx(3.0, rel=1e-15)
    assert rmse([1.0, 3.0], [2.0, 5.0]) == pytest.approx(
        1.5811388300841898, rel=1e-15
    )
    with pytest.raises(ContractError):
        rmse([], [])
    with pytest.raises(ContractError):
        rmse([1.0], [1.0, 2.0])


def test_mnlp_values():
    inv_two_pi = 1.0 / (2.0 * np.pi)
    assert mnlp([0.3], [inv_two_pi], [0.3]) == pytest.approx(0.0, abs=1e-15)
    assert mnlp([0.3], [1.0], [0.3]) == pytest.approx(
        0.9189385332046727, rel=1e-15
    )
    # hand-computed: pairs (y, mean, var) = (1, 0.5, 0.8) and (-2, -1, 1.5)
    assert mnlp([0.5, -1.0], [0.8, 1.5], [1.0, -2.0]) == pytest.approx(
        1.209310589069828, rel=1e-12
    )
    with pytest.raises(ContractError):
        mnlp([0.0], [0.0], [0.0])
    with pytest.raises(ContractError):
        mnlp([0.0], [-1.0], [0.0])
    with pytest.raises(ContractError):
        mnlp([], [], [])


def test_mnlp_variance_floor():
    targets = np.array([0.0, 2.0, 4.0])
    floored = mnlp_variance_floor(np.array([0.0, 0.5, -1.0]), targets)
    expected_floor = 1e-12 * np.var(targets)
    assert floored[0] == expected_floor
    assert floored[2] == expected_floor
    assert floored[1] == 0.5
    assert np.isfinite(mnlp([0.0, 0.0, 0.0], floored, targets))
    # degenerate targets still give a positive floor
    assert mnlp_variance_floor(np.zeros(2), np.ones(2))[0] > 0
