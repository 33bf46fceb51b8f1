import numpy as np
import pytest
from scipy import stats

from specgp import (
    AlphaVector,
    ContractError,
    NumericalError,
    PriorSpec,
    SpectralConfig,
    VariationalState,
    initial_state,
    kl_term_gradient,
    log_prior,
    log_q,
    transform,
)


def make_cfg(d=2, m=2, ss2=1.4, sn2=0.2):
    return SpectralConfig(d=d, m=m, signal_variance=ss2, noise_variance=sn2)


def random_state(rng, dim, scale=0.3):
    M = scale * np.eye(dim) + 0.1 * rng.normal(size=(dim, dim))
    return VariationalState(M, rng.normal(size=dim))


def random_prior(rng, cfg):
    return PriorSpec(theta_prior_variance=rng.uniform(0.2, 2.0, size=cfg.theta_dim))


def test_prior_spec_validation_and_layout():
    cfg = make_cfg(d=2, m=3)
    with pytest.raises(ContractError):
        PriorSpec(theta_prior_variance=np.zeros(cfg.theta_dim))
    prior = PriorSpec(theta_prior_variance=np.ones(cfg.theta_dim))
    var = prior.variances(cfg)
    assert var.shape == (cfg.alpha_dim,)
    np.testing.assert_array_equal(var[: cfg.theta_dim], 1.0)
    np.testing.assert_array_equal(var[cfg.theta_dim :], cfg.lambda_diag)


def test_prior_from_lengthscales():
    cfg = make_cfg(d=2, m=3)
    prior = PriorSpec.from_lengthscales([0.5, 2.0], cfg)
    per_dim = 1.0 / (4 * np.pi**2 * np.array([0.5, 2.0]) ** 2)
    np.testing.assert_allclose(
        prior.theta_prior_variance, np.tile(per_dim, cfg.m), rtol=1e-12
    )


def test_prior_for_inputs_uses_column_stds():
    cfg = make_cfg(d=2, m=2)
    rng = np.random.default_rng(0)
    X = np.column_stack([3.0 * rng.normal(size=200), np.full(200, 7.0)])
    prior = PriorSpec.for_inputs(X, cfg)
    expected_first = 1.0 / (4 * np.pi**2 * X[:, 0].std() ** 2)
    expected_const = 1.0 / (4 * np.pi**2)  # constant column falls back to 1.0
    np.testing.assert_allclose(prior.theta_prior_variance[0], expected_first, rtol=1e-12)
    np.testing.assert_allclose(prior.theta_prior_variance[1], expected_const, rtol=1e-12)


def test_sample_theta_statistics():
    cfg = make_cfg(d=1, m=2)
    prior = PriorSpec(theta_prior_variance=np.array([0.5, 2.0]))
    rng = np.random.default_rng(1)
    draws = np.array([prior.sample_theta(rng) for _ in range(4000)])
    np.testing.assert_allclose(draws.var(axis=0), [0.5, 2.0], rtol=0.15)
    np.testing.assert_allclose(draws.mean(axis=0), [0.0, 0.0], atol=0.1)


def test_state_rejects_singular_and_ill_conditioned_m():
    with pytest.raises(NumericalError):
        VariationalState(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2))
    with pytest.raises(NumericalError):
        VariationalState(np.diag([1.0, 1e-16]), np.zeros(2))
    with pytest.raises(ContractError):
        VariationalState(np.ones((2, 3)), np.zeros(2))


def test_transform_identity_and_offset():
    cfg = make_cfg(d=1, m=1)
    D = cfg.alpha_dim
    state = VariationalState(np.eye(D), np.zeros(D))
    z = np.arange(1.0, D + 1)
    alpha = transform(state, z, cfg)
    np.testing.assert_array_equal(alpha.flat, z)
    np.testing.assert_array_equal(alpha.theta, z[: cfg.theta_dim])
    np.testing.assert_array_equal(alpha.s, z[cfg.theta_dim :])
    b = np.full(D, 2.5)
    state2 = VariationalState(np.eye(D), b)
    np.testing.assert_array_equal(transform(state2, np.zeros(D), cfg).flat, b)


def test_transform_matvec_oracle():
    cfg = make_cfg(d=2, m=2)
    rng = np.random.default_rng(2)
    D = cfg.alpha_dim
    state = random_state(rng, D)
    z = rng.normal(size=D)
    alpha = transform(state, z, cfg)
    manual = np.array([state.M[i] @ z + state.b[i] for i in range(D)])
    np.testing.assert_allclose(alpha.flat, manual, atol=1e-12)
    with pytest.raises(ContractError):
        transform(state, z[:-1], cfg)


def test_log_q_standard_normal_origin():
    D = 6
    state = VariationalState(np.eye(D), np.zeros(D))
    assert log_q(state, np.zeros(D)) == pytest.approx(-0.5 * D * np.log(2 * np.pi))
    # doubling M subtracts D log 2
    state2 = VariationalState(2 * np.eye(D), np.zeros(D))
    assert log_q(state2, np.zeros(D)) == pytest.approx(
        -0.5 * D * np.log(2 * np.pi) - D * np.log(2.0)
    )


def test_log_q_change_of_variables_oracle():
    # exp(log_q) must equal the density of alpha = Mz + b, alpha ~ N(b, MM')
    rng = np.random.default_rng(3)
    for _ in range(10):
        D = int(rng.integers(2, 7))
        state = random_state(rng, D)
        z = rng.normal(size=D)
        alpha = state.M @ z + state.b
        dense = stats.multivariate_normal(mean=state.b, cov=state.M @ state.M.T)
        assert log_q(state, z) == pytest.approx(dense.logpdf(alpha), rel=1e-8)


def test_log_abs_det_pivot_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        D = int(rng.integers(2, 8))
        M = rng.normal(size=(D, D))
        state = VariationalState(M, np.zeros(D))
        sign, logdet = np.linalg.slogdet(M)
        assert state.log_abs_det == pytest.approx(logdet, rel=1e-9)


def test_log_abs_det_invariant_under_row_permutation():
    rng = np.random.default_rng(5)
    M = np.eye(4) + 0.2 * rng.normal(size=(4, 4))
    perm = [2, 0, 3, 1]
    s1 = VariationalState(M, np.zeros(4))
    s2 = VariationalState(M[perm], np.zeros(4))
    assert s1.log_abs_det == pytest.approx(s2.log_abs_det, rel=1e-12)


def test_log_prior_zero_alpha():
    cfg = make_cfg(d=1, m=2)
    rng = np.random.default_rng(6)
    prior = random_prior(rng, cfg)
    alpha = AlphaVector.from_flat(np.zeros(cfg.alpha_dim), cfg)
    var = prior.variances(cfg)
    assert log_prior(alpha, prior, cfg) == pytest.approx(
        -0.5 * np.sum(np.log(2 * np.pi * var)), rel=1e-12
    )


def test_log_prior_single_coordinate_perturbation():
    cfg = make_cfg(d=1, m=2)
    rng = np.random.default_rng(7)
    prior = random_prior(rng, cfg)
    base = log_prior(AlphaVector.from_flat(np.zeros(cfg.alpha_dim), cfg), prior, cfg)
    var = prior.variances(cfg)
    for i in range(cfg.alpha_dim):
        delta = 0.37
        flat = np.zeros(cfg.alpha_dim)
        flat[i] = delta
        bumped = log_prior(AlphaVector.from_flat(flat, cfg), prior, cfg)
        assert bumped - base == pytest.approx(-0.5 * delta**2 / var[i], rel=1e-10)


def test_log_prior_dense_gaussian_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        cfg = make_cfg(d=int(rng.integers(1, 3)), m=int(rng.integers(1, 3)))
        prior = random_prior(rng, cfg)
        alpha = AlphaVector.from_flat(rng.normal(size=cfg.alpha_dim), cfg)
        dense = stats.multivariate_normal(
            mean=np.zeros(cfg.alpha_dim), cov=np.diag(prior.variances(cfg))
        )
        assert log_prior(alpha, prior, cfg) == pytest.approx(
            dense.logpdf(alpha.flat), rel=1e-10
        )


def test_kl_gradient_trivial_cases():
    cfg = make_cfg(d=1, m=1)
    D = cfg.alpha_dim
    rng = np.random.default_rng(9)
    prior = random_prior(rng, cfg)
    # z = 0, b = 0: only the entropy term survives
    state = random_state(rng, D)
    state = VariationalState(state.M, np.zeros(D))
    gm, gb = kl_term_gradient(state, np.zeros(D), prior, cfg)
    np.testing.assert_allclose(gm, -np.linalg.inv(state.M).T, rtol=1e-9, atol=1e-12)
    np.testing.assert_array_equal(gb, np.zeros(D))
    # M = I, b = 0: closed form with the prior precision
    state_i = VariationalState(np.eye(D), np.zeros(D))
    z = rng.normal(size=D)
    gm_i, gb_i = kl_term_gradient(state_i, z, prior, cfg)
    g_p = z / prior.variances(cfg)
    np.testing.assert_allclose(gm_i, -np.eye(D) + np.outer(g_p, z), atol=1e-12)
    np.testing.assert_allclose(gb_i, g_p, atol=1e-12)


def test_kl_gradient_finite_differences():
    # all D^2 + D coordinates of d/d(M,b) of log q - log p at fixed z
    rng = np.random.default_rng(10)
    step = 1e-6
    for _ in range(5):
        cfg = make_cfg(d=int(rng.integers(1, 3)), m=1)
        D = cfg.alpha_dim
        prior = random_prior(rng, cfg)
        state = random_state(rng, D)
        z = rng.normal(size=D)
        gm, gb = kl_term_gradient(state, z, prior, cfg)

        def objective(M, b):
            st = VariationalState(M, b)
            alpha = transform(st, z, cfg)
            return log_q(st, z) - log_prior(alpha, prior, cfg)

        fd_m = np.empty_like(gm)
        for i in range(D):
            for j in range(D):
                up, dn = state.M.copy(), state.M.copy()
                up[i, j] += step
                dn[i, j] -= step
                fd_m[i, j] = (objective(up, state.b) - objective(dn, state.b)) / (2 * step)
        fd_b = np.empty(D)
        for i in range(D):
            up, dn = state.b.copy(), state.b.copy()
            up[i] += step
            dn[i] -= step
            fd_b[i] = (objective(state.M, up) - objective(state.M, dn)) / (2 * step)
        scale = max(1.0, np.abs(fd_m).max(), np.abs(fd_b).max())
        assert np.abs(gm - fd_m).max() / scale <= 1e-5
        assert np.abs(gb - fd_b).max() / scale <= 1e-5


def test_initial_state_shape_and_determinism():
    cfg = make_cfg(d=2, m=3)
    rng = np.random.default_rng(11)
    prior = random_prior(rng, cfg)
    s1 = initial_state(prior, cfg, seed=42)
    s2 = initial_state(prior, cfg, seed=42)
    np.testing.assert_array_equal(s1.M, s2.M)
    np.testing.assert_array_equal(s1.b, s2.b)
    np.testing.assert_array_equal(s1.M, 0.1 * np.eye(cfg.alpha_dim))
    # amplitude part of the offset starts at zero, frequency part is a draw
    np.testing.assert_array_equal(s1.b[cfg.theta_dim :], 0.0)
    assert np.any(s1.b[: cfg.theta_dim] != 0.0)
    s3 = initial_state(prior, cfg, seed=43)
    assert np.any(s3.b != s1.b)
