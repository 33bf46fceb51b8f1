import numpy as np
import pytest

from specgp import (
    AlphaVector,
    ContractError,
    NumericalError,
    SpectralConfig,
    approx_kernel,
    basis_vector,
    build_local_gram,
    feature_matrix,
)
from specgp import test_conditional as conditional
from specgp.localmodel import _jittered_cholesky, _stacked_cholesky, conditional_moments


def make_cfg(d=2, m=3, ss2=1.2, sn2=0.3):
    return SpectralConfig(d=d, m=m, signal_variance=ss2, noise_variance=sn2)


def random_block(rng, cfg, n_k):
    X = rng.normal(size=(n_k, cfg.d))
    y = rng.normal(size=n_k)
    theta = rng.normal(size=cfg.theta_dim)
    return X, y, theta


def test_alpha_vector_round_trip():
    cfg = make_cfg(d=2, m=2)
    rng = np.random.default_rng(0)
    flat = rng.normal(size=cfg.alpha_dim)
    alpha = AlphaVector.from_flat(flat, cfg)
    assert alpha.theta.shape == (cfg.theta_dim,)
    assert alpha.s.shape == (cfg.num_features,)
    np.testing.assert_array_equal(alpha.flat, flat)
    with pytest.raises(ContractError):
        AlphaVector.from_flat(flat[:-1], cfg)


def test_empty_block_gram_is_scaled_identity():
    cfg = make_cfg(d=2, m=3, ss2=1.5, sn2=0.25)
    local = build_local_gram(np.zeros((0, 2)), np.zeros(0), np.zeros(cfg.theta_dim), cfg)
    ridge = cfg.noise_variance * cfg.m / cfg.signal_variance
    np.testing.assert_allclose(local.gamma, ridge * np.eye(cfg.num_features), atol=1e-15)
    np.testing.assert_array_equal(local.phi_y, np.zeros(cfg.num_features))
    np.testing.assert_allclose(
        local.chol, np.sqrt(ridge) * np.eye(cfg.num_features), atol=1e-12
    )


def test_gram_dense_product_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        cfg = make_cfg(m=int(rng.integers(1, 5)))
        X, y, theta = random_block(rng, cfg, int(rng.integers(1, 25)))
        local = build_local_gram(X, y, theta, cfg, block_id=3)
        Phi = feature_matrix(X, theta, cfg)
        ridge = cfg.noise_variance * cfg.m / cfg.signal_variance
        expected = Phi @ Phi.T + ridge * np.eye(cfg.num_features)
        rel = np.linalg.norm(local.gamma - expected) / np.linalg.norm(expected)
        assert rel <= 1e-12
        np.testing.assert_allclose(local.phi_y, Phi @ y, rtol=1e-12, atol=1e-12)
        assert local.block_id == 3
        assert local.n_points == X.shape[0]


def test_gram_symmetry_and_cholesky_reconstruction():
    rng = np.random.default_rng(2)
    for _ in range(20):
        cfg = make_cfg(m=int(rng.integers(1, 5)))
        X, y, theta = random_block(rng, cfg, 15)
        local = build_local_gram(X, y, theta, cfg)
        np.testing.assert_allclose(local.gamma, local.gamma.T, atol=1e-12)
        recon = local.chol @ local.chol.T
        rel = np.linalg.norm(recon - local.gamma) / np.linalg.norm(local.gamma)
        assert rel <= 1e-8
        assert np.linalg.eigvalsh(local.gamma).min() > 0


def test_gram_solve_matches_dense_solve():
    rng = np.random.default_rng(3)
    cfg = make_cfg(m=4)
    X, y, theta = random_block(rng, cfg, 20)
    local = build_local_gram(X, y, theta, cfg)
    rhs = rng.normal(size=cfg.num_features)
    np.testing.assert_allclose(
        local.solve(rhs), np.linalg.solve(local.gamma, rhs), rtol=1e-9, atol=1e-12
    )
    quad = local.quad_form(rhs)
    assert quad == pytest.approx(rhs @ np.linalg.solve(local.gamma, rhs), rel=1e-9)
    assert quad >= 0.0


def test_matrix_inversion_lemma_identity():
    # sigma_n^-2 (I - Phi' Gamma^-1 Phi) equals (Phi' Lambda Phi + sigma_n^2 I)^-1
    rng = np.random.default_rng(4)
    for _ in range(10):
        cfg = make_cfg(m=int(rng.integers(1, 5)), sn2=float(rng.uniform(0.05, 0.5)))
        n_k = int(rng.integers(1, 31))
        X, y, theta = random_block(rng, cfg, n_k)
        local = build_local_gram(X, y, theta, cfg)
        Phi = feature_matrix(X, theta, cfg)
        left = (np.eye(n_k) - Phi.T @ local.solve(Phi)) / cfg.noise_variance
        right = np.linalg.inv(
            Phi.T @ (cfg.lambda_diag * Phi) + cfg.noise_variance * np.eye(n_k)
        )
        rel = np.linalg.norm(left - right) / np.linalg.norm(right)
        assert rel <= 1e-8


def test_conditional_rejects_bad_gamma():
    cfg = make_cfg()
    rng = np.random.default_rng(5)
    X, y, theta = random_block(rng, cfg, 8)
    local = build_local_gram(X, y, theta, cfg)
    alpha = AlphaVector.from_flat(rng.normal(size=cfg.alpha_dim), cfg)
    for bad in (1.0001, -1.5, np.inf, np.nan):
        with pytest.raises(ContractError):
            conditional(X[0], local, alpha, bad, cfg)


def test_conditional_gamma_one_degenerate():
    cfg = make_cfg()
    rng = np.random.default_rng(6)
    X, y, theta = random_block(rng, cfg, 10)
    local = build_local_gram(X, y, theta, cfg)
    alpha = AlphaVector(theta=theta, s=rng.normal(size=cfg.num_features))
    x_star = rng.normal(size=cfg.d)
    mom = conditional(x_star, local, alpha, 1.0, cfg)
    phi = basis_vector(x_star, theta, cfg)
    assert mom.mean == pytest.approx(float(phi @ alpha.s), rel=1e-12)
    assert mom.variance == 0.0
    # gamma=-1 also kills the variance but flips the mixing sign
    mom_neg = conditional(x_star, local, alpha, -1.0, cfg)
    assert mom_neg.variance == 0.0


def test_conditional_gamma_zero_ignores_s():
    cfg = make_cfg()
    rng = np.random.default_rng(7)
    X, y, theta = random_block(rng, cfg, 10)
    local = build_local_gram(X, y, theta, cfg)
    x_star = rng.normal(size=cfg.d)
    a1 = AlphaVector(theta=theta, s=rng.normal(size=cfg.num_features))
    a2 = AlphaVector(theta=theta, s=rng.normal(size=cfg.num_features))
    m1 = conditional(x_star, local, a1, 0.0, cfg)
    m2 = conditional(x_star, local, a2, 0.0, cfg)
    assert m1.mean == m2.mean
    assert m1.variance == m2.variance


def test_conditional_moment_formulas():
    # direct dense evaluation of both moments
    rng = np.random.default_rng(8)
    for _ in range(10):
        cfg = make_cfg(m=int(rng.integers(1, 4)))
        X, y, theta = random_block(rng, cfg, 12)
        local = build_local_gram(X, y, theta, cfg)
        alpha = AlphaVector(theta=theta, s=rng.normal(size=cfg.num_features))
        x_star = rng.normal(size=cfg.d)
        gm = float(rng.uniform(-1, 1))
        mom = conditional(x_star, local, alpha, gm, cfg)
        phi = basis_vector(x_star, theta, cfg)
        Phi = feature_matrix(X, theta, cfg)
        ginv = np.linalg.inv(local.gamma)
        mean = gm * phi @ alpha.s + (1 - gm) * phi @ ginv @ Phi @ y
        var = (1 - gm * gm) * cfg.noise_variance * phi @ ginv @ phi
        assert mom.mean == pytest.approx(mean, rel=1e-9, abs=1e-12)
        assert mom.variance == pytest.approx(var, rel=1e-9, abs=1e-12)


def test_conditional_variance_nonnegative_gamma_sweep():
    rng = np.random.default_rng(9)
    for gm in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for _ in range(10):
            cfg = make_cfg(m=int(rng.integers(1, 5)))
            X, y, theta = random_block(rng, cfg, int(rng.integers(0, 21)))
            local = build_local_gram(X, y, theta, cfg)
            alpha = AlphaVector(theta=theta, s=rng.normal(size=cfg.num_features))
            mom = conditional(rng.normal(size=cfg.d), local, alpha, gm, cfg)
            assert mom.variance >= 0.0


def test_marginalization_identities():
    # averaging the mean over s ~ N(mu_bar, sigma_n^2 Gamma^-1) gives the
    # gamma-free mean, and the variance identity removes gamma entirely
    rng = np.random.default_rng(10)
    for _ in range(20):
        cfg = make_cfg(m=int(rng.integers(1, 4)))
        X, y, theta = random_block(rng, cfg, int(rng.integers(1, 15)))
        local = build_local_gram(X, y, theta, cfg)
        x_star = rng.normal(size=cfg.d)
        phi = basis_vector(x_star, theta, cfg)
        mu_bar = local.solve(local.phi_y)
        base = float(phi @ mu_bar)
        quad = cfg.noise_variance * local.quad_form(phi)
        for gm in (-1.0, -0.5, 0.0, 0.5, 1.0):
            mom = conditional(x_star, local, AlphaVector(theta=theta, s=mu_bar), gm, cfg)
            # mean at s = E[s] equals the closed-form expectation of the mean
            assert mom.mean == pytest.approx(base, rel=1e-8, abs=1e-12)
            # var(gamma) + gamma^2 phi' Sigma_bar phi is gamma-independent
            recovered = mom.variance + gm * gm * quad
            assert recovered == pytest.approx(quad, rel=1e-8, abs=1e-12)


def test_gamma_zero_equals_dense_gp_restricted_to_block():
    # mean and latent variance of the usual GP predictive computed with the
    # trigonometric kernel on the block alone
    rng = np.random.default_rng(11)
    for _ in range(8):
        cfg = make_cfg(m=int(rng.integers(1, 4)), sn2=float(rng.uniform(0.05, 0.4)))
        n_k = int(rng.integers(1, 31))
        X, y, theta = random_block(rng, cfg, n_k)
        local = build_local_gram(X, y, theta, cfg)
        x_star = rng.normal(size=cfg.d)
        alpha = AlphaVector(theta=theta, s=np.zeros(cfg.num_features))
        mom = conditional(x_star, local, alpha, 0.0, cfg)
        K = np.empty((n_k, n_k))
        for i in range(n_k):
            for j in range(n_k):
                K[i, j] = approx_kernel(X[i], X[j], theta, cfg)
        k_star = np.array([approx_kernel(x_star, X[j], theta, cfg) for j in range(n_k)])
        solve = np.linalg.solve(K + cfg.noise_variance * np.eye(n_k), np.eye(n_k))
        mean = k_star @ solve @ y
        var = approx_kernel(x_star, x_star, theta, cfg) - k_star @ solve @ k_star
        assert mom.mean == pytest.approx(mean, rel=1e-8, abs=1e-10)
        assert mom.variance == pytest.approx(var, rel=1e-8, abs=1e-10)


def test_conditional_mean_linear_in_targets():
    cfg = make_cfg()
    rng = np.random.default_rng(12)
    X, y, theta = random_block(rng, cfg, 9)
    alpha = AlphaVector(theta=theta, s=np.zeros(cfg.num_features))
    x_star = rng.normal(size=cfg.d)
    m1 = conditional(x_star, build_local_gram(X, y, theta, cfg), alpha, 0.0, cfg)
    m2 = conditional(x_star, build_local_gram(X, 2 * y, theta, cfg), alpha, 0.0, cfg)
    assert m2.mean == pytest.approx(2 * m1.mean, rel=1e-12)


def test_jitter_recovers_singular_psd_matrix():
    # rank-one PSD matrix: plain factorization fails, jitter succeeds
    gamma = np.ones((3, 3))
    chol, jittered = _jittered_cholesky(gamma, block_id=0)
    # jitter lands on the diagonal only
    assert np.all(np.diag(jittered) > np.diag(gamma))
    off_diag = ~np.eye(3, dtype=bool)
    np.testing.assert_array_equal(jittered[off_diag], gamma[off_diag])
    recon = chol @ chol.T
    np.testing.assert_allclose(recon, jittered, rtol=0, atol=1e-12)
    assert np.linalg.norm(recon - gamma) / np.linalg.norm(gamma) <= 1e-4


def test_jitter_escalation_gives_up_on_indefinite_matrix():
    gamma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(NumericalError) as err:
        _jittered_cholesky(gamma, block_id=7)
    assert err.value.block_id == 7


def test_stacked_gram_and_conditional_match_per_theta_views():
    rng = np.random.default_rng(13)
    cfg = make_cfg(m=3)
    X, y, _ = random_block(rng, cfg, 11)
    thetas = rng.normal(size=(4, cfg.theta_dim))
    s = rng.normal(size=(4, cfg.num_features))
    X_star = rng.normal(size=(5, cfg.d))
    stacked = build_local_gram(X, y, thetas, cfg, block_id=2)
    assert stacked.chol.shape == (4, cfg.num_features, cfg.num_features)
    means, variances = conditional_moments(
        stacked, feature_matrix(X_star, thetas, cfg), s, 0.4, cfg.noise_variance
    )
    assert means.shape == variances.shape == (4, 5)
    for i, theta in enumerate(thetas):
        single = build_local_gram(X, y, theta, cfg, block_id=2)
        np.testing.assert_allclose(stacked.gamma[i], single.gamma, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked.chol[i], single.chol, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked.phi_y[i], single.phi_y, rtol=0, atol=1e-12)
        alpha = AlphaVector(theta=theta, s=s[i])
        for j, x_star in enumerate(X_star):
            mom = conditional(x_star, single, alpha, 0.4, cfg)
            assert means[i, j] == pytest.approx(mom.mean, rel=0, abs=1e-12)
            assert variances[i, j] == pytest.approx(mom.variance, rel=0, abs=1e-12)


def test_stacked_cholesky_jitters_only_the_failing_draw():
    # the middle member is the rank-one case above; its neighbours are SPD
    rng = np.random.default_rng(14)
    k = 3
    A = rng.normal(size=(2, k, k))
    spd = A @ np.swapaxes(A, -1, -2) + k * np.eye(k)
    stack = np.stack([spd[0], np.ones((k, k)), spd[1]])
    chol, jittered = _stacked_cholesky(stack, block_id=4)
    for i in (0, 2):
        np.testing.assert_array_equal(jittered[i], stack[i])
        np.testing.assert_array_equal(chol[i], np.linalg.cholesky(stack[i]))
    assert np.all(np.diag(jittered[1]) > 1.0)
    off_diag = ~np.eye(k, dtype=bool)
    np.testing.assert_array_equal(jittered[1][off_diag], stack[1][off_diag])
    np.testing.assert_allclose(chol[1] @ chol[1].T, jittered[1], rtol=0, atol=1e-12)
    # a lone matrix takes the same fallback
    for got, want in zip(_stacked_cholesky(stack[1], 4), _jittered_cholesky(stack[1], 4)):
        np.testing.assert_array_equal(got, want)
    # an indefinite member cannot be rescued by jitter
    stack[1] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(NumericalError) as err:
        _stacked_cholesky(stack, block_id=4)
    assert err.value.block_id == 4
