from collections import namedtuple

import numpy as np
import pytest

from specgp import (
    NumericalError,
    SpectralConfig,
    approx_kernel,
    basis_vector,
    build_local_gram,
    feature_matrix,
)
from specgp.localmodel import _cholesky, conditional_moments


def make_cfg(d=2, m=3, ss2=1.2, sn2=0.3):
    return SpectralConfig(d=d, m=m, signal_variance=ss2, noise_variance=sn2)


Moments = namedtuple("Moments", "mean variance")


def conditional(x_star, local, theta, s, gamma_mix, cfg):
    """Mean and variance for one draw at one point: the batched conditional
    on a single ``basis_vector`` column ``(2m, 1)``; ``local`` is a
    ``(chol, phi_y)`` pair."""
    phi = basis_vector(x_star, theta, cfg)[:, None]
    mean, variance = conditional_moments(*local, phi, s, gamma_mix, cfg.noise_variance)
    return Moments(float(mean[0]), float(variance[0]))


def gram_solve(chol, rhs):
    """``Gamma^{-1} rhs`` through the block's Cholesky factor."""
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def dense_gram(Phi, cfg):
    """``Phi Phi^T + noise_variance * Lambda^{-1}`` formed directly."""
    ridge = cfg.noise_variance * cfg.m / cfg.signal_variance
    return Phi @ Phi.T + ridge * np.eye(cfg.num_features)


def with_low_eigenvalue(low):
    """A symmetric 3x3 matrix with eigenvalues 2, 1 and ``low``."""
    Q, _ = np.linalg.qr(np.random.default_rng(15).normal(size=(3, 3)))
    gamma = Q @ np.diag([2.0, 1.0, low]) @ Q.T
    return 0.5 * (gamma + gamma.T)


def random_block(rng, cfg, n_k):
    X = rng.normal(size=(n_k, cfg.d))
    y = rng.normal(size=n_k)
    theta = rng.normal(size=cfg.theta_dim)
    return X, y, theta


def test_empty_block_gram_is_scaled_identity():
    cfg = make_cfg(d=2, m=3, ss2=1.5, sn2=0.25)
    chol, phi_y = build_local_gram(np.zeros((0, 2)), np.zeros(0), np.zeros(cfg.theta_dim), cfg)
    ridge = cfg.noise_variance * cfg.m / cfg.signal_variance
    np.testing.assert_allclose(chol @ chol.T, ridge * np.eye(cfg.num_features), atol=1e-15)
    np.testing.assert_array_equal(phi_y, np.zeros(cfg.num_features))
    np.testing.assert_allclose(chol, np.sqrt(ridge) * np.eye(cfg.num_features), atol=1e-12)


def test_gram_dense_product_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        cfg = make_cfg(m=int(rng.integers(1, 5)))
        X, y, theta = random_block(rng, cfg, int(rng.integers(1, 25)))
        chol, phi_y = build_local_gram(X, y, theta, cfg, block_id=3)
        Phi = feature_matrix(X, theta, cfg)
        expected = dense_gram(Phi, cfg)
        rel = np.linalg.norm(chol @ chol.T - expected) / np.linalg.norm(expected)
        assert rel <= 1e-12
        np.testing.assert_allclose(phi_y, Phi @ y, rtol=1e-12, atol=1e-12)


def test_gram_symmetry_and_cholesky_reconstruction():
    rng = np.random.default_rng(2)
    for _ in range(20):
        cfg = make_cfg(m=int(rng.integers(1, 5)))
        X, y, theta = random_block(rng, cfg, 15)
        chol, _ = build_local_gram(X, y, theta, cfg)
        # a lower-triangular factor with a positive diagonal: L L^T is
        # symmetric positive definite
        np.testing.assert_array_equal(np.triu(chol, 1), 0.0)
        assert np.all(np.diag(chol) > 0)
        gamma = dense_gram(feature_matrix(X, theta, cfg), cfg)
        rel = np.linalg.norm(chol @ chol.T - gamma) / np.linalg.norm(gamma)
        assert rel <= 1e-8
        assert np.linalg.eigvalsh(gamma).min() > 0


def test_matrix_inversion_lemma_identity():
    # sigma_n^-2 (I - Phi' Gamma^-1 Phi) equals (Phi' Lambda Phi + sigma_n^2 I)^-1
    rng = np.random.default_rng(4)
    for _ in range(10):
        cfg = make_cfg(m=int(rng.integers(1, 5)), sn2=float(rng.uniform(0.05, 0.5)))
        n_k = int(rng.integers(1, 31))
        X, y, theta = random_block(rng, cfg, n_k)
        chol, _ = build_local_gram(X, y, theta, cfg)
        Phi = feature_matrix(X, theta, cfg)
        left = (np.eye(n_k) - Phi.T @ gram_solve(chol, Phi)) / cfg.noise_variance
        right = np.linalg.inv(
            Phi.T @ (cfg.lambda_diag * Phi) + cfg.noise_variance * np.eye(n_k)
        )
        rel = np.linalg.norm(left - right) / np.linalg.norm(right)
        assert rel <= 1e-8


def test_conditional_gamma_one_degenerate():
    cfg = make_cfg()
    rng = np.random.default_rng(6)
    X, y, theta = random_block(rng, cfg, 10)
    local = build_local_gram(X, y, theta, cfg)
    s = rng.normal(size=cfg.num_features)
    x_star = rng.normal(size=cfg.d)
    mom = conditional(x_star, local, theta, s, 1.0, cfg)
    phi = basis_vector(x_star, theta, cfg)
    assert mom.mean == pytest.approx(float(phi @ s), rel=1e-12)
    assert mom.variance == 0.0
    # gamma=-1 also kills the variance but flips the mixing sign
    mom_neg = conditional(x_star, local, theta, s, -1.0, cfg)
    assert mom_neg.variance == 0.0


def test_conditional_gamma_zero_ignores_s():
    cfg = make_cfg()
    rng = np.random.default_rng(7)
    X, y, theta = random_block(rng, cfg, 10)
    local = build_local_gram(X, y, theta, cfg)
    x_star = rng.normal(size=cfg.d)
    s1 = rng.normal(size=cfg.num_features)
    s2 = rng.normal(size=cfg.num_features)
    m1 = conditional(x_star, local, theta, s1, 0.0, cfg)
    m2 = conditional(x_star, local, theta, s2, 0.0, cfg)
    assert m1.mean == m2.mean
    assert m1.variance == m2.variance


def test_conditional_moment_formulas():
    # direct dense evaluation of both moments
    rng = np.random.default_rng(8)
    for _ in range(10):
        cfg = make_cfg(m=int(rng.integers(1, 4)))
        X, y, theta = random_block(rng, cfg, 12)
        local = build_local_gram(X, y, theta, cfg)
        s = rng.normal(size=cfg.num_features)
        x_star = rng.normal(size=cfg.d)
        gm = float(rng.uniform(-1, 1))
        mom = conditional(x_star, local, theta, s, gm, cfg)
        phi = basis_vector(x_star, theta, cfg)
        Phi = feature_matrix(X, theta, cfg)
        ginv = np.linalg.inv(dense_gram(Phi, cfg))
        mean = gm * phi @ s + (1 - gm) * phi @ ginv @ Phi @ y
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
            s = rng.normal(size=cfg.num_features)
            mom = conditional(rng.normal(size=cfg.d), local, theta, s, gm, cfg)
            assert mom.variance >= 0.0


def test_marginalization_identities():
    # averaging the mean over s ~ N(mu_bar, sigma_n^2 Gamma^-1) gives the
    # gamma-free mean, and the variance identity removes gamma entirely
    rng = np.random.default_rng(10)
    for _ in range(20):
        cfg = make_cfg(m=int(rng.integers(1, 4)))
        X, y, theta = random_block(rng, cfg, int(rng.integers(1, 15)))
        local = build_local_gram(X, y, theta, cfg)
        chol, phi_y = local
        x_star = rng.normal(size=cfg.d)
        phi = basis_vector(x_star, theta, cfg)
        mu_bar = gram_solve(chol, phi_y)
        base = float(phi @ mu_bar)
        quad = cfg.noise_variance * float(phi @ gram_solve(chol, phi))
        for gm in (-1.0, -0.5, 0.0, 0.5, 1.0):
            mom = conditional(x_star, local, theta, mu_bar, gm, cfg)
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
        mom = conditional(x_star, local, theta, np.zeros(cfg.num_features), 0.0, cfg)
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
    s = np.zeros(cfg.num_features)
    x_star = rng.normal(size=cfg.d)
    m1 = conditional(x_star, build_local_gram(X, y, theta, cfg), theta, s, 0.0, cfg)
    m2 = conditional(x_star, build_local_gram(X, 2 * y, theta, cfg), theta, s, 0.0, cfg)
    assert m2.mean == pytest.approx(2 * m1.mean, rel=1e-12)


def test_jitter_recovers_singular_psd_matrix():
    # rank-one PSD matrix: plain factorization fails, the first jitter step
    # (1e-10 * trace/3 on the diagonal) succeeds
    gamma = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gamma)
    chol = _cholesky(gamma, block_id=0)
    np.testing.assert_array_equal(chol, np.linalg.cholesky(gamma + 1e-10 * np.eye(3)))
    recon = chol @ chol.T
    off_diag = ~np.eye(3, dtype=bool)
    np.testing.assert_allclose(recon[off_diag], gamma[off_diag], rtol=0, atol=1e-12)
    assert np.linalg.norm(recon - gamma) / np.linalg.norm(gamma) <= 1e-4
    # an eigenvalue of about -5e-8 * trace/3 fails the steps up to 1e-8 and
    # is factored at 1e-7 * trace/3
    gamma = with_low_eigenvalue(-5e-8)
    base = np.trace(gamma) / 3
    expected = np.linalg.cholesky(gamma + (1e-7 * base) * np.eye(3))
    np.testing.assert_array_equal(_cholesky(gamma, block_id=0), expected)


def test_jitter_escalation_gives_up_on_indefinite_matrix():
    gamma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(NumericalError) as err:
        _cholesky(gamma, block_id=7)
    assert err.value.block_id == 7
    # the last step is 1e-4 * trace/3: it rescues an eigenvalue of -5e-5
    # but not one of -5e-4
    _cholesky(with_low_eigenvalue(-5e-5), block_id=7)
    with pytest.raises(NumericalError):
        _cholesky(with_low_eigenvalue(-5e-4), block_id=7)


def test_stacked_gram_and_conditional_match_per_theta_views():
    rng = np.random.default_rng(13)
    cfg = make_cfg(m=3)
    X, y, _ = random_block(rng, cfg, 11)
    thetas = rng.normal(size=(4, cfg.theta_dim))
    s = rng.normal(size=(4, cfg.num_features))
    X_star = rng.normal(size=(5, cfg.d))
    chols, phi_ys = build_local_gram(X, y, thetas, cfg, block_id=2)
    assert chols.shape == (4, cfg.num_features, cfg.num_features)
    assert phi_ys.shape == (4, cfg.num_features)
    means, variances = conditional_moments(
        chols, phi_ys, feature_matrix(X_star, thetas, cfg), s, 0.4, cfg.noise_variance
    )
    assert means.shape == variances.shape == (4, 5)
    for i, theta in enumerate(thetas):
        single = build_local_gram(X, y, theta, cfg, block_id=2)
        np.testing.assert_allclose(chols[i], single[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(phi_ys[i], single[1], rtol=0, atol=1e-12)
        for j, x_star in enumerate(X_star):
            mom = conditional(x_star, single, theta, s[i], 0.4, cfg)
            assert means[i, j] == pytest.approx(mom.mean, rel=0, abs=1e-12)
            assert variances[i, j] == pytest.approx(mom.variance, rel=0, abs=1e-12)


def test_stacked_cholesky_jitters_only_the_failing_draw():
    # the middle member is the rank-one case above; its neighbours are SPD
    rng = np.random.default_rng(14)
    k = 3
    A = rng.normal(size=(2, k, k))
    spd = A @ np.swapaxes(A, -1, -2) + k * np.eye(k)
    stack = np.stack([spd[0], np.ones((k, k)), spd[1]])
    before = stack.copy()
    chol = _cholesky(stack, block_id=4)
    np.testing.assert_array_equal(stack, before)
    for i in (0, 2):
        np.testing.assert_array_equal(chol[i], np.linalg.cholesky(stack[i]))
    # the failing member gets the factor it gets on its own
    np.testing.assert_array_equal(chol[1], _cholesky(stack[1], 4))
    np.testing.assert_array_equal(chol[1], np.linalg.cholesky(stack[1] + 1e-10 * np.eye(k)))
    # any number of leading axes takes the same path
    np.testing.assert_array_equal(_cholesky(stack[None], 4)[0], chol)
    # an indefinite member cannot be rescued by jitter
    stack[1] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(NumericalError) as err:
        _cholesky(stack, block_id=4)
    assert err.value.block_id == 4
