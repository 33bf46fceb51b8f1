from collections import namedtuple

import numpy as np
import pytest
import scipy.linalg

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


def moments_off(factor, phi_star, s, gamma_mix, cfg, identity=False):
    """``conditional_moments`` on ``w`` and ``h^T`` read off a factor of
    ``build_local_gram`` bordered by ``phi_star`` or, when ``identity``, by
    the identity."""
    k = cfg.num_features
    rows = factor[..., k:, :k]
    h_t = np.swapaxes(phi_star, -1, -2) @ rows[..., 1:, :] if identity else rows[..., 1:, :]
    return conditional_moments(rows[..., 0, :], h_t, phi_star, s, gamma_mix, cfg.noise_variance)


def conditional(x_star, block, theta, s, gamma_mix, cfg):
    """Mean and variance for one draw at one point: the batched conditional
    on a single ``basis_vector`` column ``(2m, 1)``; ``block`` is ``(X, y)``."""
    phi = basis_vector(x_star, theta, cfg)[:, None]
    factor = build_local_gram(*block, theta, phi, cfg)
    mean, variance = moments_off(factor, phi, s, gamma_mix, cfg)
    return Moments(float(mean[0]), float(variance[0]))


def gram_factor(X, y, theta, cfg):
    """``(L, w)`` with ``Gamma = L L^T`` and ``w = L^{-1} Phi y``, read off the
    factor bordered by no test point."""
    k = cfg.num_features
    factor = build_local_gram(X, y, theta, np.zeros((k, 0)), cfg)
    return factor[:k, :k], factor[k, :k]


def gram_solve(chol, rhs):
    """``Gamma^{-1} rhs`` through the block's Cholesky factor."""
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def dense_gram(Phi, cfg):
    """``Phi Phi^T + noise_variance * Lambda^{-1}`` formed directly."""
    ridge = cfg.noise_variance * cfg.m / cfg.signal_variance
    return Phi @ np.swapaxes(Phi, -1, -2) + ridge * np.eye(cfg.num_features)


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
    chol, w = gram_factor(np.zeros((0, 2)), np.zeros(0), np.zeros(cfg.theta_dim), cfg)
    ridge = cfg.noise_variance * cfg.m / cfg.signal_variance
    np.testing.assert_allclose(chol @ chol.T, ridge * np.eye(cfg.num_features), atol=1e-15)
    np.testing.assert_array_equal(w, np.zeros(cfg.num_features))
    np.testing.assert_allclose(chol, np.sqrt(ridge) * np.eye(cfg.num_features), atol=1e-12)


def test_gram_dense_product_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        cfg = make_cfg(m=int(rng.integers(1, 5)))
        X, y, theta = random_block(rng, cfg, int(rng.integers(1, 25)))
        chol, w = gram_factor(X, y, theta, cfg)
        Phi = feature_matrix(X, theta, cfg)
        expected = dense_gram(Phi, cfg)
        rel = np.linalg.norm(chol @ chol.T - expected) / np.linalg.norm(expected)
        assert rel <= 1e-12
        np.testing.assert_allclose(chol @ w, Phi @ y, rtol=1e-12, atol=1e-12)


def test_gram_symmetry_and_cholesky_reconstruction():
    rng = np.random.default_rng(2)
    for _ in range(20):
        cfg = make_cfg(m=int(rng.integers(1, 5)))
        X, y, theta = random_block(rng, cfg, 15)
        chol, _ = gram_factor(X, y, theta, cfg)
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
        chol, _ = gram_factor(X, y, theta, cfg)
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
    s = rng.normal(size=cfg.num_features)
    x_star = rng.normal(size=cfg.d)
    mom = conditional(x_star, (X, y), theta, s, 1.0, cfg)
    phi = basis_vector(x_star, theta, cfg)
    assert mom.mean == pytest.approx(float(phi @ s), rel=1e-12)
    assert mom.variance == 0.0
    # gamma=-1 also kills the variance but flips the mixing sign
    mom_neg = conditional(x_star, (X, y), theta, s, -1.0, cfg)
    assert mom_neg.variance == 0.0


def test_conditional_gamma_zero_ignores_s():
    cfg = make_cfg()
    rng = np.random.default_rng(7)
    X, y, theta = random_block(rng, cfg, 10)
    x_star = rng.normal(size=cfg.d)
    s1 = rng.normal(size=cfg.num_features)
    s2 = rng.normal(size=cfg.num_features)
    m1 = conditional(x_star, (X, y), theta, s1, 0.0, cfg)
    m2 = conditional(x_star, (X, y), theta, s2, 0.0, cfg)
    assert m1.mean == m2.mean
    assert m1.variance == m2.variance
    # the basis mean phi_*^T s is not formed at all, so 0 * nan cannot leak in
    m3 = conditional(x_star, (X, y), theta, np.full(cfg.num_features, np.nan), 0.0, cfg)
    assert m3 == m1


def test_conditional_moment_formulas():
    # direct dense evaluation of both moments
    rng = np.random.default_rng(8)
    for _ in range(10):
        cfg = make_cfg(m=int(rng.integers(1, 4)))
        X, y, theta = random_block(rng, cfg, 12)
        s = rng.normal(size=cfg.num_features)
        x_star = rng.normal(size=cfg.d)
        gm = float(rng.uniform(-1, 1))
        mom = conditional(x_star, (X, y), theta, s, gm, cfg)
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
            s = rng.normal(size=cfg.num_features)
            mom = conditional(rng.normal(size=cfg.d), (X, y), theta, s, gm, cfg)
            assert mom.variance >= 0.0


def test_marginalization_identities():
    # averaging the mean over s ~ N(mu_bar, sigma_n^2 Gamma^-1) gives the
    # gamma-free mean, and the variance identity removes gamma entirely
    rng = np.random.default_rng(10)
    for _ in range(20):
        cfg = make_cfg(m=int(rng.integers(1, 4)))
        X, y, theta = random_block(rng, cfg, int(rng.integers(1, 15)))
        chol, w = gram_factor(X, y, theta, cfg)
        x_star = rng.normal(size=cfg.d)
        phi = basis_vector(x_star, theta, cfg)
        mu_bar = np.linalg.solve(chol.T, w)
        base = float(phi @ mu_bar)
        quad = cfg.noise_variance * float(phi @ gram_solve(chol, phi))
        for gm in (-1.0, -0.5, 0.0, 0.5, 1.0):
            mom = conditional(x_star, (X, y), theta, mu_bar, gm, cfg)
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
        x_star = rng.normal(size=cfg.d)
        mom = conditional(x_star, (X, y), theta, np.zeros(cfg.num_features), 0.0, cfg)
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
    m1 = conditional(x_star, (X, y), theta, s, 0.0, cfg)
    m2 = conditional(x_star, (X, 2 * y), theta, s, 0.0, cfg)
    assert m2.mean == pytest.approx(2 * m1.mean, rel=1e-12)


def test_jitter_recovers_singular_psd_matrix():
    # rank-one PSD matrix: plain factorization fails, the first jitter step
    # (1e-10 * trace/3 on the diagonal) succeeds
    gamma = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gamma)
    chol = _cholesky(gamma, 3, block_id=0)
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
    np.testing.assert_array_equal(_cholesky(gamma, 3, block_id=0), expected)


def test_jitter_escalation_gives_up_on_indefinite_matrix():
    gamma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(NumericalError) as err:
        _cholesky(gamma, 2, block_id=7)
    assert err.value.block_id == 7
    # the last step is 1e-4 * trace/3: it rescues an eigenvalue of -5e-5
    # but not one of -5e-4
    _cholesky(with_low_eigenvalue(-5e-5), 3, block_id=7)
    with pytest.raises(NumericalError):
        _cholesky(with_low_eigenvalue(-5e-4), 3, block_id=7)


def test_stacked_gram_and_conditional_match_per_theta_views():
    rng = np.random.default_rng(13)
    cfg = make_cfg(m=3)
    X, y, _ = random_block(rng, cfg, 11)
    thetas = rng.normal(size=(4, cfg.theta_dim))
    s = rng.normal(size=(4, cfg.num_features))
    X_star = rng.normal(size=(5, cfg.d))
    phi_star = feature_matrix(X_star, thetas, cfg)
    factors = build_local_gram(X, y, thetas, phi_star, cfg, block_id=2)
    order = cfg.num_features + 6
    assert factors.shape == (4, order, order)
    means, variances = moments_off(factors, phi_star, s, 0.4, cfg)
    assert means.shape == variances.shape == (4, 5)
    for i, theta in enumerate(thetas):
        single = build_local_gram(X, y, theta, phi_star[i], cfg, block_id=2)
        np.testing.assert_allclose(factors[i], single, rtol=0, atol=1e-12)
        for j, x_star in enumerate(X_star):
            mom = conditional(x_star, (X, y), theta, s[i], 0.4, cfg)
            assert means[i, j] == pytest.approx(mom.mean, rel=0, abs=1e-12)
            assert variances[i, j] == pytest.approx(mom.variance, rel=0, abs=1e-12)


def explicit_moments(gamma_inv, Phi, y, phi_star, s, gamma_mix, cfg):
    """The two moments from ``Gamma^{-1}`` itself, per draw of a stack."""
    data_mean = np.einsum("bit,bij,bj->bt", phi_star, gamma_inv, Phi @ y)
    quad = np.einsum("bit,bij,bjt->bt", phi_star, gamma_inv, phi_star)
    basis_mean = np.einsum("bi,bit->bt", s, phi_star)
    mean = gamma_mix * basis_mean + (1.0 - gamma_mix) * data_mean
    return mean, (1.0 - gamma_mix**2) * cfg.noise_variance * quad


@pytest.mark.parametrize("t", [1, 6, 7, 200])
def test_both_borders_match_an_explicit_inverse(t):
    # either border serves any t, on both sides of 2m = 6: phi_* gives a
    # factor of order 2m + 1 + t, the identity (None) one of order 4m + 1
    rng = np.random.default_rng(20 + t)
    cfg = make_cfg(m=3)
    k = cfg.num_features
    X, y, _ = random_block(rng, cfg, 25)
    thetas = rng.normal(size=(3, cfg.theta_dim))
    s = rng.normal(size=(3, k))
    phi_star = feature_matrix(rng.normal(size=(t, cfg.d)), thetas, cfg)
    Phi = feature_matrix(X, thetas, cfg)
    gamma_inv = scipy.linalg.inv(dense_gram(Phi, cfg))
    identity = np.broadcast_to(np.eye(k), (3, k, k))
    for border, order in ((phi_star, k + 1 + t), (None, 2 * k + 1)):
        factor = build_local_gram(X, y, thetas, border, cfg, block_id=1)
        assert factor.shape == (3, order, order)
        # the rows under Gamma hold L^{-1} times the border, transposed
        chol = factor[:, :k, :k]
        np.testing.assert_allclose(
            chol @ np.swapaxes(factor[:, k + 1 :, :k], -1, -2),
            identity if border is None else border,
            rtol=0,
            atol=1e-12,
        )
        for gamma_mix in (-1.0, 0.0, 0.3, 1.0):
            mean, variance = moments_off(factor, phi_star, s, gamma_mix, cfg, border is None)
            ref_mean, ref_variance = explicit_moments(
                gamma_inv, Phi, y, phi_star, s, gamma_mix, cfg
            )
            np.testing.assert_allclose(mean, ref_mean, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(variance, ref_variance, rtol=1e-12, atol=1e-12)


def test_jitter_rescues_one_draw_of_a_stack_on_gamma_only():
    # With ss2 = m the features are cos/sin themselves, and theta = 0 makes
    # every cosine 1 and every sine 0, so the middle draw's Gamma is
    # 16 * ones on the cosine block plus a ridge of 1e-17, which 16 absorbs:
    # its Cholesky meets an exactly zero pivot.  The other draws' Gammas
    # are well conditioned without the ridge.
    cfg = make_cfg(d=2, m=2, ss2=2.0, sn2=1e-17)
    k = cfg.num_features
    rng = np.random.default_rng(16)
    X, y = rng.normal(size=(16, 2)), rng.normal(size=16)
    thetas = rng.normal(size=(3, cfg.theta_dim))
    thetas[1] = 0.0
    s = rng.normal(size=(3, k))
    Phi = feature_matrix(X, thetas, cfg)
    gamma = dense_gram(Phi, cfg)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gamma[1])
    jittered = gamma.copy()
    jittered[1] += 1e-10 * np.trace(gamma[1]) / k * np.eye(k)
    for t, identity in ((1, False), (2 * k + 1, True)):
        phi_star = feature_matrix(rng.normal(size=(t, 2)), thetas, cfg)
        border = None if identity else phi_star
        factor = build_local_gram(X, y, thetas, border, cfg, block_id=5)
        rebuilt = factor @ np.swapaxes(factor, -1, -2)
        # only the middle draw is jittered, and only on Gamma's diagonal
        for i in range(3):
            ref = jittered[i]
            assert np.linalg.norm(rebuilt[i, :k, :k] - ref) <= 1e-14 * np.linalg.norm(ref)
        assert np.abs(np.diag(rebuilt[1, :k, :k] - gamma[1])).min() > 1e-11
        r_t = np.concatenate(
            [(Phi @ y)[:, None, :], np.broadcast_to(np.eye(k), (3, k, k)) if identity
             else np.swapaxes(phi_star, -1, -2)], axis=-2
        )
        # the border rows are untouched (the exact check that the trailing
        # block gets no jitter is test_stacked_cholesky_jitters_only_the_failing_draw)
        np.testing.assert_allclose(rebuilt[:, k:, :k], r_t, rtol=0, atol=1e-12)
        # the moments are those of the jittered Gamma, through an independent
        # factorization (an explicit inverse of the jittered Gamma, whose
        # condition number is about 4e10, is not accurate to 1e-12)
        for gamma_mix in (-1.0, 0.0, 0.3, 1.0):
            mean, variance = moments_off(factor, phi_star, s, gamma_mix, cfg, identity)
            for i in range(3):
                cho = scipy.linalg.cho_factor(jittered[i], lower=True)
                data_mean = phi_star[i].T @ scipy.linalg.cho_solve(cho, Phi[i] @ y)
                quad = np.sum(phi_star[i] * scipy.linalg.cho_solve(cho, phi_star[i]), axis=0)
                ref_mean = gamma_mix * (s[i] @ phi_star[i]) + (1.0 - gamma_mix) * data_mean
                ref_variance = (1.0 - gamma_mix**2) * cfg.noise_variance * quad
                np.testing.assert_allclose(mean[i], ref_mean, rtol=1e-12, atol=0)
                np.testing.assert_allclose(variance[i], ref_variance, rtol=1e-12, atol=0)


def test_stacked_cholesky_jitters_only_the_failing_draw():
    # order-5 members whose leading 3x3 block is Gamma, bordered by two rows
    # of the lower triangle (the upper one is never read); the middle
    # Gamma is the rank-one case above, its neighbours are SPD
    rng = np.random.default_rng(14)
    k = 3
    A = rng.normal(size=(2, k, k))
    spd = A @ np.swapaxes(A, -1, -2) + k * np.eye(k)
    stack = np.zeros((3, k + 2, k + 2))
    stack[:, :k, :k] = [spd[0], np.ones((k, k)), spd[1]]
    stack[:, k:, :k] = [[1.0, 1.0, 1.0], [0.5, 0.5, 0.5]]
    stack[:, k:, k:] = 10.0 * np.eye(2)
    before = stack.copy()
    chol = _cholesky(stack, k, block_id=4)
    np.testing.assert_array_equal(stack, before)
    for i in (0, 2):
        np.testing.assert_array_equal(chol[i], np.linalg.cholesky(stack[i]))
    # the failing member gets the factor it gets on its own, with
    # 1e-10 * trace(Gamma)/3 on Gamma's diagonal and nothing on the border's
    np.testing.assert_array_equal(chol[1], _cholesky(stack[1], k, 4))
    jitter = np.diag([1e-10] * k + [0.0, 0.0])
    np.testing.assert_array_equal(chol[1], np.linalg.cholesky(stack[1] + jitter))
    # any number of leading axes takes the same path
    np.testing.assert_array_equal(_cholesky(stack[None], k, 4)[0], chol)
    # an indefinite member cannot be rescued by jitter
    stack[1, :k, :k] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(NumericalError) as err:
        _cholesky(stack, k, block_id=4)
    assert err.value.block_id == 4


@pytest.mark.parametrize("t", [1, 6, 7])
def test_identity_rows_without_test_points(t):
    # phi_star=None factors the identity border without any test point; its
    # rows [2m:, :2m], w^T then L^{-T}, serve t points on either side of
    # 2m = 6 through h^T = phi_*^T L^{-T}, as the prediction memo keeps them
    rng = np.random.default_rng(40 + t)
    cfg = make_cfg(m=3)
    k = cfg.num_features
    X, y, _ = random_block(rng, cfg, 25)
    thetas = rng.normal(size=(3, cfg.theta_dim))
    s = rng.normal(size=(3, k))
    full = build_local_gram(X, y, thetas, None, cfg, block_id=1)
    assert full.shape == (3, 2 * k + 1, 2 * k + 1)
    np.testing.assert_array_equal(full[0], build_local_gram(X, y, thetas[0], None, cfg))
    phi_star = feature_matrix(rng.normal(size=(t, cfg.d)), thetas, cfg)
    factor = build_local_gram(X, y, thetas, phi_star, cfg)
    Phi = feature_matrix(X, thetas, cfg)
    gamma_inv = scipy.linalg.inv(dense_gram(Phi, cfg))
    for gamma_mix in (-1.0, 0.0, 0.3, 1.0):
        mean, variance = moments_off(full, phi_star, s, gamma_mix, cfg, identity=True)
        ref_mean, ref_variance = explicit_moments(gamma_inv, Phi, y, phi_star, s, gamma_mix, cfg)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(variance, ref_variance, rtol=1e-12, atol=1e-12)
        bordered = moments_off(factor, phi_star, s, gamma_mix, cfg)
        np.testing.assert_allclose(mean, bordered[0], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(variance, bordered[1], rtol=1e-12, atol=1e-14)
