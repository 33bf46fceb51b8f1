import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from specgp import (
    ContractError,
    NumericalError,
    PriorSpec,
    SpectralConfig,
    VariationalState,
    initial_state,
    kl_divergence,
    kl_term_gradient,
    transform,
)
from specgp.variational import DRAW_GROUP, second_moments


def make_cfg(d=2, m=2, ss2=1.4, sn2=0.2):
    return SpectralConfig(d=d, m=m, signal_variance=ss2, noise_variance=sn2)


def random_state(rng, dim, scale=0.3):
    M = scale * np.eye(dim) + 0.1 * rng.normal(size=(dim, dim))
    return VariationalState(M, rng.normal(size=dim))


def random_prior(rng, cfg):
    # lengthscales whose frequency variances 1 / (4 pi^2 l^2) lie in about [0.2, 2]
    return PriorSpec(rng.uniform(0.11, 0.36, size=cfg.d))


def test_prior_spec_validation_and_layout():
    cfg = make_cfg(d=2, m=3)
    # 1e-200 and 1e200 are finite, but their frequency variances are not
    # finite and positive
    bad_values = (
        np.zeros(2), [1.0, -1.0], [1.0, np.inf], [1.0, np.nan], [1e-200, 1.0], [1.0, 1e200],
        [[0.5, 2.0]], 0.5, [],
    )
    for bad in bad_values:
        with pytest.raises(ContractError, match="lengthscales"):
            PriorSpec(bad)
    lengthscales = np.array([0.5, 2.0])
    prior = PriorSpec(lengthscales)
    lengthscales[0] = 9.0  # the prior holds its own copy
    np.testing.assert_array_equal(prior.lengthscales, [0.5, 2.0])
    var = prior.variances(cfg)
    assert prior.d == 2 and var.shape == (cfg.alpha_dim,)
    np.testing.assert_array_equal(var[: cfg.theta_dim], np.tile(prior.frequency_variance, cfg.m))
    np.testing.assert_array_equal(var[cfg.theta_dim :], cfg.lambda_diag)


def test_prior_from_lengthscales():
    cfg = make_cfg(d=2, m=3)
    prior = PriorSpec([0.5, 2.0])
    per_dim = 1.0 / (4 * np.pi**2 * np.array([0.5, 2.0]) ** 2)
    np.testing.assert_allclose(
        prior.variances(cfg)[: cfg.theta_dim], np.tile(per_dim, cfg.m), rtol=1e-12
    )
    # replace() derives the frequency variances again from the new lengthscales
    moved = replace(prior, lengthscales=[1.0, 1.0])
    np.testing.assert_array_equal(moved.frequency_variance, 1.0 / (4.0 * np.pi**2))


def test_priors_compare_and_hash_by_lengthscales():
    prior = PriorSpec([1.0, 2.0])
    same = PriorSpec(np.array([1.0, 2.0]))
    assert prior == same and hash(prior) == hash(same)
    assert replace(prior, lengthscales=[1.0, 2.0]) == prior
    for other in (PriorSpec([1.0, 3.0]), PriorSpec([1.0, 2.0, 1.0]), PriorSpec([1.0])):
        assert prior != other
    assert prior != (1.0, 2.0)
    assert len({prior, same, PriorSpec([2.0, 1.0])}) == 2


def test_prior_for_inputs_uses_column_stds():
    cfg = make_cfg(d=2, m=2)
    rng = np.random.default_rng(0)
    X = np.column_stack([3.0 * rng.normal(size=200), np.full(200, 7.0)])
    prior = PriorSpec.for_inputs(X, cfg)
    # a constant column falls back to a lengthscale of 1
    np.testing.assert_array_equal(prior.lengthscales, [X[:, 0].std(), 1.0])
    expected_first = 1.0 / (4 * np.pi**2 * X[:, 0].std() ** 2)
    expected_const = 1.0 / (4 * np.pi**2)
    np.testing.assert_allclose(prior.frequency_variance[0], expected_first, rtol=1e-12)
    np.testing.assert_allclose(prior.frequency_variance[1], expected_const, rtol=1e-12)


@pytest.mark.parametrize("n", [200, 1, 0])
def test_prior_variances_are_the_tiled_frequency_variances_bit_for_bit(n):
    # the diagonal that files of model version 3 stored, then lambda, as it
    # was computed: np.tile(1 / (4 pi^2 std^2), m), with a constant column
    # (and every column of X with no rows) at a lengthscale of 1
    cfg = make_cfg(d=3, m=4)
    rng = np.random.default_rng(1)
    X = np.column_stack([3.0 * rng.normal(size=n), np.full(n, 7.0), rng.uniform(size=n)])
    spread = X.std(axis=0) if n else np.zeros(cfg.d)
    spread = np.where(spread > 0, spread, 1.0)
    oracle = np.concatenate(
        [
            np.tile(1.0 / (4.0 * np.pi**2 * spread**2), cfg.m),
            np.full(cfg.num_features, cfg.lambda_diag),
        ]
    )
    prior = PriorSpec.for_inputs(X, cfg)
    assert prior.lengthscales[1] == 1.0
    assert prior.variances(cfg).tobytes() == oracle.tobytes()


def test_sample_theta_statistics():
    cfg = make_cfg(d=2, m=2)
    # frequency variances 0.5 and 2.0
    prior = PriorSpec(1.0 / (2.0 * np.pi * np.sqrt([0.5, 2.0])))
    rng = np.random.default_rng(1)
    draws = np.array([prior.sample_theta(rng, cfg.m) for _ in range(4000)])
    assert draws.shape == (4000, cfg.theta_dim)
    np.testing.assert_allclose(draws.var(axis=0), [0.5, 2.0, 0.5, 2.0], rtol=0.15)
    np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.1)


def test_state_rejects_singular_and_ill_conditioned_m():
    with pytest.raises(NumericalError):
        VariationalState(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2))
    with pytest.raises(NumericalError):
        VariationalState(np.diag([1.0, 1e-16]), np.zeros(2))
    # rcond in (1e-14, 1e-13]: the one threshold, 1e-13, also guards training
    with pytest.raises(NumericalError, match="rcond=5.000e-14"):
        VariationalState(np.diag([1.0, 5e-14]), np.zeros(2))
    assert VariationalState(np.diag([1.0, 2e-13]), np.zeros(2)).rcond == 2e-13
    with pytest.raises(ContractError):
        VariationalState(np.ones((2, 3)), np.zeros(2))


def test_state_inverse_and_exact_rcond():
    rng = np.random.default_rng(12)
    for D in range(2, 31):
        M = np.eye(D) + 0.3 * rng.normal(size=(D, D)) / np.sqrt(D)
        state = VariationalState(M, np.zeros(D))
        assert state.rcond == pytest.approx(1.0 / np.linalg.cond(M, 1), rel=1e-10)
        np.testing.assert_allclose(state.inverse_transpose @ M.T, np.eye(D), rtol=0, atol=1e-12)
        assert state.log_abs_det == pytest.approx(np.linalg.slogdet(M)[1], rel=1e-9, abs=1e-12)


def test_state_with_overflowing_norm_is_rejected_without_warning():
    M = np.array([[1e308, 1e308], [1e308, -1e308]])
    assert np.all(np.isfinite(M))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError):
            VariationalState(M, np.zeros(2))


def test_transform_identity_and_offset():
    cfg = make_cfg(d=1, m=1)
    D = cfg.alpha_dim
    state = VariationalState(np.eye(D), np.zeros(D))
    z = np.arange(1.0, D + 1)
    theta, s = transform(state, z, cfg)
    np.testing.assert_array_equal(np.concatenate([theta, s]), z)
    np.testing.assert_array_equal(theta, z[: cfg.theta_dim])
    np.testing.assert_array_equal(s, z[cfg.theta_dim :])
    b = np.full(D, 2.5)
    state2 = VariationalState(np.eye(D), b)
    np.testing.assert_array_equal(np.concatenate(transform(state2, np.zeros(D), cfg)), b)
    # each part is a C-contiguous array owning its memory, for one draw and
    # for a (b, D) stack: strided views of alpha would change the results
    stack = transform(state2, np.arange(3.0 * D).reshape(3, D), cfg)
    for theta, s in ((theta, s), stack):
        for part in (theta, s):
            assert part.flags.c_contiguous
            assert part.base is None
        assert not np.shares_memory(theta, s)
    assert stack[0].shape == (3, cfg.theta_dim) and stack[1].shape == (3, cfg.num_features)


def test_transform_matvec_oracle():
    cfg = make_cfg(d=2, m=2)
    rng = np.random.default_rng(2)
    D = cfg.alpha_dim
    state = random_state(rng, D)
    z = rng.normal(size=D)
    alpha = np.concatenate(transform(state, z, cfg))
    manual = np.array([state.M[i] @ z + state.b[i] for i in range(D)])
    np.testing.assert_allclose(alpha, manual, atol=1e-12)
    with pytest.raises(ContractError):
        transform(state, z[:-1], cfg)


def test_transform_of_at_most_one_group_is_the_plain_product():
    cfg = make_cfg(d=4, m=8)
    rng = np.random.default_rng(4)
    D = cfg.alpha_dim
    state = random_state(rng, D)
    z = rng.normal(size=(DRAW_GROUP, D))
    for r in range(1, DRAW_GROUP + 1):
        alpha = np.concatenate(transform(state, z[:r], cfg), axis=-1)
        np.testing.assert_array_equal(alpha, (state.M @ z[:r].T).T + state.b)
    np.testing.assert_array_equal(
        np.concatenate(transform(state, z[0], cfg)), state.M @ z[0] + state.b
    )


@pytest.mark.parametrize("d, m", [(2, 5), (4, 16)])
def test_transform_draws_are_prefix_stable_in_whole_groups(d, m):
    # D = 20 and 96: the rows of a stack padded to whole groups are the
    # first rows of a longer stack, bit for bit, for every length
    cfg = make_cfg(d=d, m=m)
    rng = np.random.default_rng(5)
    D = cfg.alpha_dim
    state = random_state(rng, D)
    z = rng.normal(size=(304, D))
    longest = np.concatenate(transform(state, z, cfg), axis=-1)
    for r in range(1, 301):
        padded = -(-r // DRAW_GROUP) * DRAW_GROUP
        alpha = np.concatenate(transform(state, z[:padded], cfg), axis=-1)
        np.testing.assert_array_equal(alpha[:r], longest[:r])


def test_state_arrays_are_read_only():
    rng = np.random.default_rng(6)
    state = random_state(rng, 4)
    M_before, b_before = state.M.copy(), state.b.copy()
    for array in (state.M, state.b, state.inverse_transpose):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] += 1.0
    np.testing.assert_array_equal(state.M, M_before)
    np.testing.assert_array_equal(state.b, b_before)
    # the state holds its own copies: the caller's arrays stay writable
    M, b = M_before.copy(), b_before.copy()
    VariationalState(M, b)
    assert M.flags.writeable and b.flags.writeable


def test_state_attributes_cannot_be_reassigned():
    # a reassigned array would be writable and leave a model's prediction
    # memo stale
    rng = np.random.default_rng(7)
    state = random_state(rng, 4)
    other = random_state(rng, 4)
    for name in ("M", "b", "rcond", "inverse_transpose"):
        with pytest.raises(AttributeError):
            setattr(state, name, getattr(other, name))
    np.testing.assert_array_equal(state.inverse_transpose, np.linalg.inv(state.M).T)


def test_second_moments_match_dense_covariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        state = random_state(rng, int(rng.integers(2, 7)))
        expected = np.diag(state.M @ state.M.T) + state.b**2
        np.testing.assert_allclose(second_moments(state), expected, rtol=1e-12)


def test_kl_divergence_monte_carlo_logpdf_oracle():
    # the exact KL is the mean of log q(alpha) - log p(alpha) over draws of q
    rng = np.random.default_rng(3)
    n_draws = 20_000
    for _ in range(5):
        cfg = make_cfg(d=int(rng.integers(1, 3)), m=int(rng.integers(1, 3)))
        prior = random_prior(rng, cfg)
        state = random_state(rng, cfg.alpha_dim)
        alpha = np.concatenate(
            transform(state, rng.normal(size=(n_draws, cfg.alpha_dim)), cfg), axis=-1
        )
        q = stats.multivariate_normal(mean=state.b, cov=state.M @ state.M.T)
        p = stats.multivariate_normal(
            mean=np.zeros(cfg.alpha_dim), cov=np.diag(prior.variances(cfg))
        )
        diffs = q.logpdf(alpha) - p.logpdf(alpha)
        stderr = diffs.std(ddof=1) / np.sqrt(n_draws)
        assert abs(diffs.mean() - kl_divergence(state, prior, cfg)) <= 4.0 * stderr


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


def test_kl_divergence_dense_gaussian_oracle():
    # KL(N(b, S) || N(0, V)) = 0.5 (tr(V^-1 S) + b' V^-1 b - D + log|V| - log|S|)
    rng = np.random.default_rng(8)
    for _ in range(10):
        cfg = make_cfg(d=int(rng.integers(1, 3)), m=int(rng.integers(1, 3)))
        prior = random_prior(rng, cfg)
        state = random_state(rng, cfg.alpha_dim)
        cov = state.M @ state.M.T
        var = prior.variances(cfg)
        dense = 0.5 * (
            np.trace(cov / var[:, None])
            + state.b @ (state.b / var)
            - cfg.alpha_dim
            + np.sum(np.log(var))
            - np.linalg.slogdet(cov)[1]
        )
        assert kl_divergence(state, prior, cfg) == pytest.approx(dense, rel=1e-10)


def test_kl_gradient_trivial_cases():
    cfg = make_cfg(d=1, m=1)
    D = cfg.alpha_dim
    rng = np.random.default_rng(9)
    prior = random_prior(rng, cfg)
    var = prior.variances(cfg)
    # b = 0: the b part vanishes and the M part is M / v - M^{-T}
    state = random_state(rng, D)
    state = VariationalState(state.M, np.zeros(D))
    gm, gb = kl_term_gradient(state, prior, cfg)
    np.testing.assert_allclose(
        gm, state.M / var[:, None] - np.linalg.inv(state.M).T, rtol=1e-9, atol=1e-12
    )
    np.testing.assert_array_equal(gb, np.zeros(D))
    # M = I: closed form with the prior precision
    b = rng.normal(size=D)
    gm_i, gb_i = kl_term_gradient(VariationalState(np.eye(D), b), prior, cfg)
    np.testing.assert_allclose(gm_i, np.diag(1.0 / var) - np.eye(D), atol=1e-12)
    np.testing.assert_allclose(gb_i, b / var, atol=1e-12)
    # q = p: the divergence and its gradient vanish
    at_prior = VariationalState(np.diag(np.sqrt(var)), np.zeros(D))
    assert kl_divergence(at_prior, prior, cfg) == pytest.approx(0.0, abs=1e-12)
    gm_p, gb_p = kl_term_gradient(at_prior, prior, cfg)
    np.testing.assert_allclose(gm_p, 0.0, atol=1e-12)
    np.testing.assert_array_equal(gb_p, np.zeros(D))


def test_kl_gradient_finite_differences():
    # all D^2 + D coordinates of d/d(M,b) of the exact KL
    rng = np.random.default_rng(10)
    step = 1e-6
    for _ in range(5):
        cfg = make_cfg(d=int(rng.integers(1, 3)), m=1)
        D = cfg.alpha_dim
        prior = random_prior(rng, cfg)
        state = random_state(rng, D)
        gm, gb = kl_term_gradient(state, prior, cfg)

        def objective(M, b):
            return kl_divergence(VariationalState(M, b), prior, cfg)

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
    with pytest.raises(ContractError, match="prior has 2 lengthscales, the config needs 3"):
        initial_state(prior, make_cfg(d=3, m=3))
