import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from specgp import (
    ContractError,
    GradientSamplePlan,
    PartitionedDataset,
    PriorSpec,
    SpectralConfig,
    VariationalState,
    basis_vector,
    draw_sample_sets,
    elbo_estimate,
    feature_matrix,
    kl_divergence,
    kl_term_gradient,
    log_likelihood,
    stochastic_gradient,
    transform,
)
from specgp.gradient import _data_term, eta_views


def make_cfg(d=2, m=2, ss2=1.3, sn2=0.4):
    return SpectralConfig(d=d, m=m, signal_variance=ss2, noise_variance=sn2)


def random_state(rng, dim, scale=0.4):
    M = scale * np.eye(dim) + 0.1 * rng.normal(size=(dim, dim))
    return VariationalState(M, 0.5 * rng.normal(size=dim))


def random_prior(rng, cfg):
    # lengthscales whose frequency variances 1 / (4 pi^2 l^2) lie in about [0.3, 1.5]
    return PriorSpec(rng.uniform(0.13, 0.29, size=cfg.d))


def make_dataset(rng, cfg, sizes):
    blocks = []
    indices = []
    start = 0
    for n_i in sizes:
        X = rng.normal(size=(n_i, cfg.d))
        y = rng.normal(size=n_i)
        blocks.append((X, y))
        indices.append(np.arange(start, start + n_i))
        start += n_i
    centroids = np.array(
        [X.mean(axis=0) if len(X) else np.zeros(cfg.d) for X, _ in blocks]
    )
    return PartitionedDataset(blocks=blocks, centroids=centroids, block_indices=indices)


def one_block(X, y):
    return PartitionedDataset(
        blocks=[(X, y)], centroids=X.mean(axis=0)[None, :], block_indices=[np.arange(len(y))]
    )


def plan_z(plan, dim):
    """The z draw of a one-draw plan, the same for any dataset."""
    return draw_sample_sets(plan, 1, dim)[1][0]


def partition_term(plan, X, y, state, prior, cfg):
    """One block's data-term gradient in ``(M, b)`` at the plan's z, flat as
    ``[vec(M) row-major, b]``: the estimate on that block alone plus the KL
    gradient it subtracts."""
    n_eta = state.dim * (state.dim + 1)
    kl = np.concatenate([g.ravel() for g in kl_term_gradient(state, prior, cfg)])
    return stochastic_gradient(plan, one_block(X, y), state, prior, cfg)[:n_eta] + kl


def eta_finite_difference(objective, state, step=1e-6):
    D = state.dim
    fd_m = np.empty((D, D))
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
    return fd_m, fd_b


def test_log_likelihood_zero_amplitudes():
    cfg = make_cfg()
    rng = np.random.default_rng(0)
    X = rng.normal(size=(9, cfg.d))
    y = rng.normal(size=9)
    theta, s = rng.normal(size=cfg.theta_dim), np.zeros(cfg.num_features)
    expected = -0.5 * y @ y / cfg.noise_variance - 0.5 * 9 * np.log(
        2 * np.pi * cfg.noise_variance
    )
    assert log_likelihood(y, X, theta, s, cfg) == pytest.approx(expected, rel=1e-12)


def test_log_likelihood_dense_gaussian_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        cfg = make_cfg(m=int(rng.integers(1, 4)))
        n = int(rng.integers(1, 12))
        X = rng.normal(size=(n, cfg.d))
        y = rng.normal(size=n)
        theta, s = rng.normal(size=cfg.theta_dim), rng.normal(size=cfg.num_features)
        mean = feature_matrix(X, theta, cfg).T @ s
        dense = stats.multivariate_normal(
            mean=mean, cov=cfg.noise_variance * np.eye(n)
        ).logpdf(y)
        assert log_likelihood(y, X, theta, s, cfg) == pytest.approx(dense, rel=1e-10)


def test_log_likelihood_weight_k_multiplies_feature_row_k():
    # with s = e_k and y = 0 the residual is feature k alone: the cosine of
    # frequency k for k < m and the sine of frequency k - m after that
    cfg = make_cfg(d=2, m=3)
    rng = np.random.default_rng(24)
    X = rng.normal(size=(11, cfg.d))
    theta = rng.normal(size=cfg.theta_dim)
    angles = 2.0 * np.pi * (theta.reshape(cfg.m, cfg.d) @ X.T)
    rows = np.concatenate([np.cos(angles), np.sin(angles)])
    np.testing.assert_allclose(feature_matrix(X, theta, cfg), rows, rtol=0, atol=1e-14)
    const = -0.5 * 11 * np.log(2 * np.pi * cfg.noise_variance)
    for k, row in enumerate(rows):
        s = np.eye(cfg.num_features)[k]
        expected = -0.5 * row @ row / cfg.noise_variance + const
        assert log_likelihood(np.zeros(11), X, theta, s, cfg) == pytest.approx(expected, rel=1e-12)


def test_log_likelihood_partition_additivity():
    cfg = make_cfg()
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, cfg.d))
    y = rng.normal(size=30)
    theta, s = rng.normal(size=cfg.theta_dim), rng.normal(size=cfg.num_features)
    whole = log_likelihood(y, X, theta, s, cfg)
    cuts = [0, 7, 13, 22, 30]
    parts = sum(
        log_likelihood(y[a:b], X[a:b], theta, s, cfg) for a, b in zip(cuts, cuts[1:])
    )
    assert parts == pytest.approx(whole, rel=1e-12)


def test_log_likelihood_perfect_fit():
    cfg = make_cfg()
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, cfg.d))
    theta, s = rng.normal(size=cfg.theta_dim), rng.normal(size=cfg.num_features)
    y = feature_matrix(X, theta, cfg).T @ s
    expected = -0.5 * 8 * np.log(2 * np.pi * cfg.noise_variance)
    assert log_likelihood(y, X, theta, s, cfg) == pytest.approx(expected, rel=1e-12)


def test_partition_term_zero_residual():
    cfg = make_cfg()
    rng = np.random.default_rng(4)
    prior = random_prior(rng, cfg)
    state = random_state(rng, cfg.alpha_dim)
    plan = GradientSamplePlan(1, 1, rng_seed=4)
    theta, s = transform(state, plan_z(plan, cfg.alpha_dim), cfg)
    X = rng.normal(size=(6, cfg.d))
    y = feature_matrix(X, theta, cfg).T @ s
    grad = partition_term(plan, X, y, state, prior, cfg)
    np.testing.assert_allclose(grad, 0.0, atol=1e-10)


def test_partition_term_s_block_closed_form():
    # the offset gradient is the alpha gradient, whose amplitude block is
    # Phi v / sigma_n^2, and the M gradient is its outer product with z
    cfg = make_cfg()
    rng = np.random.default_rng(5)
    prior = random_prior(rng, cfg)
    state = random_state(rng, cfg.alpha_dim)
    plan = GradientSamplePlan(1, 1, rng_seed=5)
    z = plan_z(plan, cfg.alpha_dim)
    theta, s = transform(state, z, cfg)
    X = rng.normal(size=(7, cfg.d))
    y = rng.normal(size=7)
    grad_m, grad_b = eta_views(partition_term(plan, X, y, state, prior, cfg), cfg.alpha_dim)
    Phi = feature_matrix(X, theta, cfg)
    v = y - Phi.T @ s
    np.testing.assert_allclose(
        grad_b[cfg.theta_dim :], Phi @ v / cfg.noise_variance, rtol=1e-10
    )
    np.testing.assert_allclose(grad_m, np.outer(grad_b, z), rtol=1e-10, atol=1e-12)


def test_partition_term_finite_differences():
    rng = np.random.default_rng(6)
    for trial in range(5):
        cfg = make_cfg(d=int(rng.integers(1, 3)), m=int(rng.integers(1, 3)))
        prior = random_prior(rng, cfg)
        state = random_state(rng, cfg.alpha_dim)
        plan = GradientSamplePlan(1, 1, rng_seed=trial)
        z = plan_z(plan, cfg.alpha_dim)
        X = rng.normal(size=(8, cfg.d))
        y = rng.normal(size=8)
        grad_m, grad_b = eta_views(partition_term(plan, X, y, state, prior, cfg), state.dim)

        def objective(M, b):
            theta, s = transform(VariationalState(M, b), z, cfg)
            v = y - feature_matrix(X, theta, cfg).T @ s
            return -0.5 * v @ v / cfg.noise_variance

        fd_m, fd_b = eta_finite_difference(objective, state)
        scale = max(1.0, np.abs(fd_m).max(), np.abs(fd_b).max())
        assert np.abs(grad_m - fd_m).max() / scale <= 1e-5
        assert np.abs(grad_b - fd_b).max() / scale <= 1e-5


def test_blockwise_terms_sum_to_whole():
    # summing the per-block gradients equals the single-block gradient of
    # the concatenated data
    cfg = make_cfg()
    rng = np.random.default_rng(7)
    prior = random_prior(rng, cfg)
    state = random_state(rng, cfg.alpha_dim)
    plan = GradientSamplePlan(1, 1, rng_seed=7)
    X = rng.normal(size=(20, cfg.d))
    y = rng.normal(size=20)
    whole = partition_term(plan, X, y, state, prior, cfg)
    cuts = [0, 5, 9, 16, 20]
    total = sum(
        partition_term(plan, X[a:b], y[a:b], state, prior, cfg) for a, b in zip(cuts, cuts[1:])
    )
    scale = max(1.0, np.abs(whole).max())
    assert np.abs(total - whole).max() / scale <= 1e-10


def test_draw_sample_sets_shapes_and_determinism():
    plan = GradientSamplePlan(n_partition_samples=3, n_z_samples=5, rng_seed=11)
    i1, z1 = draw_sample_sets(plan, n_blocks=7, dim=4)
    i2, z2 = draw_sample_sets(plan, n_blocks=7, dim=4)
    assert i1.shape == (3,) and z1.shape == (5, 4)
    np.testing.assert_array_equal(i1, i2)
    np.testing.assert_array_equal(z1, z2)
    assert i1.min() >= 0 and i1.max() < 7
    # the z stream does not depend on how many indices are drawn
    _, z3 = draw_sample_sets(GradientSamplePlan(9, 5, 11), n_blocks=7, dim=4)
    np.testing.assert_array_equal(z1, z3)


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**63])
def test_draw_sample_sets_match_spawned_streams(seed):
    # the index and z streams are the two children of spawn(2) on the seed
    plan = GradientSamplePlan(n_partition_samples=6, n_z_samples=4, rng_seed=seed)
    indices, z_draws = draw_sample_sets(plan, n_blocks=9, dim=5)
    index_seq, z_seq = np.random.SeedSequence(seed).spawn(2)
    expected_indices = np.random.default_rng(index_seq).integers(0, 9, size=6)
    expected_z = np.random.default_rng(z_seq).standard_normal((4, 5))
    np.testing.assert_array_equal(indices, expected_indices)
    np.testing.assert_array_equal(z_draws, expected_z)


def test_plan_validation():
    with pytest.raises(ContractError):
        GradientSamplePlan(n_partition_samples=0, n_z_samples=1)
    with pytest.raises(ContractError):
        GradientSamplePlan(n_partition_samples=1, n_z_samples=0)


def test_stochastic_gradient_single_partition_exact():
    # p = 1, a = b = 1: the estimate is the one-draw data-term gradient
    # g_alpha pushed through alpha = M z + b, minus the KL gradient
    cfg = make_cfg()
    rng = np.random.default_rng(8)
    prior = random_prior(rng, cfg)
    state = random_state(rng, cfg.alpha_dim)
    data = make_dataset(rng, cfg, [9])
    plan = GradientSamplePlan(1, 1, rng_seed=5)
    est = stochastic_gradient(plan, data, state, prior, cfg)
    z = plan_z(plan, cfg.alpha_dim)
    X, y = data.blocks[0]
    g_alpha, _ = _data_term(y, X, *transform(state, z, cfg), cfg)
    km, kb = kl_term_gradient(state, prior, cfg)
    est_m, est_b = eta_views(est, cfg.alpha_dim)
    np.testing.assert_allclose(est_m, np.outer(g_alpha, z) - km, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(est_b, g_alpha - kb, rtol=1e-12, atol=1e-12)


def test_stochastic_gradient_determinism_and_finiteness():
    cfg = make_cfg()
    rng = np.random.default_rng(10)
    prior = random_prior(rng, cfg)
    state = random_state(rng, cfg.alpha_dim)
    data = make_dataset(rng, cfg, [5, 8, 3])
    plan = GradientSamplePlan(4, 4, rng_seed=77)
    g1 = stochastic_gradient(plan, data, state, prior, cfg)
    g2 = stochastic_gradient(plan, data, state, prior, cfg)
    np.testing.assert_array_equal(g1, g2)
    assert g1.shape == (cfg.alpha_dim * (cfg.alpha_dim + 1) + 2,)
    assert np.isfinite(g1).all()
    assert np.linalg.norm(g1[:-2]) > 0


def assert_rel_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def test_batched_gradient_matches_explicit_draw_block_sum():
    # a = 4 indices over p = 2 blocks must repeat; a repeated block counts
    # once per draw of its index
    cfg = make_cfg()
    rng = np.random.default_rng(16)
    prior = random_prior(rng, cfg)
    state = random_state(rng, cfg.alpha_dim)
    data = make_dataset(rng, cfg, [5, 7])
    a, b_count = 4, 8
    plan = GradientSamplePlan(a, b_count, rng_seed=21)
    grad = stochastic_gradient(plan, data, state, prior, cfg)
    grad_m, grad_b = eta_views(grad, cfg.alpha_dim)
    d_noise, d_signal = grad[-2:]
    indices, z_draws = draw_sample_sets(plan, data.p, cfg.alpha_dim)
    assert len(set(indices.tolist())) < a

    scale = data.p / (a * b_count)
    km, kb = kl_term_gradient(state, prior, cfg)
    ref_m = -km
    ref_b = -kb
    ref_noise = 0.0
    for z in z_draws:
        theta, s = transform(state, z, cfg)
        for i in indices:
            X, y = data.blocks[i]
            g_alpha, v_sq = _data_term(y, X, theta, s, cfg)
            ref_m += scale * np.outer(g_alpha, z)
            ref_b += scale * g_alpha
            ref_noise += scale * (0.5 * v_sq / cfg.noise_variance - 0.5 * y.size)
    # 0.5 m sum_i E_q[s_i^2] / signal_variance - m over the weights
    s_sq = (np.diag(state.M @ state.M.T) + state.b**2)[cfg.theta_dim :]
    ref_signal = 0.5 * cfg.m * np.sum(s_sq) / cfg.signal_variance - cfg.m
    assert_rel_close(grad_m, ref_m)
    assert_rel_close(grad_b, ref_b)
    assert_rel_close(d_noise, ref_noise)
    assert_rel_close(d_signal, ref_signal)

    n_z = 6
    elbo, parts = elbo_estimate(n_z, data, state, prior, cfg, seed=9, return_parts=True)
    terms = []
    elbo_draws = np.random.default_rng(np.random.SeedSequence(9)).standard_normal(
        (n_z, cfg.alpha_dim)
    )
    for z in elbo_draws:
        theta, s = transform(state, z, cfg)
        terms.append(sum(log_likelihood(y, X, theta, s, cfg) for X, y in data.blocks))
    kl = kl_divergence(state, prior, cfg)
    assert_rel_close(elbo, np.mean(terms) - kl)
    assert_rel_close([parts["log_likelihood"], parts["kl"]], [np.mean(terms), kl])


def test_stochastic_gradient_variance_shrinks_with_samples():
    cfg = make_cfg(d=1, m=1)
    rng = np.random.default_rng(11)
    prior = random_prior(rng, cfg)
    state = random_state(rng, cfg.alpha_dim)
    data = make_dataset(rng, cfg, [6, 4, 7, 5])

    def empirical_variance(a, b_count, reps=120):
        draws = []
        for r in range(reps):
            plan = GradientSamplePlan(a, b_count, rng_seed=1000 + r)
            g = stochastic_gradient(plan, data, state, prior, cfg)
            draws.append(g[:-2])
        return np.var(np.array(draws), axis=0).mean()

    assert empirical_variance(4, 4) < empirical_variance(1, 1)


def test_stochastic_gradient_unbiased_small():
    # the sample mean of single-sample estimates on p blocks approaches the
    # estimate on one block of all rows under the same plans (same z draws)
    cfg = make_cfg(d=1, m=1, sn2=0.5)
    rng = np.random.default_rng(12)
    prior = random_prior(rng, cfg)
    state = random_state(rng, cfg.alpha_dim)
    data = make_dataset(rng, cfg, [4, 6, 5])
    whole = one_block(
        np.concatenate([X for X, _ in data.blocks]), np.concatenate([y for _, y in data.blocks])
    )
    T = 3000
    diffs = []
    for t in range(T):
        plan = GradientSamplePlan(1, 1, rng_seed=t)
        diffs.append(
            stochastic_gradient(plan, data, state, prior, cfg)
            - stochastic_gradient(plan, whole, state, prior, cfg)
        )
    diffs = np.array(diffs)
    mean = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / np.sqrt(T)
    assert np.all(np.abs(mean) <= 5 * se + 1e-12)


def test_elbo_deterministic_and_finite():
    cfg = make_cfg()
    rng = np.random.default_rng(13)
    prior = random_prior(rng, cfg)
    state = random_state(rng, cfg.alpha_dim)
    data = make_dataset(rng, cfg, [6, 9])
    e1 = elbo_estimate(8, data, state, prior, cfg, seed=3)
    e2 = elbo_estimate(8, data, state, prior, cfg, seed=3)
    assert e1 == e2
    assert np.isfinite(e1)
    with pytest.raises(ContractError):
        elbo_estimate(0, data, state, prior, cfg)


@pytest.mark.parametrize(
    "n_z, seed, name", [(1.5, 0, "n_z"), (True, 0, "n_z"), (8, -1, "seed"), (8, 1.5, "seed")]
)
def test_elbo_refuses_draw_counts_and_seeds_that_are_not_integers(n_z, seed, name):
    cfg = make_cfg()
    rng = np.random.default_rng(13)
    data = make_dataset(rng, cfg, [6, 9])
    state, prior = random_state(rng, cfg.alpha_dim), random_prior(rng, cfg)
    with pytest.raises(ContractError, match=name):
        elbo_estimate(n_z, data, state, prior, cfg, seed=seed)


def data_term_oracle(y, X, theta, s, cfg):
    """``g_alpha`` and ``||v||^2`` of one draw, one row at a time, from libm
    ``cos``/``sin`` and the per-point Jacobian ``w_ij x_j``."""
    freqs = theta.reshape(cfg.m, cfg.d)
    g_alpha = np.zeros(cfg.alpha_dim)
    v_sq = 0.0
    for x_j, y_j in zip(X, y):
        angles = [2.0 * math.pi * float(r @ x_j) for r in freqs]
        cos = [math.cos(a) for a in angles]
        sin = [math.sin(a) for a in angles]
        v = y_j - sum(s[i] * cos[i] + s[cfg.m + i] * sin[i] for i in range(cfg.m))
        v_sq += v * v
        for i in range(cfg.m):
            w = -s[i] * sin[i] + s[cfg.m + i] * cos[i]
            g_alpha[i * cfg.d : (i + 1) * cfg.d] += 2.0 * math.pi * v * w * x_j
            g_alpha[cfg.theta_dim + i] += cos[i] * v
            g_alpha[cfg.theta_dim + cfg.m + i] += sin[i] * v
    return g_alpha / cfg.noise_variance, v_sq


def test_data_term_matches_row_loop_oracle():
    # one draw, a stack of draws, and an empty block (all zeros)
    cfg = make_cfg(d=3, m=4)
    rng = np.random.default_rng(22)
    X = rng.normal(size=(13, cfg.d))
    y = rng.normal(size=13)
    thetas = rng.normal(size=(5, cfg.theta_dim))
    ss = rng.normal(size=(5, cfg.num_features))
    g_one, v_one = _data_term(y, X, thetas[0], ss[0], cfg)
    g_ref, v_ref = data_term_oracle(y, X, thetas[0], ss[0], cfg)
    np.testing.assert_allclose(g_one, g_ref, rtol=1e-12)
    assert v_one == pytest.approx(v_ref, rel=1e-12)
    g_stack, v_stack = _data_term(y, X, thetas, ss, cfg)
    assert g_stack.shape == (5, cfg.alpha_dim) and v_stack.shape == (5,)
    for theta, s, g, v in zip(thetas, ss, g_stack, v_stack):
        g_ref, v_ref = data_term_oracle(y, X, theta, s, cfg)
        np.testing.assert_allclose(g, g_ref, rtol=1e-12)
        assert v == pytest.approx(v_ref, rel=1e-12)
    g_empty, v_empty = _data_term(np.zeros(0), np.zeros((0, cfg.d)), thetas, ss, cfg)
    np.testing.assert_array_equal(g_empty, np.zeros((5, cfg.alpha_dim)))
    np.testing.assert_array_equal(v_empty, np.zeros(5))


def traced_peak_bytes(fn):
    """Peak traced allocation of ``fn()`` above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_feature_map_and_data_term_peak_memory():
    # the feature map allocates its result and nothing else, at the wide
    # training shape (b, m, d, n) = (8, 16, 4, 568), at the prediction chunk
    # shapes of both benchmark workloads and at a single test row; the data
    # term adds little beyond the training feature stack.  The slack covers
    # array headers: a temporary for t or u alone is half the stack, more
    # than the slack at every shape here.
    slack = 2048
    rng = np.random.default_rng(23)
    for b, m, d, n in [(8, 16, 4, 568), (65, 5, 2, 95), (14, 16, 4, 142), (64, 5, 2, 1)]:
        cfg = make_cfg(d=d, m=m)
        X = rng.random((n, d))
        theta = rng.normal(size=(b, cfg.theta_dim))
        stack_bytes = b * cfg.num_features * n * 8
        assert slack < stack_bytes // 2
        peak = traced_peak_bytes(lambda: feature_matrix(X, theta, cfg))
        assert peak <= stack_bytes + slack, (b, m, d, n)
    b, m, d, n = 8, 16, 4, 568
    cfg = make_cfg(d=d, m=m)
    X = rng.random((n, d))
    y = rng.normal(size=n)
    theta = rng.normal(size=(b, cfg.theta_dim))
    s = rng.normal(size=(b, cfg.num_features))
    stack_bytes = b * cfg.num_features * n * 8
    assert traced_peak_bytes(lambda: _data_term(y, X, theta, s, cfg)) <= 1.5 * stack_bytes


def test_elbo_noiseless_fit_data_term():
    # targets generated exactly at alpha = b with a nearly collapsed state:
    # the likelihood part approaches its maximum
    cfg = make_cfg(d=1, m=2, sn2=0.3)
    rng = np.random.default_rng(14)
    prior = random_prior(rng, cfg)
    D = cfg.alpha_dim
    b = rng.normal(size=D)
    theta, s = b[: cfg.theta_dim], b[cfg.theta_dim :]
    X = rng.normal(size=(8, 1))
    y = feature_matrix(X, theta, cfg).T @ s
    data = one_block(X, y)
    state = VariationalState(1e-9 * np.eye(D), b)
    _, parts = elbo_estimate(16, data, state, prior, cfg, seed=0, return_parts=True)
    expected = -0.5 * 8 * np.log(2 * np.pi * cfg.noise_variance)
    assert parts["log_likelihood"] == pytest.approx(expected, rel=1e-6)


def test_elbo_below_quadrature_marginal_likelihood():
    # one frequency in one dimension: integrate the dense marginal
    # likelihood over the frequency with Gauss-Hermite quadrature and over
    # the amplitudes in closed form; the bound (Monte-Carlo likelihood
    # minus the exact KL) must sit below it
    cfg = make_cfg(d=1, m=1, ss2=1.0, sn2=0.4)
    rng = np.random.default_rng(15)
    prior = PriorSpec(1.0 / (2.0 * np.pi * np.sqrt([0.5])))  # frequency variance 0.5
    n = 8
    X = rng.normal(size=(n, 1))
    y = rng.normal(size=n)
    data = one_block(X, y)

    nodes, weights = np.polynomial.hermite.hermgauss(40)
    total = 0.0
    sd = np.sqrt(prior.frequency_variance[0])
    for node, w in zip(nodes, weights):
        theta = np.array([np.sqrt(2.0) * sd * node])
        Phi = feature_matrix(X, theta, cfg)
        cov = Phi.T @ (cfg.lambda_diag * Phi) + cfg.noise_variance * np.eye(n)
        total += w / np.sqrt(np.pi) * stats.multivariate_normal(
            mean=np.zeros(n), cov=cov
        ).pdf(y)
    log_evidence = np.log(total)

    D = cfg.alpha_dim
    n_z = 4000
    for scale in (0.3, 0.8):
        state = VariationalState(
            scale * np.eye(D) + 0.05 * rng.normal(size=(D, D)), rng.normal(size=D)
        )
        rng_z = np.random.default_rng(0)
        vals = []
        for _ in range(n_z):
            z = rng_z.standard_normal(D)
            vals.append(log_likelihood(y, X, *transform(state, z, cfg), cfg))
        vals = np.array(vals)
        mc_se = vals.std(ddof=1) / np.sqrt(n_z)
        assert vals.mean() - kl_divergence(state, prior, cfg) <= log_evidence + 3 * mc_se


def test_eta_views_read_the_flat_layout():
    # [vec(M) row-major, b, log noise, log signal]: writes through the
    # views land in the flat vector
    flat = np.arange(2 * 2 + 2 + 2, dtype=float)
    M, b = eta_views(flat, 2)
    np.testing.assert_array_equal(M, [[0.0, 1.0], [2.0, 3.0]])
    np.testing.assert_array_equal(b, [4.0, 5.0])
    M[1, 0] = -1.0
    b[1] = -2.0
    np.testing.assert_array_equal(flat, [0.0, 1.0, -1.0, 3.0, 4.0, -2.0, 6.0, 7.0])
