import numpy as np
import pytest
from scipy import stats

from specgp import (
    AlphaVector,
    ContractError,
    EtaGradient,
    GradientSamplePlan,
    PartitionedDataset,
    PriorSpec,
    SpectralConfig,
    VariationalState,
    basis_vector,
    draw_sample_sets,
    elbo_estimate,
    feature_matrix,
    kl_term_gradient,
    log_likelihood,
    log_prior,
    log_q,
    partition_term,
    stochastic_gradient,
    transform,
    variance_gradients,
)


def make_cfg(d=2, m=2, ss2=1.3, sn2=0.4):
    return SpectralConfig(d=d, m=m, signal_variance=ss2, noise_variance=sn2)


def random_state(rng, dim, scale=0.4):
    M = scale * np.eye(dim) + 0.1 * rng.normal(size=(dim, dim))
    return VariationalState(M, 0.5 * rng.normal(size=dim))


def random_prior(rng, cfg):
    return PriorSpec(theta_prior_variance=rng.uniform(0.3, 1.5, size=cfg.theta_dim))


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
    alpha = AlphaVector(theta=rng.normal(size=cfg.theta_dim), s=np.zeros(cfg.num_features))
    expected = -0.5 * y @ y / cfg.noise_variance - 0.5 * 9 * np.log(
        2 * np.pi * cfg.noise_variance
    )
    assert log_likelihood(y, X, alpha, cfg) == pytest.approx(expected, rel=1e-12)


def test_log_likelihood_dense_gaussian_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        cfg = make_cfg(m=int(rng.integers(1, 4)))
        n = int(rng.integers(1, 12))
        X = rng.normal(size=(n, cfg.d))
        y = rng.normal(size=n)
        alpha = AlphaVector(
            theta=rng.normal(size=cfg.theta_dim), s=rng.normal(size=cfg.num_features)
        )
        mean = feature_matrix(X, alpha.theta, cfg).T @ alpha.s
        dense = stats.multivariate_normal(
            mean=mean, cov=cfg.noise_variance * np.eye(n)
        ).logpdf(y)
        assert log_likelihood(y, X, alpha, cfg) == pytest.approx(dense, rel=1e-10)


def test_log_likelihood_partition_additivity():
    cfg = make_cfg()
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, cfg.d))
    y = rng.normal(size=30)
    alpha = AlphaVector(
        theta=rng.normal(size=cfg.theta_dim), s=rng.normal(size=cfg.num_features)
    )
    whole = log_likelihood(y, X, alpha, cfg)
    cuts = [0, 7, 13, 22, 30]
    parts = sum(
        log_likelihood(y[a:b], X[a:b], alpha, cfg) for a, b in zip(cuts, cuts[1:])
    )
    assert parts == pytest.approx(whole, rel=1e-12)


def test_log_likelihood_perfect_fit():
    cfg = make_cfg()
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, cfg.d))
    alpha = AlphaVector(
        theta=rng.normal(size=cfg.theta_dim), s=rng.normal(size=cfg.num_features)
    )
    y = feature_matrix(X, alpha.theta, cfg).T @ alpha.s
    expected = -0.5 * 8 * np.log(2 * np.pi * cfg.noise_variance)
    assert log_likelihood(y, X, alpha, cfg) == pytest.approx(expected, rel=1e-12)


def test_partition_term_zero_residual():
    cfg = make_cfg()
    rng = np.random.default_rng(4)
    state = random_state(rng, cfg.alpha_dim)
    z = rng.normal(size=cfg.alpha_dim)
    alpha = transform(state, z, cfg)
    X = rng.normal(size=(6, cfg.d))
    y = feature_matrix(X, alpha.theta, cfg).T @ alpha.s
    grad = partition_term(y, X, alpha, state, z, cfg)
    np.testing.assert_allclose(grad.grad_m, 0.0, atol=1e-10)
    np.testing.assert_allclose(grad.grad_b, 0.0, atol=1e-10)


def test_partition_term_s_block_closed_form():
    # with z = 0 the offset gradient is the alpha gradient; its amplitude
    # block is Phi v / sigma_n^2
    cfg = make_cfg()
    rng = np.random.default_rng(5)
    state = random_state(rng, cfg.alpha_dim)
    z = np.zeros(cfg.alpha_dim)
    alpha = transform(state, z, cfg)
    X = rng.normal(size=(7, cfg.d))
    y = rng.normal(size=7)
    grad = partition_term(y, X, alpha, state, z, cfg)
    Phi = feature_matrix(X, alpha.theta, cfg)
    v = y - Phi.T @ alpha.s
    np.testing.assert_allclose(
        grad.grad_b[cfg.theta_dim :], Phi @ v / cfg.noise_variance, rtol=1e-10
    )
    # z = 0 kills the M part entirely
    np.testing.assert_allclose(grad.grad_m, 0.0, atol=1e-12)


def test_partition_term_finite_differences():
    rng = np.random.default_rng(6)
    for _ in range(5):
        cfg = make_cfg(d=int(rng.integers(1, 3)), m=int(rng.integers(1, 3)))
        state = random_state(rng, cfg.alpha_dim)
        z = rng.normal(size=cfg.alpha_dim)
        X = rng.normal(size=(8, cfg.d))
        y = rng.normal(size=8)
        alpha = transform(state, z, cfg)
        grad = partition_term(y, X, alpha, state, z, cfg)

        def objective(M, b):
            a = transform(VariationalState(M, b), z, cfg)
            v = y - feature_matrix(X, a.theta, cfg).T @ a.s
            return -0.5 * v @ v / cfg.noise_variance

        fd_m, fd_b = eta_finite_difference(objective, state)
        scale = max(1.0, np.abs(fd_m).max(), np.abs(fd_b).max())
        assert np.abs(grad.grad_m - fd_m).max() / scale <= 1e-5
        assert np.abs(grad.grad_b - fd_b).max() / scale <= 1e-5


def test_blockwise_terms_sum_to_whole():
    # summing the per-block gradients equals the single-block gradient of
    # the concatenated data
    cfg = make_cfg()
    rng = np.random.default_rng(7)
    state = random_state(rng, cfg.alpha_dim)
    z = rng.normal(size=cfg.alpha_dim)
    alpha = transform(state, z, cfg)
    X = rng.normal(size=(20, cfg.d))
    y = rng.normal(size=20)
    whole = partition_term(y, X, alpha, state, z, cfg)
    cuts = [0, 5, 9, 16, 20]
    sum_m = np.zeros_like(whole.grad_m)
    sum_b = np.zeros_like(whole.grad_b)
    for a, b in zip(cuts, cuts[1:]):
        g = partition_term(y[a:b], X[a:b], alpha, state, z, cfg)
        sum_m += g.grad_m
        sum_b += g.grad_b
    scale = max(1.0, np.abs(whole.grad_m).max(), np.abs(whole.grad_b).max())
    assert np.abs(sum_m - whole.grad_m).max() / scale <= 1e-10
    assert np.abs(sum_b - whole.grad_b).max() / scale <= 1e-10


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


def test_plan_validation():
    with pytest.raises(ContractError):
        GradientSamplePlan(n_partition_samples=0, n_z_samples=1)
    with pytest.raises(ContractError):
        GradientSamplePlan(n_partition_samples=1, n_z_samples=0)


def test_stochastic_gradient_single_partition_exact():
    # p = 1, a = b = 1: the estimate equals p*F_0(z) - klgrad(z) exactly
    cfg = make_cfg()
    rng = np.random.default_rng(8)
    prior = random_prior(rng, cfg)
    state = random_state(rng, cfg.alpha_dim)
    data = make_dataset(rng, cfg, [9])
    plan = GradientSamplePlan(1, 1, rng_seed=5)
    est = stochastic_gradient(plan, data, state, prior, cfg)
    _, z_draws = draw_sample_sets(plan, 1, cfg.alpha_dim)
    z = z_draws[0]
    alpha = transform(state, z, cfg)
    X, y = data.blocks[0]
    f = partition_term(y, X, alpha, state, z, cfg)
    km, kb = kl_term_gradient(state, z, prior, cfg)
    np.testing.assert_allclose(est.grad_m, f.grad_m - km, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(est.grad_b, f.grad_b - kb, rtol=1e-12, atol=1e-12)


def test_stochastic_gradient_exhaustive_enumeration():
    # averaging p*F_i over every index with a fixed z equals the sum of the
    # per-block terms
    cfg = make_cfg()
    rng = np.random.default_rng(9)
    prior = random_prior(rng, cfg)
    state = random_state(rng, cfg.alpha_dim)
    for p in (2, 3, 4):
        data = make_dataset(rng, cfg, [int(rng.integers(2, 8)) for _ in range(p)])
        z = rng.normal(size=cfg.alpha_dim)
        alpha = transform(state, z, cfg)
        mean_m = np.zeros((cfg.alpha_dim, cfg.alpha_dim))
        mean_b = np.zeros(cfg.alpha_dim)
        sum_m = np.zeros_like(mean_m)
        sum_b = np.zeros_like(mean_b)
        for i in range(p):
            X, y = data.blocks[i]
            f = partition_term(y, X, alpha, state, z, cfg)
            mean_m += p * f.grad_m / p
            mean_b += p * f.grad_b / p
            sum_m += f.grad_m
            sum_b += f.grad_b
        scale = max(1.0, np.abs(sum_m).max(), np.abs(sum_b).max())
        assert np.abs(mean_m - sum_m).max() / scale <= 1e-10
        assert np.abs(mean_b - sum_b).max() / scale <= 1e-10


def test_stochastic_gradient_determinism_and_finiteness():
    cfg = make_cfg()
    rng = np.random.default_rng(10)
    prior = random_prior(rng, cfg)
    state = random_state(rng, cfg.alpha_dim)
    data = make_dataset(rng, cfg, [5, 8, 3])
    plan = GradientSamplePlan(4, 4, rng_seed=77)
    g1 = stochastic_gradient(plan, data, state, prior, cfg)
    g2 = stochastic_gradient(plan, data, state, prior, cfg)
    np.testing.assert_array_equal(g1.grad_m, g2.grad_m)
    np.testing.assert_array_equal(g1.grad_b, g2.grad_b)
    assert np.isfinite(g1.grad_m).all() and np.isfinite(g1.grad_b).all()
    assert g1.norm() > 0


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
    grad, (d_noise, d_signal) = stochastic_gradient(
        plan, data, state, prior, cfg, return_variance_grads=True
    )
    indices, z_draws = draw_sample_sets(plan, data.p, cfg.alpha_dim)
    assert len(set(indices.tolist())) < a

    scale = data.p / (a * b_count)
    ref_m = np.zeros_like(grad.grad_m)
    ref_b = np.zeros_like(grad.grad_b)
    ref_noise = ref_signal = 0.0
    for z in z_draws:
        alpha = transform(state, z, cfg)
        for i in indices:
            X, y = data.blocks[i]
            f = partition_term(y, X, alpha, state, z, cfg)
            ref_m += scale * f.grad_m
            ref_b += scale * f.grad_b
            ref_noise += scale * variance_gradients(y, X, alpha, cfg)[0]
        km, kb = kl_term_gradient(state, z, prior, cfg)
        ref_m -= km / b_count
        ref_b -= kb / b_count
        X, y = data.blocks[0]
        ref_signal += variance_gradients(y, X, alpha, cfg)[1] / b_count
    assert_rel_close(grad.grad_m, ref_m)
    assert_rel_close(grad.grad_b, ref_b)
    assert_rel_close(d_noise, ref_noise)
    assert_rel_close(d_signal, ref_signal)

    n_z = 6
    elbo, parts = elbo_estimate(n_z, data, state, prior, cfg, seed=9, return_parts=True)
    terms = []
    elbo_draws = np.random.default_rng(np.random.SeedSequence(9)).standard_normal(
        (n_z, cfg.alpha_dim)
    )
    for z in elbo_draws:
        alpha = transform(state, z, cfg)
        ll = sum(log_likelihood(y, X, alpha, cfg) for X, y in data.blocks)
        terms.append([ll, log_prior(alpha, prior, cfg), log_q(state, z)])
    terms = np.array(terms)
    assert_rel_close(elbo, np.mean(terms[:, 0] + terms[:, 1] - terms[:, 2]))
    assert_rel_close(
        [parts["log_likelihood"], parts["log_prior"], parts["log_q"]], terms.mean(axis=0)
    )


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
            draws.append(np.concatenate([g.grad_m.ravel(), g.grad_b]))
        return np.var(np.array(draws), axis=0).mean()

    assert empirical_variance(4, 4) < empirical_variance(1, 1)


def test_stochastic_gradient_unbiased_small():
    # sample mean over many single-sample estimates approaches the
    # exhaustive reference that shares the same z draws
    cfg = make_cfg(d=1, m=1, sn2=0.5)
    rng = np.random.default_rng(12)
    prior = random_prior(rng, cfg)
    state = random_state(rng, cfg.alpha_dim)
    p = 3
    data = make_dataset(rng, cfg, [4, 6, 5])
    T = 3000
    diffs = []
    for t in range(T):
        plan = GradientSamplePlan(1, 1, rng_seed=t)
        indices, z_draws = draw_sample_sets(plan, p, cfg.alpha_dim)
        z = z_draws[0]
        alpha = transform(state, z, cfg)
        X, y = data.blocks[indices[0]]
        est = partition_term(y, X, alpha, state, z, cfg)
        ref_m = np.zeros_like(est.grad_m)
        ref_b = np.zeros_like(est.grad_b)
        for i in range(p):
            Xi, yi = data.blocks[i]
            f = partition_term(yi, Xi, alpha, state, z, cfg)
            ref_m += f.grad_m
            ref_b += f.grad_b
        diffs.append(
            np.concatenate([(p * est.grad_m - ref_m).ravel(), p * est.grad_b - ref_b])
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


def test_elbo_noiseless_fit_data_term():
    # targets generated exactly at alpha = b with a nearly collapsed state:
    # the likelihood part approaches its maximum
    cfg = make_cfg(d=1, m=2, sn2=0.3)
    rng = np.random.default_rng(14)
    prior = random_prior(rng, cfg)
    D = cfg.alpha_dim
    b = rng.normal(size=D)
    alpha = AlphaVector.from_flat(b, cfg)
    X = rng.normal(size=(8, 1))
    y = feature_matrix(X, alpha.theta, cfg).T @ alpha.s
    data = make_dataset(rng, cfg, [1])
    data.blocks[0] = (X, y)
    state = VariationalState(1e-9 * np.eye(D), b)
    _, parts = elbo_estimate(16, data, state, prior, cfg, seed=0, return_parts=True)
    expected = -0.5 * 8 * np.log(2 * np.pi * cfg.noise_variance)
    assert parts["log_likelihood"] == pytest.approx(expected, rel=1e-6)


def test_elbo_below_quadrature_marginal_likelihood():
    # one frequency in one dimension: integrate the dense marginal
    # likelihood over the frequency with Gauss-Hermite quadrature and over
    # the amplitudes in closed form; the bound must sit below it
    cfg = make_cfg(d=1, m=1, ss2=1.0, sn2=0.4)
    rng = np.random.default_rng(15)
    prior = PriorSpec(theta_prior_variance=np.array([0.5]))
    n = 8
    X = rng.normal(size=(n, 1))
    y = rng.normal(size=n)
    data = make_dataset(rng, cfg, [1])
    data.blocks[0] = (X, y)

    nodes, weights = np.polynomial.hermite.hermgauss(40)
    total = 0.0
    sd = np.sqrt(prior.theta_prior_variance[0])
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
            alpha = transform(state, z, cfg)
            vals.append(
                log_likelihood(y, X, alpha, cfg)
                + log_prior(alpha, prior, cfg)
                - log_q(state, z)
            )
        vals = np.array(vals)
        mc_se = vals.std(ddof=1) / np.sqrt(n_z)
        assert vals.mean() <= log_evidence + 3 * mc_se


def test_eta_gradient_norm():
    g = EtaGradient(grad_m=np.array([[3.0, 0.0], [0.0, 0.0]]), grad_b=np.array([0.0, 4.0]))
    assert g.norm() == pytest.approx(5.0)
