"""Acceptance suite: one test per shipped guarantee.

Each test is self-contained and named for the guarantee it enforces, so
``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
guarantee.  Time-boxed guarantees assert their own wall-clock budget.
"""

import time

import numpy as np
import pytest

import specgp as sg
from specgp.gradcheck import check_kl_gradient, check_stochastic_gradient
from specgp.gradient import draw_sample_sets, eta_views
from specgp.localmodel import conditional_moments

TWO_PI = 2.0 * np.pi


def _max_rel_err(got, ref):
    return np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref)))


def test_ac1_monte_carlo_kernel_matches_squared_exponential():
    """The single-frequency kernel, averaged over 2e5 prior frequency draws,
    recovers the squared-exponential kernel within 3 standard errors at 10
    random input pairs, in under 10 seconds."""
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    d, n_draws = 3, 200_000
    signal_variance = 1.7
    lengthscales = rng.uniform(0.3, 2.0, size=d)

    single = sg.SpectralConfig(
        d=d, m=1, signal_variance=signal_variance, noise_variance=1.0
    )
    prior = sg.PriorSpec(lengthscales)
    freqs = rng.normal(size=(n_draws, d)) * np.sqrt(prior.frequency_variance)

    # One stacked config holds all draws at once: its kernel value is exactly
    # the mean of the n_draws single-frequency kernel values.
    stacked = sg.SpectralConfig(
        d=d, m=n_draws, signal_variance=signal_variance, noise_variance=1.0
    )
    theta_stacked = freqs.ravel()

    for pair in range(10):
        x = rng.uniform(-1.0, 1.0, size=d)
        x2 = rng.uniform(-1.0, 1.0, size=d)
        diff = x - x2
        per_draw = signal_variance * np.cos(TWO_PI * (freqs @ diff))
        # Spot-check that the vectorized per-draw values match the m=1 kernel.
        for j in (0, n_draws // 2):
            assert sg.approx_kernel(x, x2, freqs[j], single) == pytest.approx(
                per_draw[j], abs=1e-12
            )
        mc_mean = float(per_draw.mean())
        mc_se = float(per_draw.std(ddof=1)) / np.sqrt(n_draws)
        exact = signal_variance * np.exp(-0.5 * np.sum((diff / lengthscales) ** 2))
        assert abs(mc_mean - exact) <= 3.0 * mc_se, f"pair {pair}"
        batched = sg.approx_kernel(x, x2, theta_stacked, stacked)
        assert abs(batched - mc_mean) <= 1e-10 * signal_variance
    assert time.perf_counter() - started < 10.0


def test_ac2_analytic_gradients_match_finite_differences():
    """Both gradient checks pass at 1e-5 relative error on 100 random
    instances in under 60 s: the whole stochastic gradient, in all D^2+D+2
    entries, against central differences of the sampled bound it estimates
    (its plan's block log likelihoods minus the exact KL), and the KL term
    against the exact KL divergence."""
    started = time.perf_counter()
    whole = check_stochastic_gradient(seed=0, instances=100)
    kl_term = check_kl_gradient(seed=0, instances=100)
    assert whole.tol <= 1e-5 and kl_term.tol <= 1e-5
    assert whole.passed, f"stochastic gradient max rel err {whole.max_rel_err:.3e}"
    assert kl_term.passed, f"KL term max rel err {kl_term.max_rel_err:.3e}"
    assert time.perf_counter() - started < 60.0


def _partition(X, y, rows):
    """The rows ``X[r], y[r]`` of each ``r`` in ``rows`` as one block each."""
    return sg.PartitionedDataset(
        blocks=[(X[r], y[r]) for r in rows],
        centroids=np.array([X[r].mean(axis=0) for r in rows]),
        block_indices=list(rows),
    )


def test_ac3_block_gradients_sum_to_full_data_gradient():
    """Summing per-block data-term gradients reproduces the whole-dataset
    gradient to 1e-10, the single-index estimator on the blocked data is p
    times its drawn block's term and, enumerated over every index, averages
    to the same value, and the whole-dataset gradient matches finite
    differences of the log likelihood.  A block's term is the stochastic
    gradient on that block alone plus the KL gradient: under one plan every
    dataset shares the plan's z, which does not depend on the block count."""
    rng = np.random.default_rng(3)
    cfg = sg.SpectralConfig(d=2, m=2, signal_variance=1.1, noise_variance=0.07)
    dim = cfg.alpha_dim
    n_eta = dim * (dim + 1)
    prior = sg.PriorSpec(np.array([0.5, 0.8]))

    for p in (1, 2, 3, 4):
        n = 4 * p + 1
        X = rng.uniform(-1.0, 1.0, size=(n, 2))
        y = rng.standard_normal(n)
        state = sg.VariationalState(
            np.eye(dim) + 0.05 * rng.standard_normal((dim, dim)),
            0.2 * rng.standard_normal(dim),
        )
        plan = sg.GradientSamplePlan(1, 1, rng_seed=p)
        kl = np.concatenate([g.ravel() for g in sg.kl_term_gradient(state, prior, cfg)])

        def estimate(data):
            return sg.stochastic_gradient(plan, data, state, prior, cfg)[:n_eta] + kl

        whole = estimate(_partition(X, y, [np.arange(n)]))
        cuts = np.sort(rng.choice(np.arange(1, n), size=p - 1, replace=False))
        rows = np.split(np.arange(n), cuts)
        terms = [estimate(_partition(X, y, [r])) for r in rows]

        assert _max_rel_err(sum(terms), whole) <= 1e-10

        # The estimator on the p blocks draws one index and scales its term
        # by p; averaged over every index, that estimator is the block sum.
        index = int(draw_sample_sets(plan, p, dim)[0][0])
        assert _max_rel_err(estimate(_partition(X, y, rows)), p * terms[index]) <= 1e-10
        enum = np.mean([p * t for t in terms], axis=0)
        assert _max_rel_err(enum, whole) <= 1e-10

        if p == 3:
            z = draw_sample_sets(plan, 1, dim)[1][0]
            step = 1e-6
            fd = np.empty_like(whole)
            fd_m, fd_b = eta_views(fd, dim)

            def loglik(m_mat, b_vec):
                bumped = sg.VariationalState(m_mat, b_vec)
                return sg.log_likelihood(y, X, *sg.transform(bumped, z, cfg), cfg)

            for i in range(dim):
                for j in range(dim):
                    bump = np.zeros((dim, dim))
                    bump[i, j] = step
                    fd_m[i, j] = (
                        loglik(state.M + bump, state.b)
                        - loglik(state.M - bump, state.b)
                    ) / (2.0 * step)
                bump = np.zeros(dim)
                bump[i] = step
                fd_b[i] = (
                    loglik(state.M, state.b + bump)
                    - loglik(state.M, state.b - bump)
                ) / (2.0 * step)
            assert _max_rel_err(whole, fd) <= 1e-5


def test_ac4_single_sample_gradient_estimates_are_unbiased():
    """Over 2e4 single-sample draws, each coordinate of the stochastic
    gradient on p blocks stays within 4 standard errors of the gradient on
    one block of all rows under the same plan (so the same z), in under 5
    minutes.  The KL term is identical in both and cancels from the
    comparison."""
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    cfg = sg.SpectralConfig(d=2, m=2, signal_variance=1.3, noise_variance=0.05)
    dim = cfg.alpha_dim
    n, p, draws = 12, 4, 20_000

    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = rng.standard_normal(n)
    blocked = _partition(X, y, np.split(rng.permutation(n), p))
    whole = _partition(X, y, [np.arange(n)])
    state = sg.VariationalState(
        np.eye(dim) + 0.1 * rng.standard_normal((dim, dim)),
        0.3 * rng.standard_normal(dim),
    )
    prior = sg.PriorSpec(np.array([0.6, 1.2]))

    diffs = np.empty((draws, dim * dim + dim + 2))
    for t in range(draws):
        plan = sg.GradientSamplePlan(1, 1, rng_seed=t)
        diffs[t] = sg.stochastic_gradient(plan, blocked, state, prior, cfg) - sg.stochastic_gradient(
            plan, whole, state, prior, cfg
        )

    mean = diffs.mean(axis=0)
    stderr = diffs.std(axis=0, ddof=1) / np.sqrt(draws)
    worst = np.max(np.abs(mean) - 4.0 * stderr - 1e-12)
    assert worst <= 0.0, f"worst coordinate exceeds 4 SE by {worst:.3e}"
    assert time.perf_counter() - started < 300.0


def test_ac5_training_halves_rmse_and_approaches_noise_floor(synthetic_problem):
    """After 1500 stochastic steps on the synthetic problem, test RMSE is at
    most half the untrained RMSE and within 1.5x the generating noise level,
    in under 5 minutes."""
    started = time.perf_counter()
    prob = synthetic_problem
    result = prob.train(0, 1500)
    before = prob.rmse_at(prob.test_idx, prob.initial_state(0), prob.cfg)
    after = prob.rmse_at(prob.test_idx, result.state, prob.cfg)
    assert after <= 0.5 * before, f"RMSE {after:.4f} vs untrained {before:.4f}"
    assert after <= 1.5 * prob.truth["noise"], f"RMSE {after:.4f} vs noise floor"
    assert time.perf_counter() - started < 300.0


def test_ac6_pure_local_mean_beats_mixed_mean_across_seeds(synthetic_problem):
    """Converged test RMSE with gamma=0 (pure data-conditioned mean) beats
    gamma=0.3 (partly subspace-sample mean) on at least 4 of 5 training
    seeds."""
    prob = synthetic_problem
    wins = 0
    for seed in range(5):
        state = prob.train(seed, 1500).state
        exact = prob.rmse_at(prob.test_idx, state, prob.cfg, gamma=0.0)
        mixed = prob.rmse_at(prob.test_idx, state, prob.cfg, gamma=0.3)
        wins += exact <= mixed
    assert wins >= 4, f"gamma=0 won only {wins}/5 seeds"


def test_ac7_iteration_cost_stays_flat_as_data_grows():
    """Median per-iteration wall clock is within 2x between n=1e4 and n=1e5
    when the block size is held at ~50 points (p scales with n).  Both
    partitions are built first, then three 60-iteration runs at each size
    alternate and the pooled medians are compared, so a switch of the host
    between a fast and a slow phase cannot land on one size only."""
    cfg = sg.SpectralConfig(d=2, m=5, signal_variance=1.0, noise_variance=0.01)
    tcfg = sg.TrainConfig(
        iterations=60,
        plan=sg.GradientSamplePlan(4, 8, 0),
        schedule=sg.StepSchedule(base_step=0.1, decay_power=0.51),
        seed=0,
    )
    problems = {}
    for n in (10_000, 100_000):
        dataset, _ = sg.synth_ssgp(n=n, d=2, m_true=2, noise=0.1, seed=0)
        part = sg.kmeans_partition(
            dataset.X, dataset.y, p=n // 50, seed=0, max_iters=3, balance=True
        )
        problems[n] = (part, sg.PriorSpec.for_inputs(dataset.X, cfg))

    samples = {n: [] for n in problems}
    for _ in range(3):
        for n, (part, prior) in problems.items():
            result = sg.train(part, sg.initial_state(prior, cfg, seed=0), prior, cfg, tcfg)
            samples[n].extend(rec.wall_clock_ms for rec in result.trace)
    small = float(np.median(samples[10_000]))
    big = float(np.median(samples[100_000]))
    assert big < 2.0 * small, f"{big:.3f} ms at n=1e5 vs {small:.3f} ms at n=1e4"
    assert small < 2.0 * big, f"{small:.3f} ms at n=1e4 vs {big:.3f} ms at n=1e5"


def test_ac8_mixing_identities_hold_in_closed_form():
    """On 50 random local models and gamma in {-1,-0.5,0,0.5,1}: evaluated at
    the calibrated weight mean, the predictive mean equals the pure local
    mean (the mean is affine in the weight draw, so this is the closed form
    of its expectation), and variance + gamma^2 * noise * quad recovers the
    gamma-free variance.  Both to 1e-8 relative."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        cfg = sg.SpectralConfig(
            d=d,
            m=m,
            signal_variance=float(rng.uniform(0.5, 2.0)),
            noise_variance=float(rng.uniform(0.01, 0.5)),
        )
        n_k = int(rng.integers(1, 12))
        X = rng.uniform(-1.0, 1.0, size=(n_k, d))
        y = rng.standard_normal(n_k)
        theta = rng.standard_normal(cfg.theta_dim)
        x_star = rng.uniform(-1.0, 1.0, size=d)
        phi = sg.basis_vector(x_star, theta, cfg)
        factor = sg.build_local_gram(X, y, theta, phi[:, None], cfg)
        k = cfg.num_features
        chol, half_mu = factor[:k, :k], factor[k, :k]

        mu_bar = np.linalg.solve(chol.T, half_mu)
        local_mean = float(phi @ mu_bar)
        half_phi = np.linalg.solve(chol, phi)
        quad = float(half_phi @ half_phi)
        base_variance = cfg.noise_variance * quad

        for gamma in (-1.0, -0.5, 0.0, 0.5, 1.0):
            mean, variance = conditional_moments(
                half_mu, factor[k + 1 :, :k], phi[:, None], mu_bar, gamma, cfg.noise_variance
            )
            assert abs(mean[0] - local_mean) <= 1e-8 * max(1.0, abs(local_mean))
            recovered = variance[0] + gamma**2 * cfg.noise_variance * quad
            assert abs(recovered - base_variance) <= 1e-8 * max(
                1.0, abs(base_variance)
            )


def test_ac9_metrics_reproduce_hand_computed_cases():
    """rmse and mnlp reproduce hand-computed two-point cases exactly."""
    assert sg.rmse(np.array([1.0, 3.0]), np.array([2.0, 5.0])) == np.sqrt(2.5)
    assert sg.rmse(np.array([1.5, -2.0]), np.array([1.5, -2.0])) == 0.0

    # Perfect predictions at unit variance: each term is log(2 pi) exactly.
    perfect = np.array([0.7, -0.3])
    assert sg.mnlp(perfect, np.ones(2), perfect) == 0.5 * np.log(2.0 * np.pi)

    means = np.array([0.5, -1.0])
    variances = np.array([0.8, 1.5])
    targets = np.array([1.0, -2.0])
    by_hand = 0.5 * np.mean(
        (targets - means) ** 2 / variances + np.log(2.0 * np.pi * variances)
    )
    got = sg.mnlp(means, variances, targets)
    assert got == by_hand
    assert got == pytest.approx(1.209310589069828, rel=1e-12)
