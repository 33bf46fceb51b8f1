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
    load_model,
    mnlp,
    mnlp_variance_floor,
    posterior_draws,
    predict_batch,
    rmse,
    save_model,
    transform,
)
from specgp.features import basis_vector
from specgp.localmodel import conditional_moments


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


def one_point_moments(x, block, theta, s, gamma_mix, cfg, block_id):
    """Predictive mean and variance for one draw at one point, from the
    scalar ``basis_vector`` features as one column ``(2m, 1)``; ``block`` is
    ``(X_k, y_k)``."""
    k = cfg.num_features
    phi = basis_vector(x, theta, cfg)[:, None]
    factor = build_local_gram(*block, theta, phi, cfg, block_id=block_id)
    w, h_t = factor[k, :k], factor[k + 1 :, :k]
    mean, variance = conditional_moments(w, h_t, phi, s, gamma_mix, cfg.noise_variance)
    return float(mean[0]), float(variance[0])


def loop_reference(X_star, model, pcfg):
    """Re-derive the batch output one sample and one point at a time."""
    cfg = model.spectral
    z_draws = posterior_draws(model, pcfg)
    means = np.zeros(len(X_star))
    seconds = np.zeros(len(X_star))
    for j, x in enumerate(X_star):
        k = assign_blocks(x[None, :], model.partition)[0]
        block = model.partition.blocks[k]
        for z in z_draws:
            theta, s = transform(model.state, z, cfg)
            mean, variance = one_point_moments(x, block, theta, s, pcfg.gamma_mix, cfg, k)
            means[j] += mean
            seconds[j] += variance + mean**2
    means /= pcfg.n_samples
    variances = np.maximum(seconds / pcfg.n_samples - means**2, 0.0)
    return means, variances


def test_predict_config_validation():
    with pytest.raises(ContractError):
        PredictConfig(n_samples=0, gamma_mix=0.0)
    with pytest.raises(ContractError):
        PredictConfig(n_samples=64, gamma_mix=1.5)
    with pytest.raises(ContractError):
        PredictConfig(n_samples=64, gamma_mix=float("nan"))


@pytest.mark.parametrize("n_samples", [0, 1.5, True, np.float64(2.0), "3", None])
def test_predict_config_refuses_a_sample_count_that_is_not_an_integer_at_least_one(n_samples):
    with pytest.raises(ContractError, match="n_samples"):
        PredictConfig(n_samples=n_samples, gamma_mix=0.0)


def test_predict_config_takes_numpy_integer_sample_counts():
    model = make_model(seed=2)
    X_star = np.zeros((1, 2))
    pcfg = PredictConfig(n_samples=np.int64(4), gamma_mix=0.0, seed=3)
    assert type(pcfg.n_samples) is int and pcfg.n_samples == 4
    got = predict_batch(X_star, model, pcfg)
    want = predict_batch(X_star, make_model(seed=2), PredictConfig(4, 0.0, seed=3))
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(2.0), "3", None])
def test_predict_config_refuses_a_seed_that_is_not_an_integer_at_least_zero(seed):
    with pytest.raises(ContractError, match="seed"):
        PredictConfig(n_samples=4, gamma_mix=0.0, seed=seed)


def test_predict_config_takes_numpy_integer_seeds():
    model = make_model(seed=2)
    X_star = np.zeros((1, 2))
    for seed in (np.int64(3), np.uint32(3), 3):
        pcfg = PredictConfig(n_samples=4, gamma_mix=0.0, seed=seed)
        got = predict_batch(X_star, model, pcfg)
        want = predict_batch(X_star, model, PredictConfig(4, 0.0, seed=3))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


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
    # r = 10 is not a multiple of 3, so the last 3-draw chunk is short.  Both
    # factor sources are chunked: the memo's identity-border rows (the model
    # fits the memo budget) and the per-call factors (the budget patched to
    # zero), bordered by phi_* for a block's t_k <= 2m = 4 test rows and by
    # the identity above
    model = make_model(seed=14, p=p)
    X_star = np.random.default_rng(15).normal(size=(5, 2))
    labels = assign_blocks(X_star, model.partition)
    hit = set(np.unique(labels).tolist())
    r = 10
    calls = {}
    borders = {}
    factorizations = []
    build = predict_module.build_local_gram
    cholesky = np.linalg.cholesky

    def recording_build(X_k, y_k, theta, phi_star, cfg, block_id=0):
        calls.setdefault(block_id, []).append(len(theta))
        borders.setdefault(block_id, set()).add(None if phi_star is None else phi_star.shape[-1])
        return build(X_k, y_k, theta, phi_star, cfg, block_id=block_id)

    def counting_cholesky(a, *args, **kwargs):
        factorizations.append(a.shape[:-2])
        return cholesky(a, *args, **kwargs)

    def predict(pcfg):
        model.predict_memo.clear()
        calls.clear()
        borders.clear()
        factorizations.clear()
        return predict_batch(X_star, model, pcfg)

    monkeypatch.setattr(predict_module, "build_local_gram", recording_build)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    # a draw's buffers hold 2m * n_k block feature and K^2 factor elements,
    # plus 2m * t_k test-point feature elements per call; at p=1 that is
    # 2m * n + 2 K^2 with K = 4m + 1 for the memo, which holds each
    # bordered matrix and its factor, within _IDENTITY_CHUNK_ELEMENTS, and
    # 2m * (n + t) + K^2 per call, within _CHUNK_ELEMENTS, where t = 5 > 2m
    # takes the identity border, K = 4m + 1
    cfg = model.spectral
    n = model.partition.blocks[0][0].shape[0]
    k = cfg.num_features
    per_draw = {
        "memo": k * n + 2 * (2 * k + 1) ** 2,
        "per_call": k * (n + 5) + (2 * k + 1) ** 2,
    }
    counts = {b: int(np.sum(labels == b)) for b in hit}
    per_call_borders = {b: {t if t <= k else None} for b, t in counts.items()}
    want_borders = {"memo": {b: {None} for b in hit}, "per_call": per_call_borders}
    chunk_budget = {"memo": "_IDENTITY_CHUNK_ELEMENTS", "per_call": "_CHUNK_ELEMENTS"}
    for source, budget in (("memo", predict_module._MEMO_ELEMENTS), ("per_call", 0)):
        monkeypatch.setattr(predict_module, "_MEMO_ELEMENTS", budget)
        cap = draws_per_chunk * per_draw[source] if p == 1 else 1
        for gamma in (0.0, 0.4, -0.3):
            pcfg = PredictConfig(n_samples=r, gamma_mix=gamma, seed=19)
            whole = predict(pcfg)
            assert set(calls) == hit
            assert all(sizes == [r] for sizes in calls.values())
            assert borders == want_borders[source]
            assert factorizations == [(r,)] * len(hit)
            with monkeypatch.context() as patch:
                patch.setattr(predict_module, chunk_budget[source], cap)
                chunked = predict(pcfg)
            # one entry per block hit, one stacked factorization per chunk
            assert set(calls) == hit
            assert all(sizes == chunk_sizes for sizes in calls.values())
            assert borders == want_borders[source]
            assert factorizations == [(size,) for size in chunk_sizes] * len(hit)
            assert bool(model.predict_memo) == (source == "memo")
            reference = loop_reference(X_star, model, pcfg)
            for got, want, ref in zip(chunked, whole, reference):
                np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
                np.testing.assert_allclose(got, ref, atol=1e-12, rtol=0)


def memo_elements(model):
    return sum(
        theta.size + s.size + sum(rows.size for rows in by_block.values())
        for theta, s, by_block in model.predict_memo.values()
    )


def memo_need(model, r):
    """Elements of a full memo entry: p r (2m + 1) 2m + r D."""
    cfg = model.spectral
    k = cfg.num_features
    return model.partition.p * r * (k + 1) * k + r * cfg.alpha_dim


@pytest.fixture
def build_calls(monkeypatch):
    """The ``phi_star`` argument of each ``build_local_gram`` call, and the
    stack shape of each ``np.linalg.cholesky`` call, in order."""
    calls = {"build": [], "cholesky": []}
    build = predict_module.build_local_gram
    cholesky = np.linalg.cholesky

    def recording_build(X_k, y_k, theta, phi_star, cfg, block_id=0):
        calls["build"].append(phi_star)
        return build(X_k, y_k, theta, phi_star, cfg, block_id=block_id)

    def counting_cholesky(a, *args, **kwargs):
        calls["cholesky"].append(a.shape)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(predict_module, "build_local_gram", recording_build)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    return calls


def test_warm_cold_and_loaded_memo_predict_the_same_bits(tmp_path, build_calls):
    model = make_model(seed=21, p=4)
    X_star = np.random.default_rng(22).normal(size=(9, 2))
    pcfg = PredictConfig(n_samples=16, gamma_mix=0.3, seed=23)
    assert memo_need(model, 16) <= predict_module._MEMO_ELEMENTS
    cold = predict_batch(X_star, model, pcfg)
    hit = np.unique(assign_blocks(X_star, model.partition)).size
    assert len(build_calls["build"]) == hit
    assert all(phi_star is None for phi_star in build_calls["build"])
    build_calls["build"].clear()
    build_calls["cholesky"].clear()
    warm = predict_batch(X_star, model, pcfg)
    # the warm call factors nothing
    assert build_calls == {"build": [], "cholesky": []}
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert not loaded.predict_memo
    fresh = predict_batch(X_star, loaded, pcfg)
    for a, b, c in zip(cold, warm, fresh):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)
    # one row at a time goes through the same memo rows
    for j, x in enumerate(X_star):
        one = predict_batch(x[None, :], model, pcfg)
        assert one[0][0] == pytest.approx(cold[0][j], rel=1e-12, abs=1e-14)
        assert one[1][0] == pytest.approx(cold[1][j], rel=1e-12, abs=1e-14)


def test_memo_and_per_call_paths_agree_to_roundoff(monkeypatch):
    # one block; at t = 1 and t = 2m = 4 test rows the memo reads the
    # identity border and the per-call path the phi_* border, at t = 9 both
    # read the identity border
    model = make_model(seed=24, n=40, p=1)
    rng = np.random.default_rng(25)
    pcfg = PredictConfig(n_samples=32, gamma_mix=0.2, seed=26)
    for t in (1, 4, 9):
        X_star = rng.normal(size=(t, 2))
        memo = predict_batch(X_star, model, pcfg)
        assert model.predict_memo
        with monkeypatch.context() as patch:
            patch.setattr(predict_module, "_MEMO_ELEMENTS", 0)
            per_call = predict_batch(X_star, make_model(seed=24, n=40, p=1), pcfg)
        for got, want in zip(memo, per_call):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_gamma_mix_reuses_the_memo_entry(build_calls):
    model = make_model(seed=27, p=3)
    X_star = np.random.default_rng(28).normal(size=(6, 2))
    predict_batch(X_star, model, PredictConfig(n_samples=12, gamma_mix=0.0, seed=29))
    (key, entry), = model.predict_memo.items()
    assert key == 29
    build_calls["build"].clear()
    for gamma in (0.5, -0.7, 1.0):
        predict_batch(X_star, model, PredictConfig(n_samples=12, gamma_mix=gamma, seed=29))
        assert build_calls["build"] == []
        (key_now, entry_now), = model.predict_memo.items()
        assert key_now == key and entry_now is entry


def test_a_new_seed_or_sample_count_replaces_the_memo_entry(build_calls):
    # a new seed or a larger count replaces the entry; a smaller count of
    # the same seed reads the first rows of the one it holds
    model = make_model(seed=30, p=3)
    X_star = np.random.default_rng(31).normal(size=(6, 2))
    hit = np.unique(assign_blocks(X_star, model.partition)).size
    for seed, r, held in ((1, 8, 8), (2, 8, 8), (2, 9, 9), (2, 5, 9), (1, 8, 8)):
        build_calls["build"].clear()
        predict_batch(X_star, model, PredictConfig(n_samples=r, gamma_mix=0.0, seed=seed))
        assert list(model.predict_memo) == [seed]
        # the replaced entry is rebuilt from scratch
        assert len(build_calls["build"]) == (hit if held == r else 0)
        theta, s, by_block = model.predict_memo[seed]
        assert theta.shape[0] == s.shape[0] == held
        assert all(rows.shape == (held, 5, 4) for rows in by_block.values())


def test_over_budget_predicts_per_call_and_keeps_the_entry(monkeypatch, build_calls):
    model = make_model(seed=32, p=3)
    rng = np.random.default_rng(33)
    # seven random rows, then six at the first centroid: that block gets
    # more than 2m = 4 test rows
    X_star = np.vstack([rng.normal(size=(7, 2)), np.repeat(model.partition.centroids[:1], 6, 0)])
    labels = assign_blocks(X_star, model.partition)
    hit = np.unique(labels)
    k = model.spectral.num_features
    small = PredictConfig(n_samples=8, gamma_mix=0.0, seed=34)
    large = PredictConfig(n_samples=9, gamma_mix=0.0, seed=34)
    # the budget fits exactly the 8-draw entry, so the 9-draw one is over
    monkeypatch.setattr(predict_module, "_MEMO_ELEMENTS", memo_need(model, 8))
    predict_batch(X_star, model, small)
    assert memo_elements(model) <= predict_module._MEMO_ELEMENTS
    (entry,) = model.predict_memo.values()
    build_calls["build"].clear()
    build_calls["cholesky"].clear()
    predict_batch(X_star, model, large)
    # one stacked Cholesky of all 9 draws per block hit, bordered by the
    # block's phi_* for t_k <= 2m test rows and by the identity (None) above
    counts = [int(np.sum(labels == b)) for b in hit]
    assert max(counts) > k >= min(counts)
    assert [None if phi is None else phi.shape for phi in build_calls["build"]] == [
        (9, k, t) if t <= k else None for t in counts
    ]
    assert build_calls["cholesky"] == [
        (9, k + 1 + min(t, k), k + 1 + min(t, k)) for t in counts
    ]
    # the over-budget call stored nothing and evicted nothing
    assert list(model.predict_memo) == [34]
    assert model.predict_memo[34] is entry
    assert entry[0].shape[0] == 8


@pytest.mark.parametrize("chunk_elements", [predict_module._IDENTITY_CHUNK_ELEMENTS, 800])
def test_a_smaller_count_reads_a_larger_entry_bit_for_bit(tmp_path, monkeypatch, build_calls,
                                                          chunk_elements):
    # the entry holds 256 draws; a call of fewer reads its first rows and
    # gives the bits of a fresh model and of a loaded one, whose entries
    # are built at the call's count.  At 800 elements the identity rows
    # are built three or four draws at a time, so the last chunk of a
    # smaller entry is cut short where the larger entry's is not
    monkeypatch.setattr(predict_module, "_IDENTITY_CHUNK_ELEMENTS", chunk_elements)
    model = make_model(seed=37, p=4)
    X_star = np.random.default_rng(38).normal(size=(11, 2))
    assert memo_need(model, 256) <= predict_module._MEMO_ELEMENTS
    # the centroids hit every block, so every block's rows hold 256 draws
    predict_batch(model.partition.centroids, model, PredictConfig(256, 0.0, seed=39))
    path = tmp_path / "model.json"
    save_model(path, model)
    for r in (1, 7, 13, 64, 200):
        pcfg = PredictConfig(n_samples=r, gamma_mix=0.3, seed=39)
        build_calls["build"].clear()
        held = predict_batch(X_star, model, pcfg)
        assert build_calls["build"] == []
        theta, s, by_block = model.predict_memo[39]
        assert theta.shape[0] == s.shape[0] == 256
        assert all(rows.shape[0] == 256 for rows in by_block.values())
        for other in (make_model(seed=37, p=4), load_model(path)):
            fresh = predict_batch(X_star, other, pcfg)
            assert other.predict_memo[39][0].shape[0] == r
            for a, b in zip(held, fresh):
                np.testing.assert_array_equal(a, b)


def test_no_chunk_reads_past_the_call_count(monkeypatch):
    # at 40 elements a single-row block reads the memo 5 draws at a time,
    # so 13 draws are read as 5, 5 and 3 though the entry holds 256
    model = make_model(seed=40, p=3)
    X_star = model.partition.centroids
    predict_batch(X_star, model, PredictConfig(256, 0.0, seed=41))
    seen = []
    moments = predict_module.conditional_moments

    def recording_moments(w, h_t, phi_star, s, gamma_mix, noise_variance):
        seen.append((w.shape[0], h_t.shape[0], phi_star.shape[0], s.shape[0]))
        return moments(w, h_t, phi_star, s, gamma_mix, noise_variance)

    monkeypatch.setattr(predict_module, "conditional_moments", recording_moments)
    monkeypatch.setattr(predict_module, "_CHUNK_ELEMENTS", 40)
    predict_batch(X_star, model, PredictConfig(13, 0.0, seed=41))
    assert model.predict_memo[41][0].shape[0] == 256
    assert seen == [(size,) * 4 for size in (5, 5, 3)] * model.partition.p


def test_model_arrays_cannot_be_edited_in_place():
    # the memo would go stale if they could
    model = make_model(seed=42, p=3)
    X_star = np.random.default_rng(43).normal(size=(4, 2))
    pcfg = PredictConfig(n_samples=8, gamma_mix=0.0, seed=44)
    before = predict_batch(X_star, model, pcfg)
    arrays = [model.state.M, model.state.b, model.state.inverse_transpose]
    arrays += [model.partition.centroids]
    arrays += [a for block in model.partition.blocks for a in block]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] += 1.0
    after = predict_batch(X_star, make_model(seed=42, p=3), pcfg)
    for a, b in zip(before, after):
        np.testing.assert_array_equal(a, b)


def test_memo_never_exceeds_its_budget(monkeypatch):
    model = make_model(seed=35, n=60, p=5)
    # the centroids hit every block
    X_star = model.partition.centroids
    for r in (4, 16, 64):
        need = memo_need(model, r)
        assert need <= predict_module._MEMO_ELEMENTS
        pcfg = PredictConfig(n_samples=r, gamma_mix=0.0, seed=36)
        for budget, stored in ((need, need), (need - 1, 0)):
            with monkeypatch.context() as patch:
                patch.setattr(predict_module, "_MEMO_ELEMENTS", budget)
                fresh = make_model(seed=35, n=60, p=5)
                predict_batch(X_star, fresh, pcfg)
                assert memo_elements(fresh) == stored <= budget
        # one model across sample counts holds the latest entry alone
        predict_batch(X_star, model, pcfg)
        assert memo_elements(model) == need


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


def test_empty_batch_gives_empty_float_arrays():
    model = make_model(seed=3)
    for gamma in (0.0, 0.3):
        pcfg = PredictConfig(n_samples=8, gamma_mix=gamma, seed=5)
        for out in predict_batch(np.zeros((0, 2)), model, pcfg):
            assert out.shape == (0,) and out.dtype == np.float64


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
    theta_b, s_b = transform(model.state, np.zeros(D), cfg)
    for r in (1, 8, 64):
        pcfg = PredictConfig(n_samples=r, gamma_mix=0.3, seed=r)
        means, _ = predict_batch(X_star, model, pcfg)
        for j, x in enumerate(X_star):
            k = assign_blocks(x[None, :], model.partition)[0]
            block = model.partition.blocks[k]
            expected, _ = one_point_moments(x, block, theta_b, s_b, 0.3, cfg, k)
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
        theta, s = transform(model.state, z, cfg)
        for j, x in enumerate(X_star):
            phi = specgp.basis_vector(x, theta, cfg)
            draws[i, j] = phi @ s
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
