import numpy as np
import pytest

from specgp import (
    ContractError,
    DataError,
    Dataset,
    PriorSpec,
    SpectralConfig,
    Standardization,
    TrainedModel,
    feature_matrix,
    identity_standardization,
    initial_state,
    kmeans_partition,
    load_csv,
    load_model,
    save_csv,
    save_model,
    split_indices,
    synth_ssgp,
)


def write(path, text):
    path.write_text(text)
    return str(path)


def test_load_csv_exact_values(tmp_path):
    path = write(
        tmp_path / "small.csv",
        "a,b,y\n1.0,2.5,0.5\n-3.25,0.0,1.75\n10,0.125,-2.0\n",
    )
    ds = load_csv(path, target_column="y")
    np.testing.assert_array_equal(
        ds.X, np.array([[1.0, 2.5], [-3.25, 0.0], [10.0, 0.125]])
    )
    np.testing.assert_array_equal(ds.y, np.array([0.5, 1.75, -2.0]))
    assert ds.feature_names == ["a", "b"]
    assert ds.target_name == "y"
    assert ds.dropped_rows == 0
    assert ds.n == 3 and ds.d == 2


def test_load_csv_target_position_irrelevant(tmp_path):
    path = write(tmp_path / "mid.csv", "a,y,b\n1,7,2\n3,8,4\n")
    ds = load_csv(path, target_column="y")
    np.testing.assert_array_equal(ds.X, np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(ds.y, np.array([7.0, 8.0]))
    assert ds.feature_names == ["a", "b"]


def test_load_csv_drops_single_nan_row(tmp_path):
    path = write(tmp_path / "gap.csv", "a,y\n1,2\nnan,3\n4,5\n")
    ds = load_csv(path, target_column="y")
    assert ds.dropped_rows == 1
    assert ds.n == 2
    np.testing.assert_array_equal(ds.X[:, 0], [1.0, 4.0])


def test_load_csv_counts_all_missing_rows(tmp_path):
    path = write(tmp_path / "gaps.csv", "a,y\n1,2\n,3\n4,NA\ninf,0\n6,7\n")
    ds = load_csv(path, target_column="y")
    assert ds.dropped_rows == 3
    assert ds.n == 2


def test_load_csv_without_target(tmp_path):
    path = write(tmp_path / "feat.csv", "a,b\n1,2\n3,4\n")
    ds = load_csv(path, target_column=None)
    assert ds.y is None
    assert ds.feature_names == ["a", "b"]
    np.testing.assert_array_equal(ds.X, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_load_csv_distinct_errors(tmp_path):
    with pytest.raises(DataError, match="file not found"):
        load_csv(str(tmp_path / "absent.csv"), target_column="y")
    empty = write(tmp_path / "empty.csv", "")
    with pytest.raises(DataError, match="empty file"):
        load_csv(empty, target_column="y")
    bad_cell = write(tmp_path / "bad.csv", "a,y\n1,2\nfoo,3\n")
    with pytest.raises(DataError, match="non-numeric"):
        load_csv(bad_cell, target_column="y")
    no_target = write(tmp_path / "no_target.csv", "a,b\n1,2\n")
    with pytest.raises(DataError, match="target column"):
        load_csv(no_target, target_column="y")
    ragged = write(tmp_path / "ragged.csv", "a,y\n1,2\n3\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(ragged, target_column="y")
    only_target = write(tmp_path / "only.csv", "y\n1\n")
    with pytest.raises(DataError, match="no feature columns"):
        load_csv(only_target, target_column="y")
    all_dropped = write(tmp_path / "all_gone.csv", "a,y\nnan,1\n")
    with pytest.raises(DataError, match="no usable data rows"):
        load_csv(all_dropped, target_column="y")
    repeated = write(tmp_path / "repeated.csv", "x, x,y\n1,2,3\n")
    for target in ("y", None):
        with pytest.raises(DataError, match=r"repeated column names \['x'\]"):
            load_csv(repeated, target_column=target)


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    original = Dataset(
        X=np.concatenate(
            [rng.normal(size=(20, 3)), [[0.1, 1 / 3, 1e-17], [np.pi, -0.0, 2**-40]]]
        ),
        y=rng.normal(size=22),
        feature_names=["a", "b", "c"],
        target_name="target",
    )
    path = str(tmp_path / "round.csv")
    save_csv(path, original)
    reloaded = load_csv(path, target_column="target")
    np.testing.assert_array_equal(reloaded.X, original.X)
    np.testing.assert_array_equal(reloaded.y, original.y)
    assert reloaded.feature_names == original.feature_names


def test_split_indices_partition_properties():
    for seed in range(5):
        train, test = split_indices(103, 0.8, seed=seed)
        assert len(train) == 82 and len(test) == 21
        merged = np.concatenate([train, test])
        assert len(np.unique(merged)) == 103
    a = split_indices(50, 0.9, seed=3)
    b = split_indices(50, 0.9, seed=3)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = split_indices(50, 0.9, seed=4)
    assert not np.array_equal(a[0], c[0])


def test_split_indices_edge_cases():
    train, test = split_indices(10, 1.0)
    assert len(train) == 10 and len(test) == 0
    train, test = split_indices(1, 0.5)
    assert len(train) == 1 and len(test) == 0
    with pytest.raises(ContractError):
        split_indices(0, 0.5)
    with pytest.raises(ContractError):
        split_indices(10, 0.0)
    with pytest.raises(ContractError):
        split_indices(10, 1.5)


@pytest.mark.parametrize(
    "args, name",
    [((2.5, 0.5), "n"), ((True, 1.0), "n"), ((10, 0.5, 1.5), "seed"), ((10, 0.5, -1), "seed")],
)
def test_split_indices_refuses_counts_and_seeds_that_are_not_integers(args, name):
    with pytest.raises(ContractError, match=name):
        split_indices(*args)


def test_standardization_normalizes_training_portion():
    rng = np.random.default_rng(1)
    X = rng.normal(loc=3.0, scale=2.5, size=(200, 2))
    y = rng.normal(loc=-7.0, scale=4.0, size=200)
    std = Standardization.fit(X, y)
    Xs, ys = std.apply_x(X), std.apply_y(y)
    np.testing.assert_allclose(Xs.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(Xs.std(axis=0), 1.0, rtol=1e-12)
    assert ys.mean() == pytest.approx(0.0, abs=1e-12)
    assert ys.std() == pytest.approx(1.0, rel=1e-12)


def test_standardization_invertibility():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 3)) * 5 + 1
    y = rng.normal(size=40) * 3 - 2
    std = Standardization.fit(X, y)
    np.testing.assert_allclose(std.invert_mean(std.apply_y(y)), y, rtol=1e-12)
    variances = rng.uniform(0.1, 2.0, size=40)
    np.testing.assert_allclose(
        std.invert_variance(variances), variances * std.y_scale**2, rtol=1e-15
    )
    # unseen data maps through the same affine transform
    fresh = rng.normal(size=(5, 3))
    np.testing.assert_allclose(
        std.apply_x(fresh), (fresh - std.x_mean) / std.x_scale, rtol=1e-15
    )


def test_standardization_constant_column():
    X = np.column_stack([np.full(10, 4.2), np.arange(10.0)])
    y = np.full(10, 1.5)
    std = Standardization.fit(X, y)
    assert std.x_scale[0] == 1.0 and std.x_scale[1] == np.arange(10.0).std()
    assert std.y_scale == 1.0  # constant target keeps scale 1
    np.testing.assert_allclose(std.apply_x(X)[:, 0], 0.0, atol=1e-15)
    with pytest.raises(DataError):
        Standardization.fit(np.zeros((0, 2)), np.zeros(0))


def test_standardization_without_constant_columns_round_trips(tmp_path):
    # a standardization built by hand, with no record of which columns were
    # constant, saves and loads exactly
    rng = np.random.default_rng(3)
    cfg = SpectralConfig(d=2, m=2, signal_variance=1.0, noise_variance=0.2)
    X = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    prior = PriorSpec.for_inputs(X, cfg)
    std = Standardization(
        x_mean=np.array([0.5, -1.0]), x_scale=np.array([2.0, 0.25]), y_mean=3.0, y_scale=1.5
    )
    model = TrainedModel(
        state=initial_state(prior, cfg, seed=0),
        prior=prior,
        spectral=cfg,
        partition=kmeans_partition(X, y, p=2, seed=0),
        standardization=std,
    )
    path = str(tmp_path / "model.json")
    save_model(path, model)
    loaded = load_model(path).standardization
    for name in ("x_mean", "x_scale"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(std, name))
    assert (loaded.y_mean, loaded.y_scale) == (std.y_mean, std.y_scale)


def test_identity_standardization_is_noop():
    std = identity_standardization(3)
    X = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(std.apply_x(X), X)
    np.testing.assert_array_equal(std.invert_mean([1.0, 2.0]), [1.0, 2.0])
    np.testing.assert_array_equal(std.invert_variance([0.5]), [0.5])


def test_synth_noiseless_targets_match_generator():
    ds, truth = synth_ssgp(n=40, d=2, m_true=3, noise=0.0, seed=5)
    cfg = SpectralConfig(
        d=2, m=3, signal_variance=truth["signal_variance"], noise_variance=1.0
    )
    # the generator's own product: weights in their draw order cos_1, sin_1,
    # ..., against feature rows in the same order; truth["s"] is in alpha's
    # order (cosines, then sines), so its product differs only by roundoff
    phi = feature_matrix(ds.X, truth["theta"], cfg)
    drawn = np.empty(6)
    drawn[0::2], drawn[1::2] = truth["s"][:3], truth["s"][3:]
    rows = np.swapaxes(phi.reshape(2, 3, ds.n), 0, 1).reshape(6, ds.n)
    np.testing.assert_array_equal(ds.y, rows.T @ drawn)
    np.testing.assert_allclose(ds.y, phi.T @ truth["s"], rtol=0, atol=1e-14)
    assert ds.feature_names == ["x1", "x2"]
    assert truth["theta"].shape == (6,)
    assert truth["s"].shape == (6,)


def test_synth_inputs_in_unit_cube_and_deterministic():
    a, truth_a = synth_ssgp(n=100, d=3, m_true=2, noise=0.1, seed=9)
    b, truth_b = synth_ssgp(n=100, d=3, m_true=2, noise=0.1, seed=9)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(truth_a["theta"], truth_b["theta"])
    assert a.X.min() >= 0.0 and a.X.max() <= 1.0
    c, _ = synth_ssgp(n=100, d=3, m_true=2, noise=0.1, seed=10)
    assert not np.array_equal(a.y, c.y)


def test_synth_variance_budget():
    # marginally over frequencies and weights, var(y) = signal + noise
    # variance; large m_true makes a single draw concentrate
    noise = 0.5
    ds, _ = synth_ssgp(
        n=50000, d=2, m_true=200, noise=noise, seed=0, signal_variance=1.0
    )
    expected = 1.0 + noise**2
    assert abs(ds.y.var() - expected) <= 0.1 * expected


def test_synth_validation():
    with pytest.raises(ContractError):
        synth_ssgp(n=0, d=1, m_true=1, noise=0.1)
    with pytest.raises(ContractError):
        synth_ssgp(n=5, d=1, m_true=1, noise=-0.1)
    # nan would write noiseless targets and inf -inf targets
    for noise in (float("nan"), float("inf")):
        with pytest.raises(ContractError, match="noise"):
            synth_ssgp(n=5, d=1, m_true=1, noise=noise)


@pytest.mark.parametrize(
    "kwargs, name",
    [({"n": 2.5}, "n"), ({"n": True}, "n"), ({"seed": 1.5}, "seed"), ({"seed": "1"}, "seed")],
)
def test_synth_refuses_counts_and_seeds_that_are_not_integers(kwargs, name):
    with pytest.raises(ContractError, match=name):
        synth_ssgp(**{"n": 5, "d": 1, "m_true": 1, "noise": 0.1, **kwargs})
