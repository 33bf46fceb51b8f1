import numpy as np
import pytest

from specgp import ContractError, PartitionedDataset, assign_blocks, kmeans_partition
from specgp.partition import _repair_empty


def wcss(part):
    total = 0.0
    for k, (X, _) in enumerate(part.blocks):
        if len(X):
            total += ((X - part.centroids[k]) ** 2).sum()
    return total


def reassemble(part, n, d):
    X = np.empty((n, d))
    y = np.empty(n)
    for (Xk, yk), idx in zip(part.blocks, part.block_indices):
        X[idx] = Xk
        y[idx] = yk
    return X, y


def centroids_only(centroids):
    """A dataset shell carrying just centroids, for assignment tests."""
    p, d = centroids.shape
    empty = [(np.zeros((0, d)), np.zeros(0))] * p
    return PartitionedDataset(
        blocks=empty, centroids=np.asarray(centroids, dtype=float),
        block_indices=[np.zeros(0, dtype=int)] * p,
    )


def test_single_block_centroid_is_mean():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(17, 3))
    y = rng.normal(size=17)
    part = kmeans_partition(X, y, p=1, seed=0)
    assert part.p == 1
    np.testing.assert_allclose(part.centroids[0], X.mean(axis=0), rtol=1e-12)
    np.testing.assert_array_equal(part.block_indices[0], np.arange(17))


def test_one_point_per_block():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    part = kmeans_partition(X, y, p=8, seed=0)
    assert part.p == 8
    np.testing.assert_array_equal(np.sort(part.block_sizes()), np.ones(8, dtype=int))
    for k, (Xk, _) in enumerate(part.blocks):
        np.testing.assert_allclose(part.centroids[k], Xk[0], rtol=1e-12)


def test_repair_fills_every_empty_cluster():
    # with 1 <= p <= n, while a cluster is empty another holds at least 2
    # points, so every empty cluster gets one, even when all but one are empty
    X = np.random.default_rng(9).normal(size=(5, 2))
    labels, centroids = _repair_empty(np.zeros(5, dtype=int), np.zeros((5, 2)), X)
    np.testing.assert_array_equal(np.sort(labels), np.arange(5))
    # each stolen point becomes its cluster's centroid
    np.testing.assert_array_equal(centroids[labels[labels > 0]], X[labels > 0])
    # identical rows, one block per row: seeding gives one centroid p times
    part = kmeans_partition(np.ones((4, 2)), np.arange(4.0), p=4, seed=0)
    assert part.block_sizes().sum() == 4


def test_partition_disjoint_and_exhaustive():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 2))
    y = rng.normal(size=60)
    part = kmeans_partition(X, y, p=5, seed=3)
    all_idx = np.concatenate(part.block_indices)
    assert len(all_idx) == 60
    assert len(np.unique(all_idx)) == 60
    Xr, yr = reassemble(part, 60, 2)
    np.testing.assert_array_equal(Xr, X)
    np.testing.assert_array_equal(yr, y)


def test_partition_determinism():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    a = kmeans_partition(X, y, p=4, seed=7)
    b = kmeans_partition(X, y, p=4, seed=7)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    for ia, ib in zip(a.block_indices, b.block_indices):
        np.testing.assert_array_equal(ia, ib)


def test_converged_partition_is_fixed_point():
    # every point sits in the block of its nearest centroid once the
    # iteration has converged, and each centroid is its block's mean bit for
    # bit (the means step sums a cluster's rows in row order, as the mean of
    # the block's own rows does)
    rng = np.random.default_rng(4)
    X = np.concatenate(
        [rng.normal(loc=c, scale=0.2, size=(20, 2)) for c in ((0, 0), (5, 0), (0, 5))]
    )
    y = rng.normal(size=60)
    part = kmeans_partition(X, y, p=3, seed=0)
    for k, (Xk, _) in enumerate(part.blocks):
        np.testing.assert_array_equal(part.centroids[k], Xk.mean(axis=0))
        for x in Xk:
            assert assign_blocks(x[None, :], part)[0] == k


def test_wcss_non_increasing_in_iterations():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 2))
    y = rng.normal(size=200)
    scores = [
        wcss(kmeans_partition(X, y, p=8, seed=1, max_iters=t)) for t in (1, 2, 5, 25)
    ]
    for earlier, later in zip(scores, scores[1:]):
        assert later <= earlier + 1e-9


def test_duplicated_points_collapse_to_tie_winners():
    # 30 copies of two distinct points with p = 6: identical centroids can
    # serve no point under the ties-to-lowest-index rule, so exactly two
    # blocks end up non-empty, yet the partition stays disjoint, exhaustive
    # and consistent with assign_blocks
    X = np.tile(np.array([[1.0, 1.0], [2.0, 2.0]]), (15, 1))
    y = np.arange(30, dtype=float)
    part = kmeans_partition(X, y, p=6, seed=0)
    sizes = part.block_sizes()
    assert sizes.sum() == 30
    np.testing.assert_array_equal(np.sort(sizes[sizes > 0]), [15, 15])
    all_idx = np.concatenate(part.block_indices)
    assert len(np.unique(all_idx)) == 30
    for k, (Xk, _) in enumerate(part.blocks):
        for x in Xk:
            assert assign_blocks(x[None, :], part)[0] == k


def test_assign_block_linear_scan_oracle():
    rng = np.random.default_rng(6)
    for _ in range(50):
        centroids = rng.normal(size=(int(rng.integers(1, 9)), 3))
        x = rng.normal(size=3)
        dist = ((centroids - x) ** 2).sum(axis=1)
        assert assign_blocks(x[None, :], centroids_only(centroids))[0] == int(np.argmin(dist))


def test_assign_block_tie_goes_to_lowest_index():
    equidistant = centroids_only(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    assert assign_blocks(np.zeros((1, 2)), equidistant)[0] == 0
    # duplicated centroids: first copy wins
    dup = centroids_only(np.array([[2.0, 2.0], [2.0, 2.0], [0.0, 0.0]]))
    assert assign_blocks(np.array([[2.0, 2.1]]), dup)[0] == 0


def test_balance_caps_block_sizes():
    rng = np.random.default_rng(7)
    # a single tight cluster plus scattered outliers forces imbalance
    X = np.concatenate(
        [rng.normal(scale=0.05, size=(90, 2)), rng.uniform(-10, 10, size=(10, 2))]
    )
    y = rng.normal(size=100)
    p = 5
    cap = int(np.ceil(2 * 100 / p))
    unbalanced = kmeans_partition(X, y, p=p, seed=0, balance=False)
    assert max(unbalanced.block_sizes()) > cap
    balanced = kmeans_partition(X, y, p=p, seed=0, balance=True)
    assert max(balanced.block_sizes()) <= cap
    assert sum(balanced.block_sizes()) == 100
    all_idx = np.concatenate(balanced.block_indices)
    assert len(np.unique(all_idx)) == 100


def test_partition_rejects_bad_arguments():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    with pytest.raises(ContractError):
        kmeans_partition(X, y, p=0)
    with pytest.raises(ContractError):
        kmeans_partition(X, y, p=11)
    with pytest.raises(ContractError):
        kmeans_partition(X, y[:-1], p=2)


def test_partitioned_dataset_accessors():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(25, 4))
    y = rng.normal(size=25)
    part = kmeans_partition(X, y, p=3, seed=2)
    assert part.d == 4
    assert sum(part.block_sizes()) == 25
    np.testing.assert_array_equal(
        part.block_sizes(), [len(Xk) for Xk, _ in part.blocks]
    )
    assert isinstance(part, PartitionedDataset)


def test_partition_arrays_are_read_only_views():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    part = kmeans_partition(X, y, p=3, seed=1)
    arrays = [part.centroids] + [a for block in part.blocks for a in block]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] += 1.0
    # a dataset built by hand holds read-only views; the caller's arrays
    # stay writable
    X_k, y_k, centroids = X[:5].copy(), y[:5].copy(), X[:1].copy()
    by_hand = PartitionedDataset(
        blocks=[(X_k, y_k)], centroids=centroids, block_indices=[np.arange(5)]
    )
    assert all(a.flags.writeable for a in (X_k, y_k, centroids))
    assert not any(a.flags.writeable for a in (*by_hand.blocks[0], by_hand.centroids))
    assert np.shares_memory(by_hand.blocks[0][0], X_k)


def test_block_indices_default_to_consecutive_row_ranges():
    X, y = np.zeros((9, 2)), np.zeros(9)
    part = PartitionedDataset(
        blocks=[(X[:4], y[:4]), (X[4:4], y[4:4]), (X[4:], y[4:])], centroids=X[:3]
    )
    assert [idx.tolist() for idx in part.block_indices] == [[0, 1, 2, 3], [], [4, 5, 6, 7, 8]]
    assert isinstance(part.block_indices, tuple)


def test_partition_blocks_and_fields_cannot_be_replaced():
    # a replaced block or a reassigned centroids array would leave a model's
    # prediction memo stale, and a reassigned array would be writable
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    part = kmeans_partition(X, y, p=3, seed=1)
    assert isinstance(part.blocks, tuple) and isinstance(part.block_indices, tuple)
    X_0, y_0 = part.blocks[0]
    with pytest.raises(TypeError):
        part.blocks[0] = (X_0, y_0 + 1.0)
    with pytest.raises(TypeError):
        part.block_indices[0] = np.arange(3)
    for name, value in (("centroids", X[:3].copy()), ("blocks", ()), ("block_indices", ())):
        with pytest.raises(AttributeError):
            setattr(part, name, value)
    assert not part.centroids.flags.writeable


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"p": 2.5}, "p"),
        ({"p": True}, "p"),
        ({"p": np.float64(3.0)}, "p"),
        ({"max_iters": 1.5}, "max_iters"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": "1"}, "seed"),
    ],
)
def test_kmeans_partition_refuses_counts_and_seeds_that_are_not_integers(kwargs, name):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(20, 2))
    args = {"p": 3, **kwargs}
    with pytest.raises(ContractError, match=name):
        kmeans_partition(X, X[:, 0], **args)


def test_kmeans_partition_takes_numpy_integer_counts_and_seeds():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(20, 2))
    want = kmeans_partition(X, X[:, 0], p=3, seed=4, max_iters=5)
    got = kmeans_partition(X, X[:, 0], p=np.int64(3), seed=np.uint32(4), max_iters=np.int32(5))
    assert got.p == 3
    np.testing.assert_array_equal(got.centroids, want.centroids)
