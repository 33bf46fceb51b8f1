"""Deterministic k-means partitioning of the training set.

Training and prediction both address data through a fixed partition into
``p`` blocks.  Blocks are produced by k-means++ seeding followed by Lloyd
iterations, all driven by a single seed, with two guarantees:

* blocks are disjoint and exhaustive (every row lands in exactly one), and
* on the default path every point sits in the block of its nearest final
  centroid, ties broken towards the lowest centroid index.

Clusters that empty out during the iterations are repaired by stealing the
point farthest from the largest cluster's centroid; the stolen point
becomes the empty cluster's new centroid, which keeps the within-cluster
sum of squares non-increasing.  The optional ``balance`` flag caps block
sizes at ``ceil(2 n / p)`` by pushing overflow to the next-nearest
centroid with room — that trades the nearest-centroid guarantee for a
bounded per-block cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FLAG, NONNEGATIVE_INT, POSITIVE_INT, ContractError, checked

# Rows per chunk when computing point-to-centroid distances; keeps the
# distance buffer around chunk * p doubles regardless of n.
_CHUNK = 4096


@dataclass(frozen=True)
class PartitionedDataset:
    """Training data split into blocks, plus the centroids that define them.

    Attributes
    ----------
    blocks : tuple of (X_i, y_i) tuples
        Per-block inputs ``(n_i, d)`` and targets ``(n_i,)``; at least one
        block, though a block may hold no rows.
    centroids : numpy.ndarray, shape (p, d)
    block_indices : tuple of numpy.ndarray
        Row indices of each block's points.  From :func:`kmeans_partition`
        they index the ``X`` it was given; by default, as for a loaded
        model, they are each block's consecutive row range, in block order.
        Nothing in the package reads them after construction: model files
        store ``block_sizes()``, and prediction assigns test points by
        ``centroids``.

    The fields cannot be reassigned, ``blocks`` and ``block_indices`` are
    tuples, and the block arrays and ``centroids`` are held as read-only
    views, so nothing derived from them (a model's prediction memo) can go
    stale; the sequences and arrays passed in stay as they are.
    """

    blocks: tuple
    centroids: np.ndarray
    block_indices: tuple | None = None

    def __post_init__(self):
        blocks = tuple((_read_only(X_k), _read_only(y_k)) for X_k, y_k in self.blocks)
        if not blocks:
            raise ContractError("the partition must contain at least one block")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "centroids", _read_only(self.centroids))
        indices = self.block_indices
        if indices is None:
            ends = np.cumsum(self.block_sizes()).tolist()
            indices = map(np.arange, [0, *ends], ends)
        object.__setattr__(self, "block_indices", tuple(indices))

    @property
    def p(self) -> int:
        return len(self.blocks)

    @property
    def d(self) -> int:
        return self.centroids.shape[1]

    def block_sizes(self) -> np.ndarray:
        return np.array([X.shape[0] for X, _ in self.blocks], dtype=int)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.setflags(write=False)
    return view


def _nearest_centroid(X: np.ndarray, centroids: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid per row; ties go to the lowest index.

    ``dist`` is scratch space of ``min(n, _CHUNK)`` rows by ``p``.  The
    Lloyd loop passes the same one to every call: under glibc's allocator
    a buffer of a few megabytes allocated afresh can be a fresh memory
    mapping whose every page faults on first touch (about 23k minor faults
    per partition build at n=5700, p=40 when it was allocated per chunk).
    """
    n = X.shape[0]
    labels = np.empty(n, dtype=int)
    cent_sq = np.einsum("ij,ij->i", centroids, centroids)
    for start in range(0, n, _CHUNK):
        chunk = X[start : start + _CHUNK]
        block = dist[: chunk.shape[0]]
        # squared distances up to the constant ||x||^2, which does not
        # affect the argmin, as ||c||^2 - 2 (x.c) in that rounding order;
        # np.argmin returns the first (lowest) index on ties.
        np.matmul(chunk, centroids.T, out=block)
        block *= 2.0
        np.subtract(cent_sq, block, out=block)
        labels[start : start + _CHUNK] = np.argmin(block, axis=1)
    return labels


def _sq_dist_to_own(X, centroids, labels):
    diff = X - centroids[labels]
    return np.einsum("ij,ij->i", diff, diff)


def _kmeanspp_seed(X: np.ndarray, p: int, rng: np.random.Generator) -> np.ndarray:
    """Classic k-means++ seeding: D^2-weighted sampling of initial centroids."""
    n = X.shape[0]
    centroids = np.empty((p, X.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = X[first]
    closest = np.einsum("ij,ij->i", X - centroids[0], X - centroids[0])
    for k in range(1, p):
        total = closest.sum()
        if total <= 0:
            # all remaining points coincide with an existing centroid
            centroids[k:] = X[int(rng.integers(n))]
            return centroids
        probs = closest / total
        pick = int(rng.choice(n, p=probs))
        centroids[k] = X[pick]
        diff = X - centroids[k]
        closest = np.minimum(closest, np.einsum("ij,ij->i", diff, diff))
    return centroids


def _repair_empty(labels, centroids, X):
    """Give every empty cluster the farthest point of the largest cluster."""
    counts = np.bincount(labels, minlength=centroids.shape[0])
    for empty in np.flatnonzero(counts == 0):
        # with 1 <= p <= n, while a cluster is empty another holds >= 2 points
        largest = int(np.argmax(counts))
        members = np.flatnonzero(labels == largest)
        own = _sq_dist_to_own(X[members], centroids, labels[members])
        stolen = members[int(np.argmax(own))]
        labels[stolen] = empty
        centroids[empty] = X[stolen]
        counts[largest] -= 1
        counts[empty] += 1
    return labels, centroids


def kmeans_partition(
    X, y, p: int, seed: int = 0, max_iters: int = 100, balance: bool = False
) -> PartitionedDataset:
    """Partition ``(X, y)`` into ``p`` blocks with seeded k-means.

    Parameters
    ----------
    X : array_like, shape (n, d)
    y : array_like, shape (n,)
    p : int
        Number of blocks; must satisfy ``1 <= p <= n``.
    seed : int
        Drives the k-means++ seeding, the only random step; identical
        inputs and seed give identical blocks.
    max_iters : int
        Upper bound on Lloyd iterations.
    balance : bool
        Cap block sizes at ``ceil(2 n / p)`` (see module docstring).

    Returns
    -------
    PartitionedDataset
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ContractError(f"X must be a non-empty (n, d) matrix, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ContractError(f"y must have shape ({X.shape[0]},), got {y.shape}")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ContractError("X and y must be finite")
    n = X.shape[0]
    p, max_iters = checked("p", p, POSITIVE_INT), checked("max_iters", max_iters, POSITIVE_INT)
    seed, balance = checked("seed", seed, NONNEGATIVE_INT), checked("balance", balance, FLAG)
    if p > n:
        raise ContractError(f"p must satisfy 1 <= p <= n={n}, got {p}")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    centroids = _kmeanspp_seed(X, p, rng)
    dist = np.empty((min(n, _CHUNK), p))
    labels = _nearest_centroid(X, centroids, dist)
    labels, centroids = _repair_empty(labels, centroids, X)
    for _ in range(max_iters):
        # means step: per-dimension sums over each cluster's members, in row
        # order; every cluster is non-empty after repair
        counts = np.bincount(labels, minlength=p)
        sums = np.stack([np.bincount(labels, X[:, j], p) for j in range(X.shape[1])], axis=1)
        centroids = sums / counts[:, None]
        new_labels = _nearest_centroid(X, centroids, dist)
        new_labels, centroids = _repair_empty(new_labels, centroids, X)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    # Final assignment against the final centroids: this is what makes the
    # nearest-centroid guarantee hold exactly, including after max_iters.
    labels = _nearest_centroid(X, centroids, dist)
    if balance:
        labels = _rebalance(X, centroids, labels, p)

    block_indices = [np.flatnonzero(labels == k) for k in range(p)]
    blocks = [(X[idx], y[idx]) for idx in block_indices]
    return PartitionedDataset(blocks=blocks, centroids=centroids, block_indices=block_indices)


def _rebalance(X, centroids, labels, p):
    """Cap block sizes at ceil(2n/p), spilling overflow to the next-nearest
    centroid that still has room (deterministic order)."""
    n = X.shape[0]
    cap = -(-2 * n // p)  # ceil(2n / p)
    labels = labels.copy()
    counts = np.bincount(labels, minlength=p)
    for k in range(p):
        if counts[k] <= cap:
            continue
        members = np.flatnonzero(labels == k)
        own = _sq_dist_to_own(X[members], centroids, labels[members])
        # keep the cap closest points, spill the rest starting from the
        # farthest out
        order = members[np.argsort(own, kind="stable")]
        for row in order[cap:][::-1]:
            dist = np.einsum("ij,ij->i", centroids - X[row], centroids - X[row])
            for candidate in np.argsort(dist, kind="stable"):
                if candidate != k and counts[candidate] < cap:
                    labels[row] = candidate
                    counts[candidate] += 1
                    counts[k] -= 1
                    break
    return labels


def assign_blocks(X_star, data: PartitionedDataset) -> np.ndarray:
    """Block index of the centroid nearest to each row of ``X_star`` (ties:
    lowest index)."""
    X_star = np.asarray(X_star, dtype=float)
    if X_star.ndim != 2 or X_star.shape[1] != data.d:
        raise ContractError(f"X_star must have shape (t, {data.d}), got {X_star.shape}")
    dist = np.empty((min(X_star.shape[0], _CHUNK), data.p))
    return _nearest_centroid(X_star, data.centroids, dist)
