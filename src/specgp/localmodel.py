"""Per-block Gaussian linear algebra and the mixed predictive conditional.

For a data block ``(X_k, y_k)`` and frequencies ``theta`` the regularized
local Gram matrix is

    Gamma_k = Phi(X_k) Phi(X_k)^T + noise_variance * Lambda^{-1},

a ``2m x 2m`` symmetric positive definite matrix over the feature rows of
:func:`~specgp.features.feature_matrix`, which run cosines, then sines, as
the weights ``s`` do.  Everything here is plain batched arrays over one
``theta`` or a stack of ``b`` of them (one per posterior draw):
:func:`build_local_gram` forms a block's Gram matrices for the whole
stack, factors them in one call and returns the pair ``(chol, phi_y)`` of
Cholesky factors and ``Phi y_k``;
:func:`conditional_moments` takes that pair and serves every (draw, test
point) pair of the block in one batched solve.  Given a joint vector
``alpha = (theta, s)`` the predictive conditional at a test point blends
the explicit-weight mean ``phi^T s`` with the local data-driven mean
through a mixing coefficient ``gamma_mix`` in [-1, 1]:

    mean     = gamma_mix * phi^T s + (1 - gamma_mix) * phi^T Gamma_k^{-1} Phi y_k
    variance = (1 - gamma_mix^2) * noise_variance * phi^T Gamma_k^{-1} phi.

``gamma_mix = 0`` recovers the standard low-rank GP posterior restricted
to the block; ``|gamma_mix| = 1`` collapses the variance to zero because
the conditional then degenerates onto the sampled weights.  One draw at
one point is the same call with a single ``theta`` and a ``(2m, 1)``
feature column, so there is no separate scalar view.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .features import SpectralConfig, feature_matrix

# Jitter escalation for the rare case where accumulated roundoff makes the
# Cholesky of Gamma fail: start at 1e-10 * trace/(2m) and multiply by 10
# until 1e-4 * trace/(2m), then give up.
_JITTER_START_FRACTION = 1e-10
_JITTER_MAX_FRACTION = 1e-4


def _cholesky(gamma: np.ndarray, block_id: int) -> np.ndarray:
    """Lower Cholesky factors of one ``(k, k)`` matrix or a ``(..., k, k)``
    stack, in one call.

    Only when that fails is each member factored on its own: a member that
    fails alone gets ``fraction * trace/k`` added to its diagonal, with
    ``fraction`` from ``1e-10`` up by factors of 10 while at most ``1e-4``,
    so only the members that need jitter are jittered.  A member that no
    jitter rescues raises :class:`NumericalError` carrying ``block_id``.
    """
    try:
        return np.linalg.cholesky(gamma)
    except np.linalg.LinAlgError:
        pass
    k = gamma.shape[-1]
    chol = np.empty_like(gamma)
    for idx in np.ndindex(gamma.shape[:-2]):
        member = gamma[idx]
        try:
            chol[idx] = np.linalg.cholesky(member)
            continue
        except np.linalg.LinAlgError:
            pass
        base = np.trace(member) / k
        fraction = _JITTER_START_FRACTION
        while fraction <= _JITTER_MAX_FRACTION:
            try:
                chol[idx] = np.linalg.cholesky(member + (fraction * base) * np.eye(k))
                break
            except np.linalg.LinAlgError:
                fraction *= 10.0
        else:
            raise NumericalError(
                f"Cholesky of local Gram matrix failed for block {block_id} even with "
                f"jitter up to {_JITTER_MAX_FRACTION:g} * trace/(2m)",
                block_id=block_id,
            )
    return chol


def build_local_gram(X_k, y_k, theta, cfg: SpectralConfig, block_id: int = 0):
    """Assemble and factorize ``Gamma_k`` for one data block, per ``theta`` of a stack.

    The inputs are trusted: the block comes from a validated partition
    (``kmeans_partition`` or a loaded model) and ``theta`` from a validated
    state, so all of them are finite and of the shapes below.

    Parameters
    ----------
    X_k : numpy.ndarray, shape (n_k, d)
        Block inputs; ``n_k = 0`` leaves the pure regularizer
        ``noise_variance * Lambda^{-1}``, which is diagonal and always
        factorizable.
    y_k : numpy.ndarray, shape (n_k,)
        Block targets.
    theta : numpy.ndarray, shape (m * d,) or (b, m * d)
        Frequencies used to evaluate the features, or a stack of ``b`` of
        them; the stack is factorized in one call.
    cfg : SpectralConfig
    block_id : int, optional
        Identifier carried by the :class:`NumericalError` raised when a
        Gram matrix cannot be factored even with jitter.

    Returns
    -------
    (chol, phi_y) : pair of numpy.ndarray
        The lower-triangular Cholesky factors of ``Gamma_k``, shape
        ``(2m, 2m)`` or ``(b, 2m, 2m)``, and ``Phi(X_k) @ y_k``, shape
        ``(2m,)`` or ``(b, 2m)``, the only data statistic the mean needs.
    """
    phi = feature_matrix(X_k, theta, cfg)
    gamma = phi @ np.swapaxes(phi, -1, -2)
    # noise_variance * Lambda^{-1} with Lambda = (signal_variance/m) * I.
    ridge = cfg.noise_variance * cfg.m / cfg.signal_variance
    diag = np.arange(cfg.num_features)
    gamma[..., diag, diag] += ridge
    return _cholesky(gamma, block_id), phi @ y_k


def conditional_moments(chol, phi_y, phi_star, s, gamma_mix: float, noise_variance: float):
    """Mixed predictive moments at ``t`` test points, per factor of ``chol``.

    One solve gives ``[w | h] = L^{-1} [Phi y | phi_*]`` for every factor
    ``L`` of the stack; then

        mean     = gamma_mix * phi_*^T s + (1 - gamma_mix) * h^T w
        variance = (1 - gamma_mix^2) * noise_variance * ||h||^2,

    so the variance is a sum of squares.  ``gamma_mix`` is not checked here.

    Parameters
    ----------
    chol, phi_y : numpy.ndarray
        The pair returned by :func:`build_local_gram` for the same ``theta``
        (or stack) that gave ``phi_star``.
    phi_star : numpy.ndarray, shape (2m, t) or (b, 2m, t)
        Test-point features, as :func:`~specgp.features.feature_matrix`
        returns them.
    s : numpy.ndarray, shape (2m,) or (b, 2m)
        Weight draws, in the order of the feature rows.

    Returns
    -------
    (mean, variance) : pair of numpy.ndarray, shape (t,) or (b, t)
    """
    rhs = np.concatenate([phi_y[..., :, None], phi_star], axis=-1)
    # A general solve on the triangular factors: on a (65, 10, 10) stack it
    # ran 4.6x faster than scipy 1.17's stacked solve_triangular (on par at
    # (13, 32, 32)), with results equal to roundoff.
    half = np.linalg.solve(chol, rhs)
    w, h = half[..., :1], half[..., 1:]
    basis_mean = (s[..., None, :] @ phi_star)[..., 0, :]
    mean = gamma_mix * basis_mean + (1.0 - gamma_mix) * np.sum(h * w, axis=-2)
    variance = (1.0 - gamma_mix**2) * noise_variance * np.sum(h * h, axis=-2)
    return mean, variance
