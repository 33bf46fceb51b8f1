"""Per-block Gaussian linear algebra and the mixed predictive conditional.

For a data block ``(X_k, y_k)`` and frequencies ``theta`` the regularized
local Gram matrix is

    Gamma_k = Phi(X_k) Phi(X_k)^T + noise_variance * Lambda^{-1},

a ``2m x 2m`` symmetric positive definite matrix over the feature rows of
:func:`~specgp.features.feature_matrix`, which run cosines, then sines, as
the weights ``s`` do.  Given a joint vector ``alpha = (theta, s)`` the
predictive conditional at a test point with features ``phi_*`` blends the
explicit-weight mean ``phi_*^T s`` with the local data-driven mean through a
mixing coefficient ``gamma_mix`` in [-1, 1]:

    mean     = gamma_mix * phi_*^T s + (1 - gamma_mix) * h^T w
    variance = (1 - gamma_mix^2) * noise_variance * ||h||^2,

with ``Gamma_k = L L^T``, ``w = L^{-1} Phi y_k`` and ``h = L^{-1} phi_*``.
``gamma_mix = 0`` recovers the standard low-rank GP posterior restricted
to the block; ``|gamma_mix| = 1`` collapses the variance to zero because
the conditional then degenerates onto the sampled weights.

``w`` and ``h`` come out of one Cholesky factorization, with no triangular
solve.  :func:`build_local_gram` factors the bordered matrix

    A = [[Gamma_k, .], [R^T, C]],    R = [Phi y_k | B],

whose lower factor is ``[[L, 0], [(L^{-1} R)^T, L_C]]``: its row ``2m`` is
``w^T`` and the rows below it are ``(L^{-1} B)^T``.  There are two borders
``B``, and the caller picks one:

* the features ``phi_*`` of ``t`` test points, so those rows are ``h^T``
  itself and ``A`` has order ``2m + 1 + t``;
* the identity ``I_{2m}`` (``phi_star=None``), so they are ``L^{-T}``,
  ``A`` has order ``4m + 1``, and ``h^T = phi_*^T L^{-T}`` for any test
  points of the block takes one more matmul.

The identity border's rows serve any test points of the block for the
same ``theta``.  Which border a call uses is decided in
:mod:`specgp.predict`; :func:`conditional_moments` takes ``w`` and
``h^T`` from either.  The trailing block is
``C = (2 ||R||_F^2 / ridge + 1) I``, with ``ridge`` the diagonal of
``noise_variance * Lambda^{-1}``: ``Gamma_k >= ridge I`` gives
``R^T Gamma_k^{-1} R <= (||R||_F^2 / ridge) I``, so the Schur complement
``C - R^T Gamma_k^{-1} R`` is positive definite by construction and at least
half of ``C``, a margin that roundoff cannot use up.  ``C`` enters no
entry of the first ``2m`` columns of the factor, so it changes neither
``w`` nor ``h``.

Everything here is plain batched arrays over one ``theta`` or a stack of
``b`` of them (one per posterior draw); one draw at one point is the same
call with a single ``theta`` and a ``(2m, 1)`` feature column, so there is
no separate scalar view.
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


def _cholesky(a: np.ndarray, k: int, block_id: int) -> np.ndarray:
    """Lower Cholesky factors of one ``(K, K)`` matrix or a ``(..., K, K)``
    stack whose leading ``(k, k)`` block is ``Gamma``, in one call.

    Only the lower triangle of ``a`` is read.  Only when the stacked call
    fails is each member factored on its own: a member that fails alone
    gets ``fraction * trace(Gamma)/k`` added to the diagonal of its
    ``Gamma`` block (not to the trailing block), with ``fraction`` from
    ``1e-10`` up by factors of 10 while at most ``1e-4``, so only the
    members that need jitter are jittered.  A member that no jitter rescues
    raises :class:`NumericalError` carrying ``block_id``.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    chol = np.empty_like(a)
    diag = np.arange(k)
    for idx in np.ndindex(a.shape[:-2]):
        member = a[idx]
        try:
            chol[idx] = np.linalg.cholesky(member)
            continue
        except np.linalg.LinAlgError:
            pass
        base = np.trace(member[:k, :k]) / k
        fraction = _JITTER_START_FRACTION
        while fraction <= _JITTER_MAX_FRACTION:
            jittered = member.copy()
            jittered[diag, diag] += fraction * base
            try:
                chol[idx] = np.linalg.cholesky(jittered)
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


def build_local_gram(X_k, y_k, theta, phi_star, cfg: SpectralConfig, block_id: int = 0):
    """Assemble and factorize ``Gamma_k`` of one data block bordered by
    ``phi_star``, or by the identity when it is None, per ``theta`` of a
    stack (see the module docstring).

    The inputs are trusted: the block comes from a validated partition
    (``kmeans_partition`` or a loaded model), ``theta`` from a validated
    state and ``phi_star`` from validated test points, so all of them are
    finite and of the shapes below.

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
    phi_star : numpy.ndarray, shape (2m, t) or (b, 2m, t), or None
        Features of the block's ``t`` test points for the same ``theta``,
        the border; ``None`` borders with the identity ``I_{2m}``.
    cfg : SpectralConfig
    block_id : int, optional
        Identifier carried by the :class:`NumericalError` raised when a
        Gram matrix cannot be factored even with jitter.

    Returns
    -------
    numpy.ndarray, shape (K, K) or (b, K, K)
        The lower Cholesky factors of the bordered matrices, of order
        ``K = 2m + 1 + t``, or ``4m + 1`` for the identity border:
        ``[:2m, :2m]`` is ``L``, row ``2m`` holds ``w^T`` and the rows
        below hold ``h^T`` (``phi_star``) or ``L^{-T}`` (``None``) in their
        first ``2m`` columns.
    """
    k = cfg.num_features
    phi = feature_matrix(X_k, theta, cfg)
    order = k + 1 + (k if phi_star is None else phi_star.shape[-1])
    a = np.zeros(phi.shape[:-2] + (order, order))
    gamma = a[..., :k, :k]
    np.matmul(phi, np.swapaxes(phi, -1, -2), out=gamma)
    # noise_variance * Lambda^{-1} with Lambda = (signal_variance/m) * I.
    ridge = cfg.noise_variance * cfg.m / cfg.signal_variance
    diag = np.arange(k)
    gamma[..., diag, diag] += ridge
    # R^T: the row (Phi y_k)^T, then the border's rows.
    border = a[..., k:, :k]
    np.matmul(phi, y_k, out=border[..., 0, :])
    if phi_star is None:
        border[..., 1 + diag, diag] = 1.0
    else:
        border[..., 1:, :] = np.swapaxes(phi_star, -1, -2)
    trailing = np.arange(k, order)
    c = 2.0 * np.einsum("...ij,...ij->...", border, border) / ridge + 1.0
    a[..., trailing, trailing] = c[..., None]
    return _cholesky(a, k, block_id)


def conditional_moments(w, h_t, phi_star, s, gamma_mix: float, noise_variance: float):
    """Mixed predictive moments at ``t`` test points, per draw of a stack.

    From ``w`` and ``h^T`` (the module docstring gives both and how the
    factor of :func:`build_local_gram` yields them),

        mean     = gamma_mix * phi_*^T s + (1 - gamma_mix) * h^T w
        variance = (1 - gamma_mix^2) * noise_variance * ||h||^2,

    so the variance is a sum of squares.  ``gamma_mix`` is not checked here.

    Parameters
    ----------
    w : numpy.ndarray, shape (2m,) or (b, 2m)
        ``L^{-1} Phi y_k``.
    h_t : numpy.ndarray, shape (t, 2m) or (b, t, 2m)
        ``(L^{-1} phi_*)^T``.
    phi_star : numpy.ndarray, shape (2m, t) or (b, 2m, t)
        Test-point features, as :func:`~specgp.features.feature_matrix`
        returns them; only the basis mean reads them.
    s : numpy.ndarray, shape (2m,) or (b, 2m)
        Weight draws, in the order of the feature rows.

    Returns
    -------
    (mean, variance) : pair of numpy.ndarray, shape (t,) or (b, t)
    """
    mean = (1.0 - gamma_mix) * np.sum(h_t * w[..., None, :], axis=-1)
    if gamma_mix != 0.0:
        # At gamma_mix = 0 the basis mean phi_*^T s is multiplied by zero.
        mean = gamma_mix * (s[..., None, :] @ phi_star)[..., 0, :] + mean
    variance = (1.0 - gamma_mix**2) * noise_variance * np.sum(h_t * h_t, axis=-1)
    return mean, variance
