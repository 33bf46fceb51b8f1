"""Trigonometric feature maps and the low-rank kernel they induce.

A stack of ``m`` frequency vectors ``r_1, ..., r_m`` (each in R^d,
flattened into a single vector ``theta``) defines ``2m`` basis functions
per input, all cosines, then all sines:

    phi(x) = (cos(2 pi r_1.x), ..., cos(2 pi r_m.x), sin(2 pi r_1.x), ..., sin(2 pi r_m.x)).

This is the one order of the package: :func:`basis_vector`, the rows of
:func:`feature_matrix`, and the weights ``s`` of a joint vector
``alpha = (theta, s)`` all follow it, so weight ``k`` multiplies feature
``k``.

With the diagonal weight matrix ``Lambda = (signal_variance / m) * I`` the
features induce the stationary covariance

    k(x, x') = phi(x)^T Lambda phi(x')
             = (signal_variance / m) * sum_i cos(2 pi r_i.(x - x')),

whose expectation over frequencies drawn from
``N(0, (4 pi^2 diag(l^2))^{-1})`` is the squared-exponential kernel with
lengthscales ``l``.  Everything downstream (local Gram matrices,
likelihood gradients) is built from the dense primitives here.

:func:`feature_matrix`, the hot kernel, takes each (cos, sin) pair from one
tangent of the half angle.  With ``t = tan(pi r.x)`` and ``u = 2 / (1 + t^2)``,

    cos(2 pi r.x) = u - 1,    sin(2 pi r.x) = t u.

numpy's float64 ``tan`` is vectorized where ``cos`` and ``sin`` may each take
a scalar libm path, so one ``tan`` costs a fraction of the pair; on a CPU
without a vectorized ``tan`` one libm call still replaces two.  The half angle
is exactly half of the float64 angle ``2 pi r.x`` (doubling is exact), and
against a long-double ``cos``/``sin`` of that angle the features are within
4e-16 absolute (libm's own pair: 6e-17).  Both maps have condition at most 1
in ``t``, so ``tan``'s relative error stays an absolute error of the same
size.  At the tangent's poles, where ``r.x`` is within an ulp of ``k + 1/2``,
``t`` is at most about 1e19 for any float64 angle, so ``t^2`` cannot overflow:
the features stay finite, raise no floating-point exception and equal
libm's.  Only half angles below about 1e-154 in magnitude underflow
``t^2``, harmlessly (numpy ignores underflow by default; libm's ``sin``
underflows too near zero).  :func:`basis_vector` keeps ``cos`` and
``sin``, so it stays an independent scalar reference for the batched map.

A stack of ``b`` frequency vectors is featurized into one feature-major
buffer of shape ``(2m, b, n)``: the cosine rows of every draw, then the sine
rows, so each half of the whole stack is one contiguous block and every
elementwise pass of the map runs over it in one unbuffered loop.  numpy
copies a strided operand of fewer than 8192 elements through its iteration
buffer: with one half per draw, at the small-blocks training shape
``(b, m, n) = (8, 5, 380)``, one ``+= 1`` pass took 14.5 us against 4.8 us
contiguous (numpy 2.4.6, shared 2-CPU x86-64 VM).  Callers see the
``(b, 2m, n)`` view of that buffer; each draw's ``(2m, n)`` matrix in it has
unit column stride, so products with it still go to BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

TWO_PI = 2.0 * np.pi


def _is_integer(value) -> bool:
    """A Python or numpy integer; floats and booleans are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _set_counts(config, lows: dict) -> None:
    """Check that each named field of the frozen dataclass ``config`` is an
    integer (:func:`_is_integer`) at least its entry in ``lows``, and store
    it as a Python ``int``: a numpy integer would not survive ``json.dumps``.
    """
    for name, low in lows.items():
        value = getattr(config, name)
        if not _is_integer(value) or value < low:
            raise ContractError(f"{name} must be an integer >= {low}, got {value!r}")
        object.__setattr__(config, name, int(value))


@dataclass(frozen=True)
class SpectralConfig:
    """Dimensions and variance hyperparameters of the feature model.

    Parameters
    ----------
    d : int
        Input dimension, at least 1.
    m : int
        Number of spectral frequencies, at least 1.  The feature map has
        ``2 m`` entries (a cosine and a sine per frequency).
    signal_variance : float
        Prior variance of the latent function, ``> 0``.
    noise_variance : float
        Observation noise variance, ``> 0``.
    """

    d: int
    m: int
    signal_variance: float
    noise_variance: float

    def __post_init__(self):
        if not _is_integer(self.d) or self.d < 1:
            raise ContractError(f"input dimension must be an integer >= 1, got {self.d!r}")
        if not _is_integer(self.m) or self.m < 1:
            raise ContractError(f"frequency count must be an integer >= 1, got {self.m!r}")
        if not (np.isfinite(self.signal_variance) and self.signal_variance > 0):
            raise ContractError(f"signal_variance must be positive, got {self.signal_variance!r}")
        if not (np.isfinite(self.noise_variance) and self.noise_variance > 0):
            raise ContractError(f"noise_variance must be positive, got {self.noise_variance!r}")

    @property
    def num_features(self) -> int:
        """Length of the feature vector, ``2 m``."""
        return 2 * self.m

    @property
    def theta_dim(self) -> int:
        """Length of the flattened frequency vector, ``m * d``."""
        return self.m * self.d

    @property
    def alpha_dim(self) -> int:
        """Length of the joint (theta, s) vector, ``m d + 2 m``."""
        return self.m * self.d + 2 * self.m

    @property
    def lambda_diag(self) -> float:
        """Diagonal entry of the feature weight matrix Lambda."""
        return self.signal_variance / self.m


def basis_vector(x, theta, cfg: SpectralConfig) -> np.ndarray:
    """Evaluate the ``2m`` cos/sin features at a single input.

    Entry ``i`` is ``cos(2 pi r_i . x)`` and entry ``m + i`` is
    ``sin(2 pi r_i . x)`` (0-based), so every feature lies in [-1, 1].
    The scalar reference checks its own finite ``x`` ``(d,)`` and ``theta``
    ``(m * d,)``; row ``i`` of ``theta.reshape(m, d)`` is ``r_i``.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if x.shape != (cfg.d,):
        raise ContractError(f"input point must have shape ({cfg.d},), got {x.shape}")
    if theta.shape != (cfg.theta_dim,):
        raise ContractError(f"theta must have shape ({cfg.theta_dim},), got {theta.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(theta))):
        raise ContractError("x and theta must be finite")
    angles = TWO_PI * (theta.reshape(cfg.m, cfg.d) @ x)
    return np.concatenate([np.cos(angles), np.sin(angles)])


def feature_matrix(X, theta, cfg: SpectralConfig) -> np.ndarray:
    """Cosine and sine features of each row of ``X``, one row per feature.

    This is the hot kernel of training and prediction, so it checks
    nothing: ``X`` and ``theta`` must be finite and of the shapes below,
    which the entry points (CSV loading, partition construction, model
    load, ``predict_batch``) have already validated.

    Parameters
    ----------
    X : numpy.ndarray, shape (n, d)
        Input points, one per row.  ``n = 0`` is allowed and produces an
        empty ``(2m, 0)`` array.
    theta : numpy.ndarray, shape (m * d,) or (b, m * d)
        Flattened frequency vectors, or a stack of ``b`` of them.
    cfg : SpectralConfig

    Returns
    -------
    numpy.ndarray, shape (2m, n) or (b, 2m, n)
        Column ``j`` is ``basis_vector(X[j], theta, cfg)``, per vector of a
        stack, to within 4e-16 absolute: rows ``:m`` are the cosines and
        rows ``m:`` the sines.  One vector gives a C-contiguous array.  A
        stack gives the view ``buf.swapaxes(0, 1)`` of a C-contiguous
        feature-major buffer ``buf`` of shape ``(2m, b, n)``, so its strides
        are ``(n, b n, 1)`` times 8 bytes.

    Notes
    -----
    Each pair comes from ``t = tan(pi r.x)`` as ``(u - 1, t u)`` with
    ``u = 2 / (1 + t^2)`` (see the module docstring for why, the accuracy
    bound and the poles).  The angle product writes ``r.x`` of every draw
    into the sine half ``buf[m:]`` through its ``(b, m, n)`` view, ``t`` is
    formed there in place, ``u`` in the cosine half ``buf[:m]``, and both
    halves are finished in place.  Each half is one contiguous block, so
    the seven elementwise passes never copy through numpy's iteration
    buffer, and the buffer is the only allocation: contiguous temporaries
    for ``t`` and ``u`` page-faulted inside the benchmark process and lost
    7-13% of prediction throughput.  On the machine named in the module
    docstring, the whole map at ``(b, m, d, n) = (8, 5, 2, 380)`` (training)
    took 90 us feature-major against 166 us with per-draw ``(2m, n)``
    blocks, and at ``(65, 5, 2, 95)`` (a prediction chunk) 193 us against
    353 us; at ``(8, 16, 4, 568)`` the two were even.
    """
    X = np.asarray(X, dtype=float)
    theta = np.asarray(theta, dtype=float)
    batch = theta.shape[:-1]
    buf = np.empty((cfg.num_features,) + batch + (X.shape[0],))
    cos, sin = buf[: cfg.m], buf[cfg.m :]
    np.matmul(theta.reshape(batch + (cfg.m, cfg.d)), X.T, out=sin.swapaxes(0, -2))
    sin *= np.pi
    np.tan(sin, out=sin)
    np.square(sin, out=cos)
    cos += 1.0
    np.divide(2.0, cos, out=cos)
    sin *= cos
    cos -= 1.0
    return buf.swapaxes(0, -2)


def approx_kernel(x, x2, theta, cfg: SpectralConfig) -> float:
    """Low-rank kernel value ``phi(x)^T Lambda phi(x')``.

    Equals ``(signal_variance / m) * sum_i cos(2 pi r_i . (x - x'))`` and
    is therefore bounded by ``signal_variance`` in absolute value.
    """
    phi_a = basis_vector(x, theta, cfg)
    phi_b = basis_vector(x2, theta, cfg)
    return float(cfg.lambda_diag * np.dot(phi_a, phi_b))
