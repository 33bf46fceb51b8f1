"""Affine reparameterization of the variational posterior.

The posterior over the joint vector ``alpha = (theta, s)`` is a full
Gaussian parameterized through an affine map of a standard normal draw:

    z ~ N(0, I),   alpha = M z + b,   q(alpha) = N(alpha | b, M M^T).

The prior over ``alpha`` is the diagonal Gaussian ``N(0, diag(v))`` with
the frequency variances of :class:`PriorSpec` first and the config's weight
variance ``signal_variance / m`` repeated ``2m`` times.  The divergence
between these two Gaussians has a closed form, so the bound samples only
its likelihood term:

    KL(q || p) = 0.5 sum_i (E_q[alpha_i^2] / v_i + log v_i) - D/2 - log |det M|,
    E_q[alpha_i^2] = (M M^T)_ii + b_i^2,
    d KL/dM = M / v - M^{-T},    d KL/db = b / v.

``M`` must stay invertible.  Each state inverts it once, for the exact
condition number that guards against singular states and for the
gradient's ``M^{-T}``.

:func:`transform` returns draws of ``alpha`` split into two plain arrays,
``(theta, s)``, the form in which every caller uses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NONNEGATIVE_INT, ContractError, NumericalError, checked
from .features import SpectralConfig

FOUR_PI_SQ = 4.0 * np.pi**2

# A state whose reciprocal condition number falls at or below this is
# considered numerically singular and may not be constructed.
RCOND_MIN = 1e-13

# transform maps a stack of draws in groups of this many (see there).
DRAW_GROUP = 8


@dataclass(frozen=True)
class PriorSpec:
    """Squared-exponential prior ``N(0, (4 pi^2 diag(l^2))^{-1})`` of each of
    the ``m`` frequencies (SSGP), given by its ``d`` lengthscales ``l``.

    ``frequency_variance``, the ``d`` variances ``1 / (4 pi^2 l^2)``, is
    derived once at construction and is not a field.  The shared variance of
    the ``2m`` weights is ``SpectralConfig.lambda_diag``, so it follows the
    signal variance when that is learned.
    """

    lengthscales: np.ndarray

    def __post_init__(self):
        ls = np.array(self.lengthscales, dtype=float)
        with np.errstate(all="ignore"):
            var = 1.0 / (FOUR_PI_SQ * ls**2)
        if ls.ndim != 1 or ls.size == 0 or not np.all((ls > 0) & (var > 0) & np.isfinite(var)):
            raise ContractError(
                f"lengthscales must be a non-empty vector of l > 0 with a finite, positive "
                f"1 / (4 pi^2 l^2), got {self.lengthscales!r}"
            )
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "frequency_variance", var)

    def __eq__(self, other):
        # Written out because the generated one would compare the arrays
        # inside a tuple, which raises for d > 1.
        if not isinstance(other, PriorSpec):
            return NotImplemented
        return np.array_equal(self.lengthscales, other.lengthscales)

    def __hash__(self):
        return hash(self.lengthscales.tobytes())

    @property
    def d(self) -> int:
        return self.lengthscales.size

    def variances(self, cfg: SpectralConfig) -> np.ndarray:
        """Full diagonal of the prior covariance, length ``alpha_dim``: the
        frequency variances for each frequency, then ``lambda_diag``."""
        var = np.empty(cfg.alpha_dim)
        var[: cfg.theta_dim].reshape(cfg.m, cfg.d)[:] = self.frequency_variance
        var[cfg.theta_dim :] = cfg.lambda_diag
        return var

    def sample_theta(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """One draw of the flattened ``(m d)`` frequency vector from the prior."""
        return (rng.standard_normal((m, self.d)) * np.sqrt(self.frequency_variance)).ravel()

    @classmethod
    def for_inputs(cls, X, cfg: SpectralConfig) -> "PriorSpec":
        """Data-scaled default: lengthscale = per-dimension standard deviation.

        Constant columns (zero spread), and every column of an ``X`` with no
        rows, fall back to a lengthscale of 1 so the prior stays proper.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != cfg.d:
            raise ContractError(f"X must have shape (n, {cfg.d}), got {X.shape}")
        spread = X.std(axis=0) if X.shape[0] else np.zeros(cfg.d)
        return cls(np.where(spread > 0, spread, 1.0))


class VariationalState:
    """Invertible affine map ``z -> M z + b`` with its inverse, computed once.

    ``rcond`` is the exact ``1 / (||M||_1 ||M^{-1}||_1)``, 0 if a norm
    overflows; a zero pivot or ``rcond <= 1e-13`` (``RCOND_MIN``, the one
    singularity threshold) raises :class:`NumericalError`.  Training halves
    any step that would build such a state.  Its attributes cannot be
    reassigned, and ``M``, ``b`` and ``inverse_transpose`` are read-only
    copies, so nothing derived from a state (a model's prediction memo)
    can go stale."""

    __slots__ = ("M", "b", "rcond", "inverse_transpose")

    def __init__(self, M, b):
        M = np.array(M, dtype=float)
        b = np.array(b, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ContractError(f"M must be square, got shape {M.shape}")
        if b.shape != (M.shape[0],):
            raise ContractError(f"b must have shape ({M.shape[0]},), got {b.shape}")
        if not (np.all(np.isfinite(M)) and np.all(np.isfinite(b))):
            raise ContractError("M and b must be finite")
        try:
            inv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            raise NumericalError("M is numerically singular (zero LU pivot)") from None
        with np.errstate(all="ignore"):
            rcond = 1.0 / (np.linalg.norm(M, 1) * np.linalg.norm(inv, 1))
        rcond = float(rcond) if np.isfinite(rcond) else 0.0
        if rcond <= RCOND_MIN:
            raise NumericalError(f"M is numerically singular (rcond={rcond:.3e} <= {RCOND_MIN:g})")
        for array in (M, b, inv):
            array.setflags(write=False)
        init = object.__setattr__
        init(self, "M", M)
        init(self, "b", b)
        init(self, "rcond", rcond)
        init(self, "inverse_transpose", inv.T)

    def __setattr__(self, name, value):
        raise AttributeError(f"VariationalState attributes cannot be reassigned ({name!r})")

    @property
    def dim(self) -> int:
        return self.b.size

    @property
    def log_abs_det(self) -> float:
        """``log |det M|``."""
        return float(np.linalg.slogdet(self.M)[1])


def initial_state(prior: PriorSpec, cfg: SpectralConfig, seed: int = 0) -> VariationalState:
    """Default starting point: ``M = 0.1 I``; ``b`` has a prior draw seeded by
    the integer ``seed`` >= 0 in its frequency block and zeros for the weights."""
    if prior.d != cfg.d:
        raise ContractError(f"prior has {prior.d} lengthscales, the config needs {cfg.d}")
    rng = np.random.default_rng(np.random.SeedSequence(checked("seed", seed, NONNEGATIVE_INT)))
    b = np.concatenate([prior.sample_theta(rng, cfg.m), np.zeros(cfg.num_features)])
    return VariationalState(0.1 * np.eye(cfg.alpha_dim), b)


def transform(state: VariationalState, z, cfg: SpectralConfig):
    """Map a standard normal draw (or a stack) to ``alpha = M z + b``, split
    into frequencies ``theta`` ``([b,] m d)`` and weights ``s`` ``([b,] 2m)``.

    A stack is mapped in groups of ``DRAW_GROUP`` consecutive draws, the
    full groups in one batched matmul and the remainder as a product of its
    own, so a draw's bits depend only on the draws of its group: the rows
    of a stack whose length is a multiple of ``DRAW_GROUP`` are the first
    rows of any longer stack that extends it.  A single product over the
    whole stack is not prefix-stable: BLAS rounds a column differently
    with the number of columns.  Up to ``DRAW_GROUP`` draws are the plain
    ``M z^T`` product, which a full group's batched matmul matches bit for
    bit.  Each part is a C-contiguous copy that owns its memory.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != state.dim:
        raise ContractError(f"z must have shape ([b,] {state.dim}), got {z.shape}")
    if z.ndim == 1 or z.shape[0] <= DRAW_GROUP:
        alpha = (state.M @ z.T).T + state.b
    else:
        head = z.shape[0] // DRAW_GROUP * DRAW_GROUP
        groups = np.swapaxes(z[:head].reshape(-1, DRAW_GROUP, state.dim), 1, 2)
        alpha = np.empty(z.shape)
        alpha[:head] = np.swapaxes(state.M @ groups, 1, 2).reshape(head, state.dim)
        alpha[head:] = (state.M @ z[head:].T).T
        alpha += state.b
    return alpha[..., : cfg.theta_dim].copy(), alpha[..., cfg.theta_dim :].copy()


def second_moments(state: VariationalState) -> np.ndarray:
    """``E_q[alpha_i^2] = (M M^T)_ii + b_i^2`` for every coordinate."""
    return np.einsum("ij,ij->i", state.M, state.M) + state.b**2


def kl_divergence(state: VariationalState, prior: PriorSpec, cfg: SpectralConfig) -> float:
    """Exact ``KL(q || p)`` between the posterior and the diagonal prior."""
    var = prior.variances(cfg)
    quad = float(np.sum(second_moments(state) / var + np.log(var)))
    return 0.5 * (quad - state.dim) - state.log_abs_det


def kl_term_gradient(state: VariationalState, prior: PriorSpec, cfg: SpectralConfig):
    """Gradient of :func:`kl_divergence` in ``(M, b)``: ``(M / v - M^{-T}, b / v)``.

    The prior must cover the state's dimension, which ``train`` and model
    loading check once.
    """
    var = prior.variances(cfg)
    return state.M / var[:, None] - state.inverse_transpose, state.b / var
