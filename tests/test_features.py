import math

import numpy as np
import pytest

from specgp import (
    ContractError,
    SpectralConfig,
    approx_kernel,
    basis_vector,
    feature_matrix,
)
from specgp.features import TWO_PI


def make_cfg(d=2, m=3, ss2=1.5, sn2=0.1):
    return SpectralConfig(d=d, m=m, signal_variance=ss2, noise_variance=sn2)


def test_config_validation():
    with pytest.raises(ContractError):
        SpectralConfig(d=0, m=1, signal_variance=1.0, noise_variance=1.0)
    with pytest.raises(ContractError):
        SpectralConfig(d=1, m=0, signal_variance=1.0, noise_variance=1.0)
    with pytest.raises(ContractError):
        SpectralConfig(d=1, m=1, signal_variance=0.0, noise_variance=1.0)
    with pytest.raises(ContractError):
        SpectralConfig(d=1, m=1, signal_variance=1.0, noise_variance=-1.0)
    # integral floats and booleans are not integers: a float m would reach
    # slicing and shape arithmetic later
    for d, m in ((2.0, 1), (1, 3.0), (True, 1), (1, True)):
        with pytest.raises(ContractError):
            SpectralConfig(d=d, m=m, signal_variance=1.0, noise_variance=1.0)
    cfg = SpectralConfig(d=np.int64(2), m=np.int32(3), signal_variance=1.0, noise_variance=1.0)
    assert cfg.num_features == 6
    cfg = make_cfg(d=3, m=4)
    assert cfg.num_features == 8
    assert cfg.theta_dim == 12
    assert cfg.alpha_dim == 20
    assert cfg.lambda_diag == pytest.approx(1.5 / 4)


def test_basis_vector_zero_input():
    cfg = make_cfg(d=3, m=4)
    rng = np.random.default_rng(0)
    theta = rng.normal(size=cfg.theta_dim)
    phi = basis_vector(np.zeros(3), theta, cfg)
    expected = np.repeat([1.0, 0.0], cfg.m)
    np.testing.assert_array_equal(phi, expected)


def test_basis_vector_half_frequency():
    # d=1, m=1, r=0.5, x=1: angle is pi exactly
    cfg = make_cfg(d=1, m=1)
    phi = basis_vector(np.array([1.0]), np.array([0.5]), cfg)
    assert phi[0] == pytest.approx(-1.0, abs=1e-15)
    assert phi[1] == pytest.approx(0.0, abs=1e-15)


def test_basis_vector_scalar_oracle():
    # every entry checked against a scalar cos/sin of the dot product
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = rng.integers(1, 4)
        m = rng.integers(1, 5)
        cfg = make_cfg(d=int(d), m=int(m))
        x = rng.normal(size=d)
        theta = rng.normal(size=cfg.theta_dim)
        phi = basis_vector(x, theta, cfg)
        freqs = theta.reshape(m, d)
        for i in range(m):
            angle = 2.0 * math.pi * float(np.dot(freqs[i], x))
            assert phi[i] == pytest.approx(math.cos(angle), abs=1e-12)
            assert phi[m + i] == pytest.approx(math.sin(angle), abs=1e-12)


def test_basis_vector_dimension_mismatch():
    cfg = make_cfg(d=2, m=2)
    with pytest.raises(ContractError):
        basis_vector(np.zeros(3), np.zeros(cfg.theta_dim), cfg)
    with pytest.raises(ContractError):
        basis_vector(np.zeros(2), np.zeros(cfg.theta_dim + 1), cfg)
    with pytest.raises(ContractError):
        basis_vector(np.zeros(2), np.array([np.nan, 0.0, 0.0, 0.0]), cfg)


def test_feature_matrix_columns_match_basis_vector():
    cfg = make_cfg(d=2, m=3)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(7, 2))
    theta = rng.normal(size=cfg.theta_dim)
    Phi = feature_matrix(X, theta, cfg)
    assert Phi.shape == (cfg.num_features, 7)
    for j in range(7):
        np.testing.assert_allclose(Phi[:, j], basis_vector(X[j], theta, cfg), atol=1e-14)


def test_feature_matrix_halves_match_basis_vector_columns():
    # [..., i, j] is the cosine and [..., m + i, j] the sine of frequency i
    # at row j, for one theta and for a stack.  A stack is a view of a
    # feature-major (2m, b, n) buffer: each half of the whole stack is one
    # contiguous block.  Dyadic inputs make every r.x exact, so both maps see
    # the same float64 angles and the 4e-16 accuracy bound applies.
    cfg = make_cfg(d=3, m=4)
    rng = np.random.default_rng(8)
    X = rng.integers(-16, 17, size=(9, 3)) / 8.0
    thetas = rng.integers(-16, 17, size=(3, cfg.theta_dim)) / 16.0
    stack = feature_matrix(X, thetas, cfg)
    assert stack.shape == (3, cfg.num_features, 9)
    assert stack.strides == (9 * 8, 3 * 9 * 8, 8)
    buffer = stack.swapaxes(0, 1)
    for half in (buffer[: cfg.m], buffer[cfg.m :]):
        assert half.flags.c_contiguous
    for k, theta in enumerate(thetas):
        single = feature_matrix(X, theta, cfg)
        np.testing.assert_array_equal(stack[k], single)
        reference = np.stack([basis_vector(x, theta, cfg) for x in X], axis=-1)
        np.testing.assert_allclose(single, reference, rtol=0, atol=4e-16)


def feature_matrix_per_draw(X, theta, cfg):
    """The map with each draw's (2m, n) block contiguous, ``([b,] 2m, n)``
    C-ordered: the same operations in the same order on per-draw halves."""
    batch = theta.shape[:-1]
    phi = np.empty(batch + (cfg.num_features, X.shape[0]))
    cos, sin = phi[..., : cfg.m, :], phi[..., cfg.m :, :]
    np.matmul(theta.reshape(batch + (cfg.m, cfg.d)), X.T, out=sin)
    sin *= np.pi
    np.tan(sin, out=sin)
    np.square(sin, out=cos)
    cos += 1.0
    np.divide(2.0, cos, out=cos)
    sin *= cos
    cos -= 1.0
    return phi


@pytest.mark.parametrize("b", [None, 1, 3, 65])
@pytest.mark.parametrize("n", [0, 1, 95])
def test_feature_matrix_is_bit_identical_to_per_draw_layout(b, n):
    # the layout moves no bit: every value equals the per-draw C-order map's
    cfg = make_cfg(d=2, m=5)
    rng = np.random.default_rng(10)
    X = rng.normal(size=(n, cfg.d))
    theta = rng.normal(size=(cfg.theta_dim,) if b is None else (b, cfg.theta_dim))
    got = feature_matrix(X, theta, cfg)
    expected = feature_matrix_per_draw(X, theta, cfg)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got, expected)


def test_feature_matrix_matches_long_double_trig():
    # against cos/sin of the same float64 angle taken in long double, over
    # angle scales 1e-3 to 1e4 and at the half-angle tangent's poles
    # (r.x = k + 1/2 and its two neighbouring doubles), with every
    # floating-point exception raised
    rng = np.random.default_rng(7)
    scales = 10.0 ** np.arange(-3, 5)
    spread = (rng.uniform(-1.0, 1.0, (scales.size, 64)) * scales[:, None]).ravel()
    centres = np.array([0.5, 1.5, 7.5, 1000.5])
    poles = np.concatenate(
        [np.nextafter(centres, -np.inf), centres, np.nextafter(centres, np.inf)]
    )
    theta = np.concatenate([spread, poles, -poles])
    cfg = make_cfg(d=1, m=theta.size)
    with np.errstate(all="raise"):
        Phi = feature_matrix(np.ones((1, 1)), theta, cfg)[:, 0]
    assert Phi.dtype == np.float64
    angles = np.longdouble(TWO_PI * theta)
    assert np.max(np.abs(Phi[: cfg.m] - np.cos(angles))) <= 1e-15
    assert np.max(np.abs(Phi[cfg.m :] - np.sin(angles))) <= 1e-15


def test_feature_matrix_empty_input():
    cfg = make_cfg(d=2, m=3)
    Phi = feature_matrix(np.zeros((0, 2)), np.zeros(cfg.theta_dim), cfg)
    assert Phi.shape == (cfg.num_features, 0)


def test_basis_vector_is_a_feature_matrix_column():
    # one order for both maps: the scalar reference at x is the one column of
    # feature_matrix at x[None], with no reordering, to the 4e-16 bound on
    # dyadic inputs (exact angles)
    cfg = make_cfg(d=2, m=5)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.integers(-16, 17, size=2) / 8.0
        theta = rng.integers(-16, 17, size=cfg.theta_dim) / 16.0
        column = feature_matrix(x[None], theta, cfg)[:, 0]
        np.testing.assert_allclose(basis_vector(x, theta, cfg), column, rtol=0, atol=4e-16)


def test_kernel_diagonal_is_signal_variance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        cfg = make_cfg(d=3, m=5, ss2=float(rng.uniform(0.5, 3.0)))
        x = rng.normal(size=3)
        theta = rng.normal(size=cfg.theta_dim)
        assert approx_kernel(x, x, theta, cfg) == pytest.approx(
            cfg.signal_variance, rel=1e-12
        )


def test_kernel_cosine_sum_identity():
    # phi(x)' Lambda phi(x') must equal the direct cosine-sum form
    rng = np.random.default_rng(4)
    for _ in range(25):
        cfg = make_cfg(d=2, m=4, ss2=float(rng.uniform(0.5, 2.0)))
        x, x2 = rng.normal(size=2), rng.normal(size=2)
        theta = rng.normal(size=cfg.theta_dim)
        freqs = theta.reshape(cfg.m, cfg.d)
        direct = cfg.lambda_diag * np.sum(np.cos(2 * np.pi * (freqs @ (x - x2))))
        assert approx_kernel(x, x2, theta, cfg) == pytest.approx(direct, abs=1e-12)


def test_kernel_symmetry_and_bound():
    rng = np.random.default_rng(5)
    cfg = make_cfg(d=3, m=6)
    for _ in range(20):
        x, x2 = rng.normal(size=3), rng.normal(size=3)
        theta = rng.normal(size=cfg.theta_dim)
        k12 = approx_kernel(x, x2, theta, cfg)
        k21 = approx_kernel(x2, x, theta, cfg)
        assert abs(k12 - k21) <= 1e-12
        assert abs(k12) <= cfg.signal_variance + 1e-12


def test_gram_matrix_positive_semidefinite():
    rng = np.random.default_rng(6)
    for _ in range(10):
        cfg = make_cfg(d=2, m=4, ss2=float(rng.uniform(0.5, 2.0)))
        X = rng.normal(size=(12, 2))
        theta = rng.normal(size=cfg.theta_dim)
        Phi = feature_matrix(X, theta, cfg)
        gram = Phi.T @ (cfg.lambda_diag * Phi)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        assert eigs.min() >= -1e-10 * cfg.signal_variance


def test_kernel_monte_carlo_matches_squared_exponential():
    # mean over S single-frequency kernels approaches the SE kernel; the
    # m=S stacked evaluation is exactly that mean, so check both at once
    rng = np.random.default_rng(0)
    d, S, ss2 = 2, 50000, 1.3
    lengths = rng.uniform(0.4, 1.5, size=d)
    R = rng.normal(0.0, 1.0 / (2 * np.pi * lengths), size=(S, d))
    cfg_stacked = SpectralConfig(d=d, m=S, signal_variance=ss2, noise_variance=1.0)
    for _ in range(5):
        x, x2 = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
        delta = x - x2
        vals = ss2 * np.cos(2 * np.pi * (R @ delta))
        mc = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(S)
        assert approx_kernel(x, x2, R.ravel(), cfg_stacked) == pytest.approx(mc, abs=1e-10)
        truth = ss2 * np.exp(-0.5 * np.sum((delta / lengths) ** 2))
        assert abs(mc - truth) < 4 * se
