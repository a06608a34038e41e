import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize, rosen, rosen_der, rosen_hess
from scipy.stats import chi2

import tsindep.models as models_module
from tsindep import DataError, FitError, ModelSpec, SingularityError, fit_ccc_garch, residuals, simulate
from tsindep.models import (
    _floored_information,
    _garch_curvature,
    _garch_newton,
    _garch_pack,
    _garch_residuals_batch,
    _garch_scores,
    _garch_starts,
    _garch_terms,
    _garch_unpack,
    _garch_unpack_jacobian,
    _garch_variances,
    _garch_xspace_derivs,
    _garch_xspace_scores_batch,
    _GARCH_SCAN_CHUNK,
    _first_order_recursion,
    _simulate_garch,
    _sqrt2x2,
    garch_loglik_terms,
)

THETA = np.array([0.2, 0.1, 0.5, 0.2, 0.1, 0.5, 0.5])
RHO_CHOL = np.linalg.cholesky(np.array([[1.0, 0.5], [0.5, 1.0]]))


def correlated_innovations(rng, n, rho=0.5):
    z = rng.normal(size=(n, 2))
    mix = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
    return z @ mix.T


def simulate_garch_data(rng, n, theta=THETA, burn=500):
    """Well-specified sample: D^{1/2}-scaled innovations with correlation rho."""
    e = correlated_innovations(rng, n + burn, rho=theta[6])
    return _simulate_garch(theta, e, v_init=None)[burn:], e[burn:]


class TestSqrt2x2:
    def test_matches_eig_sqrt(self):
        rng = np.random.default_rng(0)
        from tsindep import psd_sqrt

        for _ in range(20):
            a = rng.normal(size=(2, 2))
            v = a @ a.T + 0.1 * np.eye(2)
            s11, s22, s12 = _sqrt2x2(v[0, 0], v[1, 1], v[0, 1])
            expected = psd_sqrt(v)
            assert_allclose([s11, s22, s12], [expected[0, 0], expected[1, 1], expected[0, 1]], rtol=1e-10)

    def test_sqrt_squares_back(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=(2, 2))
            v = a @ a.T + 0.1 * np.eye(2)
            s11, s22, s12 = _sqrt2x2(v[0, 0], v[1, 1], v[0, 1])
            s = np.array([[s11, s12], [s12, s22]])
            assert_allclose(s @ s, v, rtol=1e-12)


def variance_paths(theta, data, v_init):
    """Variances (n, 2) of one path with theta shared, then with theta per path."""
    yield _garch_variances(theta, data**2, v_init).T
    yield _garch_variances(theta[None], data[None] ** 2, v_init[None])[:, 0].T


class TestVariancePath:
    def test_constant_parameters_collapse(self):
        # alpha = beta = 0 makes the conditional variance constant.
        rng = np.random.default_rng(2)
        theta = np.array([0.7, 0.0, 0.0, 0.3, 0.0, 0.0, 0.2])
        data = rng.normal(size=(100, 2))
        for v in variance_paths(theta, data, np.array([0.7, 0.3])):
            assert_allclose(v[:, 0], 0.7)
            assert_allclose(v[:, 1], 0.3)

    def test_recursion_against_loop(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(50, 2))
        v_init = np.array([1.3, 0.8])
        for v in variance_paths(THETA, data, v_init):
            for i in range(2):
                w, a, b = THETA[3 * i : 3 * i + 3]
                expect = v_init[i]
                assert_allclose(v[0, i], expect, rtol=1e-12)
                for t in range(1, 50):
                    expect = w + a * data[t - 1, i] ** 2 + b * expect
                    assert_allclose(v[t, i], expect, rtol=1e-10)

    def test_zero_innovations_decay_to_fixed_point(self):
        # With eta = 0 the output is 0, so v decays to omega / (1 - beta).
        out = _simulate_garch(THETA, np.zeros((200, 2)), v_init=np.array([5.0, 5.0]))
        assert_allclose(out, 0.0)
        for v in variance_paths(THETA, out, np.array([5.0, 5.0])):
            assert_allclose(v[-1, 0], 0.2 / (1.0 - 0.5), rtol=1e-10)


class TestSimulateGarch:
    def test_alpha_beta_zero_is_static_scaling(self):
        # With alpha = beta = 0 the variances are constant at omega, so the
        # output is just a fixed diagonal scaling of the innovations.
        rng = np.random.default_rng(4)
        theta = np.array([4.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.5])
        e = correlated_innovations(rng, 100)
        out = _simulate_garch(theta, e)
        assert_allclose(out, e * np.array([2.0, 3.0]), rtol=1e-12)

    def test_mixed_form_alpha_beta_zero(self):
        rng = np.random.default_rng(40)
        theta = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.5])
        e = rng.normal(size=(100, 2))
        out = _simulate_garch(theta, e, mixed=True)
        from tsindep import psd_sqrt

        expected = e @ psd_sqrt(np.array([[1.0, 0.5], [0.5, 1.0]])).T
        assert_allclose(out, expected, rtol=1e-10)

    def test_explosive_rejected(self):
        theta = np.array([0.2, 0.5, 0.5, 0.2, 0.1, 0.5, 0.0])
        with pytest.raises(DataError):
            _simulate_garch(theta, np.zeros((10, 2)))
        out = _simulate_garch(theta, np.zeros((10, 2)), v_init=np.array([1.0, 1.0]), allow_explosive=True)
        assert out.shape == (10, 2)
        assert (out == 0.0).all()

    def test_unconditional_variance_unit_innovations(self):
        # With unit-variance innovations, E v = omega / (1 - alpha - beta).
        rng = np.random.default_rng(5)
        e = correlated_innovations(rng, 100_000)
        out = _simulate_garch(THETA, e)
        assert_allclose(out.var(axis=0), 0.2 / (1.0 - 0.6), atol=0.03)

    def test_residual_roundtrip_at_truth(self):
        # Extracting residuals at the generating parameters recovers the
        # innovations once the variance recursion has burned in.
        rng = np.random.default_rng(6)
        data, innov = simulate_garch_data(rng, 400)
        eta, valid = _garch_residuals_batch(THETA, data, data.var(axis=0))
        assert valid
        assert_allclose(eta[50:], innov[50:], atol=1e-8)


def simulate_garch_loop(theta, innovations, v_init=None):
    """Oracle: the per-component step loop, two scalar updates per step."""
    e = np.asarray(innovations, dtype=float)
    w1, a1, b1, w2, a2, b2, _rho = (float(v) for v in theta)
    batched = e.ndim == 3
    if not batched:
        e = e[None]
    nb, n_out, _ = e.shape
    if v_init is None:
        v_init = np.array([w1 / (1.0 - a1 - b1), w2 / (1.0 - a2 - b2)])
    out = np.empty((nb, n_out, 2))
    v1 = np.full(nb, v_init[0])
    v2 = np.full(nb, v_init[1])
    for t in range(n_out):
        if t > 0:
            v1 = w1 + a1 * out[:, t - 1, 0] ** 2 + b1 * v1
            v2 = w2 + a2 * out[:, t - 1, 1] ** 2 + b2 * v2
        out[:, t, 0] = np.sqrt(v1) * e[:, t, 0]
        out[:, t, 1] = np.sqrt(v2) * e[:, t, 1]
    return out if batched else out[0]


def simulate_garch_mixed_loop(theta, innovations, v_init=None):
    """Oracle: the mixed symmetric-root form as a per-component step loop."""
    e = np.asarray(innovations, dtype=float)
    w1, a1, b1, w2, a2, b2, rho = (float(v) for v in theta)
    batched = e.ndim == 3
    if not batched:
        e = e[None]
    nb, n_out, _ = e.shape
    if v_init is None:
        v_init = np.array([w1 / (1.0 - a1 - b1), w2 / (1.0 - a2 - b2)])
    out = np.empty((nb, n_out, 2))
    v1 = np.full(nb, v_init[0])
    v2 = np.full(nb, v_init[1])
    for t in range(n_out):
        if t > 0:
            v1 = w1 + a1 * out[:, t - 1, 0] ** 2 + b1 * v1
            v2 = w2 + a2 * out[:, t - 1, 1] ** 2 + b2 * v2
        v12 = rho * np.sqrt(v1 * v2)
        s11, s22, s12 = _sqrt2x2(v1, v2, v12)
        out[:, t, 0] = s11 * e[:, t, 0] + s12 * e[:, t, 1]
        out[:, t, 1] = s12 * e[:, t, 0] + s22 * e[:, t, 1]
    return out if batched else out[0]


def variance_loop(theta_b, y2, v_init, scale=False):
    """Oracle: per-path variances (nb, n, 2), one loop per component; with
    ``scale``, the term scale of the recursion (every term made nonnegative)."""
    th = np.abs(theta_b) if scale else theta_b
    nb, n, _ = y2.shape
    v = np.empty((nb, n, 2))
    for i in range(2):
        v[:, 0, i] = np.abs(v_init[:, i]) if scale else v_init[:, i]
        for t in range(1, n):
            v[:, t, i] = th[:, 3 * i] + th[:, 3 * i + 1] * y2[:, t - 1, i] + th[:, 3 * i + 2] * v[:, t - 1, i]
    return v


def residuals_batch_loop(theta_b, y, v_init):
    """Oracle: batched residual extraction, one variance loop per component."""
    v = variance_loop(theta_b, y**2, v_init)
    valid = (np.abs(theta_b[:, 6]) < 1.0) & (v > 0).all(axis=(1, 2))
    eta = y / np.sqrt(np.where(v > 0, v, 1.0))
    valid &= np.isfinite(eta).all(axis=(1, 2))
    return eta, valid


def residual_gap(got, ref, theta_b, y, v_init):
    """Largest ``|got - ref|`` of residuals (nb, n, 2) in units of the
    rounding bound of row t, ``2 (t + 1) eps (s_t / |v_t|) |ref_t|``, where
    ``v_t`` and its term scale ``s_t`` come from :func:`variance_loop`.

    Both sides form the drive ``omega + alpha y_{t-1}^2`` with the same
    bits.  The solve then adds ``beta v_{t-1}`` with one rounding where the
    BLAS fuses the multiply-add (two where it does not), the loop with two
    (product, sum); each rounding is at most u s_t, u = eps / 2.  So the
    gap ``e_t`` of the variances obeys ``|e_t| <= |beta| |e_{t-1}| + 4 u
    s_t`` from ``e_0 = 0``, and since ``|beta| s_{t-1} <= s_t``, ``|e_t| <=
    4 t u s_t``.  A residual ``y / sqrt(v)`` takes half the relative error
    of v, ``2 t u s_t / |v_t|``, plus the two roundings (root, division) on
    each side, so the two agree within ``(2 t s_t / |v_t| + 4) u``, below
    ``2 (t + 1) eps s_t / |v_t|`` because ``s_t >= |v_t|``.  On a path
    whose terms are all nonnegative, ``s_t = v_t``.  Where ``v_t <= 0``
    both sides divide by 1, so the gap must be 0.
    """
    y2 = y**2
    v = variance_loop(theta_b, y2, v_init)
    s = variance_loop(theta_b, y2, v_init, scale=True)
    t = np.arange(ref.shape[-2])[:, None]
    bound = np.where(v > 0, 2.0 * (t + 1) * np.finfo(float).eps * s / np.where(v > 0, v, 1.0) * np.abs(ref), 0.0)
    over = np.abs(got - ref)
    assert (over[bound == 0] == 0).all()
    return float((over / np.where(bound > 0, bound, 1.0)).max(initial=0.0))


def scan_gap(got, ref):
    """Largest ``|got - ref|`` in units of the rounding bound of row t,
    ``4 (t + 1) eps |ref_t|``, for standard-form paths (..., n, 2).

    Every term of ``v_t = omega + (alpha eps_{t-1}^2 + beta) v_{t-1}`` is
    positive, so the term scale of a row is |value| itself, and an error in
    ``v_{t-1}`` reaches ``v_t`` scaled by ``c_t v_{t-1} / v_t <= 1``: the
    relative error of v grows by at most the roundings of one step.  The
    step loop rounds about 8 times a step (root, scale, square, two
    products, two sums), in units u = eps / 2; the scan about 5 times a row
    (square, product, sum for c_t; product and sum for the offset) plus 2
    per carry and per final row.  ``Y_t = sqrt(v_t) eps_t`` halves those
    relative errors and adds 2u, so the two agree within (6.5 t + t / L +
    5) u, which is below 8 (t + 1) u = 4 (t + 1) eps.
    """
    t = np.arange(ref.shape[-2])[:, None]
    bound = 4.0 * (t + 1) * np.finfo(float).eps * np.abs(ref)
    over = np.abs(got - ref)
    assert (over[bound == 0] == 0).all()
    return float((over / np.where(bound > 0, bound, 1.0)).max(initial=0.0))


class TestStepLoopsBitIdentical:
    @pytest.mark.parametrize("nb", [1, 7, 64])
    def test_simulate_matches_component_loop(self, nb):
        # The standard form runs as a chunked scan, whose rounding differs
        # from the step loop's: it matches within scan_gap's bound (the
        # largest gap seen is about 1e-15 relative).  The other checks in
        # this class stay exact.
        rng = np.random.default_rng(50 + nb)
        theta = np.array([0.05, 0.13, 0.81, 0.3, 0.07, 0.6, 0.4])
        e = rng.normal(size=(nb, 300, 2))
        for v_init in (None, np.array([0.7, 1.9])):
            assert scan_gap(_simulate_garch(theta, e, v_init), simulate_garch_loop(theta, e, v_init)) <= 1.0
        single = _simulate_garch(theta, e[0])
        assert single.shape == (300, 2)
        assert scan_gap(single, simulate_garch_loop(theta, e[0])) <= 1.0

    @pytest.mark.parametrize("nb", [1, 7, 64])
    def test_mixed_form_matches_mixed_loop(self, nb):
        rng = np.random.default_rng(70 + nb)
        theta = np.array([0.05, 0.13, 0.81, 0.3, 0.07, 0.6, 0.4])
        e = rng.normal(size=(nb, 300, 2))
        for v_init in (None, np.array([0.7, 1.9])):
            got = _simulate_garch(theta, e, v_init, mixed=True)
            assert (got == simulate_garch_mixed_loop(theta, e, v_init)).all()
        single = _simulate_garch(theta, e[0], mixed=True)
        assert single.shape == (300, 2)
        assert (single == simulate_garch_mixed_loop(theta, e[0])).all()

    @pytest.mark.parametrize("nb", [1, 7, 64])
    def test_batch_residuals_match_component_loop(self, nb):
        rng = np.random.default_rng(60 + nb)
        y = rng.normal(size=(nb, 150, 2))
        theta_b = THETA + 0.01 * rng.normal(size=(nb, 7))
        theta_b[0, 1] = -0.9  # drives the first path's variance negative
        v_init = y.var(axis=1)
        eta, valid = _garch_residuals_batch(theta_b, y, v_init)
        want_eta, want_valid = residuals_batch_loop(theta_b, y, v_init)
        assert not valid[0]
        assert (valid == want_valid).all()
        # The solve rounds once per step and the loop twice, so the two
        # agree within residual_gap's bound, not bit for bit.
        assert residual_gap(eta, want_eta, theta_b, y, v_init) <= 1.0

    @pytest.mark.parametrize("nb", [1, 7, 64])
    @pytest.mark.parametrize("n", [2, 200, 2000])
    def test_shared_theta_matches_per_path(self, n, nb):
        # A shared theta and the same theta per path give the same bits.
        rng = np.random.default_rng(80 + n + nb)
        y = _simulate_garch(THETA, rng.normal(size=(nb, n, 2)), v_init=np.array([0.5, 0.5]))
        v_init = y.var(axis=1)
        static = np.array([0.7, 0.0, 0.0, 0.3, 0.0, 0.0, 0.2])
        no_arch = np.array([0.2, 0.0, 0.5, 0.3, 0.0, 0.9, -0.3])
        for theta in (THETA, static, no_arch):
            eta, valid = _garch_residuals_batch(theta, y, v_init)
            want_eta, want_valid = _garch_residuals_batch(np.tile(theta, (nb, 1)), y, v_init)
            assert want_valid.all()
            assert (valid == want_valid).all()
            assert (eta == want_eta).all()


class TestGarchScan:
    THETA = np.array([0.05, 0.13, 0.81, 0.3, 0.07, 0.6, 0.4])

    def test_path_bits_do_not_depend_on_block(self):
        rng = np.random.default_rng(90)
        e = rng.normal(size=(64, 700, 2))
        block64 = _simulate_garch(self.THETA, e)
        block7 = _simulate_garch(self.THETA, e[:7])
        for i in range(64):
            alone = _simulate_garch(self.THETA, e[i])
            assert np.array_equal(alone, block64[i])
            if i < 7:
                assert np.array_equal(alone, block7[i])

    @pytest.mark.parametrize(
        "n", [0, 1, 2, _GARCH_SCAN_CHUNK, _GARCH_SCAN_CHUNK + 1, _GARCH_SCAN_CHUNK + 2, 700]
    )
    def test_chunk_edges(self, n):
        # n rows make n - 1 scan steps: n = L + 1 fills one chunk exactly.
        rng = np.random.default_rng(91 + n)
        for nb in (1, 7):
            e = rng.normal(size=(nb, n, 2))
            for v_init in (None, np.array([3.0, 0.01])):
                got = _simulate_garch(self.THETA, e, v_init)
                ref = simulate_garch_loop(self.THETA, e, v_init)
                assert got.shape == ref.shape == (nb, n, 2)
                assert scan_gap(got, ref) <= 1.0
                assert np.array_equal(got[:, :1], ref[:, :1])

    def test_tiny_beta_and_large_innovations(self):
        # Coefficients near 1e-12 on ordinary rows and near 1 on spikes of
        # 1e6, so chunk products swing over hundreds of decades; the second
        # component's products of 1e-20 underflow to zero within a chunk.
        rng = np.random.default_rng(92)
        e = rng.normal(size=(7, 700, 2))
        e[:, ::37] *= 1e6
        theta = np.array([0.5, 1e-12, 1e-12, 0.2, 0.0, 1e-20, 0.3])
        with np.errstate(all="raise", under="ignore"):
            got = _simulate_garch(theta, e)
        ref = simulate_garch_loop(theta, e)
        assert np.isfinite(got).all()
        assert scan_gap(got, ref) <= 1.0
        assert np.array_equal(got[..., 1], ref[..., 1])

    def test_explosive_paths_match_the_loop(self):
        rng = np.random.default_rng(93)
        theta = np.array([0.2, 0.5, 0.5, 0.1, 0.3, 0.69, 0.0])
        e = rng.normal(size=(3, 300, 2))
        v_init = np.array([1.0, 1.0])
        got = _simulate_garch(theta, e, v_init=v_init, allow_explosive=True)
        ref = simulate_garch_loop(theta, e, v_init)
        assert scan_gap(got, ref) <= 1.0


def recursion(x, c):
    """:func:`_first_order_recursion` on a copy of ``x``."""
    out = np.array(x, dtype=float)
    _first_order_recursion(out, c)
    return out


class TestFirstOrderRecursion:
    def rows(self, seed, m=64, n=200):
        rng = np.random.default_rng(seed)
        return rng.random((m, n)) + 0.1, 0.95 * rng.random(m)

    def test_shared_and_per_row_forms_agree(self):
        x, c = self.rows(100)
        shared = recursion(x, 0.6)
        assert (recursion(x, np.full(64, 0.6)) == shared).all()
        per_row = recursion(x, c)
        for r in range(64):
            assert (recursion(x[r], c[r]) == per_row[r]).all()
        # Rows may span several leading axes, with one coefficient per row.
        stacked = recursion(x.reshape(2, 32, 200), c.reshape(2, 32))
        assert (stacked.reshape(64, 200) == per_row).all()

    def test_row_bits_do_not_depend_on_the_stack(self):
        x, c = self.rows(101)
        block64 = recursion(x, c)
        block7 = recursion(x[:7], c[:7])
        for r in range(64):
            alone = recursion(x[r : r + 1], c[r : r + 1])[0]
            assert np.array_equal(alone, block64[r])
            if r < 7:
                assert np.array_equal(alone, block7[r])

    def test_overflowing_neighbour_keeps_rows_apart(self):
        # Data scaled by 1e200 squares to inf, as in a variance drive; the
        # zero coupling times inf (or NaN) is NaN, which must not reach the
        # next row.  A row ending negative turns the zero coupling's product
        # into +0, which must not clear the sign of a -0.0 start.
        x, c = self.rows(102, m=7)
        x[0, -1] = -1e3
        x[1, 0] = -0.0
        x[3] = np.inf
        x[5, -1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = recursion(x, c)
        assert np.isinf(got[3]).all() and np.isnan(got[5, -1])
        for r in (0, 1, 2, 4, 5, 6):
            assert np.array_equal(got[r], recursion(x[r], c[r]), equal_nan=True)
        assert np.isfinite(got[[4, 6]]).all()
        assert np.signbit(got[1, 0])

    def test_overflowing_path_in_per_path_variances(self):
        rng = np.random.default_rng(103)
        y = rng.normal(size=(7, 120, 2))
        theta_b = THETA + 0.01 * rng.normal(size=(7, 7))
        y2 = y**2
        y2[3] = np.inf
        v_init = y.var(axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = _garch_variances(theta_b, y2, v_init)
        assert not np.isfinite(v[:, 3, 1:]).any()
        for b in (0, 1, 2, 4, 5, 6):
            assert (v[:, b] == _garch_variances(theta_b[b], y2[b], v_init[b])).all()

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_short_rows(self, n):
        x, c = self.rows(104, m=3, n=n)
        for coef in (0.4, c):
            got = recursion(x, coef)
            assert got.shape == (3, n)
            if n < 2:
                assert (got == x).all()
                continue
            assert (got[:, 0] == x[:, 0]).all()
            # One step, rounded once (fused) or twice: either is allowed.
            for r in range(3):
                cr = float(np.broadcast_to(coef, 3)[r])
                fused = float(Fraction(x[r, 1]) + Fraction(cr) * Fraction(x[r, 0]))
                assert got[r, 1] in (fused, x[r, 1] + cr * x[r, 0])

    def test_zero_and_tiny_coefficients(self):
        x, _ = self.rows(105, m=7)
        assert (recursion(x, 0.0) == x).all()
        assert (recursion(x, np.zeros(7)) == x).all()
        want = x.copy()
        for t in range(1, x.shape[1]):
            want[:, t] += 1e-12 * want[:, t - 1]
        for coef in (1e-12, np.full(7, 1e-12)):
            got = recursion(x, coef)
            # Both round each step at most twice, on nonnegative terms, and
            # carry an earlier error scaled by 1e-12: within 2 eps.
            assert_allclose(got, want, rtol=2 * np.finfo(float).eps, atol=0)

    def test_rejects_a_strided_array(self):
        x = np.ones((4, 6))
        with pytest.raises(ValueError, match="C-contiguous"):
            _first_order_recursion(x[:, ::2], 0.5)


class TestSimulateResidualRoundtrip:
    def test_simulate_from_fit_reproduces_data(self):
        rng = np.random.default_rng(7)
        data, _ = simulate_garch_data(rng, 300)
        fit = fit_ccc_garch(data, seed=0)
        rebuilt = simulate(fit, fit.residuals, init_state=fit.init_values)
        assert_allclose(rebuilt, data, rtol=1e-8, atol=1e-10)


class TestFitCccGarch:
    def test_simulate_then_fit_recovery(self):
        # The fit beats the truth's likelihood and lies in the 99.9% Wald
        # ellipse around the truth, with the observed information taken at
        # the truth so that a stray fit cannot widen its own ellipse.
        limit = chi2.ppf(0.999, THETA.size)
        hits = 0
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            data, _ = simulate_garch_data(rng, 2000)
            fit = fit_ccc_garch(data, seed=seed)
            v_init = data.var(axis=0)
            assert fit.loglik >= garch_loglik_terms(THETA, data, v_init).sum()
            err = fit.theta - THETA
            wald = data.shape[0] * err @ _garch_curvature(THETA, data, v_init) @ err
            if wald <= limit:
                hits += 1
        assert hits >= 2

    def test_residual_moments(self):
        # Standardized residuals have unit variances; their correlation
        # estimates the model's constant correlation.
        rng = np.random.default_rng(8)
        data, _ = simulate_garch_data(rng, 2000)
        fit = fit_ccc_garch(data, seed=0)
        cov = fit.residuals.T @ fit.residuals / 2000
        assert abs(cov[0, 0] - 1.0) < 0.1 and abs(cov[1, 1] - 1.0) < 0.1
        assert abs(cov[0, 1] - fit.theta[6]) < 0.1

    def test_constant_data_rejected(self):
        with pytest.raises(FitError):
            fit_ccc_garch(np.ones((100, 2)))

    def test_requires_bivariate(self):
        with pytest.raises(DataError):
            fit_ccc_garch(np.random.default_rng(0).normal(size=(100, 3)))

    def test_score_norm_small_at_optimum(self):
        rng = np.random.default_rng(9)
        data, _ = simulate_garch_data(rng, 500)
        fit = fit_ccc_garch(data, seed=0)
        scores = _garch_scores(fit.theta, data, data.var(axis=0))
        total = scores.sum(axis=0)
        assert np.linalg.norm(total) <= 1e-4 * np.sqrt(500)

    def test_influence_mean_small(self):
        rng = np.random.default_rng(10)
        data, _ = simulate_garch_data(rng, 1000)
        fit = fit_ccc_garch(data, seed=0)
        mean = fit.influence.mean(axis=0)
        sd = fit.influence.std(axis=0)
        assert (np.abs(mean) <= 5.0 * sd / np.sqrt(1000)).all()

    def test_parameter_constraints_hold(self):
        rng = np.random.default_rng(11)
        data, _ = simulate_garch_data(rng, 400)
        fit = fit_ccc_garch(data, seed=0)
        t = fit.theta
        assert t[0] > 0 and t[3] > 0
        assert t[1] >= 0 and t[2] >= 0 and t[4] >= 0 and t[5] >= 0
        assert t[1] + t[2] < 1 and t[4] + t[5] < 1
        assert abs(t[6]) < 1
        assert (_garch_variances(t, data**2, data.var(axis=0)) > 0).all()

    def test_residuals_op_matches_fit(self):
        rng = np.random.default_rng(12)
        data, _ = simulate_garch_data(rng, 300)
        fit = fit_ccc_garch(data, seed=0)
        assert_allclose(residuals(fit, data), fit.residuals, atol=1e-12)


class TestUnitFreeGarchFit:
    """fit_ccc_garch(c y) against fit_ccc_garch(y): the QMLE is scale-equivariant."""

    # Residuals are standardized, so they are their own term scale.
    RTOL = 1e-12
    # The fitted parameters pass through the Newton iterations, whose
    # rounding the rescaling does not reproduce exactly.
    THETA_RTOL = 1e-9

    @pytest.mark.parametrize("cols", [(0, 1), (0,), (1,)], ids=["both", "first", "second"])
    @pytest.mark.parametrize("c", [1e-12, 1e-8, 1e-4, 1e4, 1e8])
    def test_rescaled_columns_fit_the_same_model(self, c, cols):
        data, _ = simulate_garch_data(np.random.default_rng(21), 200)
        ref = fit_ccc_garch(data, seed=0)
        scale = np.ones(2)
        scale[list(cols)] = c
        got = fit_ccc_garch(data * scale, seed=0)
        gap = np.abs(got.residuals - ref.residuals).max()
        assert gap <= self.RTOL * np.abs(ref.residuals).max()
        # omega scales by c^2; alpha, beta and rho do not change.
        theta = got.theta.copy()
        theta[[0, 3]] /= scale**2
        assert_allclose(theta, ref.theta, rtol=self.THETA_RTOL)

    @pytest.mark.parametrize("value", [0.0, 3.7, 1e-9])
    def test_constant_column_rejected(self, value):
        data, _ = simulate_garch_data(np.random.default_rng(22), 200)
        data[:, 1] = value
        with pytest.raises(FitError):
            fit_ccc_garch(data)


def central_difference_scores(theta, data, v_init):
    """Oracle: per-observation scores by central differences of the loglik."""
    out = np.empty((data.shape[0], 7))
    for j in range(7):
        h = 1e-6 * max(1.0, abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        out[:, j] = (garch_loglik_terms(up, data, v_init) - garch_loglik_terms(dn, data, v_init)) / (2 * h)
    return out


class TestExactScores:
    def test_scores_match_central_differences(self):
        data, _ = simulate_garch_data(np.random.default_rng(17), 500)
        v_init = data.var(axis=0)
        fitted = fit_ccc_garch(data, seed=0).theta
        for theta in (THETA, fitted):
            exact = _garch_scores(theta, data, v_init)
            oracle = central_difference_scores(theta, data, v_init)
            rel = np.abs(exact - oracle).max(axis=0) / np.abs(oracle).max(axis=0)
            assert (rel <= 1e-7).all(), rel


def central_difference_jacobian(grad, point):
    """Oracle: the Jacobian of an exact gradient by central differences;
    applied to the total score it is the Hessian the deleted difference
    loops computed."""
    out = np.empty((7, 7))
    for j in range(7):
        h = 1e-5 * max(1.0, abs(point[j]))
        up, dn = point.copy(), point.copy()
        up[j] += h
        dn[j] -= h
        out[:, j] = (grad(up) - grad(dn)) / (2 * h)
    return out


def column_relative_error(exact, oracle):
    return np.abs(exact - oracle).max(axis=0) / np.abs(oracle).max(axis=0)


class TestExactHessian:
    # Central differences with h = 1e-5 carry errors near 1e-9 relative;
    # 1e-7 per column leaves room for that and nothing for a wrong term.
    TOL = 1e-7

    @pytest.fixture(scope="class")
    def sample(self):
        data, _ = simulate_garch_data(np.random.default_rng(17), 500)
        return data, data.var(axis=0), fit_ccc_garch(data, seed=0)

    def test_theta_hessian_matches_differenced_scores(self, sample):
        data, v_init, fit = sample
        for theta in (THETA, fit.theta):
            terms, scores, hess = _garch_terms(theta, data, v_init, hess=True)
            assert_allclose(terms, garch_loglik_terms(theta, data, v_init), rtol=0)
            assert_allclose(scores, _garch_scores(theta, data, v_init), rtol=0)
            assert_allclose(hess, hess.T, rtol=1e-12)
            oracle = central_difference_jacobian(lambda t: _garch_scores(t, data, v_init).sum(axis=0), theta)
            rel = column_relative_error(hess, oracle)
            assert (rel <= self.TOL).all(), rel

    def test_xspace_hessian_matches_differenced_gradient(self, sample):
        data, v_init, fit = sample
        for x in (_garch_pack(THETA), fit.x_hat):
            _, scores, hess = _garch_terms(_garch_unpack(x), data, v_init, hess=True)
            grad, hx = _garch_xspace_derivs(x, scores.sum(axis=0), hess)
            assert_allclose(grad, _garch_xspace_scores_batch(x, data[None], v_init[None])[0], rtol=1e-12)
            oracle = central_difference_jacobian(
                lambda p: _garch_xspace_scores_batch(p, data[None], v_init[None])[0], x
            )
            rel = column_relative_error(hx, oracle)
            assert (rel <= self.TOL).all(), rel

    def test_information_is_minus_average_hessian(self, sample):
        # Away from saturation no eigenvalue is floored, so both observed
        # informations are exactly minus the averaged exact Hessians.
        data, v_init, fit = sample
        n = data.shape[0]
        hess = _garch_terms(fit.theta, data, v_init, hess=True)[2]
        assert_allclose(_garch_curvature(fit.theta, data, v_init), -hess / n, rtol=1e-10, atol=1e-12)
        _, scores, hess = _garch_terms(_garch_unpack(fit.x_hat), data, v_init, hess=True)
        hx = _garch_xspace_derivs(fit.x_hat, scores.sum(axis=0), hess)[1]
        xinfo = _floored_information(hx, n)
        assert_allclose(xinfo, -hx / n, rtol=1e-10, atol=1e-12)
        assert (fit.xinfo_inv == np.linalg.inv(xinfo)).all()

    def test_fit_evaluations_match_their_helpers(self, sample):
        # The fit takes its log-likelihood, scores and curvature from one
        # exact-Hessian pass; each equals the standalone helper exactly.
        data, v_init, fit = sample
        assert fit.loglik == garch_loglik_terms(fit.theta, data, v_init).sum()
        info_inv = np.linalg.inv(_garch_curvature(fit.theta, data, v_init))
        assert (fit.info_inv == info_inv).all()
        assert (fit.influence == _garch_scores(fit.theta, data, v_init) @ info_inv).all()
        eta, valid = _garch_residuals_batch(fit.theta, data, v_init)
        assert valid
        assert (fit.residuals == eta).all()

    def test_batched_hessian_matches_single(self):
        data = np.stack([simulate_garch_data(np.random.default_rng(20 + i), 150)[0] for i in range(3)])
        v_init = data.var(axis=1)
        hess = _garch_terms(THETA, data, v_init, hess=True)[2]
        assert hess.shape == (3, 7, 7)
        for b in range(3):
            assert_allclose(hess[b], _garch_terms(THETA, data[b], v_init[b], hess=True)[2], rtol=1e-12)

    def test_nonpositive_curvature_is_singular(self):
        # A log-likelihood that is convex at the point has no information.
        with pytest.raises(SingularityError):
            _floored_information(np.eye(7), 100)


def bfgs_loglik(data, seed):
    """Oracle: the QMLE by scipy's BFGS on the same objective, from the same
    starts and with the same acceptance rule as the fit."""
    n = data.shape[0]
    v_init = data.var(axis=0)

    def negll(x):
        terms, scores = _garch_terms(_garch_unpack(x), data, v_init, grad=True)
        return -float(terms.mean()), -(scores.sum(axis=0) @ _garch_unpack_jacobian(x)) / n

    best = None
    for x0 in _garch_starts(data, seed, 3):
        res = minimize(negll, x0, method="BFGS", jac=True, options={"gtol": 1e-7, "maxiter": 500})
        if np.isfinite(res.fun) and np.max(np.abs(res.jac)) < 1e-5 and (best is None or res.fun < best.fun):
            best = res
    return garch_loglik_terms(_garch_unpack(best.x), data, v_init).sum()


class TestDampedNewton:
    def test_loglik_at_least_bfgs(self):
        # The data and fit seeds of test_simulate_then_fit_recovery.
        for seed in range(3):
            data, _ = simulate_garch_data(np.random.default_rng(100 + seed), 2000)
            fit = fit_ccc_garch(data, seed=seed)
            assert fit.loglik >= bfgs_loglik(data, seed) - 1e-9

    def test_rosenbrock(self):
        # The Hessian is indefinite at the start: the eigenvalue-modified
        # step must still descend, and Newton converges to the minimum at ones.
        start = np.array([0.0, 1.0, 1.0])
        assert np.linalg.eigvalsh(rosen_hess(start)).min() < 0

        def objective(z):
            return rosen(z), rosen_der(z), rosen_hess(z)

        f, g, x = _garch_newton(objective, rosen, start, 1e-10, 500)
        assert np.max(np.abs(g)) <= 1e-10
        assert_allclose(x, 1.0, atol=1e-8)

    def test_failed_trials_halve_the_step(self):
        # f(z) = z - log z has its minimum at 1.  From z = 3 the full Newton
        # step lands on -3, where the objective raises FitError; the half
        # step lands on 0, where it is made non-finite; the quarter step is
        # taken.
        trials = []

        def objective(z):
            trials.append(float(z[0]))
            if z[0] <= -1.0:
                raise FitError("outside the domain")
            if z[0] <= 0.5:
                return np.nan, np.array([np.nan]), np.array([[np.nan]])
            return z[0] - np.log(z[0]), np.array([1.0 - 1.0 / z[0]]), np.array([[z[0] ** -2]])

        f, g, x = _garch_newton(objective, lambda z: objective(z)[0], np.array([3.0]), 1e-12, 100)
        assert_allclose(trials[:4], [3.0, -3.0, 0.0, 1.5], atol=1e-12)
        assert abs(x[0] - 1.0) <= 1e-12 and f == 1.0

    def test_derivatives_only_at_accepted_trials(self):
        # A rejected trial costs one value call and no derivatives, and the
        # descent takes the steps it takes with the objective's own values.
        full, values = [], []

        def objective(z):
            full.append(float(z[0]))
            return z[0] - np.log(z[0]), np.array([1.0 - 1.0 / z[0]]), np.array([[z[0] ** -2]])

        def value(z):
            values.append(float(z[0]))
            if z[0] <= 0.0:
                raise FitError("outside the domain")
            return z[0] - np.log(z[0])

        got = _garch_newton(objective, value, np.array([3.0]), 1e-12, 100)
        assert_allclose(values[:3], [-3.0, 0.0, 1.5], atol=1e-12)
        assert_allclose(full[:2], [3.0, 1.5], atol=1e-12)
        # One full call at the start and one per accepted trial: every trial
        # inside the domain passes the Armijo test here.
        assert len(full) == 1 + sum(v > 0.0 for v in values)
        full.clear()
        want = _garch_newton(objective, lambda z: objective(z)[0], np.array([3.0]), 1e-12, 100)
        assert [got[0], got[1].tolist(), got[2].tolist()] == [want[0], want[1].tolist(), want[2].tolist()]

    def test_fit_same_bits_without_value_first_trials(self, monkeypatch):
        # fit_ccc_garch's value function has the bits of its full objective,
        # so taking each trial's value from the full objective instead
        # changes no fit.
        data = [simulate_garch_data(np.random.default_rng(30 + i), 200)[0] for i in range(3)]
        fits = [fit_ccc_garch(y, seed=i) for i, y in enumerate(data)]
        real = models_module._garch_newton
        monkeypatch.setattr(
            models_module,
            "_garch_newton",
            lambda obj, value, x, gtol, maxiter: real(obj, lambda z: obj(z)[0], x, gtol, maxiter),
        )
        for i, (y, fit) in enumerate(zip(data, fits)):
            plain = fit_ccc_garch(y, seed=i)
            assert plain.x_hat.tolist() == fit.x_hat.tolist()
            assert plain.info_inv.tolist() == fit.info_inv.tolist()
            assert plain.loglik == fit.loglik


class TestBatchHelpers:
    def test_total_ll_matches_terms(self):
        # The batched helper on a (3, n, 2) stack agrees with the per-path
        # log-likelihood terms and scores.
        data = np.stack([simulate_garch_data(np.random.default_rng(20 + i), 150)[0] for i in range(3)])
        v_init = data.var(axis=1)
        terms, scores = _garch_terms(THETA, data, v_init, grad=True)
        assert_allclose(_garch_terms(THETA, data, v_init), terms, rtol=0)
        for b in range(3):
            assert_allclose(terms[b], garch_loglik_terms(THETA, data[b], v_init[b]), rtol=1e-10)
            assert_allclose(scores[b], _garch_scores(THETA, data[b], v_init[b]), rtol=1e-10, atol=1e-12)

    def test_pack_unpack_roundtrip(self):
        x = _garch_pack(THETA)
        assert_allclose(_garch_unpack(x), THETA, rtol=1e-10)
        batch = _garch_unpack(np.vstack([x, x + 0.1]))
        assert_allclose(batch[0], THETA, rtol=1e-10)

    @pytest.mark.parametrize("shape", [(1, 7), (64, 7), (3, 5, 7)])
    def test_stacked_unpack_matches_rows(self, shape):
        x = np.random.default_rng(18).normal(scale=10.0, size=shape)
        stacked = _garch_unpack(x)
        assert stacked.shape == shape
        for idx in np.ndindex(shape[:-1]):
            assert (stacked[idx] == _garch_unpack(x[idx])).all()

    def test_xspace_scores_match_chain_rule(self):
        # s_x = J' s_theta with J the Jacobian of the unpacking transform.
        rng = np.random.default_rng(14)
        data = np.stack([simulate_garch_data(np.random.default_rng(30 + i), 150)[0] for i in range(2)])
        v_init = data.var(axis=1)
        x = _garch_pack(THETA)
        jac = np.empty((7, 7))
        for j in range(7):
            h = 1e-6 * max(1.0, abs(x[j]))
            up, dn = x.copy(), x.copy()
            up[j] += h
            dn[j] -= h
            jac[:, j] = (_garch_unpack(up) - _garch_unpack(dn)) / (2 * h)
        totals = _garch_xspace_scores_batch(x, data, v_init)
        for b in range(2):
            s_theta = _garch_scores(THETA, data[b], v_init[b]).sum(axis=0)
            assert_allclose(totals[b], jac.T @ s_theta, rtol=1e-4, atol=1e-4)

    def test_batch_residuals_match_single(self):
        rng = np.random.default_rng(15)
        data = np.stack([simulate_garch_data(np.random.default_rng(40 + i), 120)[0] for i in range(3)])
        v_init = data.var(axis=1)
        theta_b = np.tile(THETA, (3, 1))
        eta, valid = _garch_residuals_batch(theta_b, data, v_init)
        assert valid.all()
        for b in range(3):
            solo, ok = _garch_residuals_batch(THETA, data[b], v_init[b])
            assert ok
            assert (eta[b] == solo).all()

    def test_batch_residuals_flag_invalid(self):
        data = np.ones((1, 100, 2)) * 0.5
        bad = np.array([[0.2, 0.1, 0.5, 0.2, 0.1, 0.5, 1.5]])  # |rho| > 1
        _, valid = _garch_residuals_batch(bad, data, data.var(axis=1) + 1.0)
        assert not valid[0]


class TestSimulateDispatch:
    def test_spec_dispatch(self):
        rng = np.random.default_rng(16)
        e = rng.normal(size=(50, 2))
        spec = ModelSpec("ccc_garch")
        out = simulate((spec, THETA), e)
        assert out.shape == (50, 2)
