import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tsindep import (
    DataError,
    PairedResiduals,
    SingularityError,
    bandwidth_rule,
    cross_cov,
    cross_cov_set,
    daniell,
    g_test,
    l_test,
    single_lag_stat,
    t_test,
    w_test,
)
from bounds import (
    cond_gap_bound,
    correlation_with_cond,
    engine_gap_bound,
    form_bound,
    statistic_gap_bound,
)
from tsindep.crosscorr import (
    _correlation_quadratics,
    _daniell_finite_sample_constants,
    _inv_sym,
    _sym_cond,
)
from tsindep.models import _COND_LIMIT


class TestCrossCov:
    def test_lag_zero_self_is_covariance(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(500, 2))
        c = cross_cov(a, a, 0)
        centered = a - a.mean(axis=0)
        assert_allclose(c, centered.T @ centered / 500, rtol=1e-12)

    def test_reflection_identity_exact(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(60, 2))
        b = rng.normal(size=(60, 3))
        for m in range(0, 5):
            assert np.array_equal(cross_cov(a, b, -m), cross_cov(b, a, m).T)

    def test_independent_series_small_cross_cov(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5000, 1))
        b = rng.normal(size=(5000, 1))
        assert abs(cross_cov(a, b, 1)[0, 0]) <= 0.05

    def test_lag_bounds(self):
        with pytest.raises(DataError):
            cross_cov(np.zeros((5, 1)), np.zeros((5, 1)), 5)

    def test_manual_lag_value(self):
        a = np.arange(6.0)[:, None]
        b = np.arange(6.0)[:, None] ** 2
        m = 2
        ac = a - a.mean()
        bc = b - b.mean()
        expected = (ac[:4] * bc[2:]).sum() / 6.0
        assert_allclose(cross_cov(a, b, m)[0, 0], expected, rtol=1e-12)

    def test_cross_cov_set(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(50, 2))
        b = rng.normal(size=(50, 2))
        cs = cross_cov_set(a, b, 3)
        assert cs.n == 50
        for m in range(-3, 4):
            assert_allclose(cs[m], cross_cov(a, b, m), rtol=1e-14)


def orthogonal_pair(n=64):
    """Residual pair with exactly zero cross-covariance at every lag."""
    t = np.arange(n)
    e1 = np.column_stack([np.cos(2 * np.pi * t * 3 / n), np.sin(2 * np.pi * t * 3 / n)])
    e2 = np.column_stack([np.cos(2 * np.pi * t * 11 / n), np.sin(2 * np.pi * t * 11 / n)])
    return PairedResiduals(e1, e2)


class TestGTest:
    def test_orthogonal_case_statistic_zero(self):
        # Distinct Fourier frequencies over full periods have exactly zero
        # lag-0 cross-covariance.
        res = orthogonal_pair()
        out = g_test(res, 0, variant=1)
        assert abs(out.statistic) < 1e-18 * res.n
        assert out.p_value > 0.999999

    def test_variants_match_at_lag_zero(self):
        rng = np.random.default_rng(4)
        res = PairedResiduals(rng.normal(size=(100, 2)), rng.normal(size=(100, 2)))
        v1 = g_test(res, 0, variant=1)
        v2 = g_test(res, 0, variant=2)
        assert_allclose(v1.statistic, v2.statistic, rtol=1e-14)

    def test_variant_two_dominates(self):
        rng = np.random.default_rng(5)
        res = PairedResiduals(rng.normal(size=(80, 2)), rng.normal(size=(80, 2)))
        assert g_test(res, 3, variant=2).statistic >= g_test(res, 3, variant=1).statistic

    def test_df(self):
        rng = np.random.default_rng(6)
        res = PairedResiduals(rng.normal(size=(100, 2)), rng.normal(size=(100, 2)))
        assert g_test(res, 3).df == 28

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            res = PairedResiduals(rng.normal(size=(60, 2)), rng.normal(size=(60, 2)))
            assert g_test(res, 2).statistic >= 0.0


class TestDaniellHelpers:
    def test_bandwidth_rules(self):
        assert bandwidth_rule("h1", 100) == 4
        assert bandwidth_rule("h2", 100) == 7
        assert bandwidth_rule("h3", 200) == 14
        with pytest.raises(ValueError):
            bandwidth_rule("h4", 100)
        with pytest.raises(DataError):
            bandwidth_rule("h1", 4)

    def test_finite_sample_constants_definition(self):
        n, h = 100, 5.0
        a1n, b1n = _daniell_finite_sample_constants(n, h)
        a_direct = sum(
            (1 - abs(m) / n) * daniell(m / h) ** 2 for m in range(1 - n, n)
        )
        b_direct = sum(
            (1 - abs(m) / n) * (1 - (abs(m) + 1) / n) * daniell(m / h) ** 4
            for m in range(1 - n, n)
        )
        assert abs(a1n - a_direct) < 1e-12
        assert abs(b1n - b_direct) < 1e-12


class TestWTest:
    def test_all_lag_quadratics_match_per_lag(self):
        # W's call: the engine over every lag, M = n - 1.
        rng = np.random.default_rng(8)
        e1 = rng.normal(size=(40, 2))
        e2 = rng.normal(size=(40, 2))
        quads = _correlation_quadratics(e1, e2, 39)
        lags = list(range(1 - 40, 40))
        direct = correlation_quadratics_loop(e1, e2, lags)
        for got, want, lag in zip(quads, direct, lags):
            assert abs(got - want) <= engine_gap_bound(e1, e2, lag)

    def test_variants_converge_large_n(self):
        rng = np.random.default_rng(9)
        y1 = rng.normal(size=(2000, 2))
        y2 = rng.normal(size=(2000, 2))
        w1 = w_test(y1, y2, h="h1", variant=1)
        w2 = w_test(y1, y2, h="h1", variant=2)
        assert abs(w1.statistic - w2.statistic) <= 0.5

    def test_null_statistic_moderate(self):
        rng = np.random.default_rng(10)
        y1 = rng.normal(size=(200, 2))
        y2 = rng.normal(size=(200, 2))
        out = w_test(y1, y2)
        assert abs(out.statistic) < 4.0
        assert out.reference == "normal"

    def test_bandwidth_validation(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=(100, 2))
        with pytest.raises(DataError):
            w_test(y, y.copy(), h=0.5)


def scalar_cross_corr_loop(q1, q2, m):
    """Oracle: one lag's squared-norm correlation, recomputing both variances
    and the constant-series check at every lag."""
    c = cross_cov(q1[:, None], q2[:, None], m)[0, 0]
    v1 = cross_cov(q1[:, None], q1[:, None], 0)[0, 0]
    v2 = cross_cov(q2[:, None], q2[:, None], 0)[0, 0]
    for q, v in ((q1, v1), (q2, v2)):
        if v <= 1e-18 * max(1.0, float(np.mean(q)) ** 2):
            raise DataError("squared-norm series is constant; L statistic undefined")
    return float(c / np.sqrt(v1 * v2))


def t_lag_loop(res, lag):
    """Oracle: one lag's T term with its own inverse lag-zero covariances."""
    rows1, cols1 = np.tril_indices(res.eta1.shape[1])
    rows2, cols2 = np.tril_indices(res.eta2.shape[1])
    phi1 = res.eta1[:, rows1] * res.eta1[:, cols1]
    phi2 = res.eta2[:, rows2] * res.eta2[:, cols2]
    c11_inv = np.linalg.inv(cross_cov(phi1, phi1, 0))
    c22_inv = np.linalg.inv(cross_cov(phi2, phi2, 0))
    c12 = cross_cov(phi1, phi2, lag)
    return float(res.n * float(np.trace(c12.T @ c11_inv @ c12 @ c22_inv)))


def correlation_quadratics_loop(e1, e2, lags):
    """Oracle: the G quadratic forms with the lag-zero covariances built twice."""
    n = e1.shape[0]
    s1 = 1.0 / np.sqrt(np.diag(cross_cov(e1, e1, 0)))
    s2 = 1.0 / np.sqrt(np.diag(cross_cov(e2, e2, 0)))
    r11_inv = np.linalg.inv(s1[:, None] * cross_cov(e1, e1, 0) * s1[None, :])
    r22_inv = np.linalg.inv(s2[:, None] * cross_cov(e2, e2, 0) * s2[None, :])
    out = np.empty(len(lags))
    for i, m in enumerate(lags):
        r12 = s1[:, None] * cross_cov(e1, e2, m) * s2[None, :]
        out[i] = n * float(np.einsum("ab,ac,cd,bd->", r12, r11_inv, r12, r22_inv))
    return out


def transforms(res, family):
    """Oracle: both series of L (squared norms) or T (vech of outer
    products), as columns."""
    if family == "L":
        return tuple(np.einsum("ti,ti->t", e, e)[:, None] for e in (res.eta1, res.eta2))
    out = []
    for e in (res.eta1, res.eta2):
        rows, cols = np.tril_indices(e.shape[1])
        out.append(e[:, rows] * e[:, cols])
    return tuple(out)


class TestPerLagOracles:
    # The engine sums each lag's products in its own order, so every form
    # is held to engine_gap_bound's rounding bound against the per-lag loop
    # on cross_cov.  L and T are G's form on the transforms, so G's loop is
    # their oracle too.
    @pytest.fixture(scope="class")
    def res(self):
        rng = np.random.default_rng(22)
        return PairedResiduals(rng.normal(size=(90, 2)), rng.normal(size=(90, 3)))

    @pytest.mark.parametrize("variant", [1, 2])
    def test_l_statistic(self, res, variant):
        q1, q2 = transforms(res, "L")
        for max_lag in (0, 3, 20, 88):
            lags = list(range(-max_lag, max_lag + 1))
            z = correlation_quadratics_loop(q1, q2, lags)
            gaps = [engine_gap_bound(q1, q2, m) for m in lags]
            weights = None
            if variant == 2:
                weights = np.array([res.n / (res.n - abs(m)) for m in lags])
                z = z * weights
            got = l_test(res, max_lag, variant).statistic
            assert abs(got - float(z.sum())) <= statistic_gap_bound(z, gaps, weights)

    def test_single_lag_values(self, res):
        for family in ("L", "T"):
            x1, x2 = transforms(res, family)
            for m in range(89):
                for direction, lag in ((1, m), (2, -m)):
                    want = correlation_quadratics_loop(x1, x2, [lag])[0]
                    got = single_lag_stat(res, m, family, direction)[0]
                    assert abs(got - want) <= engine_gap_bound(x1, x2, lag)

    def test_g_quadratics(self, res):
        lags = list(range(-88, 89))
        quads = _correlation_quadratics(res.eta1, res.eta2, 88)
        loop = correlation_quadratics_loop(res.eta1, res.eta2, lags)
        for got, want, lag in zip(quads, loop, lags):
            assert abs(got - want) <= engine_gap_bound(res.eta1, res.eta2, lag)

    def test_lag_values_do_not_depend_on_max_lag(self, res):
        # Each lag's sum runs over the same n-row window of the padded
        # series whatever M is, so its value keeps its bits.
        n = res.n
        for x1, x2 in [(res.eta1, res.eta2), transforms(res, "L"), transforms(res, "T")]:
            full = _correlation_quadratics(x1, x2, n - 1)
            for max_lag in (0, 1, 3, n - 2, n - 1):
                z = _correlation_quadratics(x1, x2, max_lag)
                assert np.array_equal(z, full[n - 1 - max_lag : n + max_lag])

    def test_bound_rejects_a_moved_correlation(self, res):
        # The loop with one lag's R12 moved by 1e-10 of itself falls outside
        # engine_gap_bound at that lag: the bound is far below such a change.
        x1, x2 = res.eta1, res.eta2
        lag = 2
        got = _correlation_quadratics(x1, x2, lag)[-1]
        s1 = 1.0 / np.sqrt(np.diag(cross_cov(x1, x1, 0)))
        s2 = 1.0 / np.sqrt(np.diag(cross_cov(x2, x2, 0)))
        r11_inv = np.linalg.inv(s1[:, None] * cross_cov(x1, x1, 0) * s1[None, :])
        r22_inv = np.linalg.inv(s2[:, None] * cross_cov(x2, x2, 0) * s2[None, :])
        r12 = s1[:, None] * cross_cov(x1, x2, lag) * s2[None, :]
        bound = engine_gap_bound(x1, x2, lag)
        for moved in (r12, r12 * (1 + 1e-10)):
            want = res.n * np.einsum("ab,ac,cd,bd->", moved, r11_inv, moved, r22_inv)
            assert (abs(got - want) <= bound) == (moved is r12)

    def test_rho_and_trace_forms(self, res):
        # The correlation form agrees with L's n rho^2 and T's trace form
        # within form_bound's rounding bound; the largest gaps seen are
        # 0.012 (L) and 0.0005 (T) of it, and 1.5e-13 of the statistic.
        q1, q2 = transforms(res, "L")
        phi1, phi2 = transforms(res, "T")
        for m in range(89):
            for direction, lag in ((1, m), (2, -m)):
                rho = scalar_cross_corr_loop(q1[:, 0], q2[:, 0], lag)
                got = single_lag_stat(res, m, "L", direction)[0]
                assert abs(got - res.n * rho * rho) <= form_bound(q1, q2, lag)
                got = single_lag_stat(res, m, "T", direction)[0]
                assert abs(got - t_lag_loop(res, lag)) <= form_bound(phi1, phi2, lag)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(12, 150),
    d1=st.sampled_from([1, 2, 3, 6]),
    d2=st.sampled_from([1, 2, 3, 6]),
    lag_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_engine_matches_cross_cov_oracle(n, d1, d2, lag_share, seed):
    # Every lag of one engine call against the per-lag loop on cross_cov,
    # with columns in units from 0.1 to 10.
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=(n, d1)) * rng.uniform(0.1, 10.0, d1)
    x2 = rng.normal(size=(n, d2)) * rng.uniform(0.1, 10.0, d2)
    max_lag = int(lag_share * (n - 1))
    lags = list(range(-max_lag, max_lag + 1))
    quads = _correlation_quadratics(x1, x2, max_lag)
    loop = correlation_quadratics_loop(x1, x2, lags)
    for got, want, lag in zip(quads, loop, lags):
        assert abs(got - want) <= engine_gap_bound(x1, x2, lag)


class TestPaddingEdges:
    def test_three_rows(self):
        # M = 0 pads nothing; M = n - 1 leaves one product in the end lags.
        rng = np.random.default_rng(25)
        for d in (1, 2):
            x1, x2 = rng.normal(size=(3, d)), rng.normal(size=(3, d))
            full = _correlation_quadratics(x1, x2, 2)
            assert full.shape == (5,) and np.isfinite(full).all()
            assert np.array_equal(_correlation_quadratics(x1, x2, 0), full[2:3])
        # Three centred rows span two dimensions: the lag-zero correlation
        # of three columns is singular.
        with pytest.raises(SingularityError, match="lag-zero correlation of series 1"):
            _correlation_quadratics(rng.normal(size=(3, 3)), rng.normal(size=(3, 1)), 0)

    @pytest.mark.parametrize("test", [g_test, l_test, t_test])
    def test_largest_feasible_lag(self, test):
        rng = np.random.default_rng(26)
        res = PairedResiduals(rng.normal(size=(20, 2)), rng.normal(size=(20, 2)))
        for variant in (1, 2):
            out = test(res, res.n - 2, variant)
            assert np.isfinite(out.statistic) and 0.0 <= out.p_value <= 1.0
        with pytest.raises(DataError, match="max_lag 19 infeasible for n=20"):
            test(res, res.n - 1)


class TestLTest:
    def test_variants_match_at_lag_zero(self):
        rng = np.random.default_rng(12)
        res = PairedResiduals(rng.normal(size=(100, 2)), rng.normal(size=(100, 2)))
        assert_allclose(
            l_test(res, 0, 1).statistic, l_test(res, 0, 2).statistic, rtol=1e-14
        )

    def test_constant_norms_rejected(self):
        t = np.linspace(0.0, 2 * np.pi, 50, endpoint=False)
        e1 = np.column_stack([np.cos(t), np.sin(t)])  # unit norm every row
        rng = np.random.default_rng(13)
        res = PairedResiduals(e1, rng.normal(size=(50, 2)))
        with pytest.raises(DataError):
            l_test(res, 1)

    def test_df(self):
        rng = np.random.default_rng(14)
        res = PairedResiduals(rng.normal(size=(100, 2)), rng.normal(size=(100, 2)))
        assert l_test(res, 3).df == 7

    def test_single_lag_sums_to_joint(self):
        rng = np.random.default_rng(15)
        res = PairedResiduals(rng.normal(size=(80, 2)), rng.normal(size=(80, 2)))
        total = single_lag_stat(res, 0, "L")[0]
        for m in range(1, 4):
            total += single_lag_stat(res, m, "L", direction=1)[0]
            total += single_lag_stat(res, m, "L", direction=2)[0]
        assert_allclose(total, l_test(res, 3, 1).statistic, rtol=1e-10)


class TestTTest:
    def test_df_for_bivariate(self):
        rng = np.random.default_rng(16)
        res = PairedResiduals(rng.normal(size=(100, 2)), rng.normal(size=(100, 2)))
        assert t_test(res, 3).df == 63  # (2M+1) * 3 * 3

    def test_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            res = PairedResiduals(rng.normal(size=(70, 2)), rng.normal(size=(70, 2)))
            assert t_test(res, 2).statistic >= 0.0

    def test_variant_two_dominates(self):
        rng = np.random.default_rng(18)
        res = PairedResiduals(rng.normal(size=(80, 2)), rng.normal(size=(80, 2)))
        assert t_test(res, 3, 2).statistic >= t_test(res, 3, 1).statistic

    def test_single_lag_sums_to_joint(self):
        rng = np.random.default_rng(19)
        res = PairedResiduals(rng.normal(size=(80, 2)), rng.normal(size=(80, 2)))
        total = single_lag_stat(res, 0, "T")[0]
        for m in range(1, 3):
            total += single_lag_stat(res, m, "T", direction=1)[0]
            total += single_lag_stat(res, m, "T", direction=2)[0]
        assert_allclose(total, t_test(res, 2, 1).statistic, rtol=1e-10)

    def test_single_lag_df(self):
        rng = np.random.default_rng(20)
        res = PairedResiduals(rng.normal(size=(60, 2)), rng.normal(size=(60, 2)))
        assert single_lag_stat(res, 1, "L")[1] == 1
        assert single_lag_stat(res, 1, "T")[1] == 9

    def test_constant_vech_component_names_the_transform(self):
        # A column of signs has a constant square: G is defined, T is not.
        rng = np.random.default_rng(24)
        e1 = np.column_stack([rng.choice([-1.0, 1.0], 200), rng.normal(size=200)])
        res = PairedResiduals(e1, rng.normal(size=(200, 2)))
        assert np.isfinite(g_test(res, 2).p_value)
        for run in (lambda: t_test(res, 2), lambda: single_lag_stat(res, 1, "T")):
            with pytest.raises(SingularityError, match="component of vech transform 1"):
                run()

    def test_lag_zero_directions_equal(self):
        rng = np.random.default_rng(21)
        res = PairedResiduals(rng.normal(size=(60, 2)), rng.normal(size=(60, 2)))
        for family in ("L", "T"):
            one = single_lag_stat(res, 0, family, direction=1)[0]
            two = single_lag_stat(res, 0, family, direction=2)[0]
            assert one == two


class TestColumnUnits:
    @pytest.mark.parametrize("power", [10, 13])
    def test_g_and_t_keep_their_bits(self, power):
        # Scaling a column by a power of two is exact, and G and T read
        # column-equilibrated correlations, so neither statistic moves.
        rng = np.random.default_rng(23)
        e1, e2 = rng.normal(size=(300, 2)), rng.normal(size=(300, 2))
        res = PairedResiduals(e1, e2)
        scaled = PairedResiduals(e1 * [1.0, 2.0**power], e2)
        for test in (g_test, t_test):
            for variant in (1, 2):
                assert test(scaled, 3, variant).statistic == test(res, 3, variant).statistic


class TestSymmetricCondition:
    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_matches_svd_condition(self, d):
        rng = np.random.default_rng(d)
        for kappa in np.geomspace(1.0, 1e14, 15):
            mat = correlation_with_cond(rng, d, kappa)
            want = np.linalg.cond(mat)
            assert abs(_sym_cond(mat) - want) <= cond_gap_bound(mat) * want

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_same_verdict_away_from_the_limit(self, d):
        rng = np.random.default_rng(10 + d)
        for kappa in (1e3, 1e9, 1e11, 3e13, 1e15):
            mat = correlation_with_cond(rng, d, kappa)
            svd_singular = np.linalg.cond(mat) > _COND_LIMIT
            assert abs(np.log10(np.linalg.cond(mat) / _COND_LIMIT)) > 0.5
            if svd_singular:
                with pytest.raises(SingularityError, match=r"\(cond=\d(\.\d+)?e\+1\d\)$"):
                    _inv_sym(mat, "test matrix")
            else:
                assert np.array_equal(_inv_sym(mat, "test matrix"), np.linalg.inv(mat))

    def test_nonpositive_eigenvalue_is_singular(self):
        # Two equal columns: the smallest eigenvalue is 0 or rounds below it.
        x = np.random.default_rng(4).normal(size=(50, 2))
        corr = np.corrcoef(np.column_stack([x, x[:, 0]]).T)
        assert np.linalg.eigvalsh(corr)[0] <= 1e-15
        with pytest.raises(SingularityError, match=r"numerically singular \(cond="):
            _inv_sym(corr, "test matrix")
        indefinite = np.array([[1.0, 1.5], [1.5, 1.0]])
        assert _sym_cond(indefinite) == np.inf
        with pytest.raises(SingularityError, match=r"\(cond=inf\)$"):
            _inv_sym(indefinite, "test matrix")


class TestNullUniformity:
    def test_pvalues_approximately_uniform(self):
        # Under independent residuals the G/L/T p-values should be close to
        # uniform; check the Kolmogorov-Smirnov distance over 500 draws.
        rng = np.random.default_rng(22)
        pvals = {"G": [], "L": [], "T": []}
        for _ in range(500):
            res = PairedResiduals(rng.normal(size=(2000, 2)), rng.normal(size=(2000, 2)))
            pvals["G"].append(g_test(res, 3).p_value)
            pvals["L"].append(l_test(res, 3).p_value)
            pvals["T"].append(t_test(res, 3).p_value)
        for name, values in pvals.items():
            sorted_p = np.sort(values)
            grid = np.arange(1, 501) / 500.0
            ks = np.max(np.abs(sorted_p - grid))
            assert ks <= 0.1, f"{name} p-values far from uniform (KS={ks:.3f})"
